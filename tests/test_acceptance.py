"""End-to-end acceptance checks.

Each test prints a single [PASS]/[FAIL] line with its measured runtime
(run pytest with -s to see them) and then asserts, so the suite doubles
as a human-readable report.
"""

import math
import time

import numpy as np

from coulomb1d import (Grid, exact_energy, half_line_spectrum, loudon_estimate,
                       ode_residual, refine, soft_core_ground_scan, solve,
                       tricomi_u, wavefunction, wkb_energy)
from coulomb1d.cli import build_parser
from test_specfun import _hyperu


def _report(num, label, ok, detail, elapsed, budget):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num}: {label} ({detail}; {elapsed:.2f}s)")
    assert ok, f"criterion {num}: {label}: {detail}"
    assert elapsed < budget, f"criterion {num} overran {budget}s: {elapsed:.2f}s"


def _figure_record(n):
    parser = build_parser()
    args = parser.parse_args(["wavefunction", "--n", str(n)])
    return args.handler(args)


def test_criterion_1_quantization_reproduces_balmer_energies():
    start = time.time()
    worst = 0.0
    for n in range(21):
        target = -2.0 / (n + 1) ** 2
        worst = max(worst, abs(wkb_energy(n) - target) / abs(target))
    _report(1, "quadrature+root WKB energies equal -2/(n+1)^2 for n=0..20",
            worst <= 1e-10, f"max rel err {worst:.2e}", time.time() - start, 1.0)


def test_criterion_2_ground_state_origin_value():
    start = time.time()
    v = wavefunction(0, 0.0)
    ok = abs(v - 0.56419) <= 5e-5 and abs(v - 1.0 / math.sqrt(math.pi)) <= 1e-12
    _report(2, "unnormalized psi_0(0) = 0.56419(5) = 1/sqrt(pi)",
            ok, f"got {v:.6f}", time.time() - start, 1.0)


def test_criterion_3_figure_data_properties():
    start = time.time()
    records = {n: _figure_record(n) for n in (0, 1, 2)}
    checks = []
    for n, want_parity in ((0, "even"), (1, "odd"), (2, "even")):
        psi = np.array(records[n].columns["psi"])
        scale = np.max(np.abs(psi))
        keep = np.abs(psi) > 1e-8 * scale
        s = np.sign(psi[keep])
        nodes = int(np.count_nonzero(s[1:] * s[:-1] < 0))
        checks.append(nodes == n)
        mirror = psi[::-1] if want_parity == "even" else -psi[::-1]
        checks.append(np.max(np.abs(psi - mirror)) <= 1e-8 * scale)
    psi0 = np.array(records[0].columns["psi"])
    mid = psi0.size // 2
    quotients = [(psi0[mid + k] - psi0[mid]) / (0.01 * k) for k in (1, 2, 4)]
    checks.append(psi0[mid] > 0)
    checks.append(quotients[0] > quotients[1] > quotients[2] > 0)
    x1 = np.array(records[1].columns["x"])
    psi1 = np.array(records[1].columns["psi"])
    m = x1 != 0.0
    ratio = psi1[m] / (x1[m] * np.exp(-np.abs(x1[m])))
    spread = (ratio.max() - ratio.min()) / abs(np.median(ratio))
    checks.append(spread <= 1e-8)
    _report(3, "exported n=0,1,2 data: nodes 0/1/2, parity, origin cusp, "
               "psi_1 proportional to x exp(-|x|)",
            all(checks), f"ratio spread {spread:.1e}", time.time() - start, 2.0)


def test_criterion_4_exact_states_satisfy_the_ode():
    start = time.time()
    xs = np.geomspace(0.05, 10.0, 10)
    xs = np.concatenate([-xs, xs])
    worst = 0.0
    for n in range(6):
        for x in xs:
            scale = max(1.0, abs(wavefunction(n, float(x))))
            worst = max(worst, ode_residual(n, float(x)) / scale)
    _report(4, "ODE residual of constructed states, n=0..5 at 20 points",
            worst <= 1e-6, f"max rel residual {worst:.2e}",
            time.time() - start, 5.0)


def test_criterion_5_half_line_oracle():
    start = time.time()
    energies = half_line_spectrum(Grid(half_width=60.0, points=12000), 3)
    targets = (-0.5, -0.125, -1.0 / 18.0)
    worst = max(abs(e - t) / abs(t) for e, t in zip(energies, targets))
    _report(5, "half-line levels 1-3 vs -1/2, -1/8, -1/18 at L=60 N=12000",
            worst <= 5e-3, f"max rel err {worst:.2e}", time.time() - start, 20.0)


def test_criterion_6_soft_core_divergence_and_estimate_band():
    start = time.time()
    rows = soft_core_ground_scan((1e-2, 1e-3, 1e-4), 30.0)
    e0 = [r.e0 for r in rows]
    ratios = [r.e0 / r.loudon for r in rows]
    monotone = e0[0] > e0[1] > e0[2]
    in_band = all(0.3 <= r <= 3.0 for r in ratios)
    detail = ("E0 " + "/".join(f"{e:.4f}" for e in e0)
              + ", ratios " + "/".join(f"{r:.4f}" for r in ratios)
              + " vs band [0.3, 3]")
    _report(6, "soft-core ground energy diverges and tracks -2 ln^2(1/a)",
            monotone and in_band, detail, time.time() - start, 60.0)


def test_criterion_7_care_interleaving():
    from coulomb1d import care_interleaving
    start = time.time()
    res = care_interleaving(1e-3, 5e-3, Grid(half_width=54.0, points=540000), 6)
    parities = [lv.parity for lv in res.levels]
    alternates = all(p != q for p, q in zip(parities, parities[1:]))
    ok = res.interleaved and alternates and None not in parities
    _report(7, "lowest 6 levels at a=1e-3 b=5e-3 strictly alternate parity",
            ok, "parities " + "/".join(str(p) for p in parities),
            time.time() - start, 30.0)


def test_criterion_8_special_function_paths_agree():
    start = time.time()
    zs = (0.5, 1.0, 2.0, 5.0, 10.0)
    worst_path = 0.0
    for m in range(1, 11):
        for z in zs:
            exact = _hyperu(1.0 - m, z)
            u_pol = tricomi_u(1.0 - m, 2.0, z)
            if exact != 0.0:
                worst_path = max(worst_path, abs(u_pol - exact) / abs(exact))
    worst_rec = 0.0
    for a in (0.5, -0.5, -1.5, -3.5):
        for z in (1.0, 5.0, 20.0):
            lhs = tricomi_u(a - 1.0, 2.0, z)
            rhs = ((z + 2.0 * a - 2.0) * tricomi_u(a, 2.0, z)
                   - a * (a - 1.0) * tricomi_u(a + 1.0, 2.0, z))
            worst_rec = max(worst_rec, abs(lhs - rhs) / abs(lhs))
    ok = worst_path <= 1e-10 and worst_rec <= 1e-8
    _report(8, "polynomial U path matches the exact polynomial; recurrence residuals",
            ok, f"path {worst_path:.2e}, recurrence {worst_rec:.2e}",
            time.time() - start, 1.0)


def test_criterion_9_gridsolver_harmonic_calibration():
    start = time.time()
    V = lambda x: 0.5 * x * x
    res = solve(V, Grid(half_width=12.0, points=2400), 4)
    errs = [abs(lv.energy - (k + 0.5)) for k, lv in enumerate(res.levels)]
    level_ok = max(errs) <= 1e-4
    ratios = []
    for k in range(4):
        seq = refine(V, Grid(half_width=12.0, points=600), k, 2)
        err = [abs(e - (k + 0.5)) for e in seq]
        ratios.extend([err[0] / err[1], err[1] / err[2]])
    ratio_ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report(9, "harmonic levels 0-3 within 1e-4 with second-order convergence",
            level_ok and ratio_ok,
            f"max err {max(errs):.2e}, ratio range "
            f"[{min(ratios):.3f}, {max(ratios):.3f}]",
            time.time() - start, 10.0)
