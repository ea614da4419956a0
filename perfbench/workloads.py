"""The two benchmark workloads: their operations, warm-up and checks.

Every workload is a fixed list of operations built from the seed.  A run
repeats the whole list a fixed number of rounds, so every run does the
same work and the known-fault operations are the same share of the
attempted ones.  The first round is checked against ``oracle``; later
rounds must reproduce it exactly.

Calls go through module attributes (``spectrum.wavefunction``, not a
name imported once), so the tracing wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
from typing import Callable, NamedTuple

import numpy as np

# set by load_oracle() once the timed phase is over, so that importing
# mpmath stays out of the set-up time
oracle = None


def load_oracle():
    global oracle
    import oracle as module
    oracle = module


class Op(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    known_fault: bool = False  # raises ConvergenceError today, on every run


class Failure(NamedTuple):
    """Result slot of an operation that raised."""
    message: str


def _attempt(fn):
    """Run a known-fault call during warm-up: it builds GL rules, then raises."""
    from coulomb1d.quadrature import ConvergenceError
    try:
        fn()
    except ConvergenceError:
        pass


class Workload(NamedTuple):
    ops: list
    warm_up: Callable[[], None]
    final_check: Callable[[dict], list]  # label -> first-round result
    nominal_round_s: float  # one round on the reference machine
    block_rounds: int = 1   # rounds per block; metrics are medians over blocks


def blocks_for(wl, seconds):
    """Whole blocks that take about ``seconds`` on the reference machine."""
    return max(1, round(seconds / (wl.nominal_round_s * wl.block_rounds)))


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _close(got, ref, tol, what):
    if not abs(got - ref) <= tol:
        return f"{what}: got {got!r}, reference {ref!r}, tolerance {tol:.3g}"
    return None


def _close_scaled(got, ref, scale_of, what):
    """Relative 1e-9, or 1e-9 of the recurrence scale near a zero of the function."""
    if abs(got - ref) <= 1e-9 * abs(ref):
        return None
    return _close(got, ref, 1e-9 * scale_of(), what)


def _check_psi_points(n, x, idx):
    kappa = (n + 1) / 2

    def check(v):
        if np.shape(v) != np.shape(x):
            return f"psi_{n}: shape {np.shape(v)} for {np.shape(x)} points"
        for i in idx:
            z = 4.0 * abs(x[i]) / (n + 1)
            err = _close_scaled(v[i], oracle.psi(n, x[i]),
                                lambda z=z: oracle.w_scale(kappa, z),
                                f"psi_{n}({x[i]!r})")
            if err:
                return err
        return None
    return check


# -- states-batch --------------------------------------------------------------

# |x| between ~3e-12 and 1e-9 for even n makes the batched U raise
# ConvergenceError; these inputs do not depend on the seed
BATCH_FAULTS = ((0, 1e-11), (6, 1e-10), (10, 3e-10))


def states_batch(seed):
    from coulomb1d import spectrum, wkb

    rng = _rng(seed, 1)
    base = np.linspace(-10.0, 10.0, 2001)
    # x = 0, +-0.01 and the window ends stay put: the smallest nonzero |x|
    # sets the Gauss-Legendre order of the whole batch
    pinned = [0, 999, 1000, 1001, 2000]
    even_checked = set(rng.choice(np.arange(0, 21, 2), 2, replace=False).tolist())
    ops = []
    for n in range(21):
        jitter = rng.uniform(-0.0025, 0.0025, base.size)
        jitter[pinned] = 0.0
        x = base + jitter
        idx = [1000] + sorted(rng.choice(base.size, 4, replace=False).tolist())
        ops.append(Op(f"wavefunction n={n}",
                      lambda n=n, x=x: spectrum.wavefunction(n, x),
                      _check_psi_points(n, x, idx)))

        def check_norm(st, n=n):
            if (st.n, st.energy, st.parity) != (n, oracle.exact_energy(n),
                                                "odd" if n % 2 else "even"):
                return f"normalize({n}) returned {st}"
            if n % 2:
                ref = oracle.odd_norm(n)
            elif n in even_checked:
                ref = oracle.even_norm(n)
            else:
                return None
            return _close(st.norm, ref, 1e-9 * ref, f"normalize({n}).norm")
        ops.append(Op(f"normalize n={n}", lambda n=n: spectrum.normalize(n),
                      check_norm))
        ops.append(Op(f"node_count n={n}", lambda n=n: spectrum.node_count(n),
                      lambda c, n=n: None if c == n else f"node_count({n}) = {c}"))
        ops.append(Op(f"wkb_energy n={n}", lambda n=n: wkb.wkb_energy(n),
                      lambda e, n=n: _close(e, oracle.exact_energy(n),
                                            1e-11 * abs(oracle.exact_energy(n)),
                                            f"wkb_energy({n})")))
    for n, x0 in BATCH_FAULTS:
        x = np.array([-x0, x0])
        ops.append(Op(f"wavefunction n={n} near origin",
                      lambda n=n, x=x: spectrum.wavefunction(n, x),
                      _check_psi_points(n, x, [0, 1]), known_fault=True))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]

    def warm_up():
        for n in (0, 1):
            spectrum.wavefunction(n, base)
            spectrum.normalize(n)
            spectrum.node_count(n)
            wkb.wkb_energy(n)
        _attempt(lambda: spectrum.wavefunction(0, np.array([BATCH_FAULTS[0][1]])))

    return Workload(ops, warm_up, lambda results: [], nominal_round_s=1.2,
                    block_rounds=2)


# -- grid-core -----------------------------------------------------------------

def harmonic(x):
    return 0.5 * x * x


def _levels(res):
    return tuple((lv.energy, lv.parity, lv.nodes) for lv in res.levels)


def _check_levels(family, k, half_width, points, a=None, b=None, dense=False):
    def check(levels):
        if len(levels) != k:
            return f"{family} N={points}: {len(levels)} levels, asked for {k}"
        energies = [lv[0] for lv in levels]
        if any(e2 <= e1 for e1, e2 in zip(energies, energies[1:])):
            return f"{family} N={points}: energies not increasing {energies}"
        for i, (e, parity, nodes) in enumerate(levels):
            if nodes != i:
                return f"{family} N={points}: level {i} has {nodes} nodes"
            want = None if family == "half-line" else ("odd" if i % 2 else "even")
            if parity != want:
                return f"{family} N={points}: level {i} parity {parity}, want {want}"
        if family == "harmonic":
            h = 2.0 * half_width / points
            # discretization error ~ h^2 (2k^2+2k+1)/32, plus the default
            # bisection tolerance of the tridiagonal eigensolver, eps*||T||
            bisection = 4.0 * np.finfo(float).eps * (2.0 / h**2 + half_width**2)
            for i, e in enumerate(energies):
                err = _close(e, i + 0.5,
                             0.1 * h * h * (2 * i * i + 2 * i + 1) + bisection,
                             f"harmonic N={points} level {i}")
                if err:
                    return err
        if family == "soft-core" and not -1.0 / a < energies[0] < 0.0:
            return f"soft-core a={a} E0={energies[0]} outside (-1/a, 0)"
        if dense:
            ref, norm = oracle.grid_levels(family, half_width, points, k, a, b)
            for i, (e, r) in enumerate(zip(energies, ref)):
                err = _close(e, r, 1e-12 * norm, f"{family} N={points} level {i} "
                                                 "against dense eigvalsh")
                if err:
                    return err
        return None
    return check


def _parse_csv(text):
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def _check_half_line_scan(text):
    meta, rows = _parse_csv(text)
    if meta.get("points") != "12000" or [r["k"] for r in rows] != ["1", "2", "3"]:
        return f"half-line scan: unexpected table {meta} {rows}"
    for r in rows:
        k, e = int(r["k"]), float(r["energy"])
        exact = -0.5 / k ** 2
        rel = abs(e - exact) / abs(exact)
        if float(r["exact_energy"]) != exact or not rel < 1e-4 or \
                not math.isclose(float(r["relative_error"]), rel, rel_tol=1e-9):
            return f"half-line scan row {r}"
    return None


def _check_care_scan(text):
    meta, rows = _parse_csv(text)
    if meta.get("interleaved") != "true" or meta.get("points") != "540000":
        return f"care scan: metadata {meta}"
    if len(rows) != 6:
        return f"care scan: {len(rows)} levels"
    energies = [float(r["energy"]) for r in rows]
    for i, r in enumerate(rows):
        if int(r["k"]) != i or int(r["nodes"]) != i or \
                r["parity"] != ("odd" if i % 2 else "even"):
            return f"care scan row {r}"
    if any(e2 <= e1 for e1, e2 in zip(energies, energies[1:])):
        return f"care scan energies {energies}"
    return None


SOFT_CORE_RADII = (1e-2, 1e-3, 1e-4)


def _check_soft_core_scan(text):
    meta, rows = _parse_csv(text)
    if [float(r["a"]) for r in rows] != list(SOFT_CORE_RADII):
        return f"soft-core scan radii {rows}"
    e0 = [float(r["e0"]) for r in rows]
    if any(e2 >= e1 for e1, e2 in zip(e0, e0[1:])):
        return f"soft-core E0 does not fall as a shrinks: {e0}"
    for r, e in zip(rows, e0):
        a = float(r["a"])
        loudon = -2.0 * math.log(1.0 / a) ** 2
        if not -1.0 / a < e < 0.0:
            return f"soft-core E0({a}) = {e} outside (-1/a, 0)"
        if not (math.isclose(float(r["loudon_estimate"]), loudon, rel_tol=1e-14)
                and math.isclose(float(r["ratio"]), e / loudon, rel_tol=1e-14)):
            return f"soft-core scan row {r}"
    return None


def _second_order(results, label_h, label_h2, exact_by_level):
    """Halving h must shrink the error against the exact level about 4x."""
    errors = []
    for k, exact in exact_by_level.items():
        e1 = abs(results[label_h][k][0] - exact)
        e2 = abs(results[label_h2][k][0] - exact)
        if not 3.5 < e1 / e2 < 4.5:
            errors.append(f"{label_h} -> {label_h2} level {k}: error ratio "
                          f"{e1 / e2:.3f} ({e1:.3g} -> {e2:.3g}), want about 4")
    return errors


def grid_core(seed):
    from coulomb1d import cli, gridsolver, potentials

    rng = _rng(seed, 3)
    ops = []

    def solve_op(family, half_width, points, k, a=None, b=None, label=None,
                 dense=False):
        if family == "harmonic":
            spec = harmonic
        else:
            kw = {key: v for key, v in (("a", a), ("b", b)) if v is not None}
            spec = potentials.PotentialSpec(family, **kw)
        g = gridsolver.Grid(half_width=half_width, points=points)
        ops.append(Op(label or f"solve {family} N={points} k={k} #{len(ops)}",
                      lambda: _levels(gridsolver.solve(spec, g, k)),
                      _check_levels(family, k, half_width, points, a, b, dense)))

    def jit(v, rel=0.02):
        return float(v * (1.0 + rng.uniform(-rel, rel)))

    # family -> (box half width, a, b) for the mid-size and large grids
    params = {
        "pure-coulomb": (60.0, None, None),
        "soft-core": (30.0, float(10 ** rng.uniform(-2.2, -1.8)), None),
        "repulsive-core": (40.0, jit(1e-2, 0.1), None),
        "half-line": (60.0, None, None),
        "harmonic": (10.0, None, None),
    }
    a_rc = params["repulsive-core"][1]
    params["repulsive-core"] = (40.0, a_rc, jit(3.0 * a_rc, 0.1))
    small = {"pure-coulomb": (20.0, None, None),
             "soft-core": (20.0, jit(0.1, 0.2), None),
             "repulsive-core": (20.0, jit(0.05, 0.2), jit(0.1, 0.2)),
             "half-line": (30.0, None, None),
             "harmonic": (10.0, None, None)}
    # The median and p75 latencies must fall inside a class of equal-cost
    # operations, not on the edge between two classes, or they jump.  Of
    # the 41 operations, 13 are cheaper than the 15 N=4e4, k=4 solves
    # (indices 13-27, median at 20); the six N=1e5, k=2 solves come next
    # (indices 28-33, p75 at 30); seven larger operations close the list.
    for family, (half_width, a, b) in small.items():
        for points in (800, 1600):
            solve_op(family, jit(half_width), points, 4, a, b, dense=True)
    for family in ("pure-coulomb", "harmonic"):
        solve_op(family, jit(params[family][0]), 10_000, 1)
    for family, (half_width, a, b) in params.items():
        for _ in range(2 if family in ("pure-coulomb", "half-line") else 3):
            solve_op(family, jit(half_width), 40_000, 4, a, b)
        for _ in range(2 if family == "pure-coulomb" else 1):
            solve_op(family, jit(half_width), 100_000, 2, a, b)
    # pairs on one box for the second-order check
    for family in ("pure-coulomb", "half-line"):
        half_width = jit(params[family][0])
        solve_op(family, half_width, 40_000, 4, label=f"pair {family} N=40000")
        solve_op(family, half_width, 80_000, 6, label=f"pair {family} N=80000")
    solve_op("pure-coulomb", jit(60.0), 540_000, 6)
    solve_op("harmonic", jit(10.0), 300_000, 6)
    solve_op("soft-core", jit(30.0), 300_000, 1, a=params["soft-core"][1])

    def scan_op(label, argv, check):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"exit {rc}: {err.getvalue().strip()}")
            return buf.getvalue()
        ops.append(Op(label, call, check))

    scan_op("scan care", ["scan", "--family", "care", "--a", "1e-3", "--b", "5e-3"],
            _check_care_scan)
    scan_op("scan soft-core",
            ["scan", "--family", "soft-core", "--a",
             ",".join(f"{a:g}" for a in SOFT_CORE_RADII)], _check_soft_core_scan)
    scan_op("scan half-line", ["scan", "--family", "half-line"],
            _check_half_line_scan)
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]

    def final_check(results):
        # odd pure-Coulomb levels k -> -2/(k+1)^2, half-line k -> -1/(2(k+1)^2);
        # only levels whose turning point lies well inside the box
        return (_second_order(results, "pair pure-coulomb N=40000",
                              "pair pure-coulomb N=80000",
                              {1: -0.5, 3: -0.125})
                + _second_order(results, "pair half-line N=40000",
                                "pair half-line N=80000",
                                {0: -0.5, 1: -0.125, 2: -0.5 / 9}))

    def warm_up():
        for spec in (potentials.pure_coulomb(), potentials.soft_core(0.1),
                     potentials.repulsive_core(0.05, 0.1), potentials.half_line(),
                     harmonic):
            gridsolver.solve(spec, gridsolver.Grid(20.0, 800), 2)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["scan", "--family", "half-line", "--points", "800"])

    return Workload(ops, warm_up, final_check, nominal_round_s=11.0)


def make(name, seed):
    return {"states-batch": states_batch, "grid-core": grid_core}[name](seed)
