"""What importing the package loads, each test in a fresh interpreter.

The exact states load no scipy at all: specfun evaluates K0, K1, 1/Gamma
and psi itself.  The grid solver loads one scipy module, the compiled
LAPACK wrappers scipy.linalg._flapack, from its file on its first LAPACK
call, and never the scipy.linalg package, whose __init__ brings in
scipy._lib and numpy.f2py.  No command loads scipy.optimize:
``wkb_energy`` solves the quantization condition from one action, with
no root-finder.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code):
    """Run ``code`` in a new interpreter on this checkout's ``src`` and
    return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_command_imports_scipy_optimize():
    loaded = run_fresh("""
import contextlib, io, json, sys
import coulomb1d, coulomb1d.cli as cli
seen = ["scipy.optimize" in sys.modules]
for argv in (["scan", "--family", "half-line", "--points", "800"],
             ["solve", "--family", "half-line", "--half-width", "60",
              "--points", "2000", "--k-max", "2"],
             ["wavefunction", "--n", "3", "--points", "101"],
             ["spectrum", "--n-max", "10"],
             ["wkb", "--n", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen.append("scipy.optimize" in sys.modules)
print(json.dumps(seen))
""")
    assert loaded == [False] * 6


def test_exact_states_load_no_scipy_until_a_grid_solve():
    out = run_fresh("""
import contextlib, io, json, sys
import numpy as np
import coulomb1d, coulomb1d.cli as cli
from coulomb1d import Grid, node_count, normalize, solve, wavefunction, wkb_energy

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

x = np.linspace(-10.0, 10.0, 201)
psi = [wavefunction(n, x) for n in (2, 3)]
norms = [normalize(n).norm for n in (2, 3)]
nodes = node_count(4)
energy = wkb_energy(3)
for argv in (["spectrum", "--n-max", "10"], ["wavefunction", "--n", "3"],
             ["wkb", "--n", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
before = scipy_modules()
res = solve(lambda x: 0.5 * x * x, Grid(half_width=12.0, points=4000), 2)
print(json.dumps({"before": before, "after": scipy_modules(),
                  "f2py": "numpy.f2py" in sys.modules,
                  "finite": bool(all(np.isfinite(p).all() for p in psi)),
                  "norms": norms, "nodes": nodes, "energy": energy,
                  "levels": [lv.energy for lv in res.levels]}))
""")
    assert out["before"] == []
    assert out["after"] == ["scipy.linalg._flapack"]
    assert not out["f2py"]
    assert out["finite"] and all(v > 0.0 for v in out["norms"])
    assert out["nodes"] == 4
    assert abs(out["energy"] + 0.125) <= 1e-15
    assert abs(out["levels"][0] - 0.5) < 1e-4 and abs(out["levels"][1] - 1.5) < 1e-4


def test_grid_commands_load_no_scipy_linalg_package():
    out = run_fresh("""
import contextlib, io, json, sys
import coulomb1d.cli as cli
loaded = []
for argv in (["solve", "--family", "pure-coulomb", "--half-width", "20",
              "--points", "4000", "--k-max", "4"],
             ["scan", "--family", "half-line"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    loaded.append(sorted(m for m in sys.modules
                         if m.split(".")[0] == "scipy" or m.startswith("numpy.f2py")))
print(json.dumps(loaded))
""")
    assert out == [["scipy.linalg._flapack"]] * 2


# sha256 of the 201 energies wkb_energy(0..200) as little-endian float64,
# from the linear law E = -(S_1/((n + 1) pi))^2
WKB_DIGEST = "e0781dc4d6b3a3d2f8e1359c4234c02e2ec65b47f0a689a5f1a21ee3d83b073d"


def test_wkb_energies_keep_their_bits_without_scipy_optimize():
    out = run_fresh("""
import hashlib, json, struct, sys
from coulomb1d import wkb_energy
vals = [wkb_energy(n) for n in range(201)]
print(json.dumps({"loaded": "scipy.optimize" in sys.modules,
                  "digest": hashlib.sha256(struct.pack("<201d", *vals)).hexdigest(),
                  "hex": {n: vals[n].hex() for n in (0, 1, 4, 50, 200)},
                  "rel_err": max(abs(v + 2 / (n + 1) ** 2) * (n + 1) ** 2 / 2
                                 for n, v in enumerate(vals))}))
""")
    assert not out["loaded"]
    assert out["digest"] == WKB_DIGEST
    assert out["hex"] == {"0": "-0x1.0000000000001p+1", "1": "-0x1.0000000000001p-1",
                          "4": "-0x1.47ae147ae147bp-4",
                          "50": "-0x1.9324b647d96b0p-11",
                          "200": "-0x1.9f4470b69787dp-15"}
    # Brent's method reached 1.1e-15 against -2/(n + 1)^2
    assert out["rel_err"] <= 4 * sys.float_info.epsilon


def test_tracer_installed_before_any_solve_records_no_brentq():
    out = run_fresh(f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", {str(ROOT / "perfbench" / "tracing.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
try:
    from coulomb1d import wkb_energy
    energy = wkb_energy(3)
finally:
    tracer.uninstall()
print(json.dumps({{"loaded": "scipy.optimize" in sys.modules, "energy": energy,
                  "names": sorted({{span[0] for span in tracer.spans}})}}))
""")
    assert not out["loaded"]
    assert abs(out["energy"] + 0.125) <= 1e-15
    assert {"wkb.action", "wkb.wkb_energy"} <= set(out["names"])
    assert "wkb.brentq" not in out["names"]
