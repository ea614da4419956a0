"""What importing the package loads, each test in a fresh interpreter.

``wkb.brentq`` imports scipy.optimize on its first call, so the grid and
exact-state commands never load it; only a WKB solve does.
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


def test_commands_without_wkb_never_import_scipy_optimize():
    loaded = run_fresh("""
import contextlib, io, json, sys
import coulomb1d, coulomb1d.cli as cli
seen = ["scipy.optimize" in sys.modules]
for argv in (["scan", "--family", "half-line", "--points", "800"],
             ["solve", "--family", "half-line", "--half-width", "60",
              "--points", "2000", "--k-max", "2"],
             ["wavefunction", "--n", "3", "--points", "101"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    seen.append("scipy.optimize" in sys.modules)
print(json.dumps(seen))
""")
    assert loaded == [False, False, False, False]


# sha256 of the 201 energies wkb_energy(0..200) as little-endian float64,
# from the module-level import of brentq that the lazy one replaced
WKB_DIGEST = "da8771a338cb3ee214627ea3907e25a3cd4e50afc45e13cdd7bb9d5c74245323"


def test_wkb_energies_keep_their_bits_and_load_the_solver_on_first_use():
    out = run_fresh("""
import hashlib, json, struct, sys
from coulomb1d import wkb_energy
before = "scipy.optimize" in sys.modules
vals = [wkb_energy(n) for n in range(201)]
print(json.dumps({"before": before, "after": "scipy.optimize" in sys.modules,
                  "digest": hashlib.sha256(struct.pack("<201d", *vals)).hexdigest(),
                  "hex": {n: vals[n].hex() for n in (0, 1, 4, 50, 200)}}))
""")
    assert not out["before"] and out["after"]
    assert out["digest"] == WKB_DIGEST
    assert out["hex"] == {"0": "-0x1.ffffffffffffcp+0", "1": "-0x1.ffffffffffffcp-2",
                          "4": "-0x1.47ae147ae1479p-4",
                          "50": "-0x1.9324b647d96adp-11",
                          "200": "-0x1.9f4470b69787ep-15"}


def test_tracer_installed_before_any_solve_records_brentq():
    out = run_fresh(f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", {str(ROOT / "perfbench" / "tracing.py")!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
before = "scipy.optimize" in sys.modules
try:
    from coulomb1d import wkb_energy
    energy = wkb_energy(3)
finally:
    tracer.uninstall()
print(json.dumps({{"before": before, "energy": energy,
                  "names": sorted({{span[0] for span in tracer.spans}})}}))
""")
    assert not out["before"]
    assert abs(out["energy"] + 0.125) <= 1e-15
    assert {"wkb.brentq", "wkb.wkb_energy", "wkb.action"} <= set(out["names"])
