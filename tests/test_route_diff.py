"""tools/route_diff.py exits 1 on a route, support, step, level-count,
parity or node change, or a different operation list, and 0 when only
energies moved.  It runs on small written files, with no solve.  Its
parser also reads the DEBUG records of two real solves, so that the
record's wording and the tool's patterns cannot drift apart."""

import importlib.util
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from coulomb1d import Grid, pure_coulomb, solve

ROUTE_DIFF = Path(__file__).resolve().parent.parent / "tools" / "route_diff.py"

BASE = """\
## solve pure-coulomb N=40000 k=2 #1
256-point matrix, 1 levels, floor 1e-11, at most 2e-11 of a level's scale: bisection
20000-point matrix, 1 levels, floor 2e-09, at most 3e-09 of a level's scale: \
polished in [2] steps on [14040] nodes, max residual 0.1 of the floor
20000-point matrix, 1 levels, floor 2e-09, at most 7e-09 of a level's scale: \
polished in [1] steps on [20000] nodes, max residual 0.09 of the floor
level 0: E = -1.5, even, 0 nodes, residual 2e-10
level 1: E = -0.5, odd, 1 nodes, residual 1e-10
## solve half-line N=800 k=1 #2
800-point matrix, 1 levels, floor 6e-12, at most 2e-10 of a level's scale: bisection
level 0: E = -0.5, None, 0 nodes, residual 1e-13
"""


def run(tmp_path, a, b):
    (tmp_path / "a.txt").write_text(a)
    (tmp_path / "b.txt").write_text(b)
    done = subprocess.run([sys.executable, str(ROUTE_DIFF), str(tmp_path / "a.txt"),
                           str(tmp_path / "b.txt")], capture_output=True, text=True,
                          timeout=60)
    assert done.stderr == ""
    return done.returncode, done.stdout


@pytest.mark.parametrize("b", [
    BASE,
    # floors, margins and the last bits of an energy move freely
    BASE.replace("E = -1.5,", "E = -1.5000000000000002,")
        .replace("floor 6e-12", "floor 7e-12").replace("0.09 of", "0.2 of"),
], ids=["same", "moved"])
def test_moved_levels_exit_0(tmp_path, b):
    code, out = run(tmp_path, BASE, b)
    assert code == 0
    assert "operations with route, support or step changes: 0 of 2" in out
    assert "parity or node changes: 0" in out


@pytest.mark.parametrize("old, new", [
    ("#2", "#3"),
    ("256-point", "258-point"),
    ("800-point matrix, 1 levels", "800-point matrix, 2 levels"),
    ("of a level's scale: bisection\nlevel", "of a level's scale: bisection after "
                                              "a failed polish\nlevel"),
    ("[2] steps", "[3] steps"),
    ("[14040] nodes", "[14041] nodes"),
    ("level 1: E = -0.5, odd, 1 nodes, residual 1e-10\n", ""),
    ("-0.5, odd", "-0.5, even"),
    ("-0.5, odd, 1 nodes", "-0.5, odd, 3 nodes"),
], ids=["operation", "size", "level-count", "route", "steps", "support", "levels",
        "parity", "nodes"])
def test_route_or_level_change_exits_1(tmp_path, old, new):
    assert BASE.count(old) == 1
    code, _ = run(tmp_path, BASE, BASE.replace(old, new))
    assert code == 1


def _load_route_diff():
    spec = importlib.util.spec_from_file_location("route_diff", ROUTE_DIFF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def harmonic(x):
    return 0.5 * x * x


def test_parse_reads_the_solver_records(tmp_path, caplog):
    # the coarse grids of the first solve are bisected, then polished,
    # and its 20000-point sectors polished; the harmonic grid has no
    # coarse start, so its 200-point sectors are bisected
    solves = {"pure-coulomb": (pure_coulomb(), Grid(60.0, 40000), 4),
              "harmonic": (harmonic, Grid(10.0, 400), 3)}
    lines = []
    caplog.set_level(logging.DEBUG, logger="coulomb1d.gridsolver")
    for label, call in solves.items():
        caplog.clear()
        solve(*call)
        lines.append(f"## {label}")
        lines += [record.getMessage() for record in caplog.records
                  if record.name == "coulomb1d.gridsolver"]
    path = tmp_path / "routes.txt"
    path.write_text("\n".join(lines) + "\n")
    # an unrecognized line raises ValueError
    ops = _load_route_diff().parse(path)
    assert list(ops) == list(solves)
    assert sum(len(matrices) for matrices, _ in ops.values()) == len(lines) - 2
    assert ops["pure-coulomb"][0][0][2] == "bisection"
    sectors = [m for m in ops["pure-coulomb"][0] if m[0] == 20000]
    assert len(sectors) == 2
    for points, count, route, steps, supports in sectors:
        assert route == "polished" and count == 2
        assert all(isinstance(v, int) and 1 <= v <= 5 for v in steps)
        assert all(isinstance(v, int) and 1 <= v <= points for v in supports)
        assert len(steps) == len(supports) == count
    harmonic_sectors = ops["harmonic"][0]
    assert [(m[0], m[1], m[2]) for m in harmonic_sectors] == [
        (200, 2, "bisection"), (200, 1, "bisection")]
