"""tools/route_diff.py exits 1 on a route, support, step, level-count or
node change, a different operation list, or a level of any matrix that
moved by more than the sum of its two residuals, and 0 when energies
moved only within them; it counts the matrices whose records are
identical in every field.  It runs on small written JSON-lines files, with
no solve.  The records of real solves also go through
tools/grid_routes.py's JSON and back, so that the record's fields and
the tools cannot drift apart."""

import importlib.util
import json
import logging
import subprocess
import sys
from pathlib import Path

import pytest

from coulomb1d import Grid, gridsolver, pure_coulomb, refine, soft_core, solve

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def record(points, route, energies, residuals, nodes, steps=None, supports=None):
    # floors and ratios are not compared: every record shares one pair
    return gridsolver._Route(points, 1e-11, 2e-11, route, energies, residuals, nodes,
                             steps, supports)._asdict()


def base():
    """Three operations: a solve whose coarse sectors are bisected and
    whose fine sectors are polished, a bisected half-line solve, and a
    soft-core scan's refine rungs.  A fresh copy each call, as a file
    holds it: sequences as lists."""
    return json.loads(json.dumps([
        {"label": "solve pure-coulomb N=40000 k=2 #1", "matrices": [
            record(256, "bisection", (-1.49,), (1e-12,), (0,)),
            record(256, "bisection", (-0.49,), (1e-12,), (0,)),
            record(20000, "polished", (-1.5,), (2e-10,), (0,), (2,), (14040,)),
            record(20000, "polished", (-0.5,), (1e-10,), (0,), (1,), (20000,))]},
        {"label": "solve half-line N=800 k=1 #2", "matrices": [
            record(800, "bisection", (-0.5,), (1e-13,), (0,))]},
        {"label": "scan soft-core", "matrices": [
            record(160, "bisection", (-3.2,), (1e-13,), (0,)),
            record(1281, "polished", (-3.3,), (1e-12,), (0,), (2,), (900,)),
            record(2562, "polished", (-3.31,), (2e-12,), (0,), (1,), (1800,))]},
    ]))


def write(path, ops):
    path.write_text("".join(json.dumps(op) + "\n" for op in ops))


def run(tmp_path, a, b):
    write(tmp_path / "a.jsonl", a)
    write(tmp_path / "b.jsonl", b)
    done = subprocess.run([sys.executable, str(TOOLS / "route_diff.py"),
                           str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")],
                          capture_output=True, text=True, timeout=60)
    assert done.stderr == ""
    return done.returncode, done.stdout


def moved(ops):
    # floors, ratios and the last bits of an energy move freely
    ops[0]["matrices"][2]["energies"] = [-1.5000000000000002]
    ops[1]["matrices"][0]["floor"] = 7e-12
    ops[2]["matrices"][2]["ratio"] = 3e-11


@pytest.mark.parametrize("change", [lambda ops: None, moved], ids=["same", "moved"])
def test_moved_levels_exit_0(tmp_path, change):
    b = base()
    change(b)
    code, out = run(tmp_path, base(), b)
    assert code == 0
    assert "operations with route, support or step changes: 0 of 3" in out
    assert "node changes: 0" in out
    assert "levels moved by more than r_A + r_B: 0" in out
    assert f"levels moved: {int(change is moved)} of 8" in out
    # the moved energy, floor and ratio each leave one record unequal
    assert f"matrix records identical in every field: {5 if change is moved else 8} of 8" \
        in out


def test_record_that_moved_in_its_residual_alone_is_counted(tmp_path):
    # a residual that moved alone leaves every level, route and node
    # count in place, and only the count of identical records shows it
    b = base()
    b[0]["matrices"][3]["residuals"] = [1.1e-10]
    code, out = run(tmp_path, base(), b)
    assert code == 0
    assert "levels moved: 0 of 8" in out
    assert "matrix records identical in every field: 7 of 8" in out


def test_move_beyond_the_residuals_exits_1(tmp_path):
    # 1e-4 against residuals of 2e-10 each: another eigenvalue
    b = base()
    b[0]["matrices"][2]["energies"] = [-1.4999]
    code, out = run(tmp_path, base(), b)
    assert code == 1
    assert "operations with route, support or step changes: 0 of 3" in out
    assert "node changes: 0" in out
    assert ("beyond the residuals: solve pure-coulomb N=40000 k=2 #1 matrix 2 level 0, "
            "|dE| / (r_A + r_B) = 2.5e+05") in out


def test_refine_rung_moved_beyond_its_residuals_exits_1(tmp_path):
    # a scan's refine rungs return no Level, yet each is a matrix with a
    # record: a rung's energy moved by 1e-9 against residuals of 2e-12
    b = base()
    b[2]["matrices"][1]["energies"] = [-3.3 + 1e-9]
    code, out = run(tmp_path, base(), b)
    assert code == 1
    assert "operations with route, support or step changes: 0 of 3" in out
    assert "levels moved: 1 of 8" in out
    assert "beyond the residuals: scan soft-core matrix 1 level 0" in out


def swap_levels(ops):
    # the two fine sectors trade their levels: each level changed parity
    even, odd = ops[0]["matrices"][2:]
    for key in ("energies", "residuals"):
        even[key], odd[key] = odd[key], even[key]


def add_level(ops):
    half_line = ops[1]["matrices"][0]
    half_line["energies"] += [-0.125]
    half_line["residuals"] += [1e-13]
    half_line["nodes"] += [1]


@pytest.mark.parametrize("change", [
    lambda ops: ops[1].update(label="solve half-line N=800 k=1 #3"),
    lambda ops: ops[0]["matrices"][0].update(points=258),
    add_level,
    lambda ops: ops[1]["matrices"][0].update(route="bisection after a failed polish"),
    lambda ops: ops[0]["matrices"][2].update(steps=[3]),
    lambda ops: ops[0]["matrices"][2].update(supports=[14041]),
    lambda ops: ops[0]["matrices"].pop(),
    swap_levels,
    lambda ops: ops[0]["matrices"][3].update(nodes=[3]),
], ids=["operation", "size", "level-count", "route", "steps", "support", "levels",
        "parity", "nodes"])
def test_route_or_level_change_exits_1(tmp_path, change):
    b = base()
    change(b)
    assert b != base()
    code, _ = run(tmp_path, base(), b)
    assert code == 1


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def harmonic(x):
    return 0.5 * x * x


def test_parse_reads_the_solver_records(tmp_path, caplog):
    # the coarse grids of the first solve are bisected, then polished,
    # and its 20000-point sectors polished; the harmonic grid has no
    # coarse start, so its 200-point sectors are bisected; the scan's
    # rungs return no Level, only their records
    ops = {"pure-coulomb": lambda: solve(pure_coulomb(), Grid(60.0, 40000), 4),
           "harmonic": lambda: solve(harmonic, Grid(10.0, 400), 3),
           "refine": lambda: refine(soft_core(1e-2), Grid.graded(30.0, 1e-2), 0, 1)}
    grid_routes, logged = load("grid_routes"), {}
    caplog.set_level(logging.DEBUG, logger="coulomb1d.gridsolver")
    for label, call in ops.items():
        caplog.clear()
        call()
        logged[label] = [r.msg for r in caplog.records if r.name == "coulomb1d.gridsolver"]
    path = tmp_path / "routes.jsonl"
    path.write_text("".join(grid_routes.line(label, routes) + "\n"
                            for label, routes in logged.items()))
    parsed = load("route_diff").parse(path)
    assert list(parsed) == list(ops)
    # every field comes back, floats bit for bit, sequences as lists
    for label, routes in logged.items():
        assert [gridsolver._Route(**{key: tuple(v) if isinstance(v, list) else v
                                     for key, v in matrix.items()})
                for matrix in parsed[label]] == routes
    assert [(m["points"], m["route"]) for m in parsed["pure-coulomb"][-2:]] == \
        [(20000, "polished")] * 2
    assert [(m["points"], len(m["energies"]), m["route"]) for m in parsed["harmonic"]] == [
        (200, 2, "bisection"), (200, 1, "bisection")]
    assert [m["route"] for m in parsed["refine"]] == ["bisection"] + ["polished"] * 2
    # and a file compared with itself moves nothing
    levels = sum(len(m["energies"]) for routes in parsed.values() for m in routes)
    done = subprocess.run([sys.executable, str(TOOLS / "route_diff.py"), str(path),
                           str(path)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert f"levels moved: 0 of {levels}" in done.stdout
    matrices = sum(len(routes) for routes in parsed.values())
    assert f"matrix records identical in every field: {matrices} of {matrices}" \
        in done.stdout
