"""tools/grid_memory.py's per-operation loop, on two small operations:
each is called once, in order, under its own tracemalloc run, and its
peak counts what it allocated and nothing that an earlier one held."""

import importlib.util
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np

from coulomb1d import Grid, pure_coulomb, solve

GRID_MEMORY = Path(__file__).resolve().parent.parent / "tools" / "grid_memory.py"
MIB = 2 ** 20


class Op(NamedTuple):
    label: str
    call: object


def load():
    spec = importlib.util.spec_from_file_location("grid_memory", GRID_MEMORY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_operation_is_traced_alone():
    grid_memory = load()
    solve(pure_coulomb(), Grid(20.0, 800), 2)  # LAPACK loaded before tracing
    calls, held = [], []

    def block():
        calls.append("block")
        # 4 MiB, kept past the operation: the next peak must not count it
        held.append(np.ones(MIB // 2))

    def small_solve():
        calls.append("solve")
        solve(pure_coulomb(), Grid(60.0, 8000), 2)

    got = list(grid_memory.peaks([Op("block", block), Op("solve", small_solve)]))
    assert calls == ["block", "solve"]
    assert [label for label, _ in got] == ["block", "solve"]
    peaks = dict(got)
    assert 4 * MIB <= peaks["block"] <= 4.1 * MIB
    # an 8000-point solve: a few arrays of 4000 floats, well under 1 MiB
    assert 0.05 * MIB <= peaks["solve"] <= 1 * MIB
    assert not tracemalloc.is_tracing()
