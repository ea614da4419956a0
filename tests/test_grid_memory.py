"""tools/grid_memory.py's per-operation loop, on small operations: each
is called once, in order, under its own tracemalloc run, and its peak
counts what it allocated and nothing that an earlier one held; its minor
page faults are those taken during its call, and its resident high-water
mark is the process's after it."""

import importlib.util
import mmap
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

    def touch():
        calls.append("touch")
        resident = []
        # a fresh anonymous 8 MiB mapping, written once on every page: each
        # write faults its page in, and tracemalloc sees no allocation.
        # Huge pages would fault in 2 MiB at a time, so they are declined
        with mmap.mmap(-1, 8 * MIB) as pages:
            pages.madvise(mmap.MADV_NOHUGEPAGE)
            for i in range(0, 8 * MIB, mmap.PAGESIZE):
                pages[i] = 1
            # the resident size while every page is mapped
            with open("/proc/self/statm") as fh:
                resident.append(int(fh.read().split()[1]) * mmap.PAGESIZE)
        touched.append(resident[0])

    touched = []

    got = list(grid_memory.peaks([Op("block", block), Op("touch", touch),
                                  Op("solve", small_solve)]))
    assert calls == ["block", "touch", "solve"]
    assert [label for label, *_ in got] == ["block", "touch", "solve"]
    peaks = {label: peak for label, peak, _, _ in got}
    faults = {label: count for label, _, count, _ in got}
    resident = [high for *_, high in got]
    assert 4 * MIB <= peaks["block"] <= 4.1 * MIB
    assert peaks["touch"] <= 0.1 * MIB
    # an 8000-point solve: a few arrays of 4000 floats, well under 1 MiB
    assert 0.05 * MIB <= peaks["solve"] <= 1 * MIB
    pages = 8 * MIB // mmap.PAGESIZE
    assert pages <= faults["touch"] <= pages + 200
    assert all(isinstance(count, int) and count >= 0 for count in faults.values())
    assert faults["solve"] < pages
    # a high-water mark never falls, and covers what was resident during
    # the call, up to the kernel's lazy update of its counters
    assert resident == sorted(resident) and resident[0] > 0
    assert resident[1] >= touched[0] - MIB
    assert not tracemalloc.is_tracing()
