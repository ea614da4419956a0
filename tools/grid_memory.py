"""Traced memory peak of each operation of one round of the grid-core workload.

    python3 tools/grid_memory.py CHECKOUT --seed 5

Loads the warmed-up workload of CHECKOUT with ``tools/grid_routes.py``'s
``workload``, which imports ``perfbench/workloads.py`` and the package
with its ``src`` first on ``sys.path`` and no bytecode written there,
then runs each of its operations once, in the workload's order, under
tracemalloc.  For each operation it prints the label, the traced peak
in MiB, the minor page faults the process took during the call
(``ru_minflt`` of ``resource.getrusage``) and the process's resident
high-water mark after it (``ru_maxrss``, in MiB), then the largest
peak.  tracemalloc does not see a freed block that stays resident; the
high-water mark does.  Run it on two checkouts to compare them.
"""

import argparse
import resource
import sys
import tracemalloc
from pathlib import Path

MIB = 2 ** 20


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def resident_peak():
    """The process's resident high-water mark in bytes (Linux reports
    ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def peaks(ops):
    """(label, traced peak in bytes, minor page faults, resident
    high-water mark in bytes after the call) of each operation, each
    called once with tracing started afresh."""
    for op in ops:
        tracemalloc.start()
        try:
            faults = minor_faults()
            op.call()
            faults = minor_faults() - faults
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        yield op.label, peak, faults, resident_peak()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    # imported here, so that ``peaks`` loads without grid_routes.py beside it
    from grid_routes import workload

    wl = workload(args.checkout, args.seed)
    largest = None
    for label, peak, faults, resident in peaks(wl.ops):
        print(f"{label}: {peak / MIB:.2f} MiB, {faults} minor faults, "
              f"{resident / MIB:.1f} MiB resident peak")
        if largest is None or peak > largest[1]:
            largest = label, peak
    print(f"largest: {largest[0]}: {largest[1] / MIB:.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
