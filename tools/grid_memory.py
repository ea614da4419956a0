"""Traced memory peak of each operation of one round of the grid-core workload.

    python3 tools/grid_memory.py CHECKOUT --seed 5

Loads the warmed-up workload of CHECKOUT with ``tools/grid_routes.py``'s
``workload``, which imports ``perfbench/workloads.py`` and the package
with its ``src`` first on ``sys.path`` and no bytecode written there,
then runs each of its operations once, in the workload's order, under
tracemalloc.  For each operation it prints the label, the traced peak
in MiB and the minor page faults the process took during the call
(``ru_minflt`` of ``resource.getrusage``), then the largest peak.  Run
it on two checkouts to compare their peaks and faults.
"""

import argparse
import resource
import sys
import tracemalloc
from pathlib import Path

MIB = 2 ** 20


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peaks(ops):
    """(label, traced peak in bytes, minor page faults) of each
    operation, each called once with tracing started afresh."""
    for op in ops:
        tracemalloc.start()
        try:
            faults = minor_faults()
            op.call()
            faults = minor_faults() - faults
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        yield op.label, peak, faults


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    # imported here, so that ``peaks`` loads without grid_routes.py beside it
    from grid_routes import workload

    wl = workload(args.checkout, args.seed)
    largest = None
    for label, peak, faults in peaks(wl.ops):
        print(f"{label}: {peak / MIB:.2f} MiB, {faults} minor faults")
        if largest is None or peak > largest[1]:
            largest = label, peak
    print(f"largest: {largest[0]}: {largest[1] / MIB:.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
