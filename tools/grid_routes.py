"""Route records of one round of the grid-core workload, as JSON lines.

    python3 tools/grid_routes.py CHECKOUT --seed 5 > routes.jsonl

Imports ``perfbench/workloads.py`` and the package of CHECKOUT, with its
``src`` first on ``sys.path`` and no bytecode written there, runs the
workload's warm-up, then each of its operations once, in the workload's
order.  For each operation it prints one JSON object: ``label``, the
operation's label, and ``matrices``, the ``_asdict()`` of each
``gridsolver._Route`` that the logger ``coulomb1d.gridsolver`` records
at DEBUG, one per matrix solved, coarse grids and `refine` rungs
included: its points, floor, largest floor ratio, route, the energies,
residuals and node counts of its levels, and the steps and supports of
its polished levels (None if bisected).  Compare the output of two
checkouts with ``tools/route_diff.py``.
"""

import argparse
import json
import logging
import sys
from pathlib import Path


class Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.routes = []

    def emit(self, record):
        # the message object of a route record is the record itself
        self.routes.append(record.msg)


def line(label, routes):
    """The JSON line of one operation and the route records it logged."""
    return json.dumps({"label": label, "matrices": [r._asdict() for r in routes]})


def workload(checkout, seed):
    """The grid-core workload of CHECKOUT at this seed, warmed up: its
    ``perfbench/workloads.py`` and package are imported with its ``src``
    first on ``sys.path`` and no bytecode written there."""
    root = checkout.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    wl = workloads.make("grid-core", seed)
    wl.warm_up()
    return wl


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    wl = workload(args.checkout, args.seed)
    records = Records()
    log = logging.getLogger("coulomb1d.gridsolver")
    log.addHandler(records)
    log.setLevel(logging.DEBUG)
    for op in wl.ops:
        records.routes.clear()
        op.call()
        print(line(op.label, records.routes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
