"""Route records and levels of one round of the grid-core workload.

    python3 tools/grid_routes.py CHECKOUT --seed 5 > routes.txt

Imports ``perfbench/workloads.py`` and the package of CHECKOUT, with its
``src`` first on ``sys.path`` and no bytecode written there, runs the
workload's warm-up, then each of its operations once, in the workload's
order.  For each operation it prints the label, the DEBUG records of
``coulomb1d.gridsolver`` (one per matrix solved) and the energy, parity,
node count and residual of every level that each ``solve`` returned.
Diff the output of two checkouts to compare their routes and levels.
"""

import argparse
import logging
import sys
from pathlib import Path


class Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from coulomb1d import cli, gridsolver, regularized

    wl = workloads.make("grid-core", args.seed)
    wl.warm_up()
    records, solved = Records(), []
    log = logging.getLogger("coulomb1d.gridsolver")
    log.addHandler(records)
    log.setLevel(logging.DEBUG)
    real = gridsolver.solve

    def recording(*call):
        res = real(*call)
        solved.append(res)
        return res
    # the workload calls gridsolver.solve, the scans their modules' own name
    for module in (gridsolver, cli, regularized):
        module.solve = recording
    for op in wl.ops:
        records.messages.clear()
        solved.clear()
        op.call()
        print(f"## {op.label}")
        for message in records.messages:
            print(message)
        for res in solved:
            for lv in res.levels:
                print(f"level {lv.index}: E = {lv.energy!r}, {lv.parity}, "
                      f"{lv.nodes} nodes, residual {lv.residual:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
