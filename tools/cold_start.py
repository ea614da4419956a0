"""Cold-start wall time and peak memory of each CLI subcommand.

    python3 tools/cold_start.py CHECKOUT [OTHER_CHECKOUT] [--runs 7]

Each command runs as a fresh ``python -m coulomb1d`` process on the
checkout's ``src``, with one BLAS thread; ``python -c pass`` gives the
interpreter's own floor.  Runs alternate between the checkouts and go
command by command, so a slow spell of the machine falls on both.  For
each command and checkout it prints the median wall time and the median
peak resident set size that ``os.wait4`` reports for the process.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

COMMANDS = (
    ("-c", "pass"),
    ("-m", "coulomb1d", "spectrum", "--n-max", "10"),
    ("-m", "coulomb1d", "wkb", "--n", "3"),
    ("-m", "coulomb1d", "wavefunction", "--n", "4"),
    ("-m", "coulomb1d", "scan", "--family", "half-line"),
    ("-m", "coulomb1d", "scan", "--family", "soft-core", "--a", "1e-2,1e-3,1e-4"),
    ("-m", "coulomb1d", "scan", "--family", "care", "--a", "1e-3", "--b", "5e-3"),
    ("-m", "coulomb1d", "solve", "--family", "pure-coulomb", "--half-width", "20",
     "--points", "4000", "--k-max", "4"),
)


def once(root, argv):
    """Wall seconds and peak RSS in MB of one fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{' '.join(argv)} failed in {root}")
    return wall, usage.ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", help="one or two checkout directories")
    parser.add_argument("--runs", type=int, default=7)
    args = parser.parse_args(argv)
    if len(args.checkouts) > 2:
        parser.error("give one or two checkout directories")
    roots = [os.path.abspath(root) for root in args.checkouts]
    print("| command | " + " | ".join(roots) + " |")
    print("|---" * (len(roots) + 1) + "|")
    for command in COMMANDS:
        runs = {root: [] for root in roots}
        for i in range(args.runs):
            for root in roots if i % 2 == 0 else roots[::-1]:
                runs[root].append(once(root, command))
        cells = [f"{statistics.median(w for w, _ in runs[root]) * 1e3:.0f} ms, "
                 f"{statistics.median(m for _, m in runs[root]):.0f} MB"
                 for root in roots]
        label = " ".join(command[2:]) if command[0] == "-m" else "python -c pass"
        print(f"| `{label}` | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
