"""Interleaved benchmark pairs of two checkouts, summarized as a BENCH file.

    python3 tools/bench_pairs.py PARENT CHANGE --workload grid-core \\
        --seeds 5 11 --pairs 10 --out BENCH_33.json

PARENT and CHANGE are checkout directories (a ``git worktree`` of the
parent commit, say).  Each pair runs ``perfbench/run.py --seconds 35
--trace 0`` in both, the parent first in odd pairs.  For each seed and
end-to-end metric of BENCHMARK.json it writes both sides' median and
inclusive quartiles, the pairs the change wins and the change/parent
ratios, with each side's failed count and correctness, into ``--out``,
keeping the file's other keys and workloads.

Each metric also gets a verdict, printed one line per metric:

- ``move``: the change's median less the parent's, over the parent's,
  signed so that positive is worse;
- ``regressed``: the move exceeds the metric's ``bound``, a fraction of
  the parent's median;
- ``unresolved``: the parent's quartile spread over its median exceeds
  the bound, and not every change run beats every parent run;
- ``gain``: there are at least ten pairs, the change wins at least
  nine tenths of them, ties counting for neither, and its median is
  better than the parent's by more than the parent's quartile spread.
  Fewer pairs give no gain, however clear their move: the quartiles of
  three runs say little of a side's spread.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# the fewest pairs that a gain verdict is taken from
GAIN_PAIRS = 10


def run(root, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "35", "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    """q1, median and q3, inclusive."""
    return statistics.quantiles(values, n=4, method="inclusive")


def spread(values):
    q1, median, q3 = quartiles(values)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def verdict(values, sense, bound):
    """wins, move, regressed, unresolved and gain of one metric's
    (parent, change) pairs, with ``bound`` a fraction of the parent's
    median."""
    # worse is larger once each value is multiplied by sign
    sign = 1.0 if sense == "lower" else -1.0
    q1, parent, q3 = quartiles([p for p, _ in values])
    move = sign * (statistics.median([c for _, c in values]) - parent) / parent
    beats_all = max(sign * c for _, c in values) < min(sign * p for p, _ in values)
    wins = sum(sign * c < sign * p for p, c in values)
    return {"wins": wins, "move": round(move, 4), "regressed": move > bound,
            "unresolved": (q3 - q1) / parent > bound and not beats_all,
            "gain": (len(values) >= GAIN_PAIRS and wins >= 0.9 * len(values)
                     and -move * parent > q3 - q1)}


def summary(runs, seed, metrics):
    pairs = list(zip(runs["parent"], runs["change"]))
    entry = {"seed": seed, "pairs": len(pairs),
             "attempted": sum(r["attempted"] for r in runs["change"]),
             "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
             "correct": {side: all(r["correct"] for r in runs[side]) for side in SIDES},
             "metrics": {}}
    for name, metric in metrics.items():
        sense = metric["better"]
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
        ratios = [c / p for p, c in values]
        entry["metrics"][name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"], "better": sense,
            "parent": spread([p for p, _ in values]),
            "change": spread([c for _, c in values]),
            "median_pair_ratio": round(statistics.median(ratios), 4),
            "pair_ratios": [round(r, 4) for r in ratios],
            "bound": metric["bound"], **verdict(values, sense, metric["bound"])}
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for seed in args.seeds:
        runs = {side: [] for side in SIDES}
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                runs[side].append(run(getattr(args, side), args.workload, seed))
                ops = runs[side][-1]["metrics"]["ops_per_s"]["value"]
                print(f"{args.workload} seed {seed} pair {pair} {side}: ops_per_s "
                      f"{ops:.6g}", file=sys.stderr)
        entry = summary(runs, seed, metrics)
        for name, m in entry["metrics"].items():
            flags = [flag for flag in ("regressed", "unresolved", "gain") if m[flag]]
            print(f"{args.workload} seed {seed} {name}: move {m['move']:+.2%} "
                  f"(bound {m['bound']:.0%}) {', '.join(flags) or 'within bound'}")
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data.setdefault("workloads", {})[f"{args.workload} (seed {seed})"] = entry
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
