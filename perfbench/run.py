"""coulomb1d benchmark: one workload, checked, with its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is used from ``src`` as it
stands; nothing is installed.  Workloads: states-batch and grid-core
(see perfbench/README.md).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a copy goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("states-batch", "grid-core")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
# An untraced run is split over this many fresh processes, one after
# another; set-up time is their median, the timing metrics pool their
# blocks.  A process keeps one speed level for its life (memory placement,
# the host's load), so the median over several processes is steadier
# than any one of them.
PARTS = 5
DEADLINE_S = 170.0


def unit_of(per_layer_name):
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_mb", "MB")):
        if per_layer_name.endswith(suffix):
            return unit
    return "count"


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one caller, one core: no BLAS or OpenMP worker threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, env, deadline, part, parts):
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(spawned_at), "--part", str(part),
           "--parts", str(parts)]
    # own session, so a timeout also ends the processes the worker started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"workload process did not finish within {DEADLINE_S:.0f} s")
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "coulomb1d" / "__init__.py").is_file():
        print(f"error: no coulomb1d package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    # compiles the bytecode and warms the page cache before anything is timed
    subprocess.run([sys.executable, "-c", "import coulomb1d.cli"], cwd=ROOT,
                   env=env, check=True, timeout=120)

    parts = 1 if args.trace else PARTS
    outs = [run_worker(args, env, deadline, part, parts) for part in range(parts)]
    errors = [msg for out in outs for msg in out["errors"]]
    digests = {out["digest"] for out in outs} - {None}
    if len(digests) > 1:
        errors.append("round one differs between the processes of the run")
    unexpected = [msg for out in outs for msg in out["unexpected"]]
    for msg in unexpected:
        print(f"unexpected failure: {msg}", file=sys.stderr)
    for msg in errors:
        print(f"check failed: {msg}", file=sys.stderr)
    blocks = [blk for out in outs for blk in out["blocks"]]
    pcts = sorted({blk["tail_percentile"] for blk in blocks}, key=str)
    if args.trace:
        metrics = {name: {"value": val, "unit": unit_of(name)}
                   for name, val in outs[0]["per_layer"].items()}
    else:
        e2e = {"setup_s": statistics.median(out["setup_s"] for out in outs),
               "peak_rss_mb": max(out["peak_rss_mb"] for out in outs)}
        for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms"):
            values = [blk[name] for blk in blocks]
            if None not in values:
                e2e[name] = statistics.median(values)
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items() if name in e2e}
    result = {"correct": not errors and not unexpected,
              "attempted": sum(out["attempted"] for out in outs),
              "failed": sum(out["failed"] for out in outs), "metrics": metrics}
    print(f"{args.workload}: {sum(out['rounds'] for out in outs)} rounds in "
          f"{len(blocks)} blocks, tail percentile {pcts}, ops_per_s "
          f"{statistics.median(blk['ops_per_s'] for blk in blocks):.6g}"
          f"{' (traced)' if args.trace else ''}", file=sys.stderr)
    results = ROOT / "perfbench" / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
