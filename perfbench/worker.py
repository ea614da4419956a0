"""One workload process: set up, run its share of the timed blocks, check, report.

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                               --spawned-at T --part I --parts P

``run.py`` starts it with PYTHONPATH pointing at the checkout's ``src``
and the BLAS/OpenMP thread counts pinned to 1.  ``--spawned-at`` is the
``time.monotonic()`` reading taken just before the process was started,
so the set-up time includes interpreter start.  A run's blocks are split
over P processes run one after another; this one runs share I.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"

# a tail percentile is reported only with at least ten samples beyond it
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(samples):
    for p in PERCENTILES:
        if samples * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def same(a, b):
    """Bitwise-equal results, through tuples, lists and arrays."""
    import numpy as np
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def run_rounds(ops, rounds, tracer, known_error):
    """Closed loop, one operation at a time; returns the timed-phase record.

    ``latencies[r]`` holds the successful operations of round r, in seconds,
    and ``walls[r]`` the wall time of that round.
    """
    from workloads import Failure
    latencies, walls, results, unexpected = [], [], [], []
    attempted = failed = 0
    for r in range(rounds):
        row, lat = [], []
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = r * len(ops) + i
            t = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # counted, and reported unless a known fault
                failed += 1
                row.append(Failure(f"{type(exc).__name__}: {exc}"))
                if not (op.known_fault and isinstance(exc, known_error)):
                    unexpected.append(f"{op.label}: {row[-1].message}")
            else:
                lat.append(time.perf_counter() - t)
                row.append(out)
            attempted += 1
        walls.append(time.perf_counter() - t0)
        latencies.append(lat)
        results.append(row)
    return {"latencies": latencies, "walls": walls, "results": results,
            "unexpected": unexpected, "attempted": attempted, "failed": failed}


def digest(obj, h=None):
    """SHA-256 of a result, bit for bit, through tuples, lists and arrays."""
    import numpy as np
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(f"({len(obj)}".encode())
        for x in obj:
            digest(x, h)
        h.update(b")")
    else:  # floats repr exactly, so equal reprs are equal bits
        h.update(repr(obj).encode())
    return h


def check(ops, results, final_check, oracle):
    """Later rounds must repeat round one exactly; with ``oracle``, also
    check round one against the references."""
    from workloads import Failure, load_oracle
    errors = []
    first = results[0]
    for r, row in enumerate(results[1:], start=2):
        for op, a, b in zip(ops, first, row):
            if not same(a, b):
                errors.append(f"{op.label}: round {r} differs from round 1")
    if not oracle:
        return errors
    load_oracle()
    for op, res in zip(ops, first):
        if isinstance(res, Failure):
            continue
        try:
            msg = op.check(res)
        except Exception as exc:  # a malformed result fails the check
            msg = f"{op.label}: check raised {type(exc).__name__}: {exc}"
        if msg:
            errors.append(msg)
    try:
        errors += final_check({op.label: res for op, res in zip(ops, first)})
    except Exception as exc:
        errors.append(f"final check raised {type(exc).__name__}: {exc}")
    return errors


def blocks(timed, block_rounds):
    """Rate, median and tail latency of every block of ``block_rounds`` rounds.

    ``run.py`` reports the medians over the blocks of all processes, so a
    slow spell of the machine moves only the blocks it falls in.
    """
    import numpy as np
    out = []
    for start in range(0, len(timed["walls"]), block_rounds):
        block = range(start, start + block_rounds)
        lat_ms = [t * 1e3 for r in block for t in timed["latencies"][r]]
        p = tail_percentile(len(lat_ms))
        out.append({"ops_per_s": len(lat_ms) / sum(timed["walls"][r] for r in block),
                    "latency_p50_ms": statistics.median(lat_ms),
                    "tail_percentile": p,
                    "latency_tail_ms": None if p is None
                    else float(np.percentile(lat_ms, p))})
    return out


def run_in_process(args):
    t = time.perf_counter()
    import coulomb1d
    import coulomb1d.cli
    from coulomb1d.quadrature import ConvergenceError
    import_ms = (time.perf_counter() - t) * 1e3
    if not Path(coulomb1d.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"coulomb1d imported from {coulomb1d.__file__}, "
                 f"not from {ROOT / 'src'}")
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        wl = workloads.make(args.workload, args.seed)
        wl.warm_up()
        setup_s = time.monotonic() - args.spawned_at
        # whole blocks, shared out over the processes of the run
        n_blocks = workloads.blocks_for(wl, args.seconds)
        first = args.part * n_blocks // args.parts
        last = (args.part + 1) * n_blocks // args.parts
        rounds = (last - first) * wl.block_rounds
        timed = run_rounds(wl.ops, rounds, tracer, ConvergenceError)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {"rounds": rounds, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
           "blocks": blocks(timed, wl.block_rounds),
           "attempted": timed["attempted"], "failed": timed["failed"],
           "unexpected": timed["unexpected"], "errors": [], "digest": None}
    if tracer is not None:
        RESULTS.mkdir(parents=True, exist_ok=True)
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.json.gz",
                     {"import_ms": import_ms})
        out["per_layer"] = {**tracing.layer_metrics(tracer.spans, tracer.counts),
                            "cli.import_ms": import_ms}
    if rounds:
        # the last process always has a round; it checks against the oracles
        out["errors"] = check(wl.ops, timed["results"], wl.final_check,
                              oracle=args.part == args.parts - 1)
        out["digest"] = digest(timed["results"][0]).hexdigest()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args(argv)
    print(json.dumps(run_in_process(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
