"""tools/bench_pairs.py's verdict per metric, on synthetic runs: a move
past the bound regresses, a parent spread wider than the bound leaves a
metric unresolved unless every change run beats every parent run, and a
gain needs at least ten pairs, nine tenths of them won and a median move
past the parent's quartile spread.  No benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
METRICS = {"ops_per_s": {"better": "higher", "bound": 0.25},
           "latency_p50_ms": {"better": "lower", "bound": 0.25}}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(ops, p50):
    """One side's runs, from its ops_per_s and latency_p50_ms values."""
    return [{"attempted": 10, "failed": 0, "correct": True,
             "metrics": {"ops_per_s": {"value": o, "unit": "1/s"},
                         "latency_p50_ms": {"value": p, "unit": "ms"}}}
            for o, p in zip(ops, p50)]


def verdicts(bench_pairs, parent, change):
    entry = bench_pairs.summary({"parent": runs(*parent), "change": runs(*change)},
                                5, METRICS)
    return {name: {key: m[key] for key in ("wins", "move", "regressed", "unresolved",
                                           "gain")}
            for name, m in entry["metrics"].items()}


STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def test_regressed(bench_pairs):
    # ops_per_s 30% lower and p50 30% higher, past the 25% bound, on a
    # steady parent
    slow = [0.7 * v for v in STEADY]
    got = verdicts(bench_pairs, (STEADY, STEADY), (slow, [1.3 * v for v in STEADY]))
    for name in METRICS:
        assert got[name]["wins"] == 0
        assert got[name]["move"] == pytest.approx(0.3)
        assert got[name]["regressed"]
        assert not got[name]["unresolved"] and not got[name]["gain"]


def test_unresolved(bench_pairs):
    # the parent's quartiles lie 40% of its median apart, wider than the
    # bound; the change moves within it, and on p50 beats every parent
    # run, which resolves that metric
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    fast = [50.0 + 0.1 * j for j in range(10)]
    got = verdicts(bench_pairs, (wide, wide), (wide[::-1], fast))
    assert got["ops_per_s"] == {"wins": 5, "move": 0.0, "regressed": False,
                                "unresolved": True, "gain": False}
    assert not got["latency_p50_ms"]["unresolved"]


def test_gain(bench_pairs):
    # 9 of 10 pairs won, medians 10% apart against a parent spread of
    # under 1%; the lost pair is a tie, which counts for neither side
    ops = [1.1 * v for v in STEADY[:-1]] + [STEADY[-1]]
    p50 = [0.9 * v for v in STEADY[:-1]] + [STEADY[-1]]
    got = verdicts(bench_pairs, (STEADY, STEADY), (ops, p50))
    for name in METRICS:
        assert got[name]["wins"] == 9
        assert got[name]["move"] == pytest.approx(-0.1, abs=1e-3)
        assert got[name]["gain"]
        assert not got[name]["regressed"] and not got[name]["unresolved"]
    # 3 of 3 pairs won by the same margin: too few pairs for a gain
    few = verdicts(bench_pairs, (STEADY[:3], STEADY[:3]), (ops[:3], p50[:3]))
    for name in METRICS:
        assert few[name]["wins"] == 3
        assert few[name]["move"] == pytest.approx(-0.1, abs=1e-3)
        assert not few[name]["gain"]
    # 8 of 10 is short of nine tenths
    ops[0] = STEADY[0]
    assert not verdicts(bench_pairs, (STEADY, STEADY), (ops, p50))["ops_per_s"]["gain"]
