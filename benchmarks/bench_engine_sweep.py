"""Evaluation-session throughput: cold vs warm sweeps.

The unified :class:`repro.api.Session` facade's scaling claim, measured on
the paper's headline sweep (every realizable GEMM dataflow on a 16x16 INT16
array): a warm on-disk memo cache makes a repeated ``Session.sweep()`` >= 5x
faster than the cold run (both enumeration and model evaluation are
memoized).

Run:  pytest benchmarks/bench_engine_sweep.py
"""

import time

from bench_util import print_table

from repro.api import Session
from repro.ir import workloads
from repro.perf.model import ArrayConfig


def _sweep(cache_path):
    session = Session(ArrayConfig(rows=16, cols=16), width=16, cache=cache_path)
    t0 = time.perf_counter()
    (result,) = session.sweep([workloads.gemm(1024, 1024, 1024)])
    return result, time.perf_counter() - t0


def test_session_warm_cache_speedup(benchmark, tmp_path):
    cache = tmp_path / "memo.json"

    def run():
        cold_result, cold_s = _sweep(cache)
        warm_result, warm_s = _sweep(cache)
        return cold_result, cold_s, warm_result, warm_s

    cold_result, cold_s, warm_result, warm_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = cold_s / warm_s
    print_table(
        "Session.sweep: 16x16 GEMM design space, cold vs warm memo cache",
        ["run", "designs", "evaluated", "cache hits", "seconds"],
        [
            ["cold", len(cold_result), cold_result.stats.evaluated,
             cold_result.stats.cache_hits, f"{cold_s:.3f}"],
            ["warm", len(warm_result), warm_result.stats.evaluated,
             warm_result.stats.cache_hits, f"{warm_s:.3f}"],
        ],
    )
    print(f"  warm speedup: {speedup:.1f}x")

    assert len(cold_result) == len(warm_result)
    assert warm_result.stats.space_cache_hit
    assert warm_result.stats.cache_hits == len(warm_result)
    assert warm_result.stats.evaluated == 0
    # identical metrics either way
    assert [p.metrics() for p in cold_result] == [p.metrics() for p in warm_result]
    # the acceptance bar: warm run at least 5x faster than cold
    assert speedup >= 5.0, f"warm cache speedup only {speedup:.1f}x"

