"""``sweep_cold``: the paper's Fig. 6 design-space sweep, cold, in one process.

Load shape: one caller, no servers.  A timed sweep is one
``LocalSession.sweep`` over GEMM and Depthwise-Conv2D on a 16x16 array
(default realizable + canonical options, ``workers=0``) with a fresh, empty
in-memory memo cache, run in a fresh worker process so that the package's
process-wide tables start cold too.  A run makes ``round(seconds / 25)``
such sweeps (at least one; one takes about 25 s on a 2-core host), so the
work per run does not depend on how fast the host happens to be.  The seed
draws the loop extents from ``catalog.EXTENTS``.

Set-up is the time from starting a worker until it has imported the
package and run a tiny warm-up sweep, scaled by host-speed samples taken
right before and after it; every run starts ``SETUP_REPEATS`` workers and
reports the median.

A *request* here is one design: its wait is the time since the previous
design was stored in the memo cache (enumerating up to it plus evaluating
it), observed through the cache object the session is given.

Worker usage (started by :func:`run`)::

    python3 perfbench/sweep_cold.py --out OUT.json --seed N [--sweep] [--trace]

A worker prints ``ready`` once set up and goes on when its standard input
closes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import subprocess
import sys
import time

import calibration
import catalog
import outputs
import tracing
from measure import SETUP_REPEATS, Context, Outcome, end_to_end

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Nominal length of one cold sweep, which sets the sweeps per run.
SWEEP_SECONDS = 25.0
#: Host-speed samples taken right before and right after each timed sweep.
CALIBRATE_AROUND = 10


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def warm_up() -> None:
    """Import the pipeline and build its lazy tables with a tiny sweep."""
    from repro.api import LocalSession
    from repro.explore.engine import MemoCache
    from repro.ir import workloads
    from repro.perf.model import ArrayConfig

    session = LocalSession(ArrayConfig(rows=16, cols=16), workers=0, cache=MemoCache())
    session.sweep([workloads.gemm(8, 8, 8)], per_selection_limit=2)


def _stamped_cache(host: calibration.HostSpeed):
    from repro.explore.engine import MemoCache

    class StampedCache(MemoCache):
        """An empty in-memory cache noting when each design's outcome lands.

        It also samples the host speed between designs when one is due; the
        sweep resumes at ``resumes[i]``, so that pause is left out of every
        wait and of the busy time.
        """

        def __init__(self):
            super().__init__()
            self.stamps: list[float] = []
            self.resumes: list[float] = []

        def put(self, section, key, value):
            super().put(section, key, value)
            if section == "points":
                self.stamps.append(time.perf_counter())
                host.maybe_sample()
                self.resumes.append(time.perf_counter())

    return StampedCache()


def _sweep(seed: int, trace: bool, host: calibration.HostSpeed) -> dict:
    """One timed cold sweep, checked; the report the parent aggregates."""
    from repro.api import LocalSession
    from repro.ir import workloads
    from repro.perf.model import ArrayConfig

    extents = catalog.draw_extents(seed, catalog.SWEEP_WORKLOADS)
    statements = [workloads.by_name(n, **extents[n]) for n in catalog.SWEEP_WORKLOADS]
    tracer = tracing.Tracer()
    if trace:
        tracing.install(tracer)
        tracer.start()
    host.sample_now(CALIBRATE_AROUND)
    cache = _stamped_cache(host)
    session = LocalSession(ArrayConfig(rows=16, cols=16), workers=0, cache=cache)
    start = time.perf_counter()
    results = session.sweep(statements)
    end = time.perf_counter()
    tracer.stop()
    host.sample_now(CALIBRATE_AROUND)
    busy = end - start - sum(r - s for s, r in zip(cache.stamps, cache.resumes))
    waits = [s - r for r, s in zip([start] + cache.resumes, cache.stamps)]
    enum = [r.stats.enum for r in results]
    report = {
        "extents": extents,
        "designs": sum(len(r.points) + len(r.failures) for r in results),
        "busy": busy,
        "waits": waits,
        "samples": host.samples,
        "digest": outputs.results_digest(results),
        "problems": outputs.check_results(results, extents, "full", outputs.load_expected()),
        "candidates": sum(e.candidates for e in enum),
        "yielded": sum(e.yielded for e in enum),
    }
    if trace:
        report.update(tracer.dump(), shares=tracing.shares(tracer.records, busy))
    return report


def worker(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="one sweep_cold worker process")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sweep", action="store_true", help="also run a timed sweep")
    parser.add_argument("--trace", action="store_true", help="trace the timed sweep")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    warm_up()
    print("ready", flush=True)
    sys.stdin.read()  # the parent samples the host speed, then closes our stdin
    report = {}
    if args.sweep:
        host = calibration.HostSpeed()
        try:
            report = _sweep(args.seed, args.trace, host)
        finally:
            host.close()
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _start_worker(ctx: Context, index: int, sweep: bool, trace: bool,
                  host: calibration.HostSpeed) -> tuple[tuple, dict]:
    """Run one worker to the end: ``((scaled, raw) set-up seconds, its report)``."""
    out = os.path.join(ctx.workdir, f"worker{index}.json")
    cmd = [sys.executable, os.path.abspath(__file__), "--out", out, "--seed", str(ctx.seed)]
    cmd += ["--sweep"] * sweep + ["--trace"] * trace
    procs = []

    def started():
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        procs.append(proc)
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        if not ready or proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"sweep_cold worker {index} did not get ready")

    try:
        _none, scaled, raw = host.timed(started)
        procs[0].stdin.close()
        if procs[0].wait(150) != 0:
            raise RuntimeError(f"sweep_cold worker {index} exited with {procs[0].returncode}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
    with open(out) as fh:
        return (scaled, raw), json.load(fh)


def _slowdown(reports) -> float:
    return calibration.slowdown([s for r in reports for s in r["samples"]])


def run(ctx: Context) -> Outcome:
    sweeps = max(1, round(ctx.seconds / SWEEP_SECONDS))
    plan = [(True, False)] * sweeps + [(True, True)] * (sweeps if ctx.trace else 0)
    plan += [(False, False)] * max(0, SETUP_REPEATS - len(plan))
    setups, reports = [], []
    host = calibration.HostSpeed()
    try:
        for index, (sweep, trace) in enumerate(plan):
            setup, report = _start_worker(ctx, index, sweep, trace, host)
            setups.append(setup)
            reports.append((trace, report))
    finally:
        host.close()
    plain = [r for trace, r in reports if "busy" in r and not trace]
    traced = [r for trace, r in reports if trace]
    problems = [p for _t, r in reports for p in r.get("problems", [])]
    if len({r["digest"] for _t, r in reports if "digest" in r}) > 1:
        problems.append("repeated sweeps of the same inputs disagree")
    designs = sum(r["designs"] for r in plain)
    busy = sum(r["busy"] for r in plain)
    slowdown = _slowdown(plain)
    notes = [f"extents: {plain[0]['extents']}", f"outputs digest: {plain[0]['digest']}"]
    if not ctx.trace:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_kb += max(r["peak_rss_kb"] for r in plain)
        metrics, note = end_to_end(designs, busy, [w for r in plain for w in r["waits"]],
                                   setups, rss_kb / 1024.0, "one design of the sweep", slowdown)
        return Outcome(not problems, designs, 0, metrics, notes + [note] + problems)

    t_designs = sum(r["designs"] for r in traced)
    t_rate = t_designs * _slowdown(traced) / sum(r["busy"] for r in traced)
    candidates = sum(r["candidates"] for r in traced)
    extra = {
        "core.candidates": candidates,
        "core.yield_ratio": sum(r["yielded"] for r in traced) / candidates if candidates else 0.0,
        "bench.trace_overhead": t_rate / (designs * slowdown / busy),
    }
    metrics = tracing.summarize(traced, extra)
    notes += [r["shares"] for r in traced]
    return Outcome(not problems, t_designs, 0, metrics, notes + problems)


if __name__ == "__main__":
    sys.exit(worker(sys.argv[1:]))
