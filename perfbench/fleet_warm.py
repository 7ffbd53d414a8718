"""``fleet_warm``: a coordinated sweep over two warm servers.

Load shape: one ``SweepCoordinator`` (``max_inflight=1``) drives two
``repro serve --workers 0 --journal-dir ...`` processes whose ``--cache``
already holds the whole grid: the six Table II workloads x {16x16, 8x8,
4x4} arrays with ``per_selection_limit=8`` (18 one-item jobs, 1032 designs
per pass).  Timed passes repeat that sweep until ``--seconds`` have passed;
every space and point is a memo hit, so the work is the warm memo key, job
submit, journal fsync, the ``/rows`` push and the fold.  The seed draws the
loop extents from ``catalog.EXTENTS``.

A *request* here is one job: from the start of its submit to its end frame.
"""

from __future__ import annotations

import bisect
import os
import shutil
import statistics
import time

import calibration
import catalog
import outputs
import tracing
from measure import SETUP_REPEATS, Context, Outcome, end_to_end
from servers import Fleet, peak_rss_mb

#: Untimed passes after the servers start (the first ones run 1.5-2x slower).
WARMUP_PASSES = 2


class JobClock:
    """Submit and end-frame times of each job, keyed by (server, job id)."""

    def __init__(self):
        self.submitted: dict[tuple, float] = {}
        self.ended: dict[tuple, float] = {}

    def clear(self) -> None:
        self.submitted.clear()
        self.ended.clear()

    def latencies(self) -> list[float]:
        return [self.ended[k] - t for k, t in self.submitted.items() if k in self.ended]


def _session_factory(clock: JobClock, array):
    """``url -> RemoteSession`` that notes when each job is submitted and ends."""
    from repro.service.client import RemoteSession

    class TimedSession(RemoteSession):
        def submit_job(self, *args, **kwargs):
            start = time.perf_counter()
            job = super().submit_job(*args, **kwargs)
            clock.submitted[(self.url, job["id"])] = start
            return job

        def job_rows_async(self, job_id, **kwargs):
            stream = super().job_rows_async(job_id, **kwargs)

            async def frames():
                try:
                    async for frame in stream:
                        if frame.get("row") == "end":
                            clock.ended[(self.url, job_id)] = time.perf_counter()
                        yield frame
                finally:
                    await stream.aclose()

            return frames()

    return lambda url: TimedSession(url, array=array)


class _Grid:
    """The seeded sweep grid and its in-process reference results."""

    def __init__(self, seed: int, workdir: str):
        from repro.api import LocalSession
        from repro.explore.engine import MemoCache
        from repro.ir import workloads
        from repro.perf.model import ArrayConfig

        self.extents = catalog.draw_extents(seed, catalog.TABLE_II)
        self.statements = [workloads.by_name(n, **self.extents[n]) for n in catalog.TABLE_II]
        self.configs = [ArrayConfig(rows=n, cols=n) for n in catalog.FLEET_ARRAYS]
        self.cache_path = os.path.join(workdir, "grid.json")
        start = time.perf_counter()
        session = LocalSession(self.configs[0], workers=0, cache=MemoCache(self.cache_path))
        self.reference = self.sweep(session)
        session.flush()
        self.fill_s = time.perf_counter() - start
        self.digest = outputs.results_digest(self.reference)

    def sweep(self, session):
        return session.sweep(self.statements, configs=self.configs,
                             per_selection_limit=catalog.FLEET_LIMIT)


class _Pair:
    """Two started servers and the coordinator driving them."""

    def __init__(self, fleet: Fleet, grid: _Grid, tag: str, trace: bool, clock: JobClock):
        from repro.service.coordinator import SweepCoordinator

        self.servers = []
        for i in range(2):
            cache = os.path.join(fleet.workdir, f"{tag}{i}.json")
            journal = os.path.join(fleet.workdir, f"{tag}{i}.journal")
            shutil.copyfile(grid.cache_path, cache)
            os.mkdir(journal)
            self.servers.append(fleet.start(
                f"{tag}{i}", ["--cache", cache, "--journal-dir", journal], trace))
        urls = [server.wait_ready() for server in self.servers]
        self.coordinator = SweepCoordinator(
            urls, array=grid.configs[0], max_inflight=1,
            session_factory=_session_factory(clock, grid.configs[0]),
        )

    def processes(self) -> list:
        return [server.proc for server in self.servers]

    def stop(self) -> list[dict]:
        self.coordinator.close()
        return [server.stop() for server in self.servers]


def _passes(pair: _Pair, grid: _Grid, seconds: float, problems: list[str],
            host: calibration.HostSpeed | None, tracer=None) -> list[tuple]:
    """Coordinated passes: ``(start, end, designs, report)`` each, folds checked.

    The host speed is sampled between passes, when a sample is due, with
    both servers stopped.
    """
    done = []
    begin = time.perf_counter()
    while not done or time.perf_counter() - begin < seconds:
        if tracer is not None:
            tracer.tag = f"pass{len(done)}"
        start = time.perf_counter()
        results = grid.sweep(pair.coordinator)
        end = time.perf_counter()
        designs = sum(len(r.points) + len(r.failures) for r in results)
        if outputs.results_digest(results) != grid.digest:
            problems.append(f"pass {len(done)}: fold differs from the in-process sweep")
        done.append((start, end, designs, dict(pair.coordinator.last_report)))
        if host is not None:
            host.maybe_sample(pause=pair.processes())
    return done


def _retries(report: dict) -> int:
    return sum(report.get(k, 0) for k in ("reassigned", "resumed", "fallbacks", "servers_lost"))


def _started(fleet, grid, tag, trace, clock, problems) -> tuple[_Pair, float]:
    """Start a server pair and warm it up; returns it with the seconds taken."""
    start = time.perf_counter()
    pair = _Pair(fleet, grid, tag, trace, clock)
    paused = 0.0
    for _ in range(WARMUP_PASSES):
        passes = _passes(pair, grid, 0, problems, None)
        paused += time.perf_counter() - passes[-1][1]  # the fold check
    return pair, time.perf_counter() - start - paused


def run(ctx: Context) -> Outcome:
    expected = outputs.load_expected()
    host = calibration.HostSpeed(every_cpu=True)
    fleet = Fleet(ctx.workdir)
    t_host = None
    try:
        grid, fill_scaled, fill_raw = host.timed(lambda: _Grid(ctx.seed, ctx.workdir))
        problems = outputs.check_results(grid.reference, grid.extents, "limit8", expected)
        clock = JobClock()
        setups = []
        for rep in range(SETUP_REPEATS):
            (pair, seconds), scaled, raw = host.timed(
                lambda: _started(fleet, grid, f"s{rep}-", False, clock, problems),
                lambda started: started[0].processes())
            # timed() also counted the fold checks, which _started leaves out
            setups.append((fill_scaled + scaled * seconds / raw, fill_raw + seconds))
            if rep < SETUP_REPEATS - 1:
                pair.stop()
        clock.clear()
        passes = _passes(pair, grid, ctx.seconds, problems, host)
        pair.stop()
        designs = sum(p[2] for p in passes)
        busy = sum(p[1] - p[0] for p in passes)
        failed = sum(_retries(p[3]) for p in passes)
        notes = [f"extents: {grid.extents}", f"outputs digest: {grid.digest}",
                 f"passes: {len(passes)}, median {statistics.median(p[1] - p[0] for p in passes):.4f} s"]
        if not ctx.trace:
            metrics, note = end_to_end(designs, busy, clock.latencies(), setups,
                                       peak_rss_mb(pair.servers), "one job, submit to end frame",
                                       host.slowdown())
            return Outcome(not problems, designs, failed, metrics, notes + [note] + problems)

        tracer = tracing.Tracer()
        tracing.install(tracer)
        t_host = calibration.HostSpeed(every_cpu=True)
        traced, _ = _started(fleet, grid, "t", True, clock, problems)
        for server in traced.servers:
            server.start_tracing()
        tracer.start()
        t_passes = _passes(traced, grid, ctx.seconds, problems, t_host, tracer)
        tracer.stop()
        reports = traced.stop()
    finally:
        host.close()
        if t_host is not None:
            t_host.close()
        fleet.close()

    t_designs = sum(p[2] for p in t_passes)
    t_busy = sum(p[1] - p[0] for p in t_passes)
    decode_starts = sorted(r[2] for r in tracer.records if r[1] == "service.decode")
    first_rows = []
    for start, *_ in t_passes:
        i = bisect.bisect_left(decode_starts, start)
        if i < len(decode_starts):
            first_rows.append(decode_starts[i] - start)
    extra = {
        "service.first_row_ms_p50": tracing.median_ms(first_rows),
        "service.fold_queue_peak": max(p[3].get("fold_queue_peak", 0) for p in t_passes),
        "service.rows_per_design": sum(p[3].get("rows_streamed", 0) for p in t_passes) / t_designs,
        "service.retries": sum(_retries(p[3]) for p in t_passes),
        "bench.trace_overhead": (t_designs * t_host.slowdown() / t_busy)
        / (designs * host.slowdown() / busy),
    }
    server_dumps = [r for r in reports if "spans" in r]
    metrics = tracing.summarize([tracer.dump(), *server_dumps], extra)
    notes.append("coordinator " + tracing.shares(tracer.records, t_busy))
    notes.append("servers (sum of 2) " + tracing.shares(
        [rec for r in server_dumps for rec in r["spans"]], 2 * t_busy))
    return Outcome(not problems, t_designs, extra["service.retries"], metrics, notes + problems)
