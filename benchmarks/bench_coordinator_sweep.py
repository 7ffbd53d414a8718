"""Coordinated-sweep scaling: fold identity, pipelined latency, poll traffic,
crash recovery.

Four experiments:

**Fold identity** (``test_coordinated_sweep_matches_local``) runs the same
workload x config sweep four ways —

- **local**: ``LocalSession.sweep()`` in-process (the reference fold);
- **1 server**: a :class:`CoordinatedSession` over one live service;
- **2 servers**: the same coordinator over a two-server fleet, shards split
  between them via the job API;
- **2 servers, shard_size=2**: same fleet with sweep items grouped two per
  job —

and reports wall-clock per transport plus the coordinator's shard report.
The asserted bars are correctness, not speed (two servers on one CI box
share the same cores):

- every fold is bit-identical to the local sweep — shard placement and
  ``shard_size`` grouping included;
- the two-server run actually distributed (both servers completed shards);
- the coordinator's folded memo cache warms a *local* session to zero
  evaluations — the distributed sweep's cache is as good as a local one.

**Pipelined latency** (``test_pipelined_folding_beats_cursor_polling``) races
the asyncio push-fold dispatch loop against a faithful reconstruction of the
fixed-cadence cursor-poll loop it replaced, over the same three-server fleet
and the same shard grid.  The asserted bars are the two latencies the rewrite
exists to cut — time-to-first-folded-row (the poll loop cannot see a row
before its first cadence boundary; the long-poll stream pushes it the moment
it exists) and end-to-end wall clock (the poll loop pays a cadence lag at
every shard completion before the lane resubmits; the event-driven lanes
pay none) — plus fold identity: the pipelined fleet's results must stay
bit-identical to ``LocalSession.sweep()``.  Each loop runs twice,
alternating, and the per-path minimum is compared, which damps the
shared-box noise CI runs swim in.  The measured numbers land in
``BENCH_coordinator.json`` at the repo root for the CI artifact upload.

**Poll traffic** (``test_streaming_vs_snapshot_poll_payload``) measures the
wire cost of watching a running job's per-design rows, streaming vs
snapshot:

- **snapshot**: every poll asks ``?since=0`` — the full row list so far —
  which is what a client without a cursor has to do for live rows.
  Cumulative payload grows ~quadratically with sweep length (each of ~T
  polls re-ships O(rows-so-far)).
- **streaming**: every poll advances the ``?since=`` cursor, so each row
  crosses the wire exactly once and cumulative payload stays linear.

The asserted bars: identical row logs both ways, each row shipped exactly
once on the streaming path, and the snapshot/streaming byte ratio *growing*
with sweep length — the superlinear gap incremental streaming closes.

**Crash recovery** (``test_journal_resume_beats_shard_rerun_after_crash``)
kills and restarts a single-server fleet mid-sweep under both recovery
transports — the legacy **re-run-shard** path (no journal: the restarted
server has never heard of the job, the coordinator re-submits and the shard
re-evaluates from design 1) and the **journal-resume** path
(``--journal-dir``: the restarted server rebuilds the job, adopts the
journaled prefix and evaluates only the remainder) — and counts
*evaluations repeated*: total evaluations across both server lives minus
the uninterrupted count.  The asserted bar is the reason journals exist:
resume repeats **zero** evaluations while re-run repeats every pre-crash
row; wall clock per transport is recorded alongside (not asserted — a
~25-design replay gap drowns in shared-box noise).  Both this experiment
and the latency race merge their numbers into ``BENCH_coordinator.json``.

Run:  pytest benchmarks/bench_coordinator_sweep.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

from bench_util import print_table

from repro.api import LocalSession
from repro.explore.engine import MemoCache
from repro.perf.model import ArrayConfig
from repro.service import (
    CoordinatedSession,
    RemoteSession,
    ServiceThread,
    SweepCoordinator,
)
from repro.service import wire

ARRAY = ArrayConfig(rows=8, cols=8)
WORKLOADS = ["gemm", "batched_gemv"]
CONFIGS = [ARRAY, ArrayConfig(rows=4, cols=4)]
SWEEP_KW = dict(one_d_only=True, selections=[("m", "n", "k")])


def _digest(results):
    return [(r.workload, r.array.rows, [p.metrics() for p in r]) for r in results]


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _merge_artifact(update: dict) -> Path:
    """Fold ``update`` into ``BENCH_coordinator.json`` (two tests share it)."""
    artifact = Path(__file__).resolve().parent.parent / "BENCH_coordinator.json"
    try:
        existing = json.loads(artifact.read_text())
        if not isinstance(existing, dict):
            existing = {}
    except (OSError, ValueError):
        existing = {}
    existing.update(update)
    artifact.write_text(json.dumps(existing, indent=2) + "\n")
    return artifact


def test_coordinated_sweep_matches_local(benchmark, tmp_path):
    local, local_s = _timed(
        lambda: LocalSession(ARRAY).sweep(WORKLOADS, CONFIGS, **SWEEP_KW)
    )
    points = sum(len(r) + len(r.failures) for r in local)

    with ServiceThread(LocalSession(ARRAY, cache=MemoCache())) as node_a:
        with ServiceThread(LocalSession(ARRAY, cache=MemoCache())) as node_b:
            single = CoordinatedSession([node_a.url], array=ARRAY)
            fold_cache = tmp_path / "fold.json"
            fleet = CoordinatedSession(
                [node_a.url, node_b.url],
                array=ARRAY,
                cache=fold_cache,
                max_inflight=1,
            )
            grouped = CoordinatedSession(
                [node_a.url, node_b.url], array=ARRAY, shard_size=2
            )

            def run():
                one, one_s = _timed(
                    lambda: single.sweep(WORKLOADS, CONFIGS, **SWEEP_KW)
                )
                two, two_s = _timed(
                    lambda: fleet.sweep(WORKLOADS, CONFIGS, **SWEEP_KW)
                )
                wide, wide_s = _timed(
                    lambda: grouped.sweep(WORKLOADS, CONFIGS, **SWEEP_KW)
                )
                return one, one_s, two, two_s, wide, wide_s

            one, one_s, two, two_s, wide, wide_s = benchmark.pedantic(
                run, rounds=1, iterations=1
            )
            report = fleet.coordinator.last_report
            grouped_report = grouped.coordinator.last_report
            completed = [s.completed for s in fleet.coordinator.servers]
            single.close()
            fleet.close()
            grouped.close()

    print_table(
        f"sweep: {len(WORKLOADS)} workloads x {len(CONFIGS)} configs "
        f"({points} designs)",
        ["transport", "sweep s", "designs/s"],
        [
            ["local", f"{local_s:.2f}", f"{points / local_s:.0f}"],
            ["coordinated x1", f"{one_s:.2f}", f"{points / one_s:.0f}"],
            ["coordinated x2", f"{two_s:.2f}", f"{points / two_s:.0f}"],
            ["x2 shard_size=2", f"{wide_s:.2f}", f"{points / wide_s:.0f}"],
        ],
    )
    print(f"  two-server report: {report}, shards per server: {completed}")
    print(f"  grouped report: {grouped_report}")

    # correctness bars: distribution must be invisible in the results
    assert _digest(one) == _digest(local)
    assert _digest(two) == _digest(local)
    assert _digest(wide) == _digest(local)
    assert report["shards"] == len(WORKLOADS) * len(CONFIGS)
    assert all(done > 0 for done in completed), "a server sat idle"
    # shard_size=2 really grouped: one job per config, half the submissions
    assert grouped_report["shards"] == len(CONFIGS)
    assert grouped_report["items"] == len(WORKLOADS) * len(CONFIGS)
    # rows streamed incrementally, one wire row per design, per sweep
    assert report["rows_streamed"] == points
    assert grouped_report["rows_streamed"] == points

    # the folded cache is as warm as a local one: zero re-evaluations
    warm = LocalSession(ARRAY, cache=fold_cache).sweep(WORKLOADS, CONFIGS, **SWEEP_KW)
    assert all(r.stats.evaluated == 0 for r in warm)
    assert _digest(warm) == _digest(local)


def _start_server(cache: Path) -> tuple[subprocess.Popen, str]:
    """One out-of-process ``repro serve`` on an ephemeral port, warm cache."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else str(src)
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--rows", "8", "--cols", "8", "--cache", str(cache)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    assert proc.stdout is not None
    banner = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", banner)
    assert match, f"no service URL in banner: {banner!r}"
    return proc, match.group(0)


def _cursor_poll_sweep(sessions, workloads, configs, options, *, poll_interval):
    """The pre-pipelining dispatch loop, reconstructed faithfully.

    One thread, fixed cadence: a serial healthz probe round, then rounds of
    (top up one in-flight job per idle server) -> ``sleep(poll_interval)``
    -> (serial ``since=``-cursor poll per open job), decoding every row with
    :func:`wire.row_to_point` — the same per-row fold work the pipelined
    folder does, so the race measures dispatch latency, not decode cost.

    Returns ``(time_to_first_row, elapsed, rows_decoded)``, clocks started
    before the probe round (both loops pay their own startup).
    """
    t0 = time.perf_counter()
    for session in sessions:
        session._call("GET", "/v1/healthz")  # serial round-trip per server
    pending = deque(
        (wire.instantiate_statement(wire.statement_payload(w)),
         wire.statement_payload(w), config)
        for config in configs
        for w in workloads
    )
    open_jobs = {}  # session -> [job_id, cursor, statement]
    first_row = None
    rows_decoded = 0
    while pending or open_jobs:
        for session in sessions:
            if session not in open_jobs and pending:
                statement, payload, config = pending.popleft()
                job = session.submit_job(
                    [dict(payload)],
                    configs=[config],
                    stream_rows=True,
                    **options,
                )
                open_jobs[session] = [job["id"], 0, statement]
        time.sleep(poll_interval)
        for session, slot in list(open_jobs.items()):
            job_id, cursor, statement = slot
            snapshot = session.poll_job(job_id, since=cursor)
            for row in snapshot["rows"]:
                wire.row_to_point(row, statement)
                rows_decoded += 1
                if first_row is None:
                    first_row = time.perf_counter() - t0
            slot[1] = snapshot["rows_total"]
            if snapshot["status"] in ("done", "failed", "cancelled"):
                assert snapshot["status"] == "done", snapshot
                del open_jobs[session]
    return first_row, time.perf_counter() - t0, rows_decoded


def test_pipelined_folding_beats_cursor_polling(tmp_path):
    """The push-fold loop must beat the cadence loop it replaced, twice over.

    Three servers, twelve one-item shards (four dispatch waves per lane): the
    poll loop pays its cadence at first-row discovery and at every shard
    completion, so the deeper the wave count the more lag it compounds; the
    pipelined loop's long-poll streams and event-driven lanes pay neither.
    Alternating rounds, min per path, both latency bars strict — and the
    pipelined fold stays bit-identical to local.
    """
    configs = [
        ARRAY,
        ArrayConfig(rows=7, cols=7),
        ArrayConfig(rows=6, cols=6),
        ArrayConfig(rows=5, cols=5),
        ArrayConfig(rows=4, cols=4),
        ArrayConfig(rows=3, cols=3),
    ]
    # pre-warm one memo cache and hand every server its own copy: with
    # evaluation memoized the race isolates the dispatch loops' own latency —
    # which is the thing this PR changed — instead of measuring compute both
    # loops pay identically.  The servers are real subprocesses (as deployed,
    # and as the smoke test runs them): in-process ServiceThreads would share
    # the benchmark's GIL, which hides server work inside the poll loop's
    # sleeps and charges it to the pipelined loop's folding instead.
    warm_path = tmp_path / "memo.json"
    local = LocalSession(ARRAY, cache=str(warm_path)).sweep(
        WORKLOADS, configs, **SWEEP_KW
    )
    points = sum(len(r) + len(r.failures) for r in local)
    options = wire.engine_options({"options": SWEEP_KW})
    # min-of-N damps shared-box noise; 10 alternating rounds keeps the two
    # latency bars stable on a single-core runner (3 is visibly flaky there)
    rounds = int(os.environ.get("BENCH_ROUNDS", "10"))

    procs = []
    urls = []
    for i in range(3):
        node_cache = tmp_path / f"memo-{i}.json"
        shutil.copy(warm_path, node_cache)
        proc, url = _start_server(node_cache)
        procs.append(proc)
        urls.append(url)

    first_fold = {}

    def on_row(_point):
        if "t" not in first_fold:
            first_fold["t"] = time.perf_counter() - first_fold["t0"]

    coordinator = SweepCoordinator(urls, array=ARRAY, max_inflight=1, on_row=on_row)
    sessions = [RemoteSession(url) for url in urls]
    try:
        # one untimed lap of each loop first: server processes page in their
        # code paths on the first sweep they serve, and whichever loop runs
        # first would eat that cost
        _cursor_poll_sweep(
            sessions, WORKLOADS, configs, options,
            poll_interval=coordinator.poll_interval,
        )
        first_fold["t0"] = time.perf_counter()
        coordinator.sweep(WORKLOADS, configs, **SWEEP_KW)

        pipe_ttfr, pipe_e2e, poll_ttfr, poll_e2e = [], [], [], []
        digests = []
        for _ in range(rounds):  # alternate to share box noise fairly
            ttfr, elapsed, rows = _cursor_poll_sweep(
                sessions, WORKLOADS, configs, options,
                poll_interval=coordinator.poll_interval,
            )
            assert rows == points
            poll_ttfr.append(ttfr)
            poll_e2e.append(elapsed)

            first_fold.clear()
            first_fold["t0"] = time.perf_counter()
            results, elapsed = _timed(
                lambda: coordinator.sweep(WORKLOADS, configs, **SWEEP_KW)
            )
            assert coordinator.last_report["rows_streamed"] == points
            digests.append(_digest(results))
            pipe_ttfr.append(first_fold["t"])
            pipe_e2e.append(elapsed)
    finally:
        coordinator.close()
        for session in sessions:
            session.close()
        for proc in procs:
            proc.kill()
            proc.wait(timeout=30)

    print_table(
        f"pipelined push-fold vs cursor polling: 3 servers, "
        f"{len(WORKLOADS) * len(configs)} shards, {points} designs, "
        f"min of {rounds}",
        ["dispatch loop", "first row s", "end-to-end s"],
        [
            ["cursor poll", f"{min(poll_ttfr):.3f}", f"{min(poll_e2e):.2f}"],
            ["pipelined", f"{min(pipe_ttfr):.3f}", f"{min(pipe_e2e):.2f}"],
        ],
    )

    # fold identity: the pipelined fleet is invisible in the results
    assert all(d == _digest(local) for d in digests)
    # the two latency bars the rewrite exists to cut — both strict
    assert min(pipe_ttfr) < min(poll_ttfr), (pipe_ttfr, poll_ttfr)
    assert min(pipe_e2e) < min(poll_e2e), (pipe_e2e, poll_e2e)

    artifact = _merge_artifact({
        "fleet": len(urls),
        "shards": len(WORKLOADS) * len(configs),
        "designs": points,
        "rounds": rounds,
        "cursor_poll": {
            "time_to_first_row_s": min(poll_ttfr),
            "end_to_end_s": min(poll_e2e),
        },
        "pipelined": {
            "time_to_first_row_s": min(pipe_ttfr),
            "end_to_end_s": min(pipe_e2e),
        },
        "speedup": {
            "time_to_first_row": min(poll_ttfr) / min(pipe_ttfr),
            "end_to_end": min(poll_e2e) / min(pipe_e2e),
        },
    })
    print(f"  wrote {artifact}")


def _crash_recovery_sweep(tmp_path, *, journal, kill_at=24):
    """One single-server sweep with a real SIGKILL + restart mid-sweep.

    A real ``repro serve`` subprocess (the fault-injection harness from
    ``tests/service/faultlib.py`` — an in-process stop is not a crash: the
    evaluator thread survives the loop and quietly finishes the job).  A
    watcher thread polls the running job until ``kill_at`` rows exist,
    SIGKILLs the server and restarts it on the same port, with the same
    journal directory when journaled.  The coordinator rides the outage via
    ``restart_grace`` either way — what differs is the recovery transport:
    journal-resume (rebuilt job, journaled prefix adopted) vs re-run-shard
    (fresh job under the same ``submit_key``, every design re-evaluated).

    Returns ``(results, elapsed_s, report)``.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from tests.service.faultlib import ServerProcess, journaled_rows, wait_for

    journal_dir = tmp_path / "journal"
    server = ServerProcess(
        journal_dir=journal_dir if journal else None
    ).start()

    def crash_and_restart():
        watcher = RemoteSession(server.url, retries=30, backoff=0.1)

        def rows_visible():
            jobs = watcher.jobs()
            if not jobs:
                return False
            return watcher.poll_job(jobs[0]["id"], since=0)["rows_total"] >= kill_at

        armed = wait_for(rows_visible)
        if armed and journal:
            # kill with a journaled prefix to adopt, not just produced rows
            armed = wait_for(lambda: journaled_rows(journal_dir) >= 8)
        watcher.close()
        if not armed:
            return  # job outran the watcher; the assertions below fail loudly
        server.kill()
        server.restart()

    coordinator = SweepCoordinator(
        [server.url], array=ARRAY, restart_grace=60.0, retries=1, backoff=0.05
    )
    watcher_thread = threading.Thread(target=crash_and_restart)
    watcher_thread.start()
    try:
        results, elapsed = _timed(lambda: coordinator.sweep(["gemm"]))
    finally:
        watcher_thread.join(timeout=120)
        report = dict(coordinator.last_report)
        coordinator.close()
        server.stop()
    return results, elapsed, report


def test_journal_resume_beats_shard_rerun_after_crash(tmp_path):
    """Journal resume evaluates only the remainder; shard re-run, everything.

    The same SIGKILL + restart under both recovery transports.  The metric
    is *fleet evaluations performed by the recovery* — the final job's
    folded ``stats.evaluated``, which on a resumed job honestly counts only
    post-crash work: re-run always pays the full design count again, resume
    pays it minus every journaled row it adopted.  The evaluation counts are
    the asserted bars (deterministic); wall clock is recorded for the
    artifact only — a ~25-design replay gap drowns in shared-box noise.
    """
    local = LocalSession(ARRAY).sweep(["gemm"])
    local_evaluated = sum(r.stats.evaluated for r in local)

    runs = {
        "rerun": _crash_recovery_sweep(tmp_path / "rerun", journal=False),
        "resume": _crash_recovery_sweep(tmp_path / "resume", journal=True),
    }

    table = []
    out = {"designs": local_evaluated}
    evaluated = {}
    for label, (results, elapsed, report) in runs.items():
        # fold identity first: recovery must be invisible in the results
        assert _digest(results) == _digest(local), label
        assert report["resumed"] >= 1, (label, report)
        evaluated[label] = sum(r.stats.evaluated for r in results)
        table.append([
            label,
            f"{report['rows_replayed']}",
            f"{evaluated[label]}",
            f"{elapsed:.2f}",
        ])
        out[label] = {
            "rows_replayed": report["rows_replayed"],
            "evaluations": evaluated[label],
            "wall_s": elapsed,
        }

    print_table(
        f"crash recovery: single server SIGKILLed+restarted mid-sweep "
        f"({local_evaluated} designs)",
        ["transport", "rows replayed", "evaluations", "sweep s"],
        table,
    )

    # the bar journals exist for: re-run pays the whole shard again, resume
    # adopts the journaled prefix and evaluates exactly the remainder
    rerun, resume = runs["rerun"][2], runs["resume"][2]
    assert rerun["rows_replayed"] == 0, rerun
    assert evaluated["rerun"] == local_evaluated, (evaluated, local_evaluated)
    assert resume["rows_replayed"] >= 8, resume
    assert evaluated["resume"] + resume["rows_replayed"] == local_evaluated
    assert evaluated["resume"] < evaluated["rerun"], evaluated

    artifact = _merge_artifact({"crash_recovery": out})
    print(f"  wrote {artifact}")


def _watch_job(remote, workloads, *, snapshot_mode, poll_interval=0.02):
    """Submit one stream_rows job and poll it to completion, tallying bytes.

    ``snapshot_mode=True`` polls ``since=0`` every round (the full row list
    so far — what a cursor-less client must do for live rows);
    ``snapshot_mode=False`` advances the cursor so each poll carries only
    new rows.  Returns (rows_seen, polls, payload_bytes).
    """
    job = remote.submit_job(
        ["gemm"] * workloads,
        extents={"m": 32, "n": 32, "k": 32},
        one_d_only=True,
        stream_rows=True,
    )
    cursor = 0
    rows_seen = 0
    polls = 0
    payload_bytes = 0
    while True:
        snapshot = remote.poll_job(
            job["id"], since=0 if snapshot_mode else cursor
        )
        polls += 1
        payload_bytes += len(json.dumps(snapshot).encode())
        if snapshot_mode:
            rows_seen = snapshot["rows_total"]
        else:
            rows_seen += len(snapshot["rows"])
        cursor = snapshot["rows_total"]
        if snapshot["status"] in ("done", "failed", "cancelled"):
            assert snapshot["status"] == "done", snapshot
            return rows_seen, polls, payload_bytes
        time.sleep(poll_interval)


def test_streaming_vs_snapshot_poll_payload():
    """Cursor polls ship each row once; since=0 polls re-ship the world.

    The byte ratio between the two must *grow* with sweep length — the
    snapshot path is superlinear in rows while the streaming path is linear.
    """
    lengths = [1, 3]
    table = []
    ratios = []
    # no memo cache: every job is equally cold, so both modes watch the
    # same amount of work and the poll schedules are comparable
    with ServiceThread(LocalSession(ARRAY)) as node:
        remote = RemoteSession(node.url)
        for length in lengths:
            stream_rows, stream_polls, stream_bytes = _watch_job(
                remote, length, snapshot_mode=False
            )
            snap_rows, snap_polls, snap_bytes = _watch_job(
                remote, length, snapshot_mode=True
            )
            assert stream_rows == snap_rows > 0  # both watched every design
            ratio = snap_bytes / stream_bytes
            ratios.append(ratio)
            table.append(
                [
                    f"{length} workload(s)",
                    f"{stream_rows}",
                    f"{stream_polls} / {snap_polls}",
                    f"{stream_bytes:,}",
                    f"{snap_bytes:,}",
                    f"{ratio:.1f}x",
                ]
            )
        remote.close()

    print_table(
        "job-row polling: cursor (since=<seq>) vs full snapshot (since=0)",
        ["sweep length", "rows", "polls s/f", "stream B", "snapshot B", "ratio"],
        table,
    )

    # the snapshot path re-ships rows: strictly more bytes at every length
    assert all(r > 1.0 for r in ratios), ratios
    # and the gap widens superlinearly with sweep length: tripling the work
    # must grow the byte *ratio*, not just the byte counts
    assert ratios[-1] > ratios[0], ratios
