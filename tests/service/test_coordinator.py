"""The sweep coordinator: sharding, failure reassignment, 503 back-off, folds.

Every equality assertion here is against a plain ``LocalSession.sweep()`` on
the same grid — the coordinator's contract is that distribution is invisible
in the results: same order, same metrics, same structured failures, however
the shards landed and whichever servers died along the way.
"""

import re

import pytest

from repro.api import LocalSession
from repro.explore.engine import MemoCache
from repro.perf.model import ArrayConfig
from repro.service import (
    CoordinatedSession,
    RemoteSession,
    ServiceBusyError,
    ServiceThread,
    SweepCoordinator,
)

from .faultlib import ServerProcess

ARRAY = ArrayConfig(rows=8, cols=8)
SMALL_ARRAY = ArrayConfig(rows=4, cols=4)
WORKLOADS = ["gemm", "batched_gemv"]
#: Wire-serializable engine options that keep each shard fast.
SWEEP_KW = dict(one_d_only=True, selections=[("m", "n", "k")])


def names_and_metrics(results):
    return [[(p.name, p.metrics()) for p in r] for r in results]


def failure_rows(results):
    return [
        [(p.name, p.failure.stage, p.failure.reason) for p in r.failures]
        for r in results
    ]


@pytest.fixture(scope="module")
def local_results():
    return LocalSession(ARRAY).sweep(WORKLOADS, **SWEEP_KW)


@pytest.fixture(scope="module")
def fleet():
    """Two live servers, each with its own in-memory memo cache."""
    with ServiceThread(LocalSession(ARRAY, cache=MemoCache())) as a:
        with ServiceThread(LocalSession(ARRAY, cache=MemoCache())) as b:
            yield a, b


class TestDeterministicFold:
    def test_matches_local_sweep(self, fleet, local_results):
        a, b = fleet
        session = CoordinatedSession([a.url, b.url], array=ARRAY)
        results = session.sweep(WORKLOADS, **SWEEP_KW)
        assert [r.workload for r in results] == [r.workload for r in local_results]
        assert names_and_metrics(results) == names_and_metrics(local_results)
        assert failure_rows(results) == failure_rows(local_results)
        report = session.coordinator.last_report
        assert report["shards"] == 2 and report["jobs"] == 2
        assert report["servers_lost"] == 0
        session.close()

    @pytest.mark.parametrize("max_inflight", [None, 1])
    def test_multi_config_order_is_configs_major(self, fleet, max_inflight):
        a, b = fleet
        configs = [ARRAY, SMALL_ARRAY]
        lanes = {} if max_inflight is None else {"max_inflight": max_inflight}
        session = CoordinatedSession([a.url, b.url], array=ARRAY, **lanes)
        results = session.sweep(WORKLOADS, configs=configs, **SWEEP_KW)
        local = LocalSession(ARRAY).sweep(WORKLOADS, configs=configs, **SWEEP_KW)
        assert [(r.workload, r.array) for r in results] == [
            (r.workload, r.array) for r in local
        ]
        assert names_and_metrics(results) == names_and_metrics(local)
        if max_inflight == 1:
            # four shards over two one-lane servers: both carried work
            assert all(s.completed > 0 for s in session.coordinator.servers)
        session.close()

    def test_stats_travel_with_job_results(self, fleet, local_results):
        a, b = fleet
        session = CoordinatedSession([a.url], array=ARRAY)
        (result, _) = session.sweep(WORKLOADS, **SWEEP_KW)
        assert result.stats.enumerated == len(result.points) + len(result.failures)
        assert result.stats.enumerated == local_results[0].stats.enumerated
        session.close()

    def test_empty_sweep(self, fleet):
        a, _ = fleet
        session = CoordinatedSession([a.url], array=ARRAY)
        assert session.sweep([]) == []
        session.close()

    def test_unknown_option_rejected_before_dispatch(self, fleet):
        a, _ = fleet
        session = CoordinatedSession([a.url], array=ARRAY)
        with pytest.raises(ValueError, match="unknown explore option"):
            session.sweep(WORKLOADS, bogus_option=True)
        session.close()


class TestFailureModes:
    def test_dead_server_work_is_reassigned(self, fleet, local_results):
        """A server that is gone before the sweep starts forfeits its shards."""
        a, _ = fleet
        session = CoordinatedSession(
            ["http://127.0.0.1:9", a.url], array=ARRAY, backoff=0.01
        )
        results = session.sweep(WORKLOADS, **SWEEP_KW)
        assert names_and_metrics(results) == names_and_metrics(local_results)
        assert session.coordinator.last_report["servers_lost"] == 1
        session.close()

    def test_server_killed_mid_sweep_is_reassigned(self, local_results):
        """The acceptance scenario: kill a shard's server after its job was
        submitted; the coordinator must notice when the row stream dies and
        re-run the shard on the survivor, with a fold identical to local."""
        victim = ServiceThread(LocalSession(ARRAY)).start()
        survivor = ServiceThread(LocalSession(ARRAY)).start()

        class KillAfterSubmit(RemoteSession):
            armed = True

            def submit_job(self, *args, **kwargs):
                job = super().submit_job(*args, **kwargs)
                if KillAfterSubmit.armed and self.url == victim.url:
                    KillAfterSubmit.armed = False
                    victim.stop()  # the server dies with the job in flight
                return job

        def factory(url):
            return KillAfterSubmit(url, array=ARRAY, retries=1, backoff=0.01)

        try:
            coordinator = SweepCoordinator(
                [victim.url, survivor.url],
                array=ARRAY,
                max_inflight=1,
                session_factory=factory,
            )
            results = coordinator.sweep(WORKLOADS, **SWEEP_KW)
            assert names_and_metrics(results) == names_and_metrics(local_results)
            report = coordinator.last_report
            assert report["servers_lost"] == 1
            assert report["reassigned"] >= 1
            coordinator.close()
        finally:
            victim.stop()
            survivor.stop()

    def test_all_servers_dead_raises(self):
        session = CoordinatedSession(
            ["http://127.0.0.1:9", "http://127.0.0.1:10"],
            array=ARRAY,
            backoff=0.01,
        )
        with pytest.raises(RuntimeError, match="servers are gone"):
            session.sweep(WORKLOADS, **SWEEP_KW)
        session.close()

    @pytest.mark.parametrize("status", ["failed", "cancelled"])
    def test_shard_failure_budget_raises(self, fleet, status):
        """A shard whose jobs keep ending failed or cancelled must raise,
        never silently drop work (both are retryable job failures, not a
        lost server)."""
        a, _ = fleet

        class AlwaysFailJobs(RemoteSession):
            def job_rows_async(self, job_id, **kwargs):
                inner = super().job_rows_async(job_id, **kwargs)

                async def failing():
                    # every attempt ends with `status`, however fast the
                    # server ran the job (cancelling it after submit was a
                    # race the job could win)
                    async for frame in inner:
                        if frame.get("row") == "end":
                            yield {"row": "end", "status": status, "error": "injected"}
                            return
                        yield frame

                return failing()

        coordinator = SweepCoordinator(
            [a.url],
            array=ARRAY,
            max_retries=1,
            session_factory=lambda url: AlwaysFailJobs(url, array=ARRAY),
        )
        with pytest.raises(RuntimeError, match="failed after"):
            coordinator.sweep(WORKLOADS, **SWEEP_KW)
        coordinator.close()


class TestCacheFold:
    def test_remote_caches_fold_into_local(self, tmp_path, local_results):
        cache_path = tmp_path / "fold.json"
        with ServiceThread(LocalSession(ARRAY, cache=MemoCache())) as thread:
            session = CoordinatedSession([thread.url], array=ARRAY, cache=cache_path)
            session.sweep(WORKLOADS, **SWEEP_KW)
            session.close()
        assert cache_path.exists()
        folded = MemoCache(cache_path)
        stats = folded.stats()
        # the servers' engine sections made it into the local fold cache
        assert stats["points"] > 0 and stats["spaces"] > 0
        # and the folded cache warms a plain LocalSession to zero evaluations
        warm = LocalSession(ARRAY, cache=folded).sweep(WORKLOADS, **SWEEP_KW)
        assert all(r.stats.evaluated == 0 for r in warm)
        assert names_and_metrics(warm) == names_and_metrics(local_results)


def busy_sessions(busy):
    """``url -> RemoteSession`` whose submits answer 503 while ``busy(url)``."""

    class BusySession(RemoteSession):
        def submit_job(self, *args, **kwargs):
            if busy(self.url):
                raise ServiceBusyError("job queue full")
            return super().submit_job(*args, **kwargs)

    return lambda url: BusySession(url, array=ARRAY)


class TestBackOff:
    """A 503 on submit is back-pressure: the shard waits at the head of the
    queue, spending no retry and excluding no server."""

    def test_busy_submits_back_off_without_spending_retries(self, fleet, local_results):
        a, _ = fleet
        full = iter(range(3))  # the first three submits find the queue full
        events = []
        coordinator = SweepCoordinator(
            [a.url],
            array=ARRAY,
            max_retries=0,
            on_event=events.append,
            session_factory=busy_sessions(lambda url: next(full, None) is not None),
        )
        results = coordinator.sweep(WORKLOADS, **SWEEP_KW)
        assert names_and_metrics(results) == names_and_metrics(local_results)
        assert failure_rows(results) == failure_rows(local_results)
        report = coordinator.last_report
        assert report["busy"] == 3 and report["reassigned"] == 0
        assert report["jobs"] == report["shards"]
        assert [e["server"] for e in events if e["event"] == "busy"] == [a.url] * 3
        coordinator.close()

    @pytest.mark.parametrize("shard_size", [1, 2])
    def test_always_busy_server_leaves_every_shard_to_the_other(self, fleet, shard_size):
        a, b = fleet
        configs = [ARRAY, SMALL_ARRAY]
        local = LocalSession(ARRAY).sweep(WORKLOADS, configs=configs, **SWEEP_KW)
        coordinator = SweepCoordinator(
            [a.url, b.url],
            array=ARRAY,
            shard_size=shard_size,
            max_retries=0,
            session_factory=busy_sessions(lambda url: url == a.url),
        )
        results = coordinator.sweep(WORKLOADS, configs=configs, **SWEEP_KW)
        assert names_and_metrics(results) == names_and_metrics(local)
        assert failure_rows(results) == failure_rows(local)
        report = coordinator.last_report
        assert report["busy"] >= 1 and report["reassigned"] == 0
        assert report["jobs"] == report["shards"]
        assert [s.completed for s in coordinator.servers] == [0, report["shards"]]
        coordinator.close()

    def test_done_end_frame_without_snapshot_raises(self, fleet):
        """Every /rows end frame embeds the terminal snapshot: a done frame
        without one is a server bug, so the sweep raises."""
        a, _ = fleet

        class SnapshotlessEnd(RemoteSession):
            def job_rows_async(self, job_id, **kwargs):
                inner = super().job_rows_async(job_id, **kwargs)

                async def stripped():
                    async for frame in inner:
                        frame.pop("job", None)
                        yield frame

                return stripped()

        coordinator = SweepCoordinator(
            [a.url],
            array=ARRAY,
            session_factory=lambda url: SnapshotlessEnd(url, array=ARRAY),
        )
        with pytest.raises(RuntimeError, match=rf"{re.escape(a.url)} ended job job-\d+"):
            coordinator.sweep(WORKLOADS, **SWEEP_KW)
        coordinator.close()


class TestIncrementalStreaming:
    """The /rows fold path: rows stream, snapshots never re-ship."""

    def test_rows_streamed_not_reshipped(self, fleet, local_results):
        """The fold is built from the pushed row stream: the report counts
        exactly one streamed row per design, and the terminal snapshot
        (records + stats, no rows) rides the end frame — a completed job
        costs zero poll round-trips."""
        a, b = fleet

        class RecordingSession(RemoteSession):
            snapshots = []

            def job(self, job_id):
                snapshot = super().job(job_id)
                RecordingSession.snapshots.append(snapshot)
                return snapshot

        RecordingSession.snapshots = []
        coordinator = SweepCoordinator(
            [a.url, b.url],
            array=ARRAY,
            session_factory=lambda url: RecordingSession(url, array=ARRAY),
        )
        results = coordinator.sweep(WORKLOADS, **SWEEP_KW)
        assert names_and_metrics(results) == names_and_metrics(local_results)
        total_rows = sum(len(r.points) + len(r.failures) for r in results)
        assert coordinator.last_report["rows_streamed"] == total_rows
        # every row crossed the wire exactly once — on the stream; the
        # terminal snapshot arrived on the end frame, so no job ever
        # needed a poll round-trip
        assert RecordingSession.snapshots == []
        coordinator.close()

    def test_cursor_reset_refolds_without_duplication(self, fleet, local_results):
        """A mid-stream reset frame (the server re-ran the job / restarted
        its log) drops the partial fold and rebuilds from the replay — the
        result is identical, never doubled."""
        a, _ = fleet

        class ResetMidStream(RemoteSession):
            armed = True

            def job_rows_async(self, job_id, *, since=0, **kwargs):
                inner = super().job_rows_async(job_id, since=since, **kwargs)

                async def wrapped():
                    streamed = 0
                    async for frame in inner:
                        yield frame
                        if frame.get("row") in ("point", "failure"):
                            streamed += 1
                            if ResetMidStream.armed and streamed >= 1:
                                # fake a log restart after the first folded
                                # row: reset, then replay the log from 0
                                ResetMidStream.armed = False
                                break
                    else:
                        return
                    await inner.aclose()
                    yield {"row": "reset"}
                    replay = RemoteSession.job_rows_async(
                        self, job_id, since=0, **kwargs
                    )
                    async for frame in replay:
                        if frame.get("row") == "start":
                            continue
                        yield frame

                return wrapped()

        ResetMidStream.armed = True
        coordinator = SweepCoordinator(
            [a.url],
            array=ARRAY,
            session_factory=lambda url: ResetMidStream(url, array=ARRAY),
        )
        results = coordinator.sweep(WORKLOADS, **SWEEP_KW)
        assert not ResetMidStream.armed, "no stream ever carried a data row"
        assert names_and_metrics(results) == names_and_metrics(local_results)
        coordinator.close()

    def test_vanished_job_is_requeued_and_refolded(self, fleet, local_results):
        """A server that answers but no longer knows the job (restarted,
        pruned) voids the cursor: the shard re-runs from scratch."""
        a, _ = fleet
        events = []

        class ForgetfulServer(RemoteSession):
            armed = True

            def job_rows_async(self, job_id, **kwargs):
                if ForgetfulServer.armed:
                    ForgetfulServer.armed = False

                    async def forgot():
                        raise LookupError(f"no such job {job_id!r}")
                        yield  # noqa: B901 — unreachable; makes a generator

                    return forgot()
                return super().job_rows_async(job_id, **kwargs)

        ForgetfulServer.armed = True
        coordinator = SweepCoordinator(
            [a.url],
            array=ARRAY,
            on_event=events.append,
            session_factory=lambda url: ForgetfulServer(url, array=ARRAY),
        )
        results = coordinator.sweep(WORKLOADS, **SWEEP_KW)
        assert names_and_metrics(results) == names_and_metrics(local_results)
        assert coordinator.last_report["reassigned"] >= 1
        kinds = [e["event"] for e in events]
        assert "job_vanished" in kinds and "reassigned" in kinds
        vanished = next(e for e in events if e["event"] == "job_vanished")
        assert vanished["server"] == a.url and vanished["job"].startswith("job-")
        coordinator.close()

    def _sweep_resubmitted(self, a, session_cls):
        """Sweep with a restart grace; assert the one vanished job was
        resubmitted in place (no reassignment) and every design folded
        exactly once.  Returns the results and the coordinator's events."""
        events = []
        coordinator = SweepCoordinator(
            [a.url],
            array=ARRAY,
            restart_grace=5.0,
            on_event=events.append,
            session_factory=lambda url: session_cls(url, array=ARRAY),
        )
        results = coordinator.sweep(WORKLOADS, **SWEEP_KW)
        report = coordinator.last_report
        coordinator.close()
        kinds = [e["event"] for e in events]
        assert kinds.count("job_vanished") == 1 and kinds.count("job_resumed") == 1
        assert report["resumed"] == 1 and report["reassigned"] == 0
        designs = sum(len(r.points) + len(r.failures) for r in results)
        assert report["rows_streamed"] == designs
        return results, events

    def test_vanished_job_is_resubmitted_within_grace(self, fleet, local_results):
        """With a restart grace, a job the server no longer knows is
        resubmitted under its original submit key and the stream resumes."""
        a, _ = fleet

        class ForgetsOnce(RemoteSession):
            armed = True

            def job_rows_async(self, job_id, **kwargs):
                if ForgetsOnce.armed:
                    ForgetsOnce.armed = False

                    async def forgot():
                        raise LookupError(f"no such job {job_id!r}")
                        yield  # noqa: B901 — unreachable; makes a generator

                    return forgot()
                return super().job_rows_async(job_id, **kwargs)

        results, _ = self._sweep_resubmitted(a, ForgetsOnce)
        assert not ForgetsOnce.armed
        assert names_and_metrics(results) == names_and_metrics(local_results)
        assert failure_rows(results) == failure_rows(local_results)

    @pytest.mark.parametrize("folded", [0, 3])
    def test_dead_stream_then_forgotten_job_is_resubmitted(self, local_results, folded):
        """A row stream that dies after ``folded`` rows, on a server that
        then answers but no longer knows the job (it restarted without a
        journal), takes the same resubmit path.  The server runs a fresh job
        under the same submit key, whose deterministic rows line up with the
        cursor the coordinator still holds: the stream resumes past the
        folded prefix, and the fold is local's."""

        class DiesThenForgets(RemoteSession):
            armed = True
            lost = None

            def job_rows_async(self, job_id, **kwargs):
                inner = super().job_rows_async(job_id, **kwargs)
                if not DiesThenForgets.armed:
                    return inner
                DiesThenForgets.armed = False

                async def dies_after_rows():
                    seen = 0
                    async for frame in inner:
                        if frame.get("row") in ("point", "failure"):
                            if seen == folded:
                                break
                            seen += 1
                        yield frame
                    await inner.aclose()
                    DiesThenForgets.lost = job_id
                    raise ConnectionError("stream reset")

                return dies_after_rows()

            def job(self, job_id):
                if job_id == DiesThenForgets.lost:
                    # the restart probe: the server forgot the job, so the
                    # resubmit's submit_key cannot dedup back to it
                    a.service.jobs.pop(job_id, None)
                    raise LookupError(f"no such job {job_id!r}")
                return super().job(job_id)

        # no memo cache: like a restarted server, the re-run evaluates its
        # whole shard again
        with ServiceThread(LocalSession(ARRAY)) as a:
            results, events = self._sweep_resubmitted(a, DiesThenForgets)
        lost = DiesThenForgets.lost
        assert lost is not None, "the armed stream ended before it died"
        assert names_and_metrics(results) == names_and_metrics(local_results)
        assert failure_rows(results) == failure_rows(local_results)
        vanished = next(e for e in events if e["event"] == "job_vanished")
        resumed = next(e for e in events if e["event"] == "job_resumed")
        assert vanished["job"] == lost
        assert resumed["job"] != lost and resumed["since"] == folded
        assert [r.stats.evaluated for r in results] == [
            r.stats.evaluated for r in local_results
        ]


class TestPipelinedFolding:
    """The asyncio dispatch loop: stream-kill reassignment, the bounded
    fold queue under backpressure, and concurrent capacity probing."""

    def test_stream_death_mid_row_triggers_immediate_requeue(self, local_results):
        """SIGKILL-equivalent while a row stream is OPEN: the consumer dies
        with the connection, the shard requeues at once (no poll round to
        wait for), and the survivor's fold is identical to local."""
        import asyncio

        victim = ServiceThread(LocalSession(ARRAY)).start()
        survivor = ServiceThread(LocalSession(ARRAY)).start()

        class KillOnFirstStreamedRow(RemoteSession):
            armed = True

            def job_rows_async(self, job_id, **kwargs):
                inner = super().job_rows_async(job_id, **kwargs)
                if self.url != victim.url:
                    return inner

                async def wrapped():
                    async for frame in inner:
                        if (
                            KillOnFirstStreamedRow.armed
                            and frame.get("row") in ("point", "failure")
                        ):
                            KillOnFirstStreamedRow.armed = False
                            # stop() joins the server thread: keep the event
                            # loop responsive by parking it on the executor
                            await asyncio.get_running_loop().run_in_executor(
                                None, victim.stop
                            )
                        yield frame

                return wrapped()

        def factory(url):
            return KillOnFirstStreamedRow(url, array=ARRAY, retries=1, backoff=0.01)

        try:
            events = []
            coordinator = SweepCoordinator(
                [victim.url, survivor.url],
                array=ARRAY,
                max_inflight=1,
                on_event=events.append,
                session_factory=factory,
            )
            results = coordinator.sweep(WORKLOADS, **SWEEP_KW)
            assert not KillOnFirstStreamedRow.armed, "no victim stream ever ran"
            assert names_and_metrics(results) == names_and_metrics(local_results)
            report = coordinator.last_report
            assert report["servers_lost"] == 1
            assert report["reassigned"] >= 1
            assert "server_lost" in [e["event"] for e in events]
            coordinator.close()
        finally:
            victim.stop()
            survivor.stop()

    def test_server_process_sigkilled_on_first_streamed_row(self):
        """The same crash against real `repro serve` processes: the victim
        is SIGKILLed the moment one of its jobs streams its first row, so the
        shard dies with its long-poll open and its fold partly built.  The
        survivor takes the shard over, the fold over two array configs is
        local's, and the survivor still shuts down cleanly on SIGINT."""
        import asyncio

        configs = [ARRAY, SMALL_ARRAY]
        local = LocalSession(ARRAY).sweep(WORKLOADS, configs=configs, **SWEEP_KW)
        victim = ServerProcess().start()
        survivor = ServerProcess().start()

        class KillOnFirstStreamedRow(RemoteSession):
            armed = True

            def job_rows_async(self, job_id, **kwargs):
                inner = super().job_rows_async(job_id, **kwargs)
                if self.url != victim.url:
                    return inner

                async def wrapped():
                    async for frame in inner:
                        if (
                            KillOnFirstStreamedRow.armed
                            and frame.get("row") in ("point", "failure")
                        ):
                            KillOnFirstStreamedRow.armed = False
                            # kill() waits for the exit: keep the loop free
                            await asyncio.get_running_loop().run_in_executor(
                                None, victim.kill
                            )
                        yield frame

                return wrapped()

        def factory(url):
            return KillOnFirstStreamedRow(url, array=ARRAY, retries=1, backoff=0.05)

        try:
            coordinator = SweepCoordinator(
                [victim.url, survivor.url],
                array=ARRAY,
                max_inflight=1,
                retries=1,
                backoff=0.05,
                session_factory=factory,
            )
            results = coordinator.sweep(WORKLOADS, configs=configs, **SWEEP_KW)
            report = coordinator.last_report
            coordinator.close()
            assert not KillOnFirstStreamedRow.armed, "the victim never streamed a row"
            assert report["servers_lost"] == 1, report
            assert report["reassigned"] >= 1, report
            assert report["rows_streamed"] > 0, report
            assert [(r.workload, r.array) for r in results] == [
                (r.workload, r.array) for r in local
            ]
            assert names_and_metrics(results) == names_and_metrics(local)
            assert failure_rows(results) == failure_rows(local)
            tail = survivor.interrupt()
            assert survivor.proc.returncode == 0, tail
            assert "shutdown complete" in tail, tail
        finally:
            victim.stop()
            survivor.stop()

    def test_bounded_fold_queue_under_backpressure(self, fleet, local_results):
        """A deliberately slow fold callback throttles the consumers through
        the bounded queue instead of buffering unboundedly — and slowing the
        folder changes neither fold order nor results."""
        import asyncio

        a, b = fleet
        folded = []

        async def slow_fold(point):
            folded.append(point.name)
            await asyncio.sleep(0.002)  # ~5x a typical evaluation

        bound = 4
        coordinator = SweepCoordinator(
            [a.url, b.url],
            array=ARRAY,
            fold_queue=bound,
            on_row=slow_fold,
        )
        results = coordinator.sweep(WORKLOADS, **SWEEP_KW)
        assert names_and_metrics(results) == names_and_metrics(local_results)
        assert failure_rows(results) == failure_rows(local_results)
        total_rows = sum(len(r.points) + len(r.failures) for r in results)
        assert len(folded) == total_rows
        report = coordinator.last_report
        assert report["rows_streamed"] == total_rows
        # the queue high-water mark proves the bound held under pressure
        assert 0 < report["fold_queue_peak"] <= bound
        coordinator.close()

    def test_healthz_probes_run_concurrently(self, fleet):
        """A slow (hung) healthz answer delays sweep start by ~one probe,
        not one per server — the probes fan out together."""
        import time as _time

        a, _ = fleet
        delay = 0.8

        class SlowHealthz(RemoteSession):
            def _call(self, method, path, payload=None):
                if path == "/v1/healthz":
                    _time.sleep(delay)
                return super()._call(method, path, payload)

        coordinator = SweepCoordinator(
            [a.url, a.url, a.url],
            array=ARRAY,
            session_factory=lambda url: SlowHealthz(url, array=ARRAY),
        )
        t0 = _time.monotonic()
        results = coordinator.sweep(["gemm"], **SWEEP_KW)
        elapsed = _time.monotonic() - t0
        assert len(results) == 1
        # serial probing alone would cost 3 * delay = 2.4s
        assert elapsed < 3 * delay
        coordinator.close()


class TestSharding:
    def test_shard_size_groups_items_fold_identical(self, fleet):
        """shard_size > 1 groups several (config, workload) items per job;
        the folded list stays bit-identical to local, configs-major."""
        a, b = fleet
        configs = [ARRAY, SMALL_ARRAY]
        local = LocalSession(ARRAY).sweep(WORKLOADS, configs=configs, **SWEEP_KW)
        session = CoordinatedSession(
            [a.url, b.url], array=ARRAY, shard_size=2
        )
        results = session.sweep(WORKLOADS, configs=configs, **SWEEP_KW)
        assert [(r.workload, r.array) for r in results] == [
            (r.workload, r.array) for r in local
        ]
        assert names_and_metrics(results) == names_and_metrics(local)
        assert failure_rows(results) == failure_rows(local)
        report = session.coordinator.last_report
        # 2 configs x 2 workloads = 4 items in 2 two-item shards
        assert report["items"] == 4 and report["shards"] == 2
        assert report["jobs"] == 2
        # grouped jobs still stream one wire row per design
        assert report["rows_streamed"] == sum(len(r) + len(r.failures) for r in local)
        session.close()

    def test_oversized_shard_is_one_job_per_config(self, fleet, local_results):
        a, _ = fleet
        session = CoordinatedSession([a.url], array=ARRAY, shard_size=64)
        results = session.sweep(WORKLOADS, **SWEEP_KW)
        assert names_and_metrics(results) == names_and_metrics(local_results)
        assert session.coordinator.last_report["shards"] == 1
        session.close()

    def test_shard_size_validated(self, fleet):
        a, _ = fleet
        with pytest.raises(ValueError, match="shard_size"):
            SweepCoordinator([a.url], shard_size=0)

    def test_max_jobs_clamps_inflight_from_healthz(self, fleet):
        """Each server gets max_inflight lanes, clamped by the max_jobs queue
        depth its healthz advertises; an older server's `workers` field is
        ignored."""
        a, _ = fleet

        def probe_with(info_overrides, **kwargs):
            class AdvertisingSession(RemoteSession):
                def _call(self, method, path, payload=None):
                    out = super()._call(method, path, payload)
                    if path == "/v1/healthz":
                        out.update(info_overrides)
                    return out

            coordinator = SweepCoordinator(
                [a.url],
                array=ARRAY,
                session_factory=lambda url: AdvertisingSession(url, array=ARRAY),
                **kwargs,
            )
            server = coordinator.servers[0]
            coordinator._probe(server)
            capacity = coordinator._inflight_limit(server)
            coordinator.close()
            return capacity

        assert probe_with({}, max_inflight=3) == 3
        assert probe_with({"max_jobs": 2}, max_inflight=3) == 2
        assert probe_with({"max_jobs": 16}, max_inflight=3) == 3
        # an older server advertising a process pool leaves the baseline
        assert probe_with({"workers": 6}) == 2
        assert probe_with({"workers": 6, "max_jobs": 4}, max_inflight=5) == 4


class TestSessionSurface:
    def test_evaluate_and_names_fail_over(self, fleet):
        a, _ = fleet
        session = CoordinatedSession(
            ["http://127.0.0.1:9", a.url], array=ARRAY, backoff=0.01
        )
        result = session.evaluate("gemm", "MNK-SST", extents={"m": 4, "n": 4, "k": 4})
        assert result.ok
        rows = session.evaluate_names("gemm", ["MNK-SST"])
        assert rows[0][0] == "MNK-SST"
        assert session.coordinator.servers[0].healthy is False
        session.close()

    def test_evaluate_many_spreads_and_reassembles(self, fleet):
        a, b = fleet
        session = CoordinatedSession([a.url, b.url], array=ARRAY)
        requests = [
            session.request(
                "gemm", name, backend=backend, extents={"m": 4, "n": 4, "k": 4}
            )
            for name in ("MNK-SST", "MNK-MTM")
            for backend in ("perf", "cost")
        ]
        results = session.evaluate_many(requests)
        local = LocalSession(ARRAY).evaluate_many(requests)
        assert [r.metrics for r in results] == [r.metrics for r in local]
        session.close()

    def test_explore_rides_one_server(self, fleet):
        a, b = fleet
        session = CoordinatedSession([a.url, b.url], array=ARRAY)
        result = session.explore("gemm", **SWEEP_KW)
        local = LocalSession(ARRAY).explore("gemm", **SWEEP_KW)
        assert [p.metrics() for p in result] == [p.metrics() for p in local]
        session.close()

    def test_cache_stats_aggregates(self, fleet):
        a, b = fleet
        session = CoordinatedSession([a.url, b.url], array=ARRAY)
        session.evaluate("gemm", "MNK-SST", extents={"m": 4, "n": 4, "k": 4})
        stats = session.cache_stats()
        assert stats.get("api", 0) >= 1
        session.close()
