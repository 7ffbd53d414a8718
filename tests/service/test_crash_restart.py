"""Crash-only operation: SIGKILL a journaled server, restart it, lose nothing.

Every test here runs a *real* ``repro serve`` subprocess (via
:mod:`tests.service.faultlib`) with ``--journal-dir``, kills it with SIGKILL
at a parametrized point of a job's life, restarts it **on the same port**,
and asserts the journal contract from the outside:

- the job is rebuilt — rows, cursor, records, status, ``submit_key`` dedup —
  and an interrupted job finishes with the journaled prefix *adopted*, not
  re-evaluated (``replayed_rows``);
- a client row stream resumes across the crash from its last ``seq`` with no
  duplicate and no missing row;
- a coordinated sweep rides ``restart_grace`` through the crash and ends
  with a fold bit-identical to ``LocalSession.sweep()`` and **zero repeated
  evaluations** (``sum(stats.evaluated) + rows_replayed`` equals the local
  evaluation count exactly).

One sweep runs without ``--journal-dir``, as the baseline the journal
improves on: the restarted server has forgotten the job, the coordinator
resubmits it, and the fresh run's rows line up with the coordinator's
cursor — the same fold, with every design evaluated again.

The in-process :class:`ServiceThread` appears only where subprocess timing
would make an assertion racy (the cursor-boundary regression), never for the
kill itself — a crash that runs ``finally`` blocks is not a crash.
"""

import threading
import time

import pytest

from repro.api import LocalSession
from repro.perf.model import ArrayConfig
from repro.service import RemoteSession, ServiceThread, SweepCoordinator

from .faultlib import (
    ServerProcess,
    data_rows,
    journaled_rows,
    journaled_terminal,
    wait_for,
)

ARRAY = ArrayConfig(rows=8, cols=8)
#: One mid-size job: 786 designs, a few tenths of a second — long enough
#: that a kill triggered off the journal lands mid-run, short enough for CI.
#: The design count sets the length (a design evaluates in tens of
#: microseconds whatever its extents), so grow the space, not the extents.
WORKLOAD = "depthwise_conv"
EXTENTS = {"k": 8, "y": 8, "x": 8, "p": 3, "q": 3}


def _wait_terminal(remote, job_id, budget=120):
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        job = remote.job(job_id)
        if job["status"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {budget}s")


def _rows(remote, job_id):
    """A terminal job's whole row log, read over the ``/rows`` stream."""
    return data_rows(remote.iter_job_rows(job_id))


def _sans_stats(records):
    # a resumed item's fresh stats honestly count only post-crash
    # evaluations; everything else in the record must be identical
    return [{k: v for k, v in r.items() if k != "stats"} for r in records]


@pytest.fixture(scope="module")
def reference_job():
    """The uninterrupted run every crashed run must reproduce exactly."""
    with ServiceThread(LocalSession(ARRAY)) as srv:
        remote = RemoteSession(srv.url)
        job = remote.submit_job([WORKLOAD], extents=EXTENTS)
        snap = _wait_terminal(remote, job["id"])
        assert snap["status"] == "done", snap
        return _rows(remote, job["id"]), snap["results"]


class TestCrashRestart:
    """SIGKILL at parametrized points; restart must lose nothing."""

    @pytest.mark.parametrize(
        "kill_point", ["after_submit", "mid_stream", "after_terminal"]
    )
    def test_job_survives_kill_and_restart(
        self, tmp_path, kill_point, reference_job
    ):
        ref_rows, ref_results = reference_job
        journal = tmp_path / "journal"
        server = ServerProcess(journal_dir=journal).start()
        try:
            remote = RemoteSession(server.url, retries=1, backoff=0.05)
            job = remote.submit_job(
                [WORKLOAD], extents=EXTENTS, submit_key="crash-restart-1"
            )
            job_id = job["id"]

            if kill_point == "after_submit":
                # header on disk, no rows yet: the rebuilt job re-enters the
                # queue and runs from scratch under its original id
                assert wait_for(
                    lambda: journal.exists() and any(journal.iterdir())
                ), "journal header never reached the disk"
            elif kill_point == "mid_stream":
                assert wait_for(lambda: journaled_rows(journal) >= 5), (
                    "fewer than 5 rows journaled before the job ended"
                )
            else:  # after_terminal: the flip is flushed before the end frame
                assert wait_for(lambda: journaled_terminal(journal))
            server.kill()
            if kill_point == "mid_stream":
                assert not journaled_terminal(journal), (
                    "job finished before the mid-stream kill; grow WORKLOAD's space"
                )

            rows_on_disk = journaled_rows(journal)
            server.restart()
            snap = _wait_terminal(remote, job_id)
            assert snap["status"] == "done", snap

            # bit-identical recovery: same rows, same records
            assert _rows(remote, job_id) == ref_rows
            assert _sans_stats(snap["results"]) == _sans_stats(ref_results)

            if kill_point == "after_terminal":
                # rebuilt terminal job: nothing re-ran, nothing replayed
                assert "resumed" not in snap
            else:
                assert snap.get("resumed") is True
                # zero repeated evaluations: every journaled row was adopted,
                # the fresh stats count exactly the remainder
                assert snap["replayed_rows"] == rows_on_disk
                evaluated = sum(r["stats"]["evaluated"] for r in snap["results"])
                assert evaluated + snap["replayed_rows"] == len(ref_rows)

            # submit_key dedup survives the restart: a transport-retried
            # POST lands on the rebuilt job instead of double-enqueueing
            dup = remote.submit_job(
                [WORKLOAD], extents=EXTENTS, submit_key="crash-restart-1"
            )
            assert dup["id"] == job_id
        finally:
            server.stop()

    def test_row_stream_resumes_across_kill(self, tmp_path, reference_job):
        """A client long-poll rides the crash: its retry loop reconnects to
        the restarted server with ``since=<last seq>`` and the merged stream
        has every row exactly once — no duplicates, no gaps."""
        ref_rows, _ = reference_job
        journal = tmp_path / "journal"
        server = ServerProcess(journal_dir=journal).start()
        restarted = threading.Event()

        def killer():
            if not wait_for(lambda: journaled_rows(journal) >= 5):
                return  # the stream loop below will fail loudly on the count
            server.kill()
            time.sleep(0.3)  # a visible outage, not an instant flap
            server.restart()
            restarted.set()

        try:
            # a generous retry budget: the client must outlive the restart
            # (subprocess startup is seconds), not declare the server dead
            remote = RemoteSession(server.url, retries=60, backoff=0.2)
            job = remote.submit_job([WORKLOAD], extents=EXTENTS)
            kt = threading.Thread(target=killer)
            kt.start()
            frames = list(remote.iter_job_rows(job["id"]))
            kt.join(timeout=120)
            assert not any(f.get("row") == "reset" for f in frames), (
                "a deterministic resume must never reset the cursor"
            )
            seqs = [f["seq"] for f in data_rows(frames)]
            assert restarted.is_set(), "server never restarted"
            assert seqs == list(range(1, len(ref_rows) + 1))
            snap = remote.job(job["id"])
            assert snap["status"] == "done"
            assert snap.get("resumed") is True
        finally:
            server.stop()


class TestCursorBoundary:
    """Regression: a restart landing *exactly* on the last folded row.

    ``since == rows_total`` on a journal-rebuilt job is a valid cursor one
    past the end of the log — a plain "nothing new" resume.  An off-by-one
    that treats it as stale (``cursor_reset``) would discard the caller's
    whole fold; one that treats ``rows_total - 1`` as consumed would drop
    the final row.  Pin both edges, against a rebuilt job on a restarted
    server (in-process: the boundary is about cursor math, not crash I/O).
    """

    def test_since_on_last_row_is_plain_resume(self, tmp_path):
        journal = tmp_path / "journal"
        srv = ServiceThread(LocalSession(ARRAY), journal_dir=journal).start()
        try:
            remote = RemoteSession(srv.url)
            job = remote.submit_job(
                ["batched_gemv"],
                one_d_only=True,
                extents={"m": 8, "n": 8, "k": 8},
            )
            snap = _wait_terminal(remote, job["id"])
            assert snap["status"] == "done"
            total = len(_rows(remote, job["id"]))
            assert total > 0
            port = srv.port
        finally:
            srv.stop()

        srv = ServiceThread(
            LocalSession(ARRAY), port=port, journal_dir=journal
        ).start()
        try:
            remote = RemoteSession(srv.url)
            # exactly on the end of the log: no reset, no rows, clean end
            frames = list(remote.iter_job_rows(job["id"], since=total))
            assert [f["row"] for f in frames] == ["start", "end"]
            assert "cursor_reset" not in frames[0]
            assert frames[-1]["rows_total"] == total
            # one before the end: exactly the final row, never a replay
            start, last, end = list(
                remote.iter_job_rows(job["id"], since=total - 1)
            )
            assert last["seq"] == total and end["row"] == "end"
            # one PAST the end is a stale cursor from another life: reset
            stale = list(remote.iter_job_rows(job["id"], since=total + 1))
            assert stale[0].get("cursor_reset") is True
            assert [f["seq"] for f in stale[1:-1]] == list(range(1, total + 1))
        finally:
            srv.stop()


class TestCrashRestartSweep:
    """The acceptance scenario, end to end."""

    def test_kill9_mid_sweep_zero_repeated_evaluations(self, tmp_path):
        workloads = ["gemm", "batched_gemv", "depthwise_conv"]
        local = LocalSession(ARRAY).sweep(workloads)
        local_evaluated = sum(r.stats.evaluated for r in local)

        victim = ServerProcess(journal_dir=tmp_path / "victim").start()
        survivor = ServerProcess(journal_dir=tmp_path / "survivor").start()
        events = []
        outage = {}

        def killer():
            if not wait_for(lambda: journaled_rows(tmp_path / "victim") >= 4):
                return
            victim.kill()
            outage["killed"] = True
            victim.restart()
            outage["back"] = True

        try:
            coordinator = SweepCoordinator(
                [victim.url, survivor.url],
                array=ARRAY,
                restart_grace=60.0,
                retries=1,
                backoff=0.05,
                on_event=lambda e: events.append(dict(e)),
            )
            kt = threading.Thread(target=killer)
            kt.start()
            results = coordinator.sweep(workloads)
            kt.join(timeout=120)
            report = coordinator.last_report
            coordinator.close()

            assert outage.get("killed"), "victim never produced 4 journaled rows"
            assert outage.get("back"), "victim never came back up"
            # the fold is bit-identical to a local sweep...
            assert [r.workload for r in results] == [r.workload for r in local]
            assert [[(p.name, p.metrics()) for p in r] for r in results] == [
                [(p.name, p.metrics()) for p in r] for r in local
            ]
            assert [len(r.failures) for r in results] == [
                len(r.failures) for r in local
            ]
            # ...reached by resuming, not re-running: no shard was forfeited,
            # and the fleet evaluated each design exactly once
            assert report["resumed"] >= 1, (report, [e["event"] for e in events])
            assert report["reassigned"] == 0, report
            assert report["servers_lost"] == 0, report
            assert "job_resumed" in [e["event"] for e in events]
            fleet_evaluated = sum(r.stats.evaluated for r in results)
            assert fleet_evaluated + report["rows_replayed"] == local_evaluated
            # both servers, the restarted victim included, shut down cleanly
            for server in (victim, survivor):
                tail = server.interrupt()
                assert server.proc.returncode == 0, tail
                assert "shutdown complete" in tail, tail
        finally:
            victim.stop()
            survivor.stop()

    def test_kill9_without_journal_reruns_behind_the_cursor(self):
        """A server without a journal forgets its jobs when it dies.  The
        coordinator resubmits the shard under its original submit key, the
        restarted server runs it as a fresh job, and that job's deterministic
        rows line up with the cursor the coordinator still holds: the folded
        prefix is kept, each design folds once, and the fold is local's —
        at the price of evaluating the whole shard again."""
        workloads = ["gemm", "batched_gemv", "depthwise_conv"]
        # all three workloads make one ~1,000-design shard: its first row
        # folds within tens of ms of a run that lasts about a second, so the
        # kill lands mid-job with a wide margin
        kill_at = 1
        local = LocalSession(ARRAY).sweep(workloads)
        local_evaluated = sum(r.stats.evaluated for r in local)
        designs = sum(len(r.points) + len(r.failures) for r in local)
        server = ServerProcess().start()
        events = []
        folded = []

        def crash_on_fold(point):
            # on_row runs on the coordinator's fold lane: blocking here holds
            # the sweep still, the job's stream open, while the server dies
            # and comes back on the same port with an empty job table
            folded.append(point)
            if len(folded) == kill_at:
                server.kill()
                server.restart()

        try:
            coordinator = SweepCoordinator(
                [server.url],
                array=ARRAY,
                shard_size=len(workloads),
                restart_grace=60.0,
                retries=1,
                backoff=0.05,
                on_event=lambda e: events.append(dict(e)),
                on_row=crash_on_fold,
            )
            results = coordinator.sweep(workloads)
            report = coordinator.last_report
            coordinator.close()
        finally:
            server.stop()

        assert [[(p.name, p.metrics()) for p in r] for r in results] == [
            [(p.name, p.metrics()) for p in r] for r in local
        ]
        assert [len(r.failures) for r in results] == [len(r.failures) for r in local]
        kinds = [e["event"] for e in events]
        assert kinds.count("job_vanished") == 1, kinds
        resumed = [e for e in events if e["event"] == "job_resumed"]
        assert len(resumed) == 1 and resumed[0]["since"] >= kill_at, resumed
        assert report["resumed"] == 1 and report["reassigned"] == 0, report
        # nothing to adopt without a journal: the fresh job evaluated every
        # design, and the held cursor kept the prefix from folding twice
        assert report["rows_replayed"] == 0
        assert sum(r.stats.evaluated for r in results) == local_evaluated
        assert len(folded) == report["rows_streamed"] == designs
