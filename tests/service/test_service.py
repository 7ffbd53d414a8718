"""The evaluation service: wire protocol, streaming, jobs, shutdown."""

import http.client
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import SCHEMA_VERSION, LocalSession
from repro.api.types import SchemaVersionError
from repro.ir import workloads
from repro.perf.model import ArrayConfig
from repro.service import EvaluationService, RemoteSession, ServiceThread, wire

from .faultlib import data_rows

SMALL = {"m": 4, "n": 4, "k": 4}
SMALL_ARRAY = ArrayConfig(rows=2, cols=2)


@pytest.fixture(scope="module")
def cached_service(tmp_path_factory):
    """A server whose session owns an on-disk memo cache."""
    cache = tmp_path_factory.mktemp("service") / "memo.json"
    session = LocalSession(ArrayConfig(rows=8, cols=8), cache=cache, autoflush=False)
    with ServiceThread(session) as thread:
        yield thread


@pytest.fixture()
def remote(cached_service):
    return RemoteSession(cached_service.url, array=ArrayConfig(rows=8, cols=8))


def _raw(service: ServiceThread) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", service.port, timeout=60)


class TestWireProtocol:
    def test_healthz_advertises_schema(self, cached_service):
        conn = _raw(cached_service)
        conn.request("GET", "/v1/healthz")
        info = json.loads(conn.getresponse().read())
        assert info["status"] == "ok"
        assert info["schema_version"] == SCHEMA_VERSION
        assert set(info["backends"]) >= {"cost", "perf", "fpga", "sim"}
        # capacity is the job-queue bound alone: servers evaluate serially
        assert isinstance(info["max_jobs"], int) and "workers" not in info
        conn.close()

    def test_schema_header_mismatch_is_409(self, cached_service):
        conn = _raw(cached_service)
        conn.request("GET", "/v1/cache/stats", headers={"X-Repro-Schema": "99"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 409
        assert payload["error_type"] == "SchemaVersionError"
        assert payload["schema_version"] == SCHEMA_VERSION
        conn.close()

    def test_stale_payload_schema_is_409(self, remote):
        request = remote.request("gemm", "MNK-SST", extents=SMALL).to_dict()
        request["schema_version"] = 99
        with pytest.raises(SchemaVersionError, match="99"):
            remote.evaluate(request)

    def test_unknown_route_is_404(self, remote):
        with pytest.raises(LookupError, match="no route"):
            remote._call("GET", "/v1/nope")

    def test_invalid_json_body_is_400(self, cached_service):
        conn = _raw(cached_service)
        conn.request(
            "POST", "/v1/evaluate", body=b"{truncated",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        assert "invalid JSON" in json.loads(response.read())["error"]
        conn.close()

    def test_unknown_backend_maps_to_lookup_error(self, remote):
        with pytest.raises(LookupError, match="registered"):
            remote.evaluate("gemm", "MNK-SST", backend="nope", extents=SMALL)

    def test_unreachable_server_is_connection_error(self):
        session = RemoteSession("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ConnectionError, match="no evaluation service"):
            session.evaluate("gemm", "MNK-SST", extents=SMALL)


class TestEvaluation:
    def test_server_memoizes_across_clients(self, cached_service):
        """The memo cache is the server's: a second client gets warm hits."""
        request_kwargs = dict(extents={"m": 6, "n": 6, "k": 6}, array=SMALL_ARRAY)
        first = RemoteSession(cached_service.url).evaluate(
            "gemm", "MNK-SST", **request_kwargs
        )
        second = RemoteSession(cached_service.url).evaluate(
            "gemm", "MNK-SST", **request_kwargs
        )
        assert not first.cached and second.cached
        first.cached = second.cached = False
        assert first == second

    def test_evaluate_many_round_trip(self, remote):
        requests = [
            remote.request(
                "gemm", name, backend=backend, extents=SMALL, array=SMALL_ARRAY,
                options={"workload_label": "MM"} if backend == "fpga" else {},
            )
            for name in ("MNK-SST", "MNK-MTM")
            for backend in ("perf", "cost", "fpga", "sim")
        ]
        results = remote.evaluate_many(requests)
        assert [r.backend for r in results] == ["perf", "cost", "fpga", "sim"] * 2
        assert all(r.ok for r in results)
        # location transparency: the same metrics as in process, and a
        # repeat of the batch is served from the server's memo cache
        local = LocalSession(SMALL_ARRAY).evaluate_many(requests)
        assert [r.metrics for r in results] == [r.metrics for r in local]
        repeat = remote.evaluate_many(requests)
        assert all(r.cached for r in repeat)
        assert [r.metrics for r in repeat] == [r.metrics for r in results]

    def test_client_array_governs_not_servers(self, cached_service):
        """A remote session's own platform wins over the server's default.

        The server runs 8x8; a client configured 4x4 must get 4x4 answers
        from explore and evaluate_names — exactly like a LocalSession(4x4).
        """
        four = ArrayConfig(rows=4, cols=4)
        extents = {"m": 64, "n": 64, "k": 64}
        remote = RemoteSession(cached_service.url, array=four)
        local = LocalSession(four)
        remote_result = remote.explore(
            "gemm", extents=extents, selections=[("m", "n", "k")]
        )
        local_result = local.explore(
            "gemm", extents=extents, selections=[("m", "n", "k")]
        )
        assert remote_result.array == four
        assert [p.metrics() for p in remote_result] == [
            p.metrics() for p in local_result
        ]
        remote_names = remote.evaluate_names("gemm", ["MNK-SST"])
        local_names = local.evaluate_names("gemm", ["MNK-SST"])
        assert remote_names[0][1].cycles == local_names[0][1].cycles

    def test_cache_stats_and_flush(self, remote, cached_service):
        remote.evaluate("gemm", "MNK-SST", extents={"m": 5, "n": 5, "k": 5})
        stats = remote.cache_stats()
        assert stats["api"] >= 1
        remote.flush()
        assert Path(cached_service.session.cache.path).exists()


class TestStreaming:
    def test_explore_streams_ndjson_rows(self, cached_service):
        """Raw wire check: chunked NDJSON with start/point/stats framing."""
        conn = _raw(cached_service)
        payload = {
            "workload": "gemm",
            "extents": {"m": 64, "n": 64, "k": 64},
            "options": {"selections": [["m", "n", "k"]]},
        }
        conn.request(
            "POST", "/v1/explore", body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        rows = [json.loads(line) for line in response.read().splitlines()]
        conn.close()
        assert rows[0]["row"] == "start"
        assert rows[0]["workload"] == "gemm"
        assert rows[-1]["row"] == "stats"
        kinds = {row["row"] for row in rows[1:-1]}
        assert kinds <= {"point", "failure"} and "point" in kinds
        assert rows[-1]["enumerated"] == len(rows) - 2

    def test_streamed_rows_arrive_incrementally(self, cached_service):
        """The first design rows land before the sweep finishes — streaming,
        not buffer-then-dump."""
        conn = _raw(cached_service)
        payload = {"workload": "gemm", "extents": {"m": 64, "n": 64, "k": 64}}
        conn.request(
            "POST", "/v1/explore", body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        first_rows = [json.loads(response.readline()) for _ in range(3)]
        remaining = response.read().splitlines()
        conn.close()
        assert first_rows[0]["row"] == "start"
        assert all(r["row"] in ("point", "failure") for r in first_rows[1:])
        assert json.loads(remaining[-1])["row"] == "stats"

    def test_remote_explore_counts_are_complete(self, remote):
        """Every enumerated design reaches the client as a point or failure."""
        result = remote.explore("gemm", extents={"m": 64, "n": 64, "k": 64})
        assert len(result) > 0
        assert result.stats.enumerated == len(result.points) + len(result.failures)
        assert result.array == ArrayConfig(rows=8, cols=8)  # the session default

    def test_unknown_explore_option_rejected_before_stream(self, remote):
        """Bad options fail as a clean 400, not a broken stream."""
        with pytest.raises(ValueError, match="unknown explore option"):
            remote.explore("gemm", options_that_do_not_exist=True)

    def test_unknown_extent_rejected_like_local(self, remote):
        """A mistyped extent raises, never silently serves the default size
        (same TypeError contract as LocalSession.explore)."""
        with pytest.raises(TypeError, match="does not accept extent"):
            remote.explore("gemm", extents={"M": 64})
        with pytest.raises(TypeError):
            LocalSession(ArrayConfig(rows=4, cols=4)).explore("gemm", extents={"M": 64})


def _wait_terminal(remote, job_id, budget=120):
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        job = remote.job(job_id)
        if job["status"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {budget}s")


class TestJobs:
    def test_job_lifecycle(self, remote):
        job = remote.submit_job(
            ["batched_gemv"], one_d_only=True, extents={"m": 8, "n": 8, "k": 8}
        )
        assert job["status"] in ("queued", "running")
        assert job["progress"] == {"completed": 0, "total": 1}
        job = _wait_terminal(remote, job["id"])
        assert job["status"] == "done", job
        assert job["progress"] == {"completed": 1, "total": 1}
        (row,) = job["results"]
        assert row["workload"] == "batched_gemv"
        assert row["points"] > 0
        assert row["best"] and row["pareto"]
        assert "rows" not in row  # rows travel the row log, never the record
        assert any(j["id"] == job["id"] for j in remote.jobs())

    def test_unknown_job_404(self, remote):
        with pytest.raises(LookupError, match="no such job"):
            remote.job("job-999999")

    def test_bad_job_payload_rejected(self, remote):
        with pytest.raises(ValueError, match="workloads"):
            remote._call("POST", "/v1/jobs", {"workloads": []})
        with pytest.raises(KeyError, match="unknown workload"):
            remote.submit_job(["nope"])
        # ignored by the server, but still outside input: a non-boolean is
        # refused, and the removed client keyword is an unknown option
        with pytest.raises(ValueError, match='"stream_rows" must be a boolean'):
            remote._call(
                "POST", "/v1/jobs", {"workloads": ["gemm"], "stream_rows": "yes"}
            )
        with pytest.raises(ValueError, match="unknown explore option.*stream_rows"):
            remote.submit_job(["gemm"], stream_rows=True)

    def test_queue_bound_cancel_and_drain(self, tmp_path):
        """A dedicated small-queue server: fill it, overflow 503, cancel one."""
        session = LocalSession(ArrayConfig(rows=8, cols=8), cache=tmp_path / "m.json")
        with ServiceThread(session, max_queued_jobs=2) as thread:
            remote = RemoteSession(thread.url)
            assert remote._call("GET", "/v1/healthz")["max_jobs"] == 2
            # a job that runs long enough to hold the runner busy
            long_job = remote.submit_job(
                ["gemm"], extents={"m": 64, "n": 64, "k": 64}
            )
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if remote.job(long_job["id"])["status"] == "running":
                    break
                time.sleep(0.01)
            assert remote.job(long_job["id"])["status"] == "running"
            queued_a = remote.submit_job(["batched_gemv"], one_d_only=True)
            queued_b = remote.submit_job(["batched_gemv"], one_d_only=True)
            with pytest.raises(RuntimeError, match="queue full"):
                remote.submit_job(["batched_gemv"], one_d_only=True)
            cancelled = remote.cancel_job(queued_b["id"])
            assert cancelled["status"] == "cancelled"
            assert cancelled["cancelled_while"] == "queued"  # never started
            # everything not cancelled still completes
            deadline = time.monotonic() + 240
            while time.monotonic() < deadline:
                states = {
                    job_id: remote.job(job_id)["status"]
                    for job_id in (long_job["id"], queued_a["id"])
                }
                if set(states.values()) <= {"done", "failed"}:
                    break
                time.sleep(0.1)
            assert states == {long_job["id"]: "done", queued_a["id"]: "done"}
            assert remote.job(queued_b["id"])["status"] == "cancelled"

    def test_cancel_running_job_keeps_partial_results(self, tmp_path):
        """DELETE on a *running* job: the runner stops between workloads, the
        job lands `cancelled` with the partial results it finished, and the
        DELETE response says the cancel hit a running job (regression: the
        flag used to be set with nothing reported back)."""
        session = LocalSession(ArrayConfig(rows=8, cols=8))
        with ServiceThread(session) as thread:
            remote = RemoteSession(thread.url)
            job = remote.submit_job(
                # two slow workloads: the cancel lands while the first runs
                ["gemm", "batched_gemv"],
                extents={"m": 64, "n": 64, "k": 64},
            )
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if remote.job(job["id"])["status"] == "running":
                    break
                time.sleep(0.01)
            snapshot = remote.cancel_job(job["id"])
            assert snapshot["cancelled_while"] == "running"
            assert snapshot["cancel_requested"] is True
            assert snapshot["status"] == "running"  # cooperative, not instant
            job = _wait_terminal(remote, job["id"])
            assert job["status"] == "cancelled"
            assert job["cancelled_while"] == "running"
            # partial: the second workload never ran
            assert job["progress"]["total"] == 2
            assert job["progress"]["completed"] < 2
            for record in job.get("results", []):
                assert record["workload"] == "gemm"

    def test_submit_key_is_idempotent(self, remote):
        """A retried submit (lost response) with the same submit_key gets
        the original job back instead of double-enqueueing the sweep."""
        kwargs = dict(
            one_d_only=True,
            extents={"m": 8, "n": 8, "k": 8},
            submit_key="sweep-token:shard-0:attempt-0",
        )
        first = remote.submit_job(["batched_gemv"], **kwargs)
        second = remote.submit_job(["batched_gemv"], **kwargs)
        assert second["id"] == first["id"]
        fresh = remote.submit_job(
            ["batched_gemv"], one_d_only=True, extents={"m": 8, "n": 8, "k": 8},
            submit_key="sweep-token:shard-0:attempt-1",
        )
        assert fresh["id"] != first["id"]
        for job in (first, fresh):
            assert _wait_terminal(remote, job["id"])["status"] == "done"

    def test_pruned_submit_key_gets_a_new_job(self):
        """Dedup reaches only kept jobs: once the job a key named is pruned,
        the same key submits a new job."""
        session = LocalSession(ArrayConfig(rows=8, cols=8))
        kwargs = dict(one_d_only=True, extents={"m": 8, "n": 8, "k": 8})
        with ServiceThread(session, max_kept_jobs=1) as thread:
            remote = RemoteSession(thread.url)
            first = remote.submit_job(["batched_gemv"], submit_key="key-0", **kwargs)
            retried = remote.submit_job(["batched_gemv"], submit_key="key-0", **kwargs)
            assert retried["id"] == first["id"]
            assert _wait_terminal(remote, first["id"])["status"] == "done"
            other = remote.submit_job(["batched_gemv"], **kwargs)  # prunes the first
            with pytest.raises(LookupError, match="no such job"):
                remote.job(first["id"])
            again = remote.submit_job(["batched_gemv"], submit_key="key-0", **kwargs)
            assert again["id"] not in (first["id"], other["id"])
            for job in (other, again):
                assert _wait_terminal(remote, job["id"])["status"] == "done"

    def test_record_pins_pareto_and_best_to_the_local_result(self, remote):
        """A job record's ``pareto`` names and ``best`` rows are those of the
        in-process result for the same item."""
        extents = {"k": 16, "c": 16, "y": 14, "x": 14, "p": 3, "q": 3}
        local = LocalSession(ArrayConfig(rows=8, cols=8)).explore(
            workloads.by_name("conv2d", **extents), per_selection_limit=8
        )
        job = remote.submit_job(["conv2d"], extents=extents, per_selection_limit=8)
        (record,) = _wait_terminal(remote, job["id"])["results"]
        assert record["points"] == len(local.points) > 100
        assert record["pareto"] == [p.name for p in local.pareto()]
        assert len(record["pareto"]) > 1
        assert record["best"] == [wire.point_to_row(p) for p in local.best(5)]

    def test_row_log_bytes_are_the_wire_encoding(self, tmp_path):
        """Each ``/rows`` line is ``json.dumps(row)`` of the row the engine
        emits, byte for byte, and each journal row entry is the
        ``encode_journal_entry`` line of that row: journals stay readable
        across an upgrade in both directions."""
        configs = [ArrayConfig(rows=8, cols=8), ArrayConfig(rows=4, cols=4)]
        names, extents = ["gemm", "batched_gemv"], {"m": 8, "n": 8, "k": 8}
        journal = tmp_path / "journal"
        with ServiceThread(LocalSession(configs[0]), journal_dir=journal) as thread:
            remote = RemoteSession(thread.url)
            job = remote.submit_job(names, configs=configs, extents=extents, one_d_only=True)
            _wait_terminal(remote, job["id"])
            conn = _raw(thread)
            conn.request("GET", f"/v1/jobs/{job['id']}/rows")
            lines = conn.getresponse().read().splitlines(keepends=True)
            conn.close()
        expected = []
        reference = LocalSession(configs[0])
        for item, (config, name) in enumerate(itertools.product(configs, names)):
            engine = reference.engine_for(config)
            statement = workloads.by_name(name, **extents)
            for point in engine.stream(statement, seq_start=len(expected), one_d_only=True):
                row = wire.point_to_row(point)
                row["item"] = item
                expected.append(row)
        assert {row["item"] for row in expected} == {0, 1, 2, 3}
        assert json.loads(lines[0])["row"] == "start"
        assert json.loads(lines[-1])["row"] == "end"
        assert lines[1:-1] == [json.dumps(row).encode() + b"\n" for row in expected]
        entries = (journal / f"{job['id']}.ndjson").read_bytes().splitlines(keepends=True)
        assert [line for line in entries if line.startswith(b'{"journal": "row"')] == [
            wire.encode_journal_entry(wire.journal_entry("row", row)) for row in expected
        ]

    def test_per_item_extents_in_one_job(self, remote):
        """Workloads entries may be {"workload", "extents"} payloads carrying
        their own problem sizes — the wire shape behind shard_size > 1."""
        job = remote.submit_job(
            [
                {"workload": "gemm", "extents": {"m": 8, "n": 8, "k": 8}},
                {"workload": "batched_gemv", "extents": {"m": 4, "n": 4, "k": 4}},
            ],
            one_d_only=True,
        )
        assert job["workloads"] == ["gemm", "batched_gemv"]
        job = _wait_terminal(remote, job["id"])
        assert job["status"] == "done", job
        first, second = job["results"]
        local = LocalSession(ArrayConfig(rows=8, cols=8))
        assert first["points"] == len(
            local.explore("gemm", extents={"m": 8, "n": 8, "k": 8}, one_d_only=True)
        )
        assert second["points"] == len(
            local.explore(
                "batched_gemv", extents={"m": 4, "n": 4, "k": 4}, one_d_only=True
            )
        )

    def test_bad_workloads_entry_rejected(self, remote):
        with pytest.raises(ValueError, match="workloads"):
            remote.submit_job([{"extents": {"m": 4}}])
        with pytest.raises(ValueError, match="workloads"):
            remote._call("POST", "/v1/jobs", {"workloads": [42]})

    @pytest.mark.parametrize("bound", [0, -1])
    def test_job_queue_bound_below_one_is_refused(self, bound):
        """asyncio.Queue(maxsize<=0) is unbounded: refuse, never serve that."""
        with pytest.raises(ValueError, match="max_queued_jobs must be >= 1"):
            EvaluationService(LocalSession(), max_queued_jobs=bound)


class TestJobRowStreaming:
    """The /rows long-poll: the row log's `since` cursor, resets, resumes."""

    EXTENTS = {"m": 8, "n": 8, "k": 8}

    def _submit(self, remote, workloads=("batched_gemv",), **kwargs):
        kwargs.setdefault("one_d_only", True)
        kwargs.setdefault("extents", self.EXTENTS)
        return remote.submit_job(list(workloads), **kwargs)

    def test_since_cursor_pages_the_row_log(self, remote):
        job = self._submit(remote)
        job = _wait_terminal(remote, job["id"])
        assert job["status"] == "done", job
        frames = list(remote.iter_job_rows(job["id"]))
        rows = data_rows(frames)
        assert rows and frames[-1]["rows_total"] == len(rows)
        # seq is the 1-based, strictly increasing job-global cursor
        assert [row["seq"] for row in rows] == list(range(1, len(rows) + 1))
        assert all(row["item"] == 0 for row in rows)
        (record,) = job["results"]
        assert len(rows) == record["points"] + record["failures"]
        # a mid-log cursor yields exactly the rows after it
        middle = data_rows(remote.iter_job_rows(job["id"], since=len(rows) // 2))
        assert middle == rows[len(rows) // 2 :]
        # a caught-up cursor yields start and end, not a reset
        done = list(remote.iter_job_rows(job["id"], since=len(rows)))
        assert [f["row"] for f in done] == ["start", "end"]
        assert "cursor_reset" not in done[0]
        # rows travel only over /rows: the snapshot route ignores ?since=
        snapshot = remote._call("GET", f"/v1/jobs/{job['id']}?since=0")["job"]
        assert "rows" not in snapshot and "rows_total" not in snapshot

    def test_cursor_past_end_resets_with_full_snapshot(self, remote):
        """A cursor beyond a terminal job's log (e.g. from a previous run of
        the job id) opens with a cursor_reset start frame, then the full log
        — the client's signal to drop its fold and resync."""
        job = self._submit(remote)
        _wait_terminal(remote, job["id"])
        full = data_rows(remote.iter_job_rows(job["id"]))
        stale = list(remote.iter_job_rows(job["id"], since=len(full) + 100))
        assert stale[0]["row"] == "start" and stale[0]["cursor_reset"] is True
        assert data_rows(stale) == full
        assert stale[-1]["row"] == "end"

    def test_rows_sequence_spans_items(self, remote):
        """A multi-item job has one global seq across items, and each row
        names the (config, workload) item it belongs to."""
        job = self._submit(remote, workloads=("gemm", "batched_gemv"))
        job = _wait_terminal(remote, job["id"])
        assert job["status"] == "done", job
        rows = data_rows(remote.iter_job_rows(job["id"]))
        assert [row["seq"] for row in rows] == list(range(1, len(rows) + 1))
        items = [row["item"] for row in rows]
        assert set(items) == {0, 1}
        assert items == sorted(items)  # item 0's rows all precede item 1's

    def test_job_without_stream_rows_streams_every_row(self, remote):
        """Every job keeps its row log: a submit body without the older
        ``stream_rows`` key still streams one row per design."""
        job = remote._call(
            "POST",
            "/v1/jobs",
            {
                "workloads": ["batched_gemv"],
                "extents": self.EXTENTS,
                "options": {"one_d_only": True},
            },
        )["job"]
        job = _wait_terminal(remote, job["id"])
        assert job["status"] == "done", job
        rows = data_rows(remote.iter_job_rows(job["id"]))
        (record,) = job["results"]
        assert len(rows) == record["points"] + record["failures"] > 0
        assert [row["seq"] for row in rows] == list(range(1, len(rows) + 1))

    def test_bad_since_is_client_error(self, remote):
        job = self._submit(remote)
        _wait_terminal(remote, job["id"])
        with pytest.raises(ValueError, match="since"):
            remote._call("GET", f"/v1/jobs/{job['id']}/rows?since=banana")

    def test_tail_stream_long_polls_while_running(self, cached_service):
        """iter_job_rows yields rows *while the job runs*: the stream opens
        before the job finishes and still sees every row through to the end
        frame."""
        remote = RemoteSession(cached_service.url)
        job = remote.submit_job(["gemm"], extents={"m": 64, "n": 64, "k": 64})
        # a second connection tails while the first job may still be queued
        tail = RemoteSession(cached_service.url)
        rows = list(tail.iter_job_rows(job["id"]))
        assert rows[0]["row"] == "start" and rows[0]["id"] == job["id"]
        assert rows[-1]["row"] == "end" and rows[-1]["status"] == "done"
        data = rows[1:-1]
        assert data and all(r["row"] in ("point", "failure") for r in data)
        assert [r["seq"] for r in data] == list(range(1, len(data) + 1))
        assert rows[-1]["rows_total"] == len(data)
        # the live tail saw exactly what the terminal job's log serves
        assert data_rows(remote.iter_job_rows(job["id"])) == data
        remote.close()
        tail.close()

    def test_tail_resumes_from_since_cursor(self, remote):
        job = self._submit(remote)
        _wait_terminal(remote, job["id"])
        total = len(data_rows(remote.iter_job_rows(job["id"])))
        resumed = data_rows(remote.iter_job_rows(job["id"], since=total - 1))
        assert [r["seq"] for r in resumed] == [total]

    def test_tail_with_stale_cursor_on_running_job_resets_mid_stream(self):
        """A stale cursor against a *running* job that ends short of it
        cannot be flagged on the start frame (the job might still catch up):
        the reset travels mid-stream and the full log replays after it —
        never a silent zero-row end frame."""
        from repro.service.server import Job

        with ServiceThread(LocalSession(SMALL_ARRAY)) as thread:
            # fabricate a running job the way the runner thread builds one:
            # rows appended from another thread, status flipped after
            job = Job(
                id="job-fab",
                payload={"workloads": ["gemm"]},
                status="running",
                total_items=1,
            )
            thread.service.jobs[job.id] = job
            stream = RemoteSession(thread.url).iter_job_rows(job.id, since=50)
            start = next(stream)
            assert start["row"] == "start"
            assert "cursor_reset" not in start  # running: might still catch up
            row = {"row": "failure", "seq": 1, "item": 0, "selection": ["m"],
                   "stt": [[1]], "stage": "perf", "reason": "fabricated"}
            job.append_row(row)
            job.status = "done"  # ends at 1 row: far short of cursor 50
            rest = list(stream)
            assert [r["row"] for r in rest] == ["reset", "failure", "end"]
            assert rest[1]["seq"] == 1
            assert rest[-1]["status"] == "done" and rest[-1]["rows_total"] == 1

    def test_cancel_mid_stream_ends_the_tail(self, tmp_path):
        """Cancelling a running job terminates its row stream with an end
        frame reporting `cancelled` — a tail never hangs on a dead job."""
        session = LocalSession(ArrayConfig(rows=8, cols=8))
        # hold the runner at the fifth design until the cancel has landed: a
        # design evaluates in tens of microseconds, so without the gate the
        # job could finish before the DELETE arrives
        cancel_sent = threading.Event()
        evaluate = session.engine.perf.evaluate
        designs = itertools.count(1)

        def gated(spec):
            if next(designs) == 5:
                cancel_sent.wait(60)
            return evaluate(spec)

        session.engine.perf.evaluate = gated
        with ServiceThread(session) as thread:
            remote = RemoteSession(thread.url)
            job = remote.submit_job(
                ["gemm", "batched_gemv"], extents={"m": 64, "n": 64, "k": 64}
            )
            stream = RemoteSession(thread.url).iter_job_rows(job["id"])
            seen = [next(stream)]  # the start frame: the stream is live
            assert seen[0]["row"] == "start"
            # read a couple of data rows so the cancel lands mid-stream
            for row in stream:
                seen.append(row)
                if len([r for r in seen if r["row"] != "start"]) >= 2:
                    break
            remote.cancel_job(job["id"])
            cancel_sent.set()
            seen.extend(stream)  # drain to the end frame
            assert seen[-1]["row"] == "end"
            assert seen[-1]["status"] == "cancelled"
            # cancellation is cooperative per design: the log holds the rows
            # that finished, contiguous from 1, and a fresh stream replays it
            data = data_rows(seen)
            assert [r["seq"] for r in data] == list(range(1, len(data) + 1))
            replay = list(remote.iter_job_rows(job["id"]))
            assert replay[-1]["status"] == "cancelled"
            assert replay[-1]["rows_total"] == seen[-1]["rows_total"]
            assert data_rows(replay) == data


    def test_keepalive_frames_prove_liveness_while_idle(self):
        """A live job producing nothing heartbeats `keepalive` frames, so a
        tail can tell a slow job from a dead connection."""
        from repro.service.server import Job

        with ServiceThread(LocalSession(SMALL_ARRAY)) as thread:
            job = Job(
                id="job-idle",
                payload={"workloads": ["gemm"]},
                status="running",
                total_items=1,
            )
            thread.service.jobs[job.id] = job
            stream = RemoteSession(thread.url).iter_job_rows(
                job.id, keepalive=0.05, keepalives=True
            )
            assert next(stream)["row"] == "start"
            beat = next(stream)  # nothing evaluates: the next frame is a beat
            assert beat == {"row": "keepalive", "status": "running", "rows_total": 0}
            row = {"row": "failure", "seq": 1, "item": 0, "selection": ["m"],
                   "stt": [[1]], "stage": "perf", "reason": "fabricated"}
            job.append_row(row)
            job.status = "done"
            rest = list(stream)
            assert [r["row"] for r in rest[-2:]] == ["failure", "end"]
            # beats between the first and the finish are fine; rows are not
            assert all(r["row"] == "keepalive" for r in rest[:-2])

    def test_tail_swallows_keepalives_by_default(self):
        """Without `keepalives=True` the heartbeat frames are transport
        detail: consumers see only start/rows/end."""
        from repro.service.server import Job

        with ServiceThread(LocalSession(SMALL_ARRAY)) as thread:
            job = Job(
                id="job-quiet",
                payload={"workloads": ["gemm"]},
                status="running",
                total_items=1,
            )
            thread.service.jobs[job.id] = job
            stream = RemoteSession(thread.url).iter_job_rows(job.id, keepalive=0.05)
            assert next(stream)["row"] == "start"
            # give the server time to emit (and the client to swallow) beats
            time.sleep(0.2)
            job.status = "done"
            assert [r["row"] for r in stream] == ["end"]

    def test_end_frame_carries_terminal_snapshot(self, remote):
        """The end frame embeds the job's terminal snapshot (records + stats,
        no row page), so a streaming consumer closes its books without a
        follow-up poll round-trip."""
        job = self._submit(remote)
        rows = list(remote.iter_job_rows(job["id"]))
        end = rows[-1]
        assert end["row"] == "end"
        snapshot = end["job"]
        assert snapshot["status"] == "done"
        assert "rows" not in snapshot  # the rows already streamed
        data = data_rows(rows)
        assert data and end["rows_total"] == len(data)
        assert snapshot["results"] == remote.job(job["id"])["results"]

    def test_stream_leaves_connection_reusable(self, remote):
        """Consuming a row stream to its end frame must drain the chunked
        body fully: the next request on the recycled keep-alive socket would
        otherwise fail mid-response and retry — and a retried POST /v1/jobs
        submits a duplicate job."""
        before = len(remote.jobs())
        job = self._submit(remote)
        assert list(remote.iter_job_rows(job["id"]))[-1]["row"] == "end"
        second = self._submit(remote)  # same session, same socket
        _wait_terminal(remote, second["id"])
        assert len(remote.jobs()) == before + 2  # no phantom resubmission

    def _truncating_session(self, url, drop_after, **kwargs):
        """A RemoteSession whose first row stream dies after `drop_after`
        NDJSON lines — the server-killed-mid-stream shape."""

        class TruncatedResponse:
            def __init__(self, response, left):
                self._response = response
                self._left = left

            def readline(self):
                if self._left == 0:
                    self._response.close()  # the socket dies mid-body
                    return b""
                self._left -= 1
                return self._response.readline()

            def read(self, *args):
                return self._response.read(*args)

        class DroppingSession(RemoteSession):
            dropped = False

            def _stream(self, path, payload, method="POST"):
                response = super()._stream(path, payload, method)
                if self.dropped or "/rows" not in path:
                    return response
                self.dropped = True
                return TruncatedResponse(response, drop_after)

        return DroppingSession(url, **kwargs)

    def test_stream_reconnects_with_cursor_after_mid_stream_drop(self, remote):
        """Regression: a row stream that dies mid-flight must resume from the
        last seen `seq` — every row exactly once, no duplicates, no gaps."""
        job = self._submit(remote)
        _wait_terminal(remote, job["id"])
        total = len(data_rows(remote.iter_job_rows(job["id"])))
        assert total > 4
        # die after the start frame + 3 data rows: resume lands mid-log
        session = self._truncating_session(
            remote.url, drop_after=4, backoff=0.01
        )
        rows = list(session.iter_job_rows(job["id"]))
        assert session.dropped  # the fault actually fired
        assert [r["row"] for r in rows[:1]] == ["start"]  # start not re-yielded
        data = data_rows(rows)
        assert [r["seq"] for r in data] == list(range(1, total + 1))
        assert rows[-1]["row"] == "end" and rows[-1]["rows_total"] == total
        session.close()

    def test_stream_drop_without_reconnect_raises(self, remote):
        """`reconnect=False` surfaces the drop instead of resuming; a retry
        budget of zero does the same even with reconnect on."""
        job = self._submit(remote)
        _wait_terminal(remote, job["id"])
        session = self._truncating_session(remote.url, drop_after=2, backoff=0.01)
        with pytest.raises(ConnectionError, match="dropped"):
            list(session.iter_job_rows(job["id"], reconnect=False))
        session.close()
        session = self._truncating_session(
            remote.url, drop_after=2, backoff=0.01, retries=0
        )
        with pytest.raises(ConnectionError, match="without progress"):
            list(session.iter_job_rows(job["id"]))
        session.close()


class TestRetryBackoff:
    def test_connect_errors_retry_with_jittered_backoff(self, monkeypatch):
        """Transport failures retry up to `retries` times: the first retry is
        immediate (recycled keep-alive), later ones sleep an exponentially
        growing jittered backoff (regression: exactly one blind retry)."""
        from repro.service import client as client_mod

        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        session = RemoteSession(
            "http://127.0.0.1:9", timeout=2, retries=3, backoff=0.25
        )
        with pytest.raises(ConnectionError, match="no evaluation service"):
            session.evaluate("gemm", "MNK-SST", extents=SMALL)
        # attempts 0+1 are back to back; attempts 2 and 3 back off first
        assert len(sleeps) == 2
        assert 0.5 * 0.25 <= sleeps[0] <= 1.5 * 0.25
        assert 0.5 * 0.50 <= sleeps[1] <= 1.5 * 0.50
        assert sleeps[1] > sleeps[0] * 0.5  # exponential floor, jitter aside

    def test_retries_zero_fails_fast(self, monkeypatch):
        from repro.service import client as client_mod

        sleeps = []
        monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
        session = RemoteSession("http://127.0.0.1:9", timeout=2, retries=0)
        with pytest.raises(ConnectionError):
            session.evaluate("gemm", "MNK-SST", extents=SMALL)
        assert sleeps == []

    def test_http_errors_never_retry(self, cached_service, monkeypatch):
        """A 4xx is an answer, not an outage: exactly one round-trip past the
        handshake, no reconnect, no backoff."""
        session = RemoteSession(cached_service.url, retries=3, backoff=5.0)
        roundtrips = []
        original = session._roundtrip

        def counting(method, path, payload):
            roundtrips.append(path)
            return original(method, path, payload)

        monkeypatch.setattr(session, "_roundtrip", counting)
        with pytest.raises(LookupError, match="registered"):
            session.evaluate("gemm", "MNK-SST", backend="nope", extents=SMALL)
        assert roundtrips == ["/v1/healthz", "/v1/evaluate"]

    def test_retry_bounds_validated(self):
        with pytest.raises(ValueError, match="retries"):
            RemoteSession("http://127.0.0.1:9", retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            RemoteSession("http://127.0.0.1:9", backoff=-0.1)


class TestCachePull:
    def test_pull_round_trips_through_memo_cache(self, remote, cached_service):
        """GET /v1/cache returns the server's sections; MemoCache.from_payload
        + merge_from fold them into a local cache (the live alternative to
        `repro cache merge` on shard files)."""
        from repro.explore.engine import MemoCache

        result = remote.evaluate("gemm", "MNK-SST", extents={"m": 7, "n": 7, "k": 7})
        assert result.ok
        sections = remote.cache_pull()
        assert sections["api"]  # the evaluation above is in there
        local = MemoCache()
        added = local.merge_from(MemoCache.from_payload(sections))
        assert added["api"] == len(sections["api"])
        # merged entries serve: a LocalSession on the pulled cache gets a hit
        session = LocalSession(ArrayConfig(rows=8, cols=8), cache=local)
        warm = session.evaluate("gemm", "MNK-SST", extents={"m": 7, "n": 7, "k": 7})
        assert warm.cached

    def test_pull_without_cache_is_empty(self, tmp_path):
        session = LocalSession(SMALL_ARRAY)  # no cache configured
        with ServiceThread(session) as thread:
            assert RemoteSession(thread.url).cache_pull() == {}


class TestCleanShutdown:
    def test_service_thread_shutdown_closes_socket(self, tmp_path):
        session = LocalSession(SMALL_ARRAY, cache=tmp_path / "memo.json")
        thread = ServiceThread(session).start()
        remote = RemoteSession(thread.url)
        remote.evaluate("gemm", "MNK-SST", extents=SMALL)
        port = thread.port
        thread.stop()
        # the session cache was flushed on close ...
        assert (tmp_path / "memo.json").exists()
        # ... and nothing is listening anymore
        with pytest.raises(OSError):
            probe = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
            probe.request("GET", "/v1/healthz")
            probe.getresponse()

    def test_cli_serve_subprocess_sigint(self, tmp_path):
        """`repro serve` on an ephemeral port: serve traffic, exit 0 on SIGINT."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else str(src)
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--rows", "2", "--cols", "2", "--cache", str(tmp_path / "memo.json")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://[\d.]+:(\d+)", banner)
            assert match, banner
            remote = RemoteSession(match.group(0))
            result = remote.evaluate("gemm", "MNK-SST", extents=SMALL)
            assert result.ok
            remote.close()
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                out, _ = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        assert proc.returncode == 0, out
        assert "shutdown complete" in out
        assert (tmp_path / "memo.json").exists()  # flushed during close
