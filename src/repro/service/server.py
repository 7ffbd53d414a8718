"""The async evaluation service: a stdlib-only HTTP/JSON front-end.

:class:`EvaluationService` wraps any in-process
:class:`~repro.api.session.LocalSession` in a small asyncio HTTP/1.1 server
(hand-rolled on ``asyncio.start_server`` — no third-party web framework, per
the repo's no-new-deps rule).  The wire format is exactly the versioned
:class:`~repro.api.types.DesignRequest` / :class:`~repro.api.types.EvalResult`
JSON the API layer already speaks, so a request built anywhere evaluates to
the same memo-cache key everywhere.

Endpoints (all under ``/v1``; the full request/response reference lives in
``docs/service-api.md``):

=============================  ================================================
``GET  /v1/healthz``           liveness + ``schema_version`` negotiation +
                               backends + job-queue bound (``max_jobs``)
``POST /v1/evaluate``          one ``DesignRequest`` -> one ``EvalResult``
``POST /v1/evaluate_many``     ``{"requests": [...]}`` -> ``{"results": [...]}``
``POST /v1/explore``           NDJSON stream: ``start``, then one ``point`` /
                               ``failure`` row per design *as it is produced*,
                               then ``stats``
``POST /v1/evaluate_names``    paper dataflow names -> per-name perf results
``POST /v1/jobs``              submit a sweep job to the bounded queue
                               (503 full); every job keeps a per-design
                               row log
``GET  /v1/jobs``              list jobs
``GET  /v1/jobs/<id>``         poll one job's snapshot
``GET  /v1/jobs/<id>/rows``    NDJSON long-poll: every row of the job's log
                               from ``?since=`` on, *as the job produces
                               them*, until the job reaches a terminal state
``DELETE /v1/jobs/<id>``       cancel (queued jobs immediately; running jobs
                               cooperatively between designs); the snapshot
                               reports ``cancelled_while`` queued vs running
``GET  /v1/cache/stats``       the session's memo-cache counters
``GET  /v1/cache``             pull the full memo-cache contents (coordinator
                               fold-in; see ``MemoCache.dump``)
``POST /v1/cache/flush``       persist the memo cache now
=============================  ================================================

Evaluations run on a thread executor so the event loop stays responsive;
the session's :class:`~repro.explore.engine.MemoCache` is lock-guarded, so
concurrent handlers share it safely.  Each evaluation runs serially in this
process: a machine with more cores runs one server per core behind a
:class:`~repro.service.coordinator.SweepCoordinator`.

:class:`ServiceThread` runs the whole thing on a background thread with its
own event loop — the embedding used by the tests, the benchmarks and the
``examples/remote_evaluation.py`` walkthrough.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping
from urllib.parse import parse_qs

from repro.api.session import LocalSession
from repro.api.types import (
    SCHEMA_VERSION,
    DesignRequest,
    SchemaVersionError,
    check_resolve_options,
)
from repro.explore.engine import EvaluationResult, EvaluationStats
from repro.service import wire

__all__ = ["EvaluationService", "ServiceThread"]

#: Client errors that become 400s; anything else is a 500.
_CLIENT_ERRORS = (LookupError, KeyError, ValueError, TypeError)

#: Shared with the sweep coordinator via :mod:`repro.service.wire`.
_engine_options = wire.engine_options

_JOB_ID_RE = re.compile(r"^job-(\d+)$")


def _job_number(job_id: str) -> int:
    """Numeric part of a ``job-<n>`` id; 0 for foreign ids (sorts first)."""
    match = _JOB_ID_RE.match(job_id)
    return int(match.group(1)) if match else 0


@dataclass
class Job:
    """One queued/running sweep; JSON-safe snapshots via :meth:`snapshot`.

    A job is the unit of work behind ``POST /v1/jobs``: one
    workloads x configs sweep executed by the service's job runner, observable
    through :meth:`snapshot` at every point of its life cycle
    (``queued -> running -> done | failed | cancelled``).

    Every evaluated design is appended to :attr:`rows` (by
    :meth:`append_row`) as a ``/v1/explore``-format wire row *while the job
    runs*, extended with two keys: ``seq`` — the 1-based, job-global,
    strictly increasing row cursor — and ``item`` — the 0-based index of the
    (config, workload) item (in configs-major job order) the design belongs
    to.  The log holds each row as its NDJSON line, encoded once: ``/rows``
    joins the stored lines and the journal prefixes them.  ``rows`` only
    ever grows, which is what makes the ``GET /v1/jobs/<id>/rows``
    long-poll safe to serve from another thread without locking.
    """

    id: str
    payload: dict[str, Any]
    status: str = "queued"  # queued|running|done|failed|cancelled
    error: str | None = None
    results: list[dict[str, Any]] = field(default_factory=list)
    cancel_requested: bool = False
    #: "queued" or "running": where the job was when DELETE reached it.
    cancelled_while: str | None = None
    #: Total (config, workload) items this job will run; progress denominator.
    total_items: int = 0
    #: The incremental per-design row log, one NDJSON line (newline
    #: included) per row (see class docstring).
    rows: list[bytes] = field(default_factory=list)
    #: True for a job rebuilt from a journal that had no terminal entry: it
    #: was queued or running when the server died and re-enters the queue.
    resumed: bool = False
    #: Rows a resumed run adopted from the journal *instead of re-evaluating*
    #: their designs — the observable "zero repeated evaluations" meter.
    replayed_rows: int = 0
    #: Set (on the loop thread) the moment :attr:`status` turns terminal —
    #: lets a ``/rows`` stream cut its micro-batch pause short the instant
    #: the job ends instead of sleeping the pause out.
    done: asyncio.Event = field(default_factory=asyncio.Event)

    @classmethod
    def restore(cls, fields: Mapping[str, Any]) -> "Job":
        """The job a :func:`wire.replay_journal` field set describes.

        A job with a terminal entry comes back as its last snapshot; one
        without was queued or running at the crash and comes back queued,
        flagged :attr:`resumed`.
        """
        job = cls(
            id=fields["id"],
            payload=fields["payload"],
            total_items=fields["total_items"],
            results=fields["results"],
            error=fields["error"],
            cancelled_while=fields["cancelled_while"],
        )
        for row in fields["rows"]:
            job.append_row(row)
        if fields["status"] is None:
            job.resumed = True
        else:
            job.status = fields["status"]
            job.done.set()
        return job

    def append_row(self, row: Mapping[str, Any]) -> bytes:
        """Append ``row`` to the log as its NDJSON line; returns the line."""
        line = json.dumps(row).encode() + b"\n"
        self.rows.append(line)
        return line

    def snapshot(self) -> dict[str, Any]:
        """The job's JSON wire shape; its rows travel only over ``/rows``."""
        out: dict[str, Any] = {
            "id": self.id,
            "status": self.status,
            # entries were validated at submit time: plain extraction here,
            # not a re-run of wire.job_items on every poll
            "workloads": [
                entry if isinstance(entry, str) else entry.get("workload")
                for entry in self.payload.get("workloads", ())
            ],
            "progress": {"completed": len(self.results), "total": self.total_items},
        }
        if self.error is not None:
            out["error"] = self.error
        if self.cancel_requested:
            out["cancel_requested"] = True
        if self.cancelled_while is not None:
            out["cancelled_while"] = self.cancelled_while
        if self.resumed:
            # rebuilt from a journal after a restart: replayed_rows counts
            # the journaled designs adopted without re-evaluation
            out["resumed"] = True
            out["replayed_rows"] = self.replayed_rows
        if self.status in ("done", "cancelled") and self.results:
            out["results"] = self.results
        return out


class _JobJournal:
    """Append-only NDJSON durability log: one file per job, fsync-batched.

    Producers — the submit handler on the event loop, the job runner on its
    executor thread — never touch the filesystem: :meth:`append` only queues
    the encoded line under a lock.  All the blocking I/O (open, write,
    fsync, unlink) happens in :meth:`flush`, which the service drives from
    an executor thread on the ``rows_drain_pace`` tick — so journaling adds
    one batched fsync per tick, not one per row, and the event loop never
    blocks on the disk.  A crash between ticks can only lose the queued
    (unsynced) tail; replay after restart then re-evaluates exactly those
    designs — deterministic enumeration regenerates identical rows, so the
    row log and its ``seq`` cursor stay bit-identical either way.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._lock = threading.Lock()  # guards _pending/_discard queues
        self._io_lock = threading.Lock()  # serializes flush/close/discard I/O
        self._pending: list[tuple[str, bytes]] = []
        self._discard: set[str] = set()
        self._files: dict[str, Any] = {}  # job id -> open append handle

    # -- producer side (any thread, no I/O) -----------------------------
    def append(self, job_id: str, line: bytes) -> None:
        """Queue one encoded journal line for ``job_id``."""
        with self._lock:
            self._pending.append((job_id, line))

    def discard(self, job_id: str) -> None:
        """Queue a pruned job's journal for deletion (next flush unlinks it)."""
        with self._lock:
            self._discard.add(job_id)

    @property
    def dirty(self) -> bool:
        with self._lock:
            return bool(self._pending or self._discard)

    # -- consumer side (executor threads only: blocking file I/O) --------
    def prepare(self) -> list[dict[str, Any]]:
        """Create the directory and replay every surviving job journal."""
        os.makedirs(self.directory, exist_ok=True)
        replayed: list[dict[str, Any]] = []
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(wire.JOURNAL_SUFFIX):
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                continue
            fields = wire.replay_journal(wire.decode_journal(data))
            # the file stem is the id the *server* wrote; a renamed or foreign
            # file whose header disagrees is not a journal this server owns
            if fields is not None and name == fields["id"] + wire.JOURNAL_SUFFIX:
                replayed.append(fields)
        return replayed

    def _handle(self, job_id: str):
        """The job's open append handle, opened and adopted on first use
        (:meth:`flush` closes it on discard, :meth:`close` closes the rest).
        Called only from :meth:`flush`'s ``_io_lock`` region; the plain (not
        reentrant) lock cannot be re-taken here."""
        # repro-lint: waive[RA003] every call site already holds _io_lock (flush's I/O region); a plain Lock is not reentrant, so taking it here would deadlock
        handle = self._files.get(job_id)
        if handle is None:
            path = os.path.join(self.directory, job_id + wire.JOURNAL_SUFFIX)
            handle = open(path, "ab")
            # repro-lint: waive[RA003] same _io_lock-held call-site invariant as the read above
            self._files[job_id] = handle
        return handle

    def flush(self) -> None:
        """Write queued lines, one batched fsync per touched job file."""
        with self._lock:
            batch, self._pending = self._pending, []
            drop, self._discard = self._discard, set()
        with self._io_lock:
            touched: dict[str, Any] = {}
            for job_id, line in batch:
                if job_id in drop:
                    continue
                handle = self._handle(job_id)
                handle.write(line)
                touched[job_id] = handle
            for handle in touched.values():
                handle.flush()
                os.fsync(handle.fileno())
            for job_id in drop:
                handle = self._files.pop(job_id, None)
                if handle is not None:
                    handle.close()
                try:
                    os.unlink(
                        os.path.join(self.directory, job_id + wire.JOURNAL_SUFFIX)
                    )
                except OSError:
                    pass  # never journaled, or already gone

    def close(self) -> None:
        self.flush()
        with self._io_lock:
            for handle in self._files.values():
                handle.close()
            self._files.clear()


class EvaluationService:
    """Serve a :class:`LocalSession` over HTTP/JSON (see module docstring)."""

    def __init__(
        self,
        session: LocalSession,
        *,
        max_queued_jobs: int = 16,
        max_kept_jobs: int = 256,
        rows_keepalive: float = 15.0,
        rows_drain_pace: float = 0.05,
        max_body_bytes: int | None = None,
        journal_dir: str | os.PathLike | None = None,
    ):
        if max_queued_jobs < 1:
            # asyncio.Queue(maxsize<=0) is unbounded: refuse rather than
            # silently serve without a job-queue bound
            raise ValueError(f"max_queued_jobs must be >= 1, got {max_queued_jobs}")
        self.session = session
        self.max_queued_jobs = max_queued_jobs
        self.max_kept_jobs = max_kept_jobs
        #: request-body buffering ceiling: ``Content-Length`` past this is
        #: refused with 413 before a single body byte is read
        self.max_body_bytes = (
            wire.MAX_BODY_BYTES if max_body_bytes is None else max_body_bytes
        )
        #: default idle interval between ``{"row": "keepalive"}`` heartbeat
        #: frames on ``/rows`` long-polls; per-request ``?keepalive=`` wins
        self.rows_keepalive = rows_keepalive
        #: minimum quiet time between productive ``/rows`` drains.  A job
        #: evaluating from a warm memo cache appends rows far faster than a
        #: wakeup-per-row stream can ship them — without this floor the
        #: stream task trades the GIL with the evaluator thread on every
        #: design and was measured doubling job runtime.  The first row of
        #: an idle stream still pushes immediately, and the job's terminal
        #: event preempts the pace, so only mid-burst batching coarsens.
        self.rows_drain_pace = rows_drain_pace
        #: Durability log (``--journal-dir``): every job's header, rows,
        #: records and terminal status are appended to one NDJSON file per
        #: job, and :meth:`start` rebuilds ``self.jobs`` from the directory —
        #: making ``GET /v1/jobs/<id>``, ``/rows`` cursors and ``submit_key``
        #: dedup survive a hard crash + restart.  ``None`` keeps jobs
        #: memory-only (the pre-journal behavior).  Construction does no
        #: I/O; the directory is created on :meth:`start`, off-loop.
        self._journal = None if journal_dir is None else _JobJournal(str(journal_dir))
        self._journal_pacer: asyncio.Task | None = None
        self.jobs: dict[str, Job] = {}
        #: ``submit_key`` -> the kept job submitted under it, in step with
        #: :attr:`jobs` (see :meth:`_keep_job` and :meth:`_prune_jobs`)
        self._submit_keys: dict[str, Job] = {}
        self._job_ids = itertools.count(1)
        self._job_queue: asyncio.Queue[Job] | None = None
        self._runner: asyncio.Task | None = None
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Doorbell for every ``/rows`` long-poll: rung (thread-safely) on
        #: each appended row and each job status flip, so streams push rows
        #: the moment they exist instead of on a fixed drain cadence.
        self._rows_wake: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind and start serving; returns the ``asyncio.Server`` (port 0 = ephemeral)."""
        self._loop = asyncio.get_running_loop()
        self._rows_wake = asyncio.Event()
        self._job_queue = asyncio.Queue(maxsize=self.max_queued_jobs)
        if self._journal is not None:
            # blocking directory scan + file reads: on the executor, then
            # rebuild jobs on the loop thread before any request can race it
            replayed = await self._loop.run_in_executor(None, self._journal.prepare)
            self._restore_jobs(replayed)
            self._journal_pacer = asyncio.create_task(self._pace_journal())
        self._runner = asyncio.create_task(self._run_jobs())
        self._server = await asyncio.start_server(self._handle_connection, host, port)
        return self._server

    def _restore_jobs(self, replayed: list[dict[str, Any]]) -> None:
        """Rebuild :attr:`jobs` from journal replays (loop thread, pre-serve).

        Terminal jobs come back exactly as their last snapshot; a job with no
        terminal entry was queued or running at the crash — it re-enters the
        queue flagged ``resumed``, and the runner adopts its journaled rows
        instead of re-evaluating them (see :meth:`_run_sweep_job`).
        """
        highest = 0
        for fields in sorted(replayed, key=lambda f: _job_number(f["id"])):
            highest = max(highest, _job_number(fields["id"]))
            job = Job.restore(fields)
            if job.resumed:
                try:
                    self._job_queue.put_nowait(job)  # type: ignore[union-attr]
                except asyncio.QueueFull:
                    job.status = "failed"
                    job.error = "job queue full during journal recovery"
                    job.done.set()
            self._keep_job(job)
        if highest:
            # new ids continue after every journaled one: a transport-retried
            # POST dedups against the rebuilt job instead of colliding ids
            self._job_ids = itertools.count(highest + 1)

    async def _pace_journal(self) -> None:
        """Flush+fsync the journal's queued lines on the drain-pace tick."""
        assert self._journal is not None and self._loop is not None
        pace = max(self.rows_drain_pace, 0.005)
        while True:
            await asyncio.sleep(pace)
            if self._journal.dirty:
                await self._loop.run_in_executor(None, self._journal.flush)

    @property
    def port(self) -> int:
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, cancel the job runner, and flush the session cache."""
        if self._runner is not None:
            self._runner.cancel()
            try:
                await self._runner
            except asyncio.CancelledError:
                pass
            self._runner = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._journal_pacer is not None:
            self._journal_pacer.cancel()
            try:
                await self._journal_pacer
            except asyncio.CancelledError:
                pass
            self._journal_pacer = None
        if self._journal is not None:
            # final flush + handle close, off-loop like every journal write
            await asyncio.get_running_loop().run_in_executor(
                None, self._journal.close
            )
        # flush() is file I/O under the memo-cache lock: on the executor, so
        # a big cache never stalls the loop's own shutdown sequence
        await asyncio.get_running_loop().run_in_executor(None, self.session.flush)

    # -- HTTP plumbing --------------------------------------------------
    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        try:
            method, path, _version = request_line.decode("latin-1").split()
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        # the declared length is attacker-chosen: bound it *before* it sizes
        # the readexactly buffer (413 past the ceiling, 400 on garbage)
        length = wire.bounded_body(
            headers.get("content-length"), self.max_body_bytes
        )
        if length:
            body = await reader.readexactly(length)
        return method, path, headers, body

    @staticmethod
    def _json_response(
        writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        body = json.dumps(payload).encode()
        reason = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
                  409: "Conflict", 413: "Payload Too Large",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        writer.write(head.encode() + body)

    @staticmethod
    def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
        writer.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except wire.PayloadTooLargeError as exc:
                    # the body was never read, so the stream is desynced:
                    # answer 413 and drop the connection
                    self._json_response(writer, 413, wire.error_payload(exc))
                    await writer.drain()
                    break
                except ValueError as exc:
                    self._json_response(writer, 400, wire.error_payload(exc))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                await self._dispatch(method, path, headers, body, writer)
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        except asyncio.CancelledError:
            # the loop is shutting down with this keep-alive connection
            # parked on readline(); closing quietly is the clean exit
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    # -- routing ---------------------------------------------------------
    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: Mapping[str, str],
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        advertised = headers.get(wire.SCHEMA_HEADER.lower())
        if advertised is not None and advertised != str(SCHEMA_VERSION):
            exc = SchemaVersionError(
                f"client schema_version {advertised!r} is not supported "
                f"(this server speaks version {SCHEMA_VERSION})"
            )
            payload = wire.error_payload(exc)
            payload["schema_version"] = SCHEMA_VERSION
            self._json_response(writer, 409, payload)
            return
        try:
            payload = json.loads(body) if body else {}
            # every /v1 body is an object; a bare scalar/array would turn
            # each ``payload.get`` downstream into a 500
            if not isinstance(payload, dict):
                raise ValueError(
                    f"request body must be a JSON object, got {type(payload).__name__}"
                )
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and the UnicodeDecodeError a
            # non-UTF-8 body raises; RecursionError is a deeply-nested body
            # blowing the parser's stack — all hostile requests, all 400
            self._json_response(
                writer, 400, wire.error_payload(ValueError(f"invalid JSON body: {exc}"))
            )
            return
        path, _, query = path.partition("?")
        params = {k: v[-1] for k, v in parse_qs(query).items()}
        try:
            await self._route(method, path, params, payload, writer)
        except SchemaVersionError as exc:
            self._json_response(writer, 409, wire.error_payload(exc))
        except _CLIENT_ERRORS as exc:
            self._json_response(writer, 400, wire.error_payload(exc))
        except Exception as exc:  # noqa: BLE001 - crash becomes a visible 500
            self._json_response(writer, 500, wire.error_payload(exc))

    async def _route(
        self,
        method: str,
        path: str,
        params: Mapping[str, str],
        payload: Any,
        writer: asyncio.StreamWriter,
    ) -> None:
        loop = asyncio.get_running_loop()
        route = (method, path)
        if route == ("GET", "/v1/healthz"):
            from repro.api.registry import available_backends
            from repro.ir.workloads import TABLE_II

            self._json_response(
                writer,
                200,
                {
                    "status": "ok",
                    "schema_version": SCHEMA_VERSION,
                    "backends": list(available_backends()),
                    "workloads": sorted(TABLE_II),
                    "array": wire.array_to_dict(self.session.array),
                    # the job-queue bound: coordinators clamp their
                    # per-server lanes by it, so they never fill the queue
                    "max_jobs": self.max_queued_jobs,
                },
            )
        elif route == ("GET", "/v1/cache/stats"):
            # counters only, but stats() takes the memo-cache lock — which a
            # flushing executor thread can hold for seconds on a big cache
            stats = await loop.run_in_executor(None, self.session.cache_stats)
            self._json_response(writer, 200, stats)
        elif route == ("GET", "/v1/cache"):
            cache = self.session.cache
            # dump + serialize on the executor: a big memo cache must not
            # stall the event loop (and every other in-flight request)
            body = await loop.run_in_executor(
                None,
                lambda: json.dumps(
                    {"sections": cache.dump() if cache is not None else {}}
                ).encode(),
            )
            writer.write(
                (
                    "HTTP/1.1 200 OK\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "\r\n"
                ).encode()
                + body
            )
        elif route == ("POST", "/v1/cache/flush"):
            await loop.run_in_executor(None, self.session.flush)
            self._json_response(writer, 200, {"flushed": True})
        elif route == ("POST", "/v1/evaluate"):
            request = DesignRequest.from_dict(payload)
            result = await loop.run_in_executor(None, self.session.evaluate, request)
            self._json_response(writer, 200, result.to_dict())
        elif route == ("POST", "/v1/evaluate_many"):
            requests = payload.get("requests")
            if not isinstance(requests, list):
                raise ValueError('evaluate_many body needs a "requests" list')
            results = await loop.run_in_executor(
                None, self.session.evaluate_many, requests
            )
            self._json_response(
                writer, 200, {"results": [r.to_dict() for r in results]}
            )
        elif route == ("POST", "/v1/evaluate_names"):
            statement = wire.instantiate_statement(payload)
            names = payload.get("names", [])
            bound = payload.get("bound", 1)
            limit = payload.get("limit", 24)
            check_resolve_options(bound=bound, limit=limit, names=names)
            array = (
                wire.array_from_dict(payload["array"]) if payload.get("array") else None
            )
            engine = self.session.engine_for(array)
            rows = await loop.run_in_executor(
                None,
                lambda: engine.evaluate_names(
                    statement, names, bound=bound, limit=limit
                ),
            )
            import dataclasses

            self._json_response(
                writer,
                200,
                {"results": [[name, dataclasses.asdict(r)] for name, r in rows]},
            )
        elif route == ("POST", "/v1/explore"):
            await self._explore_stream(payload, writer)
        elif route == ("POST", "/v1/jobs"):
            self._submit_job(payload, writer)
        elif route == ("GET", "/v1/jobs"):
            self._json_response(
                writer, 200, {"jobs": [job.snapshot() for job in self.jobs.values()]}
            )
        elif method == "GET" and path.startswith("/v1/jobs/") and path.endswith("/rows"):
            job_id = path[len("/v1/jobs/") : -len("/rows")]
            await self._job_rows_stream(job_id, params, writer)
        elif method in ("GET", "DELETE") and path.startswith("/v1/jobs/"):
            self._job_detail(method, path.rsplit("/", 1)[1], writer)
        else:
            self._json_response(
                writer,
                404,
                {"error": f"no route {method} {path}", "error_type": "LookupError"},
            )

    # -- streaming explore ----------------------------------------------
    async def _explore_stream(
        self, payload: Mapping[str, Any], writer: asyncio.StreamWriter
    ) -> None:
        # validate everything *before* the headers go out: errors here are
        # clean JSON responses, errors mid-stream become an "error" row
        statement = wire.instantiate_statement(payload)
        array = (
            wire.array_from_dict(payload["array"]) if payload.get("array") else None
        )
        options = _engine_options(payload)
        wire.check_selections(statement, options.get("selections"))
        engine = self.session.engine_for(array)

        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue(maxsize=256)
        stats = EvaluationStats()

        def produce() -> None:
            """Runs on an executor thread; backpressured by the queue."""
            try:
                for point in engine.stream(statement, stats=stats, **options):
                    asyncio.run_coroutine_threadsafe(
                        queue.put(("row", wire.point_to_row(point))), loop
                    ).result()
                asyncio.run_coroutine_threadsafe(queue.put(("end", None)), loop).result()
            except BaseException as exc:  # noqa: BLE001 - travels as an error row
                asyncio.run_coroutine_threadsafe(
                    queue.put(("error", f"{type(exc).__name__}: {exc}")), loop
                ).result()

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"\r\n"
        )
        start_row = {
            "row": "start",
            "schema_version": SCHEMA_VERSION,
            "workload": statement.name,
            "array": wire.array_to_dict(array or self.session.array),
        }
        self._write_chunk(writer, json.dumps(start_row).encode() + b"\n")
        producer = loop.run_in_executor(None, produce)
        try:
            while True:
                kind, value = await queue.get()
                if kind == "row":
                    self._write_chunk(writer, json.dumps(value).encode() + b"\n")
                    await writer.drain()
                elif kind == "error":
                    error_row = {"row": "error", "reason": value}
                    self._write_chunk(writer, json.dumps(error_row).encode() + b"\n")
                    break
                else:
                    break
        finally:
            # keep draining while the producer finishes: if this handler is
            # bailing early (client hung up), a backpressured producer would
            # otherwise block on a full queue forever
            while not producer.done():
                try:
                    queue.get_nowait()
                except asyncio.QueueEmpty:
                    await asyncio.sleep(0.005)
            await producer
        self._write_chunk(writer, json.dumps(wire.stats_to_row(stats)).encode() + b"\n")
        writer.write(b"0\r\n\r\n")

    # -- jobs -------------------------------------------------------------
    def _submit_job(self, payload: Mapping[str, Any], writer) -> None:
        items = wire.job_items(payload)  # validates the workloads list shape
        options = _engine_options(payload)  # validate option names up front
        # every job keeps its row log, so the value is ignored; clients send
        # it for older servers, and outside input is still type-checked
        if not isinstance(payload.get("stream_rows", False), bool):
            raise ValueError('"stream_rows" must be a boolean')
        submit_key = payload.get("submit_key")
        if submit_key is not None and not isinstance(submit_key, str):
            raise ValueError('"submit_key" must be a string')
        existing = None if submit_key is None else self._job_for_key(submit_key)
        if existing is not None:
            # idempotent resubmission: a client that lost the response to a
            # submit retries with the same key and gets the original job
            # back instead of enqueueing a duplicate sweep
            self._json_response(writer, 202, {"job": existing.snapshot()})
            return
        for item in items:
            wire.check_selections(wire.instantiate_statement(item), options.get("selections"))
        configs = payload.get("configs") or []
        for config in configs:
            wire.array_from_dict(config)
        if len(items) * max(1, len(configs)) > wire.MAX_JOB_ITEMS:
            # job_items caps the list; the workload x config product can
            # still smuggle an unbounded sweep past the queue bound
            raise ValueError(
                f"job expands to {len(items) * max(1, len(configs))} "
                f"(workload x config) items; jobs are capped at "
                f"{wire.MAX_JOB_ITEMS}"
            )
        assert self._job_queue is not None, "service not started"
        job = Job(
            id=f"job-{next(self._job_ids)}",
            payload=dict(payload),
            total_items=len(items) * max(1, len(configs)),
        )
        try:
            self._job_queue.put_nowait(job)
        except asyncio.QueueFull:
            self._json_response(
                writer,
                503,
                {
                    "error": (
                        f"job queue full ({self.max_queued_jobs} queued); "
                        "retry after a poll shows capacity"
                    ),
                    "error_type": "RuntimeError",
                },
            )
            return
        self._keep_job(job)
        # the header entry is what makes submit_key dedup survive a restart:
        # replay rebuilds the job (payload included) before any retried POST
        # can reach the dedup lookup above
        self._journal_append(
            job,
            "job",
            {
                "schema_version": SCHEMA_VERSION,
                "id": job.id,
                "payload": job.payload,
                "total_items": job.total_items,
            },
        )
        self._prune_jobs()
        self._json_response(writer, 202, {"job": job.snapshot()})

    @staticmethod
    def _since_param(params: Mapping[str, str]) -> int:
        raw = params.get("since", "0")
        try:
            return max(0, int(raw))
        except ValueError:
            raise ValueError(
                f'"since" must be an integer row cursor, got {raw!r}'
            ) from None

    def _job_detail(self, method: str, job_id: str, writer) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            self._json_response(
                writer,
                404,
                {"error": f"no such job {job_id!r}", "error_type": "LookupError"},
            )
            return
        if method == "DELETE":
            # report *where* the cancel landed: a queued job dies immediately,
            # a running one stops cooperatively after its current design
            if job.status == "queued":
                job.cancel_requested = True
                job.cancelled_while = "queued"
                job.status = "cancelled"
                job.done.set()
                self._journal_end(job)
                self._poke_rows_streams()
            elif job.status == "running":
                job.cancel_requested = True
                job.cancelled_while = "running"
        self._json_response(writer, 200, {"job": job.snapshot()})

    async def _job_rows_stream(
        self, job_id: str, params: Mapping[str, str], writer: asyncio.StreamWriter
    ) -> None:
        """``GET /v1/jobs/<id>/rows``: long-poll the row log as chunked NDJSON.

        Mirrors ``/v1/explore`` framing — a ``start`` row, then every job row
        from the ``since`` cursor on *as the job produces them*, then an
        ``end`` row carrying the job's terminal status and the final cursor.
        A ``since`` beyond the log (a cursor from a previous life of this job
        id) restarts from row 0: flagged as ``cursor_reset`` on the ``start``
        row when the job is already terminal, or — when a *running* job later
        ends short of the cursor — as a mid-stream ``{"row": "reset"}`` frame
        before the rows replay.

        While the job is live but producing nothing (queued behind other
        jobs, or mid-evaluation on a slow design), the stream heartbeats a
        ``{"row": "keepalive", "status": ..., "rows_total": ...}`` frame
        every ``?keepalive=<seconds>`` of silence (default
        :attr:`rows_keepalive`), so consumers can run an idle timeout that
        distinguishes a slow job from a dead connection.  ``keepalive=0``
        disables the heartbeat.
        """
        job = self.jobs.get(job_id)
        if job is None:
            self._json_response(
                writer,
                404,
                {"error": f"no such job {job_id!r}", "error_type": "LookupError"},
            )
            return
        cursor = self._since_param(params)
        raw_keepalive = params.get("keepalive")
        try:
            keepalive = (
                self.rows_keepalive if raw_keepalive is None else float(raw_keepalive)
            )
        except ValueError:
            raise ValueError(
                f'"keepalive" must be a number of seconds, got {raw_keepalive!r}'
            ) from None
        # never heartbeat faster than the drain tick; <= 0 disables entirely
        keepalive = max(keepalive, 0.02) if keepalive > 0 else 0.0
        start_row = {
            "row": "start",
            "schema_version": SCHEMA_VERSION,
            "id": job.id,
            "status": job.status,
        }
        if cursor > len(job.rows) and job.status not in ("running", "queued"):
            # a terminal job can never grow past the stale cursor; a live one
            # may still reach it, so only terminal states reset eagerly
            start_row["cursor_reset"] = True
            cursor = 0
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"\r\n"
        )
        self._write_chunk(writer, json.dumps(start_row).encode() + b"\n")
        last_sent = time.monotonic()
        assert self._rows_wake is not None
        while True:
            # the doorbell is cleared BEFORE the state checks: a poke that
            # lands between check and wait leaves the event set, so the wait
            # below returns immediately instead of missing the wakeup
            self._rows_wake.clear()
            # capture terminal-ness BEFORE draining: the runner thread only
            # flips status after its last row is appended, so a drain that
            # follows a terminal observation is guaranteed complete (checking
            # after the drain could break with final rows still unshipped)
            terminal = job.status in ("done", "failed", "cancelled")
            if terminal and cursor > len(job.rows):
                # the job ended short of a stale cursor (a previous life of
                # this id): a live stream cannot amend its start row, so the
                # reset travels as its own frame, then the full log replays
                self._write_chunk(writer, json.dumps({"row": "reset"}).encode() + b"\n")
                cursor = 0
            total = len(job.rows)  # snapshot: rows only grows
            progressed = cursor < total
            if progressed:
                # one chunk per drain, not per row: the NDJSON framing is
                # line-based, so clients split lines wherever chunks land
                self._write_chunk(writer, b"".join(job.rows[cursor:total]))
                cursor = total
            now = time.monotonic()
            if progressed:
                last_sent = now
            elif not terminal and keepalive and now - last_sent >= keepalive:
                heartbeat = {
                    "row": "keepalive",
                    "status": job.status,
                    "rows_total": len(job.rows),
                }
                self._write_chunk(writer, json.dumps(heartbeat).encode() + b"\n")
                last_sent = now
            await writer.drain()
            if terminal:
                break
            if progressed:
                # micro-batch: after a productive drain, let the burst
                # accumulate for one pace interval instead of waking per
                # appended row — the evaluator keeps the GIL and the rows
                # ship as a few fat chunks.  The job's terminal event cuts
                # the pause short, so the end frame never waits out a pace.
                try:
                    await asyncio.wait_for(job.done.wait(), self.rows_drain_pace)
                except asyncio.TimeoutError:
                    pass
                continue
            # event-driven: the runner rings _rows_wake on every appended row
            # and status flip, so rows push the moment they exist; the timeout
            # only paces keepalive heartbeats (and is a safety net against a
            # poke lost to a torn-down loop)
            wait = 0.25 if not keepalive else max(0.01, keepalive - (now - last_sent))
            try:
                await asyncio.wait_for(self._rows_wake.wait(), min(wait, 0.25))
            except asyncio.TimeoutError:
                pass
        end_row = {"row": "end", "status": job.status, "rows_total": len(job.rows)}
        if job.error is not None:
            end_row["error"] = job.error
        # the terminal snapshot (per-item records, stats) rides the end frame:
        # a streaming consumer closes its books without a follow-up poll
        end_row["job"] = job.snapshot()
        self._write_chunk(writer, json.dumps(end_row).encode() + b"\n")
        writer.write(b"0\r\n\r\n")

    def _journal_append(self, job: Job, kind: str, fields: Mapping[str, Any]) -> None:
        """Queue one journal entry for ``job`` (no-op without ``journal_dir``).

        Memory-only and thread-safe: callable from the loop thread (submit,
        cancel, terminal flips) and from the job runner's executor thread
        (records; rows arrive already encoded) alike; the pacer task does the
        actual file I/O.
        """
        if self._journal is not None:
            line = wire.encode_journal_entry(wire.journal_entry(kind, fields))
            self._journal.append(job.id, line)

    def _journal_end(self, job: Job) -> None:
        """Queue a job's terminal journal entry."""
        self._journal_append(
            job,
            "end",
            {
                "status": job.status,
                "error": job.error,
                "cancelled_while": job.cancelled_while,
            },
        )

    def _keep_job(self, job: Job) -> None:
        """Add ``job`` to :attr:`jobs`, and its ``submit_key`` to the index.

        A key already indexed keeps its job: the oldest kept job with a key
        is the one a retried submit gets back.
        """
        self.jobs[job.id] = job
        submit_key = job.payload.get("submit_key")
        if isinstance(submit_key, str) and self._job_for_key(submit_key) is None:
            self._submit_keys[submit_key] = job

    def _job_for_key(self, submit_key: str) -> Job | None:
        """The kept job submitted under ``submit_key``, if any."""
        job = self._submit_keys.get(submit_key)
        # a job dropped from the table other than by pruning is gone too
        return job if job is not None and self.jobs.get(job.id) is job else None

    def _prune_jobs(self) -> None:
        """Drop the oldest finished jobs beyond ``max_kept_jobs``."""
        excess = len(self.jobs) - self.max_kept_jobs
        if excess <= 0:
            return
        # jobs iterate oldest first: stop at the excess, not at the end
        finished = (
            job for job in self.jobs.values() if job.status in ("done", "failed", "cancelled")
        )
        for job in list(itertools.islice(finished, excess)):
            del self.jobs[job.id]
            submit_key = job.payload.get("submit_key")
            if isinstance(submit_key, str) and self._submit_keys.get(submit_key) is job:
                del self._submit_keys[submit_key]
            if self._journal is not None:
                # compaction: a pruned terminal job's journal is deleted on
                # the next flush tick, bounding --journal-dir to the same
                # max_kept_jobs window as the in-memory job table
                self._journal.discard(job.id)

    def _poke_rows_streams(self) -> None:
        """Ring the ``/rows`` doorbell, from any thread (no-op before start)."""
        loop, event = self._loop, self._rows_wake
        if loop is None or event is None:
            return
        if event.is_set():
            # already rung and not yet drained — the drain clears the bell
            # *before* reading the row log, so it will see this append too;
            # skipping the re-ring keeps a row burst at one wakeup syscall
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass  # loop already closed mid-shutdown; nothing left to wake

    async def _run_jobs(self) -> None:
        assert self._job_queue is not None
        loop = asyncio.get_running_loop()
        while True:
            job = await self._job_queue.get()
            if job.status == "cancelled" or job.cancel_requested:
                job.status = "cancelled"
                job.done.set()
                self._poke_rows_streams()
                continue
            job.status = "running"
            try:
                completed = await loop.run_in_executor(None, self._run_sweep_job, job)
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                job.status = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
            else:
                if completed:
                    job.status = "done"
                else:
                    job.status = "cancelled"
                    if job.cancelled_while is None:
                        job.cancelled_while = "running"
            self._journal_end(job)
            if self._journal is not None:
                # make the terminal state durable before /rows end frames can
                # report it: a crash after the flip then replays as terminal,
                # never as a silently re-runnable job
                await loop.run_in_executor(None, self._journal.flush)
            job.done.set()
            self._poke_rows_streams()

    def _run_sweep_job(self, job: Job) -> bool:
        """Execute one sweep job; returns False when cancelled mid-run.

        Each (config, workload) item streams through the session's engine —
        the same :meth:`~repro.explore.engine.EvaluationEngine.stream` path
        as ``/v1/explore`` — and every design lands in :attr:`Job.rows` *as
        it is evaluated*, tagged with its job-global ``seq`` cursor and its
        ``item`` index.  That row log is what the ``/rows`` long-poll serves
        incrementally while the job runs.

        Cancellation is cooperative at *design* granularity: the flag is
        checked between evaluations — including once more after the last
        design, so a DELETE that lands during the final item still reports
        ``cancelled`` — and a cancelled job keeps the per-item records it
        finished (an aborted item's partial rows stay in the log; its record
        is never appended).
        """
        payload = job.payload
        configs = [wire.array_from_dict(c) for c in payload.get("configs") or []] or [
            None
        ]
        options = _engine_options(payload)
        items = wire.job_items(payload)
        # journal resume state: a job rebuilt from a crashed run skips every
        # item whose record survived, and adopts the in-flight item's
        # journaled rows instead of re-evaluating their designs
        completed_items: set[int] = set()
        replay_by_item: dict[int, list[dict[str, Any]]] = {}
        if job.resumed:
            completed_items = {int(rec.get("item", -1)) for rec in job.results}
            for line in job.rows:
                row = json.loads(line)
                replay_by_item.setdefault(int(row.get("item", -1)), []).append(row)
        item_index = -1
        for config in configs:
            engine = self.session.engine_for(config)
            for item in items:
                item_index += 1
                if item_index in completed_items:
                    continue  # record (and rows) already adopted from journal
                if job.cancel_requested:
                    return False
                statement = wire.instantiate_statement(item)
                stats = EvaluationStats()
                points: list = []
                failures: list = []
                replay = replay_by_item.get(item_index, ())
                for row in replay:
                    # adopt the journaled design verbatim — deterministic
                    # enumeration means re-running it would produce this exact
                    # row, so decoding it back to a point IS the evaluation
                    point = wire.row_to_point(row, statement)
                    (points if point.ok else failures).append(point)
                job.replayed_rows += len(replay)
                if replay:
                    # resume mid-item: skip the already-journaled prefix of
                    # the design space (enumeration is cheap; evaluation is
                    # what the journal saves) and stream only the remainder
                    remainder = itertools.islice(
                        engine.iter_space(statement, stats=stats, **options),
                        len(replay),
                        None,
                    )
                    stream = engine.stream(
                        statement,
                        specs=remainder,
                        stats=stats,
                        seq_start=len(job.rows),
                    )
                else:
                    # seq_start aligns every point's engine seq with its
                    # position in the job-global row log, so row["seq"] IS
                    # the cursor
                    stream = engine.stream(
                        statement, stats=stats, seq_start=len(job.rows), **options
                    )
                for point in stream:
                    (points if point.ok else failures).append(point)
                    row = wire.point_to_row(point)
                    row["item"] = item_index
                    line = job.append_row(row)
                    if self._journal is not None:
                        self._journal.append(job.id, wire.journal_row_line(line))
                    self._poke_rows_streams()
                    if job.cancel_requested:
                        return False
                stats.skipped = len(failures)
                result = EvaluationResult(
                    workload=statement.name,
                    array=engine.array,
                    points=points,
                    failures=failures,
                    stats=stats,
                )
                record = {
                    "workload": result.workload,
                    "array": wire.array_to_dict(result.array),
                    "item": item_index,
                    "points": len(result.points),
                    "failures": len(result.failures),
                    "stats": {
                        k: v
                        for k, v in wire.stats_to_row(result.stats).items()
                        if k != "row"
                    },
                    "best": [wire.point_to_row(p) for p in result.best(5)],
                    "pareto": [p.name for p in result.pareto()],
                }
                job.results.append(record)
                self._journal_append(job, "record", record)
        return not job.cancel_requested


class ServiceThread:
    """Run an :class:`EvaluationService` on a daemon thread (tests/benchmarks).

    Usage::

        with ServiceThread(LocalSession(ArrayConfig(rows=8, cols=8))) as srv:
            remote = RemoteSession(srv.url)
            ...

    ``url`` carries the actual bound port (``port=0`` picks an ephemeral one).
    """

    def __init__(
        self,
        session: LocalSession | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs,
    ):
        self.session = session if session is not None else LocalSession()
        self.host = host
        self.port = port
        self.url: str | None = None
        self.service: EvaluationService | None = None
        self._service_kwargs = service_kwargs
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("service thread did not start within 60s")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failures only
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.service = EvaluationService(self.session, **self._service_kwargs)
        server = await self.service.start(self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self.url = f"http://{self.host}:{self.port}"
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.service.close()

    def stop(self) -> None:
        """Shut the service down; idempotent (tests kill servers mid-sweep
        and the context manager stops them again on exit)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # the loop already exited
                pass
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
