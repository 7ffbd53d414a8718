"""The HTTP :class:`SessionProtocol` implementation.

:class:`RemoteSession` points the whole session surface at a running
``repro serve`` process: requests are built client-side by the shared
:class:`~repro.api.protocol.SessionBase` machinery (so they are bit-identical
to what a :class:`~repro.api.session.LocalSession` would evaluate), travel as
the versioned ``DesignRequest`` JSON, and come back as ``EvalResult`` —
including memoization metadata (``cached=True`` hits are the *server's* memo
hits; location transparency includes the cache).

Error behavior mirrors the local session: unknown backends raise
``LookupError``, bad arguments ``ValueError``/``TypeError``, and a
wire-format mismatch :class:`~repro.api.types.SchemaVersionError` — the
version is negotiated once against ``GET /v1/healthz`` and asserted on every
request via the ``X-Repro-Schema`` header.

Usage::

    from repro.service import RemoteSession

    with RemoteSession("http://127.0.0.1:8321") as session:
        session.evaluate("gemm", "MNK-SST")           # same calls as local
        session.evaluate_many([...])
        session.explore("gemm").pareto()              # a one-item job
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import time
import uuid
from dataclasses import dataclass
from typing import Any, AsyncIterator, Iterable, Iterator, Mapping, Sequence
from urllib.parse import urlsplit

from repro.api.protocol import SessionBase
from repro.api.types import SCHEMA_VERSION, DesignRequest, EvalResult, SchemaVersionError
from repro.cost.model import CostParams
from repro.explore.engine import DesignPoint, EvaluationResult
from repro.ir.einsum import Statement
from repro.perf.model import ArrayConfig, PerfResult
from repro.service import wire

__all__ = ["AsyncRemoteSession", "RemoteSession"]


def _parse_http_url(url: str) -> tuple[str, int]:
    """``http://host[:port]`` (scheme optional) -> ``(host, port)``."""
    parts = urlsplit(url if "//" in url else f"//{url}", scheme="http")
    if parts.scheme != "http":
        raise ValueError(f"RemoteSession speaks plain http, got {url!r}")
    if not parts.hostname:
        raise ValueError(f"no host in service url {url!r}")
    return parts.hostname, parts.port or 80


@dataclass
class _RowFrames:
    """The ``/rows`` frame rules, shared by both job-row readers.

    One instance follows one job's row stream across reconnects.  Each
    NDJSON line is decoded here; a line that is not a JSON object (torn by a
    dying connection, or garbled on the way) is a drop, raised as
    :class:`ConnectionError` so the reader resumes at the cursor.  Only the
    first ``start`` frame is yielded; a later one (a resumed connection's)
    that carries ``cursor_reset`` becomes a ``{"row": "reset"}`` frame.  A
    ``reset`` frame zeroes the cursor, a data row's ``seq`` advances it,
    keepalives and data rows reset the drop budget (keepalives are yielded
    only with ``keepalives=True``), and the ``end`` frame closes the stream.
    The readers do only the I/O.
    """

    job_id: str
    url: str
    cursor: int  #: the ``since`` of the next connection
    keepalives: bool
    retries: int
    drops: int = 0
    started: bool = False
    ended: bool = False

    def frames(self, lines: Iterable[bytes]) -> Iterator[dict[str, Any]]:
        """The frames to yield for ``lines``, read in order off one
        connection; the ``end`` frame sets :attr:`ended` and drops the rest.
        A line that is not a JSON object raises :class:`ConnectionError`
        after the frames before it."""
        for line in lines:
            try:
                row = json.loads(line)
            except ValueError:
                row = None
            if type(row) is not dict:
                raise ConnectionError(
                    f"row stream for job {self.job_id} sent a line that is not "
                    f"a JSON object: {line[:80]!r}"
                )
            kind = row.get("row")
            if kind == "start":
                if not self.started:
                    self.started = True
                    yield row
                elif row.get("cursor_reset"):
                    self.cursor = 0
                    yield {"row": "reset"}
            elif kind == "reset":
                self.cursor = 0
                yield row
            elif kind == "keepalive":
                self.drops = 0
                if self.keepalives:
                    yield row
            elif kind == "end":
                self.ended = True
                yield row
                return
            else:
                if "seq" in row:
                    self.cursor = int(row["seq"])
                self.drops = 0
                yield row

    def dropped(self, exc: BaseException) -> int:
        """Count a drop without progress and return the count; past the
        ``retries`` budget, raise :class:`ConnectionError` instead."""
        self.drops += 1
        if self.drops > self.retries:
            raise ConnectionError(
                f"row stream for job {self.job_id} on {self.url} dropped "
                f"{self.drops} time(s) without progress: {exc}"
            ) from exc
        return self.drops


class RemoteSession(SessionBase):
    """Evaluate against a remote ``repro serve`` — same protocol, other machine.

    ``array``/``width``/``cost_params``/``sram_words`` are the *client-side*
    request-building defaults (every request is self-contained, so the
    server's own platform defaults never leak in); ``timeout`` bounds each
    HTTP call.  The connection is persistent and reconnects transparently if
    the server recycled it.

    Transport failures — connection refused/reset, a socket that died
    mid-handshake — are retried up to ``retries`` times: the first retry is
    immediate (the common recycled-keep-alive case costs nothing), later
    ones sleep a jittered exponential backoff starting at ``backoff``
    seconds, so a briefly restarting server is ridden out instead of
    surfacing as a hard error.  HTTP *status* errors (4xx/5xx) are never
    retried — the server answered; retrying would just repeat the answer.
    Evaluation requests are idempotent (re-evaluating returns the same
    memoized answer), which is what makes retrying those POSTs safe; job
    submission is the exception, and :meth:`submit_job` takes a
    ``submit_key`` so a retried submit cannot enqueue a duplicate sweep.
    """

    #: Transport-level failures worth a reconnect + retry.  HTTPException
    #: covers a keep-alive socket the server closed mid-response
    #: (BadStatusLine & friends); OSError covers refused/reset/timeout.
    _RETRYABLE = (ConnectionError, http.client.HTTPException, OSError)

    def __init__(
        self,
        url: str,
        *,
        array: ArrayConfig | None = None,
        width: int = 16,
        cost_params: CostParams | None = None,
        sram_words: int = 32768,
        timeout: float = 300.0,
        retries: int = 2,
        backoff: float = 0.1,
    ):
        super().__init__(
            array, width=width, cost_params=cost_params, sram_words=sram_words
        )
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {backoff}")
        self.host, self.port = _parse_http_url(url)
        self.url = f"http://{self.host}:{self.port}"
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._conn: http.client.HTTPConnection | None = None
        self._negotiated = False

    # -- transport -------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def _reset_connection(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _roundtrip(
        self, method: str, path: str, payload: Any | None
    ) -> http.client.HTTPResponse:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {
            "Content-Type": "application/json",
            wire.SCHEMA_HEADER: str(SCHEMA_VERSION),
        }
        for attempt in range(self.retries + 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                return conn.getresponse()
            except self._RETRYABLE:
                self._reset_connection()
                if attempt >= self.retries:
                    raise
                if attempt > 0:
                    # attempt 0 was probably a recycled keep-alive socket:
                    # rebuild and go again immediately.  From attempt 1 on,
                    # the server is genuinely struggling — back off
                    # exponentially with jitter so a fleet of clients does
                    # not hammer a restarting server in lockstep.
                    delay = self.backoff * (2 ** (attempt - 1))
                    time.sleep(delay * random.uniform(0.5, 1.5))
        raise AssertionError("unreachable")  # pragma: no cover

    def _call(self, method: str, path: str, payload: Any | None = None) -> Any:
        """One JSON round-trip; server errors re-raise as local exceptions."""
        self._handshake()
        response = self._roundtrip(method, path, payload)
        data = response.read()
        parsed = json.loads(data) if data else {}
        if response.status >= 400:
            wire.raise_remote_error(parsed, response.status)
        return parsed

    def _handshake(self) -> None:
        """Negotiate the wire format once (GET /v1/healthz)."""
        if self._negotiated:
            return
        self._negotiated = True  # even a failed handshake should not loop
        try:
            response = self._roundtrip("GET", "/v1/healthz", None)
            info = json.loads(response.read() or b"{}")
        except (ConnectionError, OSError) as exc:
            self._negotiated = False
            raise ConnectionError(
                f"no evaluation service reachable at {self.url}: {exc}"
            ) from exc
        server_version = info.get("schema_version")
        if server_version != SCHEMA_VERSION:
            raise SchemaVersionError(
                f"server at {self.url} speaks schema_version {server_version!r}, "
                f"this client speaks {SCHEMA_VERSION}"
            )

    def close(self) -> None:
        self._reset_connection()

    def __exit__(self, *exc_info) -> None:
        try:
            self.flush()
        except (ConnectionError, OSError):  # the server may already be gone
            pass
        self.close()

    # -- SessionProtocol -------------------------------------------------
    def evaluate(
        self,
        request: DesignRequest | str,
        dataflow: str | None = None,
        **request_kwargs,
    ) -> EvalResult:
        """Evaluate one design on the server (its memo cache included)."""
        request = self._coerce_request(request, dataflow, request_kwargs)
        payload = self._call("POST", "/v1/evaluate", request.to_dict())
        return EvalResult.from_dict(payload)

    def evaluate_many(
        self, requests: Sequence[DesignRequest | Mapping[str, Any]]
    ) -> list[EvalResult]:
        """Batch-evaluate on the server; one round-trip for the whole batch."""
        reqs = self._coerce_requests(requests)
        payload = self._call(
            "POST", "/v1/evaluate_many", {"requests": [r.to_dict() for r in reqs]}
        )
        return [EvalResult.from_dict(item) for item in payload["results"]]

    def explore(
        self,
        workload: Statement | str,
        *,
        array: ArrayConfig | None = None,
        extents: Mapping[str, int] | None = None,
        **engine_options,
    ) -> EvaluationResult:
        """Run the design-space pipeline remotely, as a one-item job.

        The job queues behind any other job on the server (a full queue
        raises :class:`~repro.service.wire.ServiceBusyError`), and its rows
        are read over :meth:`iter_job_rows` and rebuilt into real
        :class:`~repro.explore.engine.DesignPoint` objects as the server
        produces them; the returned :class:`EvaluationResult` is
        behaviorally identical to the local one — ``best()``, ``pareto()``,
        ``failure_report()`` and the stats all work.
        """
        payload = wire.statement_payload(workload, extents)
        statement = (
            workload if isinstance(workload, Statement)
            else wire.instantiate_statement(payload)
        )
        job = self.submit_job(
            [payload],
            # like a LocalSession, *this* session's array governs when the
            # call carries none — never the server's
            configs=[array or self.array],
            submit_key=uuid.uuid4().hex,
            **engine_options,
        )
        points: list[DesignPoint] = []
        failures: list[DesignPoint] = []
        for frame in self.iter_job_rows(job["id"]):
            kind = frame.get("row")
            if kind in ("point", "failure"):
                point = wire.row_to_point(frame, statement)
                (points if point.ok else failures).append(point)
            elif kind == "reset":
                points.clear()
                failures.clear()
        # read to its end, the stream's last frame is the "end" frame
        if frame.get("status") != "done":
            raise RuntimeError(
                f"remote explore of {statement.name!r} failed: job {job['id']} "
                f"ended {frame.get('status')}: {frame.get('error')}"
            )
        (record,) = frame["job"]["results"]
        return wire.result_from_record(record, points, failures)

    def sweep(
        self,
        workloads: Sequence[Statement | str],
        configs: Sequence[ArrayConfig] | None = None,
        **engine_options,
    ) -> list[EvaluationResult]:
        """Pipeline over ``workloads`` x ``configs``, configs-major (like local)."""
        config_list: Sequence[ArrayConfig | None] = (
            list(configs) if configs is not None else [None]
        )
        results = []
        for config in config_list:
            for workload in workloads:
                results.append(self.explore(workload, array=config, **engine_options))
        return results

    def evaluate_names(
        self,
        statement: Statement | str,
        names: Sequence[str],
        *,
        bound: int = 1,
        limit: int = 24,
    ) -> list[tuple[str, PerfResult]]:
        """Paper dataflow names, best STT per name, scored server-side."""
        payload = wire.statement_payload(statement)
        payload.update(
            names=list(names),
            bound=bound,
            limit=limit,
            # this session's platform, like the local engine would use
            array=wire.array_to_dict(self.array),
        )
        response = self._call("POST", "/v1/evaluate_names", payload)
        return [
            (name, PerfResult(**fields)) for name, fields in response["results"]
        ]

    def cache_stats(self) -> dict[str, int]:
        """The *server's* memo-cache counters."""
        return self._call("GET", "/v1/cache/stats")

    def cache_pull(self) -> dict[str, dict]:
        """Download the server's full memo-cache contents (``GET /v1/cache``).

        The payload round-trips through
        :meth:`repro.explore.engine.MemoCache.from_payload` /
        :meth:`~repro.explore.engine.MemoCache.merge_from` — the live
        alternative to shipping cache files for ``repro cache merge``.
        """
        return self._call("GET", "/v1/cache")["sections"]

    def flush(self) -> None:
        """Ask the server to persist its memo cache now."""
        self._call("POST", "/v1/cache/flush")

    # -- the job API ------------------------------------------------------
    def submit_job(
        self,
        workloads: Sequence[str | Mapping[str, Any]],
        *,
        configs: Sequence[ArrayConfig] | None = None,
        extents: Mapping[str, int] | None = None,
        submit_key: str | None = None,
        **engine_options,
    ) -> dict[str, Any]:
        """Queue a long sweep server-side; returns the job snapshot (id+status).

        ``workloads`` entries are Table II names, or
        ``{"workload": name, "extents": {...}}`` payloads when items need
        per-workload problem sizes (how a coordinator packs several sweep
        items into one job).  The server keeps every evaluated design in the
        job's row log, streamed by :meth:`iter_job_rows` *while the job
        runs*.  ``submit_key`` makes the submit idempotent: a retry
        that lost the response (the one POST on this surface that is *not*
        naturally idempotent) gets the original job back instead of
        enqueueing a duplicate.  A full job queue raises
        :class:`~repro.service.wire.ServiceBusyError` (503).
        """
        payload: dict[str, Any] = {
            "workloads": [
                w if isinstance(w, str) else dict(w) for w in workloads
            ]
        }
        if configs:
            payload["configs"] = [wire.array_to_dict(c) for c in configs]
        if extents:
            payload["extents"] = dict(extents)
        # servers older than the always-kept row log keep none without it
        payload["stream_rows"] = True
        if submit_key is not None:
            payload["submit_key"] = submit_key
        if engine_options:
            payload["options"] = dict(engine_options)
        return self._call("POST", "/v1/jobs", payload)["job"]

    def job(self, job_id: str) -> dict[str, Any]:
        """Poll one job (status, and results once done)."""
        return self._call("GET", f"/v1/jobs/{job_id}")["job"]

    def iter_job_rows(
        self,
        job_id: str,
        *,
        since: int = 0,
        keepalive: float | None = None,
        keepalives: bool = False,
    ):
        """Stream a job's rows live over ``GET /v1/jobs/<id>/rows`` (NDJSON).

        Yields every framing and data row as a dict, in wire order: one
        ``{"row": "start", ...}`` (with ``cursor_reset`` when the ``since``
        cursor did not survive), then each ``point``/``failure`` row — with
        its job-global ``seq`` and ``item`` index — *as the server produces
        it* (long-poll: the stream stays open while the job runs), then one
        ``{"row": "end", "status": ..., "rows_total": ...}`` when the job
        reaches a terminal state.  A stale cursor detected only once the job
        ends travels as a mid-stream ``{"row": "reset"}`` frame: discard
        rows seen so far, the full log replays after it.  The CLI front door
        is ``repro client tail-job``.

        A long-poll that dies mid-stream (EOF before the end frame, reset
        socket, half-written line) is resumed transparently: the client
        reconnects with ``since=<last seen seq>`` so no row is dropped or
        duplicated, up to ``retries`` consecutive drops without progress
        (then :class:`ConnectionError`; ``retries=0`` fails fast).  A
        resumed stream's extra ``start`` frame is swallowed — unless it
        carries ``cursor_reset``, which surfaces as a ``{"row": "reset"}``
        frame like the mid-stream server-sent one.

        ``keepalive=N`` asks the server to emit ``{"row": "keepalive"}``
        heartbeat frames after ~N idle seconds, so a slow job and a dead
        connection are distinguishable; they are swallowed (but count as
        progress, resetting the drop budget) unless ``keepalives=True``.
        """
        rules = _RowFrames(job_id, self.url, int(since), keepalives, self.retries)
        while True:
            path = f"/v1/jobs/{job_id}/rows?since={rules.cursor}"
            if keepalive is not None:
                path += f"&keepalive={float(keepalive):g}"
            try:
                self._handshake()
                response = self._roundtrip("GET", path, None)
                if response.status >= 400:
                    parsed = json.loads(response.read() or b"{}")
                    wire.raise_remote_error(parsed, response.status)
                while True:
                    line = response.readline()
                    if not line:
                        raise ConnectionError(
                            f"row stream for job {job_id} ended without an end frame"
                        )
                    frames = list(rules.frames((line,)))
                    if rules.ended:
                        # drain the terminating chunk: an un-drained stream
                        # leaves the keep-alive socket dirty, and the *next*
                        # request on it fails mid-response and retries — for
                        # POST /v1/jobs that submits a duplicate job
                        response.read()
                    yield from frames
                    if rules.ended:
                        return
            except GeneratorExit:
                # consumer abandoned the stream mid-poll: the socket holds
                # an unread tail, reset it rather than recycle it dirty
                self._reset_connection()
                raise
            except self._RETRYABLE as exc:
                self._reset_connection()
                drops = rules.dropped(exc)
                time.sleep(self.backoff * drops * random.uniform(0.5, 1.5))

    def job_rows_async(
        self,
        job_id: str,
        *,
        since: int = 0,
        keepalive: float | None = None,
        idle_timeout: float | None = None,
        keepalives: bool = False,
    ) -> AsyncIterator[dict[str, Any]]:
        """:meth:`iter_job_rows` as an async iterator on a dedicated connection.

        This is the pipelined coordinator's consumer path: each job's row
        stream gets its own :class:`AsyncRemoteSession` transport (so many
        streams multiplex on one event loop without touching this session's
        persistent sync connection), with the same frame discipline and
        reconnect-with-``since`` resume as the sync iterator, plus an
        ``idle_timeout`` that treats a silent connection as dead — pair it
        with ``keepalive`` so a slow job keeps proving liveness.  Tests
        override this method to inject stream faults.
        """
        return AsyncRemoteSession(
            self.url, timeout=self.timeout, retries=self.retries, backoff=self.backoff
        ).iter_job_rows(
            job_id,
            since=since,
            keepalive=keepalive,
            idle_timeout=idle_timeout,
            keepalives=keepalives,
        )

    def jobs(self) -> list[dict[str, Any]]:
        """All jobs the server still remembers."""
        return self._call("GET", "/v1/jobs")["jobs"]

    def cancel_job(self, job_id: str) -> dict[str, Any]:
        """Cancel a job (queued: immediate; running: between workloads)."""
        return self._call("DELETE", f"/v1/jobs/{job_id}")["job"]

    def __repr__(self) -> str:
        return (
            f"RemoteSession({self.url}, defaults "
            f"{self.array.rows}x{self.array.cols}, width={self.width})"
        )


class AsyncRemoteSession:
    """The asyncio transport for the service wire protocol.

    A deliberately small counterpart to :class:`RemoteSession`: plain
    HTTP/1.1 over :func:`asyncio.open_connection`, one connection per
    request, reusing the same wire codecs (``repro.service.wire``) and error
    mapping.  It exists for consumers that hold *many* long-poll row streams
    open at once — the pipelined :class:`~repro.service.coordinator
    .SweepCoordinator` keeps one per inflight job on a single event loop,
    where `http.client`'s one-socket-per-session blocking model would need a
    thread per stream.

    Only the surface the coordinator needs is async: :meth:`iter_job_rows`
    (NDJSON long-poll with reconnect-with-``since`` resume, keepalive
    awareness and an idle timeout).  Everything else stays on the sync
    session.
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 300.0,
        retries: int = 2,
        backoff: float = 0.1,
    ):
        self.host, self.port = _parse_http_url(url)
        self.url = f"http://{self.host}:{self.port}"
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    # -- transport -------------------------------------------------------
    async def _open(
        self, method: str, path: str, payload: Any | None = None
    ) -> tuple[int, dict[str, str], asyncio.StreamReader, asyncio.StreamWriter]:
        """Send one request; return (status, headers, reader, writer)."""
        body = json.dumps(payload).encode() if payload is not None else b""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout
        )
        try:
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"{wire.SCHEMA_HEADER}: {SCHEMA_VERSION}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("ascii")
            writer.write(head + body)
            await writer.drain()
            status, headers = await asyncio.wait_for(
                self._read_head(reader), self.timeout
            )
        except BaseException:
            writer.close()
            raise
        return status, headers, reader, writer

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict[str, str]]:
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError(f"no response from {self.url}")
        try:
            status = int(status_line.split(None, 2)[1])
        except (IndexError, ValueError) as exc:
            raise ConnectionError(
                f"malformed status line from {self.url}: {status_line!r}"
            ) from exc
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionError(f"{self.url} closed mid-headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Mapping[str, str]
    ) -> bytes:
        length = int(headers.get("content-length") or 0)
        return await reader.readexactly(length) if length else b""

    @staticmethod
    async def _read_chunk(reader: asyncio.StreamReader) -> bytes | None:
        """One HTTP chunk; ``None`` on the zero-size terminator."""
        size_line = await reader.readline()
        if not size_line:
            raise ConnectionError("connection closed mid-stream")
        size = int(size_line.strip().split(b";")[0] or b"0", 16)
        if size == 0:
            await reader.readline()  # trailing CRLF
            return None
        data = await reader.readexactly(size)
        await reader.readexactly(2)  # chunk CRLF
        return data

    @classmethod
    async def _bounded_chunk(
        cls, reader: asyncio.StreamReader, idle_timeout: float | None
    ) -> bytes | None:
        """One chunk under the idle deadline.

        ``asyncio.timeout`` instead of ``wait_for``: same semantics (the
        timer spans just this read), but no Task per read — at streaming
        rates the wrapper Task costs more than the row it guards.
        """
        if idle_timeout is None:
            return await cls._read_chunk(reader)
        async with asyncio.timeout(idle_timeout):
            return await cls._read_chunk(reader)

    # -- the async surface ------------------------------------------------
    async def iter_job_rows(
        self,
        job_id: str,
        *,
        since: int = 0,
        keepalive: float | None = None,
        idle_timeout: float | None = None,
        keepalives: bool = False,
    ) -> AsyncIterator[dict[str, Any]]:
        """Async :meth:`RemoteSession.iter_job_rows`: same frames, same resume.

        ``idle_timeout`` bounds the silence between frames; a stream that is
        silent longer counts as a drop (reconnect with the last seen
        ``seq``), so with server ``keepalive`` heartbeats below the timeout,
        a slow job stays connected while a dead server is detected in one
        timeout instead of hanging the consumer.
        """
        rules = _RowFrames(job_id, self.url, int(since), keepalives, self.retries)
        while True:
            writer = None
            try:
                path = f"/v1/jobs/{job_id}/rows?since={rules.cursor}"
                if keepalive is not None:
                    path += f"&keepalive={float(keepalive):g}"
                status, headers, reader, writer = await self._open("GET", path)
                if status >= 400:
                    data = await self._read_body(reader, headers)
                    wire.raise_remote_error(json.loads(data or b"{}"), status)
                buf = b""
                while True:
                    chunk = await self._bounded_chunk(reader, idle_timeout)
                    if chunk is None:
                        raise ConnectionError(
                            f"row stream for job {job_id} ended "
                            "without an end frame"
                        )
                    # a chunk holds any number of lines; the last piece is
                    # the start of a line a later chunk completes
                    *lines, buf = (buf + chunk).split(b"\n")
                    for row in rules.frames(lines):
                        yield row
                    if rules.ended:
                        return
            except (ConnectionError, EOFError, OSError, asyncio.TimeoutError) as exc:
                await asyncio.sleep(self.backoff * rules.dropped(exc))
            finally:
                if writer is not None:
                    writer.close()

    def __repr__(self) -> str:
        return f"AsyncRemoteSession({self.url})"
