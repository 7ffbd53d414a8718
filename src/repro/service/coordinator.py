"""Distributed sweep coordination over the evaluation-service job API.

One ``repro serve`` gives location transparency; this module gives *scale*:
:class:`SweepCoordinator` partitions a workload x array-config sweep across
any number of live servers and folds the answers back into the exact
``list[EvaluationResult]`` a single :meth:`LocalSession.sweep
<repro.api.session.LocalSession.sweep>` would return — same order, same
metrics, same failure rows — so benchmarks and examples run unmodified
against one machine or five.

How a sweep runs
----------------

1. **Partition** — the (config, workload) grid is enumerated configs-major
   (the local result order) and grouped into *shards* of up to
   ``shard_size`` items sharing one config.  Shards are the unit of
   dispatch, retry and reassignment; ``shard_size > 1`` amortizes job-queue
   overhead on fleets with many small workloads.
2. **Dispatch** — the whole fleet is ``/v1/healthz``-probed *concurrently*
   (a hung server delays startup by one timeout, not N), then the sweep
   runs event-driven on one asyncio loop: each server gets ``max_inflight``
   worker lanes (fewer when its healthz ``max_jobs`` queue is smaller), and
   each lane pulls the next assignable shard and submits it as one
   ``POST /v1/jobs`` job — so no lane ever waits on another server.  Each
   server evaluates serially, so a machine with more cores runs one server
   per core.
3. **Stream + fold** — each inflight job's row log is *pushed* over its own
   ``GET /v1/jobs/<id>/rows`` long-poll (an :class:`~repro.service.client
   .AsyncRemoteSession` stream that auto-resumes with the last folded
   ``seq`` and heartbeats ``keepalive`` frames through idle stretches).
   Every row crosses a bounded :class:`asyncio.Queue` into the *single*
   folder lane, which rebuilds real :class:`DesignPoint` objects in wire
   order — fold work overlaps evaluation across the whole fleet, yet stays
   single-threaded and bit-identical to a local sweep.  The stream's
   ``end`` frame embeds the terminal snapshot (per-item stats), which
   closes the books without re-shipping the design list; a reset frame
   (the server no longer recognizes the cursor) drops the shard's partial
   fold and rebuilds from the replay.
4. **Back-off** — a server that answers 503 (its job queue is full of
   other clients' jobs) is not dead, just busy: the shard goes back to the
   head of the queue, costing no retry and excluding no server, and the
   lane waits ``poll_interval`` before pulling work again.  Busy answers
   are counted in ``last_report["busy"]``.
5. **Reassign** — a server that stops answering (killed mid-sweep,
   connection refused/reset, a row stream that dies and cannot resume) —
   or that *restarted* and forgot the job — forfeits the shard *the moment
   its consumer fails*, not at the next poll round: the partial fold is
   discarded (stale queued rows are dropped by an attempt-epoch tag) and
   the shard goes back in the queue, excluded from the dead server, to run
   elsewhere.  A shard that keeps failing raises after ``max_retries``
   reassignments — work is never silently dropped.  Every
   retry/reassignment is surfaced through the ``on_event`` hook
   (``repro sweep --verbose``).  With ``restart_grace > 0`` reassignment
   becomes the *last* resort: a crashed server is first probed until the
   grace deadline, and when it comes back with its jobs rebuilt from
   ``--journal-dir``, the row stream resumes from the last consumed ``seq``
   (``job_resumed`` event) — the partial fold and every already-evaluated
   design survive the crash with zero repeated evaluations.
6. **Cache fold** — when the coordinator owns a :class:`MemoCache`, each
   surviving server's memo cache is pulled over ``GET /v1/cache`` and merged
   in, so the *next* sweep starts warm without shipping cache files around.

:class:`CoordinatedSession` wraps the coordinator in the full
:class:`~repro.api.protocol.SessionProtocol` surface: ``sweep()`` fans out,
everything else (``evaluate``, ``evaluate_many``, ``explore``,
``evaluate_names``) rides a healthy server with automatic failover.  The CLI
front door is ``repro sweep --url A --url B ...``.

Usage::

    from repro.service import CoordinatedSession

    with CoordinatedSession(
        ["http://node-a:8321", "http://node-b:8321"], cache="warm.json"
    ) as session:
        results = session.sweep(["gemm", "depthwise_conv"])   # sharded
        print(session.coordinator.last_report)
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import inspect
import os
import uuid
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.api.protocol import SessionBase
from repro.api.types import DesignRequest, EvalResult
from repro.cost.model import CostParams
from repro.explore.engine import DesignPoint, EvaluationResult, MemoCache
from repro.ir.einsum import Statement
from repro.perf.model import ArrayConfig
from repro.service import wire
from repro.service.client import RemoteSession
from repro.service.wire import ServiceBusyError

__all__ = ["SweepCoordinator", "CoordinatedSession"]

#: Requests per chunk when :meth:`CoordinatedSession.evaluate_many` spreads a
#: batch across the fleet.
_EVALUATE_MANY_CHUNK = 64

#: Transport failures that mean "this server is gone", triggering shard
#: reassignment.  HTTPException covers a server dying *mid-response*
#: (IncompleteRead/BadStatusLine escape the client's retry loop once its
#: budget is spent).  ServiceBusyError is deliberately *not* here — a 503
#: server answered, its job queue is just full.
_SERVER_LOST = (ConnectionError, OSError, http.client.HTTPException)

#: What kills a row-stream consumer: everything in ``_SERVER_LOST`` plus the
#: stream-specific deaths — EOF mid-chunk (``IncompleteReadError``) and an
#: idle timeout that outlived the keepalive heartbeat.  (``TimeoutError`` is
#: an ``OSError`` subclass on modern Pythons; listed for clarity.)
_STREAM_LOST = (
    ConnectionError,
    OSError,
    EOFError,
    asyncio.TimeoutError,
    http.client.HTTPException,
)


@dataclass
class _ShardItem:
    """One (config, workload) sweep item and its incrementally folded rows."""

    index: int  # position in the folded result list (configs-major)
    statement: Statement
    payload: dict[str, Any]  # wire statement payload: workload name + extents
    points: list[DesignPoint] = field(default_factory=list)
    failures: list[DesignPoint] = field(default_factory=list)

    def fold(self, point: DesignPoint) -> None:
        # renumber to per-item emission order: job rows carry the job-global
        # cursor seq, local results number each run from 1
        point.seq = len(self.points) + len(self.failures) + 1
        (self.points if point.ok else self.failures).append(point)

    def reset(self) -> None:
        self.points.clear()
        self.failures.clear()


@dataclass
class _Shard:
    """A group of same-config sweep items dispatched as one job."""

    config: ArrayConfig  # always explicit: server defaults never leak in
    items: list[_ShardItem]
    attempts: int = 0
    excluded: set[int] = field(default_factory=set)  # server indices
    cursor: int = 0  # job-row seq already folded (the /rows since= value)
    #: set by the folder once the shard's results are closed; queued events
    #: arriving after (or from a forfeited attempt — see the epoch tag each
    #: event carries) are dropped instead of folded
    done: bool = False

    def describe(self) -> str:
        return "+".join(item.payload["workload"] for item in self.items)

    def reset_fold(self) -> None:
        """Drop partially folded rows (reassignment / cursor reset)."""
        self.cursor = 0
        for item in self.items:
            item.reset()


@dataclass
class _Server:
    """A coordinator's view of one ``repro serve`` instance."""

    index: int
    url: str
    session: RemoteSession
    healthy: bool = True
    probed: bool = False
    #: Weighted inflight bound from the healthz probe (``None`` until probed:
    #: fall back to the coordinator's ``max_inflight``).
    capacity: int | None = None
    inflight: dict[str, _Shard] = field(default_factory=dict)  # job id -> shard
    completed: int = 0
    #: serializes this server's *sync* session calls (submit / restart
    #: probe): ``http.client`` holds one socket per session.  Rebound to a
    #: fresh :class:`asyncio.Lock` by every sweep (locks are loop-bound).
    lock: asyncio.Lock | None = field(default=None, repr=False)


class _SweepState:
    """The mutable hub one sweep's worker/folder tasks share.

    Everything here lives on the sweep's event loop: ``pending`` is the
    shard work queue, ``queue`` the bounded fold funnel (every row crosses
    it, so folding stays single-lane), ``wake`` the "new work may be
    assignable" doorbell, ``done`` the sweep-over latch, and ``fatal`` the
    first error that should surface to the caller.
    """

    def __init__(
        self,
        shards: Sequence[_Shard],
        results: list,
        options: Mapping[str, Any],
        fold_queue: int,
    ):
        self.pending: deque[_Shard] = deque(shards)
        self.results = results
        self.options = options
        self.remaining = len(shards)
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=fold_queue)
        self.wake = asyncio.Event()
        self.done = asyncio.Event()
        self.fatal: BaseException | None = None
        self.active = 0  # shards a worker lane is on *right now*
        self.live_workers = 0
        self.queue_peak = 0

    def fail(self, exc: BaseException) -> None:
        if self.fatal is None:
            self.fatal = exc
        self.finish()

    def finish(self) -> None:
        self.done.set()
        self.wake.set()

    def complete_shard(self) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            self.finish()
        else:
            self.wake.set()


class SweepCoordinator:
    """Partition ``sweep()`` across several evaluation servers (see module docs).

    Parameters
    ----------
    urls:
        Base URLs of live ``repro serve`` instances (at least one).
    array / width / cost_params / sram_words:
        The platform every shard is evaluated on — shipped explicitly with
        each job, so the servers' own defaults never leak into results.
    cache:
        A :class:`MemoCache` (or JSON path) that remote caches fold into
        after each sweep; ``None`` skips cache pulling.
    shard_size:
        Sweep items per job (default 1).  Items grouped into one shard share
        a config and ride one ``/v1/jobs`` submission, amortizing queue and
        poll overhead on fleets with many small workloads; folded results
        are bit-identical whatever the grouping.
    max_inflight:
        Jobs in flight per server (the rest queue coordinator-side),
        clamped by the ``max_jobs`` queue depth the server's ``/v1/healthz``
        advertises.  Each inflight unit is one concurrent worker lane on the
        sweep's event loop, holding one job's row stream open end to end.
    max_retries:
        Reassignments per shard before the sweep raises.
    poll_interval:
        Seconds an idle worker lane sleeps before re-checking for
        assignable work (a safety-net cadence; the normal path is
        event-driven via the wake doorbell), and the back-off a lane waits
        after its server answers a submit with 503.
    fold_queue:
        Bound of the row queue between the per-job stream consumers and the
        single folder lane (default 256 events).  Under backpressure — a
        slow ``on_row`` hook, or a fold briefly behind a fast fleet —
        consumers block on the queue instead of buffering unboundedly;
        ``last_report["fold_queue_peak"]`` records the high-water mark.
    stream_keepalive:
        Idle seconds between server keepalive heartbeats on each row
        stream (the ``?keepalive=`` parameter).  Consumers allow five
        missed heartbeats (``5 * stream_keepalive``) of total silence
        before declaring the connection dead and resuming/reassigning;
        ``0`` disables both the heartbeat and the idle timeout.
    restart_grace:
        Seconds to wait for a crashed server to come back before forfeiting
        its shards (default ``0``: forfeit immediately — the pre-journal
        behavior).  With a grace, a dead row stream probes the server until
        the deadline; if the job answers again (rebuilt from ``--journal-dir``
        across a restart), the long-poll resumes from the last *consumed*
        ``seq`` with a ``job_resumed`` event and **zero repeated
        evaluations** — the partial fold survives.  A server that answers
        but no longer knows the job gets the shard resubmitted under the
        *same* ``submit_key`` (same attempt), so the replacement job's
        deterministic rows realign with the live cursor instead of resetting
        the fold.  Only past the deadline does the legacy
        reassign-and-re-run path take over.
    on_row:
        Optional per-row hook, called by the folder lane with each folded
        :class:`DesignPoint` (coroutine functions are awaited — they apply
        backpressure through the bounded queue).  Benchmarks use it to
        timestamp time-to-first-row.
    on_event:
        Optional observer for dispatch-loop events; called with one dict per
        event (``{"event": "reassigned" | "server_lost" | "busy" |
        "cursor_reset" | "job_vanished" | "job_resumed", ...}``).
        ``repro sweep --verbose`` prints these; exceptions from the hook
        are the caller's problem.
    session_factory:
        ``url -> RemoteSession``-like, for tests that inject failures;
        defaults to building :class:`RemoteSession` with this coordinator's
        platform and ``timeout``/``retries``/``backoff``.
    """

    def __init__(
        self,
        urls: Sequence[str],
        *,
        array: ArrayConfig | None = None,
        width: int = 16,
        cost_params: CostParams | None = None,
        sram_words: int = 32768,
        cache: MemoCache | str | os.PathLike | None = None,
        shard_size: int = 1,
        max_inflight: int = 2,
        max_retries: int = 2,
        poll_interval: float = 0.05,
        fold_queue: int = 256,
        stream_keepalive: float = 2.0,
        restart_grace: float = 0.0,
        timeout: float = 300.0,
        retries: int = 2,
        backoff: float = 0.1,
        on_event: Callable[[dict[str, Any]], None] | None = None,
        on_row: Callable[[DesignPoint], Any] | None = None,
        session_factory: Callable[[str], RemoteSession] | None = None,
    ):
        urls = list(urls)
        if not urls:
            raise ValueError("SweepCoordinator needs at least one server URL")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if fold_queue < 1:
            raise ValueError(f"fold_queue must be >= 1, got {fold_queue}")
        if restart_grace < 0:
            raise ValueError(f"restart_grace must be >= 0, got {restart_grace}")
        self.array = array or ArrayConfig()
        self.width = width
        self.cost_params = cost_params
        self.sram_words = sram_words
        if isinstance(cache, (str, os.PathLike)):
            cache = MemoCache(cache)
        self.cache = cache
        self.shard_size = shard_size
        self.max_inflight = max_inflight
        self.max_retries = max_retries
        self.poll_interval = poll_interval
        self.fold_queue = fold_queue
        self.stream_keepalive = stream_keepalive
        self.restart_grace = restart_grace
        self.on_event = on_event
        self.on_row = on_row
        self._executor: ThreadPoolExecutor | None = None
        if session_factory is None:

            def session_factory(url: str) -> RemoteSession:
                return RemoteSession(
                    url,
                    array=self.array,
                    width=width,
                    cost_params=cost_params,
                    sram_words=sram_words,
                    timeout=timeout,
                    retries=retries,
                    backoff=backoff,
                )

        self.servers = [
            _Server(index=i, url=url, session=session_factory(url))
            for i, url in enumerate(urls)
        ]
        #: Counters from the most recent :meth:`sweep` call.
        self.last_report: dict[str, int] = {}

    # -- the public entry point -----------------------------------------
    def sweep(
        self,
        workloads: Sequence[Statement | str],
        configs: Sequence[ArrayConfig] | None = None,
        **engine_options,
    ) -> list[EvaluationResult]:
        """Run ``workloads`` x ``configs`` across the servers, configs-major.

        The returned list is deterministic and identical to
        ``LocalSession(array, ...).sweep(workloads, configs, ...)`` on one
        machine — regardless of how shards landed on servers, which servers
        died, or which submits were answered busy.

        The signature is synchronous; the dispatch/stream/fold machinery
        runs on a private event loop under :func:`asyncio.run` (so this must
        not be called from inside a running loop — use a thread for that).
        """
        options = wire.engine_options({"options": engine_options})
        config_list: list[ArrayConfig] = (
            list(configs) if configs is not None else [self.array]
        )
        shards = self._partition(workloads, config_list)
        for shard in shards:
            for item in shard.items:
                wire.check_selections(item.statement, options.get("selections"))
        total_items = sum(len(shard.items) for shard in shards)
        self.last_report = {
            "shards": len(shards),
            "items": total_items,
            "servers": len(self.servers),
            "jobs": 0,
            "busy": 0,
            "reassigned": 0,
            "servers_lost": 0,
            "rows_streamed": 0,
            "fold_queue_peak": 0,
            "resumed": 0,
            "rows_replayed": 0,
        }
        if not shards:
            return []
        # repro-lint: waive[RA007] the token only namespaces job submit_keys for retry dedup; it never reaches a folded row, so folds stay bit-identical regardless of its value
        self._sweep_token = uuid.uuid4().hex  # scopes job submit_keys
        for server in self.servers:
            # a sweep starts with a clean slate: a server that was
            # unreachable during the *last* sweep may have recovered — the
            # probe re-checks cheaply, and real deaths are re-discovered in
            # one connect attempt
            server.inflight.clear()
            server.healthy = True
            server.probed = False
            server.capacity = None
        for shard in shards:
            shard.done = False
        results: list[EvaluationResult | None] = [None] * total_items
        asyncio.run(self._sweep_async(shards, results, options))
        self._fold_caches()
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    # -- the event loop ---------------------------------------------------
    async def _sweep_async(
        self,
        shards: Sequence[_Shard],
        results: list[EvaluationResult | None],
        options: Mapping[str, Any],
    ) -> None:
        """One sweep's pipelined run: probe, spawn lanes, fold, settle.

        Structure: ``capacity`` worker-lane tasks per server each submit a
        shard, consume its row stream end to end and repeat; every consumed
        row is funneled — tagged with its shard's attempt epoch — through
        the bounded fold queue into the single folder task.  Sync client
        calls (submit, restart probe) run on a thread-pool executor,
        serialized per server by its lock; the streams themselves are
        native-async and cost no threads.
        """
        state = _SweepState(shards, results, options, self.fold_queue)
        loop = asyncio.get_running_loop()
        # own executor (not the loop default): sweep teardown must not block
        # on a thread stuck in a slow connect to a hung server
        self._executor = ThreadPoolExecutor(
            max_workers=len(self.servers) + 4,
            thread_name_prefix="repro-sweep",
        )
        try:
            # satellite of the pipelined design: probe the whole fleet at
            # once — a hung server costs one timeout, not one per server
            await asyncio.gather(
                *(
                    loop.run_in_executor(self._executor, self._probe, server)
                    for server in self.servers
                )
            )
            if not self._healthy_servers():
                raise RuntimeError(
                    f"sweep failed: all {len(self.servers)} servers are gone "
                    f"with {len(state.pending)} shard(s) unfinished"
                )
            folder = asyncio.create_task(self._folder(state))
            workers: list[asyncio.Task] = []
            for server in self._healthy_servers():
                server.lock = asyncio.Lock()
                for _ in range(self._inflight_limit(server)):
                    workers.append(asyncio.create_task(self._worker(server, state)))
            state.live_workers = len(workers)
            await state.done.wait()
            for task in workers:
                task.cancel()
            folder.cancel()
            await asyncio.gather(*workers, folder, return_exceptions=True)
            if state.fatal is not None:
                raise state.fatal
            self.last_report["fold_queue_peak"] = state.queue_peak
        finally:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    async def _blocking(self, fn: Callable[[], Any]) -> Any:
        """Run one sync client call on the sweep's executor."""
        assert self._executor is not None
        return await asyncio.get_running_loop().run_in_executor(self._executor, fn)

    async def _worker(self, server: _Server, state: _SweepState) -> None:
        """One dispatch lane: pull an assignable shard, run it, repeat.

        Lanes exit when the sweep settles or their server dies.  The last
        lane out with work remaining declares the fleet dead.
        """
        try:
            while not state.done.is_set():
                if not server.healthy:
                    return
                shard = self._take_assignable(state.pending, server)
                if shard is None:
                    if state.active == 0 and state.pending:
                        # nothing running anywhere and nothing assignable:
                        # every survivor is on some shard's exclusion list.
                        # Relax the exclusions (the attempts budget still
                        # bounds retries) rather than idling forever.
                        if self._relax_exclusions(state):
                            continue
                    state.wake.clear()
                    if state.done.is_set():
                        return
                    try:
                        await asyncio.wait_for(state.wake.wait(), self.poll_interval)
                    except asyncio.TimeoutError:
                        pass
                    continue
                state.active += 1
                try:
                    await self._run_shard(server, shard, state)
                finally:
                    state.active -= 1
                    state.wake.set()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — surfaces as the sweep error
            state.fail(exc)
        finally:
            state.live_workers -= 1
            if state.live_workers <= 0 and not state.done.is_set():
                state.fail(
                    RuntimeError(
                        f"sweep failed: all {len(self.servers)} servers are "
                        f"gone with {state.remaining} shard(s) unfinished"
                    )
                )

    def _relax_exclusions(self, state: _SweepState) -> bool:
        healthy = {s.index for s in self._healthy_servers()}
        relaxed = False
        for shard in state.pending:
            if not (healthy - shard.excluded):
                shard.excluded -= healthy
                relaxed = True
        return relaxed

    async def _run_shard(
        self, server: _Server, shard: _Shard, state: _SweepState
    ) -> None:
        """Submit one shard as a job and consume it; back off on a 503."""
        epoch = shard.attempts
        try:
            job_id = await self._submit(server, shard, state)
        except ServiceBusyError:
            # alive but its queue is full: back-pressure, not failure — the
            # shard keeps its place at the head of the queue without
            # spending an attempt or excluding the server, and this lane
            # waits before pulling work again
            state.pending.appendleft(shard)
            self.last_report["busy"] += 1
            self._emit("busy", server=server.url, shard=shard.describe())
            state.wake.set()
            await asyncio.sleep(self.poll_interval)
            return
        except _SERVER_LOST:
            self._lose_server(server, shard, state)
            return
        server.inflight[job_id] = shard
        await self._consume_job(server, shard, job_id, epoch, state)

    async def _submit(self, server: _Server, shard: _Shard, state: _SweepState) -> str:
        """Submit ``shard`` to ``server`` as one row-streaming job; its id."""
        submit = functools.partial(
            server.session.submit_job,
            # one {"workload", "extents"} payload per item: items keep
            # their own problem sizes inside a grouped shard
            [dict(item.payload) for item in shard.items],
            configs=[shard.config],
            # unique per (sweep, shard, attempt): a transport retry of
            # this submit can never double-enqueue, while a real
            # reassignment gets a fresh job
            submit_key=f"{self._sweep_token}:{shard.items[0].index}:{shard.attempts}",
            **state.options,
        )
        assert server.lock is not None
        async with server.lock:
            job = await self._blocking(submit)
        self.last_report["jobs"] += 1
        return job["id"]

    async def _consume_job(
        self,
        server: _Server,
        shard: _Shard,
        job_id: str,
        epoch: int,
        state: _SweepState,
    ) -> None:
        """Drive one job's row stream into the fold queue, end to end.

        The stream (``RemoteSession.job_rows_async`` — the test injection
        point) already resumes dropped connections with the last seen
        ``seq``; what reaches here unrecoverable means the server is gone.
        Rows are queued under this attempt's epoch so a forfeited attempt's
        leftovers can never fold; the ``end`` frame carries the terminal
        snapshot (per-item stats), which rides the queue behind every row
        it must follow.  A ``done`` end frame without the snapshot is a
        server bug and raises.

        With ``restart_grace`` set, a dead stream is not an immediate
        forfeit: the server is probed until the grace deadline, and a job
        that answers again — rebuilt from its ``--journal-dir`` across a
        restart — resumes the long-poll from the last seq *this consumer*
        enqueued (not ``shard.cursor``: rows still crossing the fold queue
        must not be fetched twice), keeping the partial fold and every
        journaled evaluation.  A live server that forgot the job gets it
        resubmitted under the original ``submit_key`` (same attempt): dedup
        returns the rebuilt job when the journal survived, and otherwise the
        replacement job's deterministic rows realign with the held cursor —
        the long-poll simply waits for the re-run to catch up.
        """
        idle_timeout = (
            5 * self.stream_keepalive if self.stream_keepalive > 0 else None
        )
        cursor = shard.cursor
        status: str | None = None
        error: str | None = None
        snapshot: Mapping[str, Any] | None = None
        resumes = 0
        while True:
            stream = server.session.job_rows_async(
                job_id,
                since=cursor,
                keepalive=self.stream_keepalive,
                idle_timeout=idle_timeout,
            )
            try:
                async for frame in stream:
                    kind = frame.get("row")
                    if kind == "reset" or (kind == "start" and frame.get("cursor_reset")):
                        cursor = 0
                        await self._enqueue(state, ("reset", shard, epoch, server.url))
                        continue
                    if kind in ("start", "keepalive"):
                        continue
                    if kind == "end":
                        status = frame.get("status")
                        error = frame.get("error")
                        # the terminal snapshot (records + stats, no rows)
                        # rides the end frame and closes the shard
                        snapshot = frame.get("job")
                        break
                    if "seq" in frame:
                        cursor = int(frame["seq"])
                    await self._enqueue(state, ("row", shard, epoch, frame))
            except _STREAM_LOST:
                server.inflight.pop(job_id, None)
                if self._may_resume(resumes):
                    verdict = await self._await_restart(server, job_id)
                    if verdict == "resume":
                        resumes += 1
                        server.inflight[job_id] = shard
                        self._note_resume(server, shard, job_id, cursor)
                        continue
                    if verdict == "resubmit":
                        new_id = await self._resubmit_job(
                            server, shard, job_id, cursor, state
                        )
                        if new_id is not None:
                            resumes += 1
                            job_id = new_id
                            continue
                self._lose_server(server, shard, state)
                return
            except LookupError:
                # the server answered but no longer knows the job — it
                # restarted (or pruned it)
                server.inflight.pop(job_id, None)
                if self._may_resume(resumes):
                    new_id = await self._resubmit_job(
                        server, shard, job_id, cursor, state
                    )
                    if new_id is not None:
                        resumes += 1
                        job_id = new_id
                        continue
                # without a grace (or past the resume budget) the row cursor
                # is void too: re-run from scratch
                self._vanish(server, shard, job_id, state)
                return
            break  # the stream finished (end frame, or ran dry)
        server.inflight.pop(job_id, None)
        if status == "done":
            if not snapshot or "results" not in snapshot:
                # every /rows end frame embeds the terminal snapshot
                raise RuntimeError(
                    f"server {server.url} ended job {job_id} as done without "
                    "its terminal snapshot"
                )
            server.completed += 1
            # the zero-repeats meter: journaled rows the server adopted
            # instead of re-evaluating (snapshot["replayed_rows"] is only
            # present on a journal-resumed job)
            self.last_report["rows_replayed"] += int(snapshot.get("replayed_rows") or 0)
            await self._enqueue(state, ("finish", shard, epoch, snapshot))
        elif status in ("failed", "cancelled"):
            shard.reset_fold()
            # prefer a different server for the retry (the failure may be
            # server-local: OOM, bad env) — but only when an eligible one
            # exists, else the retry budget would be spent with the shard
            # stuck unassignable
            if any(
                s.index != server.index and s.index not in shard.excluded
                for s in self._healthy_servers()
            ):
                shard.excluded.add(server.index)
            self._requeue(
                shard, state, reason=error or f"job {status} on {server.url}"
            )
        else:
            # the stream ended without a terminal frame (an injected test
            # stream ran dry, or the client spent its resume budget)
            self._lose_server(server, shard, state)

    async def _enqueue(self, state: _SweepState, event: tuple) -> None:
        """Queue one fold event; blocks when the folder is ``fold_queue`` behind."""
        await state.queue.put(event)
        depth = state.queue.qsize()
        if depth > state.queue_peak:
            state.queue_peak = depth

    # -- crash/restart resume (restart_grace > 0) -------------------------
    def _may_resume(self, resumes: int) -> bool:
        """Whether this consumer may try another in-place resume."""
        return self.restart_grace > 0 and resumes < max(1, self.max_retries)

    def _note_resume(
        self, server: _Server, shard: _Shard, job_id: str, cursor: int
    ) -> None:
        self.last_report["resumed"] += 1
        self._emit(
            "job_resumed",
            server=server.url,
            job=job_id,
            shard=shard.describe(),
            since=cursor,
        )

    async def _await_restart(self, server: _Server, job_id: str) -> str:
        """Probe a dead server until ``restart_grace`` runs out.

        Returns ``"resume"`` when the job answers again (the journal rebuilt
        it across the restart), ``"resubmit"`` when the server is back but
        the job is gone, ``"dead"`` once the grace deadline passes with the
        server still unreachable.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.restart_grace
        pause = min(0.25, max(self.restart_grace / 10, 0.02))
        while True:
            probe = functools.partial(server.session.job, job_id)
            try:
                assert server.lock is not None
                async with server.lock:
                    await self._blocking(probe)
            except LookupError:
                return "resubmit"
            except _SERVER_LOST:
                if loop.time() >= deadline:
                    return "dead"
                await asyncio.sleep(pause)
                continue
            return "resume"

    async def _resubmit_job(
        self,
        server: _Server,
        shard: _Shard,
        job_id: str,
        cursor: int,
        state: _SweepState,
    ) -> str | None:
        """Resubmit vanished job ``job_id`` under its *original* submit key.

        Same sweep token, same shard, same attempt: a journal-rebuilt job
        dedups straight back to its old id, and a genuinely lost one is
        re-enqueued as a fresh job whose deterministic rows carry the same
        seqs — either way the caller keeps its fold and resumes the stream
        at ``cursor``.  On success the new job is in flight, a
        ``job_vanished`` and a ``job_resumed`` event are out, and the resume
        is counted; returns the new id.  Returns ``None`` when the server
        cannot take the job (busy or gone again), letting the caller fall
        back to the forfeit.
        """
        try:
            new_id = await self._submit(server, shard, state)
        except (ServiceBusyError, *_SERVER_LOST):
            return None
        self._emit(
            "job_vanished", server=server.url, job=job_id, shard=shard.describe()
        )
        server.inflight[new_id] = shard
        self._note_resume(server, shard, new_id, cursor)
        return new_id

    async def _folder(self, state: _SweepState) -> None:
        """The single fold lane.

        Every row, cursor reset and shard completion crosses the bounded
        queue into this one task, in wire order per shard — that is the
        whole bit-identity argument: however many streams feed the queue
        concurrently, folds happen exactly as a local sweep would make
        them, and an event tagged with a stale attempt epoch (its shard was
        reassigned after the event was queued) is dropped, never folded.
        """
        try:
            while True:
                kind, shard, epoch, payload = await state.queue.get()
                if shard.done or shard.attempts != epoch:
                    continue
                if kind == "row":
                    item = shard.items[int(payload["item"])]
                    point = wire.row_to_point(payload, item.statement)
                    item.fold(point)
                    shard.cursor = int(payload.get("seq", shard.cursor + 1))
                    self.last_report["rows_streamed"] += 1
                    if self.on_row is not None:
                        outcome = self.on_row(point)
                        if inspect.isawaitable(outcome):
                            await outcome
                elif kind == "reset":
                    shard.reset_fold()
                    self._emit("cursor_reset", server=payload, shard=shard.describe())
                else:  # "finish": the terminal snapshot closes the books
                    self._finish_shard(shard, payload, state.results)
                    shard.done = True
                    state.complete_shard()
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — surfaces as the sweep error
            state.fail(exc)

    # -- partitioning ----------------------------------------------------
    def _partition(
        self, workloads: Sequence[Statement | str], configs: Sequence[ArrayConfig]
    ) -> list[_Shard]:
        """Group the configs-major item grid into shards of ``shard_size``.

        Items in one shard always share a config (a job ships exactly one
        array config), so grouping never crosses a config boundary; result
        indices are assigned before grouping, which is what keeps the folded
        list order independent of ``shard_size``.
        """
        prepared: list[tuple[Statement, dict[str, Any]]] = []
        for workload in workloads:
            payload = wire.statement_payload(workload)
            statement = (
                workload
                if isinstance(workload, Statement)
                else wire.instantiate_statement(payload)
            )
            prepared.append((statement, payload))
        shards: list[_Shard] = []
        index = 0
        for config in configs:
            items: list[_ShardItem] = []
            for statement, payload in prepared:
                items.append(
                    _ShardItem(index=index, statement=statement, payload=payload)
                )
                index += 1
            for start in range(0, len(items), self.shard_size):
                shards.append(
                    _Shard(config=config, items=items[start : start + self.shard_size])
                )
        return shards

    # -- dispatch ---------------------------------------------------------
    def _healthy_servers(self) -> list[_Server]:
        return [s for s in self.servers if s.healthy]

    def _emit(self, event: str, **fields: Any) -> None:
        """Feed the ``on_event`` observer (``repro sweep --verbose``)."""
        if self.on_event is not None:
            self.on_event({"event": event, **fields})

    def _probe(self, server: _Server) -> None:
        """One-time capability check per sweep.

        The server's inflight bound is ``max_inflight``, clamped by the
        ``max_jobs`` queue depth its healthz advertises, so the
        coordinator's own lanes never fill a queue."""
        if server.probed:
            return
        server.probed = True
        try:
            info = server.session._call("GET", "/v1/healthz")
        except _SERVER_LOST:
            self._lose_server(server)
            return
        max_jobs = info.get("max_jobs")
        capacity = self.max_inflight
        if isinstance(max_jobs, int) and 0 < max_jobs < capacity:
            capacity = max_jobs
        server.capacity = max(1, capacity)

    def _inflight_limit(self, server: _Server) -> int:
        return server.capacity if server.capacity is not None else self.max_inflight

    def _take_assignable(
        self, pending: deque[_Shard], server: _Server
    ) -> _Shard | None:
        """Pop the first pending shard this server may run (FIFO otherwise)."""
        for _ in range(len(pending)):
            shard = pending.popleft()
            if server.index not in shard.excluded:
                return shard
            pending.append(shard)
        return None

    def _finish_shard(
        self,
        shard: _Shard,
        snapshot: Mapping[str, Any],
        results: list[EvaluationResult | None],
    ) -> None:
        """Close the books on a done job: per-item stats + folded rows."""
        records = snapshot["results"]
        if len(records) != len(shard.items):
            raise RuntimeError(
                f"job for shard {shard.describe()!r} returned {len(records)} "
                f"record(s) for {len(shard.items)} item(s)"
            )
        for item, record in zip(shard.items, records):
            results[item.index] = wire.result_from_record(
                record, item.points, item.failures
            )

    # -- failure handling -------------------------------------------------
    def _lose_server(
        self,
        server: _Server,
        shard: _Shard | None = None,
        state: _SweepState | None = None,
    ) -> None:
        """Mark a server dead and requeue the caller's shard.

        Only the *caller's* shard is requeued: every other shard inflight on
        the dead server has its own consumer task, which observes the death
        itself (stream reset or the idle timeout) —
        per-consumer requeue is what makes a shard impossible to requeue
        twice.  The fold/attempt bookkeeping here runs without an await
        point, so the folder can never interleave with a half-forfeited
        shard.
        """
        if server.healthy:
            server.healthy = False
            self.last_report["servers_lost"] += 1
            self._emit("server_lost", server=server.url)
        if shard is not None and not shard.done:
            shard.excluded.add(server.index)
            shard.reset_fold()  # partial rows from the dead server are void
            if state is not None:
                self._requeue(shard, state, reason=f"server {server.url} unreachable")
        if (
            state is not None
            and not state.done.is_set()
            and state.remaining > 0
            and not self._healthy_servers()
        ):
            state.fail(
                RuntimeError(
                    f"sweep failed: all {len(self.servers)} servers are gone "
                    f"with {state.remaining} shard(s) unfinished"
                )
            )

    def _vanish(
        self, server: _Server, shard: _Shard, job_id: str, state: _SweepState
    ) -> None:
        """A live server forgot the job: void the cursor, re-run from scratch."""
        shard.reset_fold()
        self._emit(
            "job_vanished", server=server.url, job=job_id, shard=shard.describe()
        )
        self._requeue(
            shard,
            state,
            reason=f"job {job_id} vanished on {server.url} (server restarted?)",
        )

    def _requeue(self, shard: _Shard, state: _SweepState, *, reason: str) -> None:
        shard.attempts += 1
        if shard.attempts > self.max_retries:
            raise RuntimeError(
                f"shard {shard.describe()!r} failed after "
                f"{shard.attempts} attempt(s): {reason}"
            )
        self.last_report["reassigned"] += 1
        self._emit(
            "reassigned",
            shard=shard.describe(),
            attempt=shard.attempts,
            reason=reason,
        )
        state.pending.append(shard)
        # runs on the event loop: the probe thread reaches _lose_server with
        # state=None only, which never requeues
        state.wake.set()

    # -- cache folding ----------------------------------------------------
    def _fold_caches(self) -> None:
        """Pull each surviving server's memo cache into the local one."""
        if self.cache is None:
            return
        folded = 0
        for server in self._healthy_servers():
            try:
                payload = server.session.cache_pull()
            except _SERVER_LOST:
                continue  # a server may die between its last shard and here
            added = self.cache.merge_from(MemoCache.from_payload(payload))
            folded += sum(added.values())
        self.last_report["cache_entries_folded"] = folded
        # force=True: even a fold with nothing new (cache-less servers)
        # leaves a valid cache file where the caller asked for one
        self.cache.flush(force=True)

    def close(self) -> None:
        for server in self.servers:
            server.session.close()

    def __repr__(self) -> str:
        urls = ", ".join(s.url for s in self.servers)
        return f"SweepCoordinator([{urls}], {self.array.rows}x{self.array.cols})"


class CoordinatedSession(SessionBase):
    """A fleet of evaluation servers behind the one-session surface.

    Conforms to :class:`~repro.api.protocol.SessionProtocol`, so every
    consumer written against the protocol — the CLI, the benchmarks, the
    examples — runs unmodified against one machine or five:

    - :meth:`sweep` fans out through the :class:`SweepCoordinator`
      (capacity-weighted job sharding with ``shard_size`` item grouping,
      incremental row streaming, reassignment, 503 back-off, cache
      fold-in — see the coordinator's docs and ``docs/deployment.md``);
    - :meth:`evaluate` / :meth:`evaluate_names` / :meth:`explore` ride one
      healthy server, failing over to the next when it dies;
    - :meth:`evaluate_many` round-robins request chunks across the healthy
      servers (with per-chunk failover) and reassembles in request order.

    ``cache`` is the *local fold target*: after each ``sweep()`` the
    surviving servers' memo caches are pulled and merged into it, so it
    warms up exactly like a LocalSession cache would.  Keyword arguments
    beyond the platform ones (``shard_size``, ``max_inflight``,
    ``on_event`` ...) pass through to :class:`SweepCoordinator`.
    """

    def __init__(
        self,
        urls: Sequence[str],
        *,
        array: ArrayConfig | None = None,
        width: int = 16,
        cost_params: CostParams | None = None,
        sram_words: int = 32768,
        cache: MemoCache | str | os.PathLike | None = None,
        **coordinator_kwargs,
    ):
        super().__init__(
            array, width=width, cost_params=cost_params, sram_words=sram_words
        )
        self.coordinator = SweepCoordinator(
            urls,
            array=self.array,
            width=width,
            cost_params=cost_params,
            sram_words=sram_words,
            cache=cache,
            **coordinator_kwargs,
        )
        self.cache = self.coordinator.cache

    # -- failover plumbing ------------------------------------------------
    def _failover(self, fn: Callable[[RemoteSession], Any]) -> Any:
        """Run ``fn`` against the first healthy server, failing over in order."""
        return self._failover_over(self.coordinator.servers, fn)

    # -- SessionProtocol --------------------------------------------------
    def evaluate(
        self,
        request: DesignRequest | str,
        dataflow: str | None = None,
        **request_kwargs,
    ) -> EvalResult:
        """One design on any healthy server (requests are self-contained)."""
        request = self._coerce_request(request, dataflow, request_kwargs)
        return self._failover(lambda session: session.evaluate(request))

    def evaluate_many(
        self, requests: Sequence[DesignRequest | Mapping[str, Any]]
    ) -> list[EvalResult]:
        """Batch evaluation, chunks round-robined across healthy servers."""
        reqs = self._coerce_requests(requests)
        if not reqs:
            return []
        chunk = _EVALUATE_MANY_CHUNK
        results: list[EvalResult | None] = [None] * len(reqs)
        for i, start in enumerate(range(0, len(reqs), chunk)):
            batch = reqs[start : start + chunk]
            # rotate the preferred server per chunk so a big batch spreads
            # across the fleet; _failover still covers the death of any one
            servers = self.coordinator.servers
            rotation = servers[i % len(servers) :] + servers[: i % len(servers)]
            outcome = self._failover_over(
                # bind batch now: the lambda may be retried on another server
                # after this loop variable has moved on (flake8-bugbear B023)
                rotation, lambda session, batch=batch: session.evaluate_many(batch)
            )
            results[start : start + len(batch)] = outcome
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _failover_over(
        self, servers: Sequence[_Server], fn: Callable[[RemoteSession], Any]
    ) -> Any:
        """Run ``fn`` against the first healthy server of ``servers``, in order."""
        errors: list[str] = []
        for server in servers:
            if not server.healthy:
                continue
            try:
                return fn(server.session)
            except _SERVER_LOST as exc:
                server.healthy = False
                errors.append(f"{server.url}: {exc}")
        raise ConnectionError(
            "no coordinated evaluation server reachable"
            + (f" ({'; '.join(errors)})" if errors else "")
        )

    def explore(self, workload, **evaluate_kwargs) -> EvaluationResult:
        """One workload's design space, as a one-item job on any healthy server."""
        return self._failover(
            lambda session: session.explore(workload, **evaluate_kwargs)
        )

    def sweep(
        self,
        workloads: Sequence[Statement | str],
        configs: Sequence[ArrayConfig] | None = None,
        **evaluate_kwargs,
    ) -> list[EvaluationResult]:
        """The coordinated path: shard across the fleet, fold deterministically."""
        return self.coordinator.sweep(workloads, configs=configs, **evaluate_kwargs)

    def evaluate_names(
        self,
        statement: Statement | str,
        names: Sequence[str],
        *,
        bound: int = 1,
        limit: int = 24,
    ) -> list:
        """Paper dataflow names, scored on any healthy server."""
        return self._failover(
            lambda session: session.evaluate_names(
                statement, names, bound=bound, limit=limit
            )
        )

    def cache_stats(self) -> dict[str, int]:
        """Summed memo-cache counters across the healthy servers."""
        totals: dict[str, int] = {}
        for server in self.coordinator._healthy_servers():
            try:
                stats = server.session.cache_stats()
            except _SERVER_LOST:
                server.healthy = False
                continue
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def flush(self) -> None:
        """Flush the local fold cache and ask every healthy server to persist."""
        if self.cache is not None:
            self.cache.flush()
        for server in self.coordinator._healthy_servers():
            try:
                server.session.flush()
            except _SERVER_LOST:
                server.healthy = False

    def close(self) -> None:
        self.coordinator.close()

    def __exit__(self, *exc_info) -> None:
        try:
            self.flush()
        except (ConnectionError, OSError):  # the fleet may already be gone
            pass
        self.close()

    def __repr__(self) -> str:
        n = len(self.coordinator.servers)
        return (
            f"CoordinatedSession({n} server(s), "
            f"{self.array.rows}x{self.array.cols}, width={self.width})"
        )
