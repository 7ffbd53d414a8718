"""The in-process session — the reference :class:`SessionProtocol` implementation.

A session owns the three things every consumer used to wire up by hand:

- **backend selection** — ``evaluate()`` routes requests through the
  evaluator registry, so cost/perf/FPGA/simulation all answer to one call;
- **the memo cache** — one two-level :class:`~repro.explore.engine.MemoCache`
  shared by single-design requests (``api`` section, keying *every* backend
  including FPGA Table III and the functional simulator) and by the
  design-space engine (``points``/``spaces``/``names`` sections);
- **the engine** — ``explore()``/``sweep()`` delegate to one lazily built
  :class:`~repro.explore.engine.EvaluationEngine` on the session's platform,
  and ``evaluate_many()`` batches *any* backend mix behind one memo probe.

A session evaluates in its own process, one design at a time.  A sweep that
should use more cores shards across several ``repro serve`` processes
instead, through ``repro sweep --url ...`` or
:class:`~repro.service.CoordinatedSession`.

``Session`` remains as a compatible alias of :class:`LocalSession`; code that
should be location-transparent takes a
:class:`~repro.api.protocol.SessionProtocol` instead and also accepts the
HTTP-speaking :class:`~repro.service.client.RemoteSession`.

Usage::

    from repro.api import LocalSession

    with LocalSession(array=ArrayConfig(rows=16, cols=16), cache="dse.json") as s:
        r = s.evaluate("gemm", "MNK-SST")                  # perf backend
        c = s.evaluate("gemm", "MNK-SST", backend="cost")  # same front door
        batch = s.evaluate_many([s.request("gemm", "MNK-SST", backend=b)
                                 for b in ("perf", "cost", "fpga")])
        result = s.explore("gemm")                         # full design space
        results = s.sweep(["gemm", "depthwise_conv"])      # multi-workload
"""

from __future__ import annotations

import copy
import os
from typing import Any, Iterable, Mapping, Sequence

from repro.api.protocol import SessionBase
from repro.api.registry import get_evaluator
from repro.api.types import DesignRequest, EvalResult, SchemaVersionError
from repro.cost.model import CostModel, CostParams
from repro.explore.engine import EvaluationEngine, EvaluationResult, MemoCache
from repro.ir import workloads as workload_lib
from repro.ir.einsum import Statement
from repro.perf.model import ArrayConfig, PerfModel

__all__ = ["LocalSession", "Session"]


def _cached_result(stored: Any) -> EvalResult | None:
    """A detached ``cached=True`` copy of an ``api`` entry, or ``None`` for
    a stale entry from another schema or build (a miss, recomputed and
    overwritten: the same contract as a corrupt file)."""
    try:
        # deep-copy so caller mutations of the returned result
        # can never reach back into the cache's own dicts
        hit = EvalResult.from_dict(copy.deepcopy(stored))
    except (SchemaVersionError, ValueError, TypeError, KeyError):
        return None
    hit.cached = True
    return hit


class LocalSession(SessionBase):
    """One configured in-process evaluation context: array + cache.

    Parameters mirror :class:`~repro.explore.engine.EvaluationEngine` —
    ``array``/``width``/``cost_params``/``sram_words`` describe the platform,
    ``cache`` the memo cache (a :class:`MemoCache`, a JSON path, or ``None``
    to disable memoization).  ``perf``/``cost`` accept pre-built custom
    models for the engine paths.

    ``workers`` accepts only ``0`` or ``1``, both meaning the serial
    evaluation every session does; any other value raises ``ValueError``.
    It stays so callers that still pass ``workers=0`` keep working.

    ``autoflush`` (default ``True``) persists the on-disk cache after every
    :meth:`evaluate` — right for one-shot/CLI use.  Tight evaluation loops
    over a large cache should pass ``autoflush=False`` and rely on
    :meth:`flush` / the context manager, which writes once at the end
    instead of rewriting the file per call.
    """

    def __init__(
        self,
        array: ArrayConfig | None = None,
        *,
        width: int = 16,
        cost_params: CostParams | None = None,
        sram_words: int = 32768,
        perf: PerfModel | None = None,
        cost: CostModel | None = None,
        workers: int = 0,
        cache: MemoCache | str | os.PathLike | None = None,
        autoflush: bool = True,
    ):
        if workers not in (0, 1):
            raise ValueError(
                f"workers={workers!r}: a session evaluates serially (0 or 1); "
                "for more cores run several `repro serve` processes and sweep "
                "them with `repro sweep --url ...` or CoordinatedSession"
            )
        if perf is not None and array is None:
            array = perf.config
        super().__init__(
            array, width=width, cost_params=cost_params, sram_words=sram_words
        )
        if isinstance(cache, (str, os.PathLike)):
            cache = MemoCache(cache)
        self.cache = cache
        self.autoflush = autoflush
        self._perf_override = perf
        self._cost_override = cost
        self._engine: EvaluationEngine | None = None

    # -- lifecycle -----------------------------------------------------
    def flush(self) -> None:
        """Persist the memo cache (no-op when memoization is off)."""
        if self.cache is not None:
            self.cache.flush()

    def cache_stats(self) -> dict[str, int]:
        """Per-section entry counts and hit/miss counters (empty when off)."""
        return self.cache.stats() if self.cache is not None else {}

    # -- the engine behind explore()/sweep() ----------------------------
    @property
    def engine(self) -> EvaluationEngine:
        """The lazily built design-space engine sharing this session's cache."""
        if self._engine is None:
            self._engine = EvaluationEngine(
                self.array,
                width=self.width,
                cost_params=self.cost_params,
                sram_words=self.sram_words,
                perf=self._perf_override,
                cost=self._cost_override,
                cache=self.cache,
                autoflush=self.autoflush,
            )
        return self._engine

    def engine_for(self, array: ArrayConfig | None) -> EvaluationEngine:
        """The engine for ``array`` (this session's, or a cache-sharing sibling)."""
        if array is None or array == self.array:
            return self.engine
        return self.engine._sibling(array)

    # -- single-design evaluation ---------------------------------------
    def evaluate(
        self,
        request: DesignRequest | str,
        dataflow: str | None = None,
        **request_kwargs,
    ) -> EvalResult:
        """Evaluate one design through the backend registry, memoized.

        Accepts a ready :class:`DesignRequest` (self-contained: its own
        array/width/cost are honored) or the convenience form
        ``evaluate("gemm", "MNK-SST", backend="cost", ...)`` which builds one
        with session defaults.  The result is served from the memo cache when
        an identical request was evaluated before — for *any* backend, which
        is what extends memoization to the FPGA model and the simulator.
        """
        request = self._coerce_request(request, dataflow, request_kwargs)
        key = request.cache_key()
        hit = self._memo_get(key)
        if hit is not None:
            return hit
        result = get_evaluator(request.backend).evaluate(request)
        self._memo_put(key, result)
        if self.cache is not None and self.autoflush:
            self.cache.flush()
        return result

    def evaluate_many(
        self, requests: Sequence[DesignRequest | Mapping[str, Any]]
    ) -> list[EvalResult]:
        """Evaluate a batch of requests, any backend mix, one result each.

        The batch primitive behind the service's ``/v1/evaluate_many``: every
        request is first probed against the memo cache (a warm batch costs no
        model time at all), duplicate requests within the batch evaluate
        once, and the remaining misses run through their backends in request
        order.  Results come back in request order.
        """
        reqs = self._coerce_requests(requests)
        results: list[EvalResult | None] = [None] * len(reqs)

        # memo probe + within-batch dedup: key -> list of result slots
        pending: dict[str, list[int]] = {}
        pending_request: dict[str, DesignRequest] = {}
        for i, request in enumerate(reqs):
            key = request.cache_key()
            if key in pending:
                pending[key].append(i)
                continue
            hit = self._memo_get(key)
            if hit is not None:
                results[i] = hit
            else:
                pending[key] = [i]
                pending_request[key] = request

        computed = {
            key: get_evaluator(request.backend).evaluate(request)
            for key, request in pending_request.items()
        }
        for key, result in computed.items():
            self._memo_put(key, result)
            slots = pending[key]
            results[slots[0]] = result
            for i in slots[1:]:
                # duplicates get detached copies: callers may mutate results
                results[i] = copy.deepcopy(result)
        if self.cache is not None and self.autoflush and computed:
            self.cache.flush()
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    # -- memoization helpers ---------------------------------------------
    def _memo_get(self, key: str) -> EvalResult | None:
        """A detached cache hit (``cached=True``) or ``None`` on a miss."""
        if self.cache is None:
            return None
        return self.cache.get_decoded("api", key, _cached_result)

    def _memo_put(self, key: str, result: EvalResult) -> None:
        # Successes and resolve-stage failures are deterministic facts about
        # the design space (and resolve failures cost a full STT walk), so
        # both memoize.  Backend-stage failures do not: a sim mismatch or a
        # model rejection may be a bug fixed by the next build, and the cache
        # key carries no code version — recompute rather than pin the past.
        cacheable = result.ok or result.failure_stage == "resolve"
        if self.cache is not None and cacheable:
            payload = result.to_dict()  # to_dict deep-copies the payload
            payload["cached"] = False
            self.cache.put("api", key, payload)

    # -- design-space exploration ---------------------------------------
    def explore(
        self,
        workload: Statement | str,
        *,
        array: ArrayConfig | None = None,
        extents: Mapping[str, int] | None = None,
        **evaluate_kwargs,
    ) -> EvaluationResult:
        """Run the full enumerate -> prune -> evaluate pipeline for one workload.

        ``workload`` may be a Table II name (with optional loop ``extents``
        overrides) or a ready :class:`~repro.ir.einsum.Statement`; ``array``
        overrides the session's platform for this run (sharing the memo
        cache); other keyword arguments pass through to
        :meth:`EvaluationEngine.evaluate` (``selections``, ``one_d_only``,
        ``predicates`` ...).
        """
        if isinstance(workload, str):
            statement = workload_lib.by_name(workload, **(extents or {}))
        elif extents:
            raise TypeError("pass extents only with a workload name, not a Statement")
        else:
            statement = workload
        return self.engine_for(array).evaluate(statement, **evaluate_kwargs)

    def sweep(
        self,
        workloads: Sequence[Statement | str],
        configs: Sequence[ArrayConfig] | None = None,
        **evaluate_kwargs,
    ) -> list[EvaluationResult]:
        """Run the pipeline over ``workloads`` x array ``configs`` (shared cache)."""
        return self.engine.sweep(workloads, configs=configs, **evaluate_kwargs)

    def evaluate_names(
        self,
        statement: Statement | str,
        names: Sequence[str],
        *,
        bound: int = 1,
        limit: int = 24,
    ):
        """Evaluate paper dataflow names (best STT per name), memoized."""
        if isinstance(statement, str):
            statement = workload_lib.by_name(statement)
        return self.engine.evaluate_names(statement, names, bound=bound, limit=limit)

    def iter_space(self, statement: Statement, **kwargs) -> Iterable:
        """Stream the pruned design space (see :meth:`EvaluationEngine.iter_space`)."""
        return self.engine.iter_space(statement, **kwargs)

    def __repr__(self) -> str:
        cached = "none" if self.cache is None else f"{len(self.cache)} entries"
        return (
            f"{type(self).__name__}({self.array.rows}x{self.array.cols} @ "
            f"{self.array.freq_mhz:g} MHz, width={self.width}, cache={cached})"
        )


#: Compatible alias: ``Session`` predates the local/remote split.
Session = LocalSession
