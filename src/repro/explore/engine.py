"""Unified streaming evaluation engine for design-space exploration.

This module owns the full **enumerate -> prune -> evaluate -> Pareto**
pipeline that every consumer (:class:`repro.api.LocalSession`, the
``repro.cli explore`` subcommand, the evaluation service, the examples and
the paper benchmarks) runs through:

1. **Enumerate** — :func:`repro.core.enumerate.iter_designs` streams the STT
   space lazily; the space is never materialized up front.
2. **Prune** — built-in filters (nearest-neighbour realizability,
   dataflow-type filters, canonical dedupe), batched over candidate blocks,
   and composable user predicates drop candidates in-stream, with every
   rejection reason tallied.
3. **Evaluate** — each surviving design runs through the performance and cost
   models in enumeration order, one at a time.  A two-level memo cache
   (in-memory dict + optional on-disk JSON) keyed by
   ``(canonical_signature, array_config, cost_params)`` skips re-evaluation
   across repeated sweeps, and a *space* cache skips re-enumeration entirely.
   (A multi-core sweep shards across ``repro serve`` processes through
   :class:`repro.service.SweepCoordinator`, whose folds are bit-identical to
   a local one.)
4. **Report** — designs that fail a model are not swallowed: each becomes a
   :class:`DesignPoint` carrying a structured :class:`DesignFailure`, counted
   in :class:`EvaluationStats` and returned alongside the successes.

:meth:`EvaluationEngine.sweep` runs the pipeline across many workloads and
array configurations in one call — the substrate for multi-workload DSE.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.dataflow import DataflowSpec, DataflowType, check_selection
from repro.core.enumerate import (
    EnumerationStats,
    Predicate,
    canonical_signature,
    iter_designs,
)
from repro.core.naming import best_spec_from_name
from repro.core.stt import STT
from repro.cost.model import CostModel, CostParams
from repro.ir import workloads as workload_lib
from repro.ir.einsum import Statement
from repro.perf.model import ArrayConfig, PerfModel, PerfResult

__all__ = [
    "ONE_D_TYPES",
    "DesignFailure",
    "DesignPoint",
    "EvaluationStats",
    "EvaluationResult",
    "MemoCache",
    "EvaluationEngine",
]

#: The 1-D dataflow types (the synthesized sweeps of paper Fig. 6 stay in
#: this subset; 2-D reuse designs add line registers the paper's Chisel
#: templates realize the same way but the scatter plots do not include).
ONE_D_TYPES = frozenset(
    {
        DataflowType.UNICAST,
        DataflowType.STATIONARY,
        DataflowType.SYSTOLIC,
        DataflowType.MULTICAST,
    }
)


@dataclass(frozen=True)
class DesignFailure:
    """Structured record of why a design could not be evaluated."""

    spec_name: str
    letters: str
    stage: str  # "perf" or "cost"
    reason: str  # "ExceptionType: message"

    def __str__(self) -> str:
        return f"{self.spec_name} [{self.stage}] {self.reason}"


@dataclass
class DesignPoint:
    """One evaluated dataflow design.

    A point either carries metrics (``failure is None``) or a structured
    :class:`DesignFailure` explaining which model stage rejected it — skipped
    designs are first-class results, not silently dropped.

    ``seq`` is the point's 1-based position in the run's emission order
    (enumeration order).  It is the engine-level identity behind the
    service's incremental row cursors: a consumer that saw rows up to
    ``seq=N`` can resume at ``N`` and miss nothing.  ``None`` only for points built outside a pipeline run.
    """

    spec: DataflowSpec
    normalized_perf: float = float("nan")
    cycles: float = float("nan")
    area_mm2: float = float("nan")
    power_mw: float = float("nan")
    failure: DesignFailure | None = None
    seq: int | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def letters(self) -> str:
        return self.spec.letters

    def metrics(self) -> tuple[float, float, float, float]:
        """The evaluated metrics as a tuple (for equality/regression checks)."""
        return (self.normalized_perf, self.cycles, self.area_mm2, self.power_mw)

    def __repr__(self) -> str:
        if self.failure is not None:
            return f"DesignPoint({self.name}, failed: {self.failure.reason})"
        return (
            f"DesignPoint({self.name}, perf={self.normalized_perf:.3f}, "
            f"area={self.area_mm2:.3f}mm2, power={self.power_mw:.1f}mW)"
        )


@dataclass
class EvaluationStats:
    """Counters for one pipeline run: nothing disappears without a tally."""

    enumerated: int = 0
    evaluated: int = 0  # ran through the models this run (cache misses)
    skipped: int = 0  # designs with a structured failure
    cache_hits: int = 0
    cache_misses: int = 0
    space_cache_hit: bool = False
    enum: EnumerationStats = field(default_factory=EnumerationStats)

    def summary(self) -> str:
        parts = [
            f"{self.enumerated} designs",
            f"{self.evaluated} evaluated",
            f"{self.cache_hits} cache hits",
        ]
        if self.skipped:
            parts.append(f"{self.skipped} skipped")
        if self.space_cache_hit:
            parts.append("space cache hit")
        return ", ".join(parts)


@dataclass
class EvaluationResult:
    """Outcome of one workload x array-config pipeline run."""

    workload: str
    array: ArrayConfig
    points: list[DesignPoint]  # successfully evaluated, enumeration order
    failures: list[DesignPoint]  # points carrying a DesignFailure
    stats: EvaluationStats

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[DesignPoint]:
        return iter(self.points)

    def best(self, n: int = 1) -> list[DesignPoint]:
        """The ``n`` highest-performance points."""
        return sorted(self.points, key=lambda p: -p.normalized_perf)[:n]

    def pareto(
        self,
        objectives: Sequence[Callable[[DesignPoint], float]] | None = None,
        minimize: Sequence[bool] | None = None,
    ) -> list[DesignPoint]:
        """Pareto frontier of the evaluated points.

        Defaults to the paper's Fig. 6 trade-off: maximize normalized
        performance, minimize power.
        """
        from repro.explore.pareto import pareto_front

        if objectives is None:
            objectives = [lambda p: -p.normalized_perf, lambda p: p.power_mw]
        return pareto_front(self.points, objectives, minimize)

    def failure_report(self) -> str:
        """Human-readable summary of skipped designs, grouped by reason."""
        if not self.failures:
            return "no designs skipped"
        by_reason: dict[str, int] = {}
        for pt in self.failures:
            assert pt.failure is not None
            key = f"[{pt.failure.stage}] {pt.failure.reason}"
            by_reason[key] = by_reason.get(key, 0) + 1
        lines = [f"{len(self.failures)} designs skipped:"]
        for reason, count in sorted(by_reason.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {count}x {reason}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Memoization
# ----------------------------------------------------------------------
class MemoCache:
    """Two-level memo cache: in-memory dict plus optional on-disk JSON.

    Four sections, all keyed by strings stable across processes and runs:

    - ``points`` — evaluated metrics (or structured failures) keyed by
      ``(statement, selection, canonical_signature, array_config,
      cost_params)``.
    - ``spaces`` — enumerated design spaces keyed by a format tag
      (:data:`_SPACE_FORMAT`), the statement and the enumeration options.
      Each design is a ``[selection, STT matrix, canonical key]`` triple,
      the key being the design's :func:`canonical_signature` as JSON lists
      (``null`` for non-canonical spaces).  A hit skips the STT-candidate
      walk and, on square arrays, the key computation.
    - ``names`` — resolved paper dataflow names (``MNK-SST`` -> simplest best
      STT) keyed by statement, name and scoring configuration.
    - ``api`` — whole :class:`repro.api.EvalResult` payloads keyed by the
      canonical :meth:`repro.api.DesignRequest.cache_key`, which is how the
      FPGA resource model and the functional simulator memoize too.

    ``flush()`` persists atomically (write-temp + rename); a corrupt or
    missing file degrades to an empty cache rather than failing the sweep.
    Caches are mergeable (:meth:`merge_from`), the substrate for combining
    shards of a ``sweep()`` distributed across machines — see the
    ``repro cache`` CLI subcommand.

    All accessors are guarded by one re-entrant lock, so a cache shared by
    the evaluation service's concurrent request handlers (threads) stays
    consistent; an in-process sweep has one thread, so there the lock is
    uncontended.
    """

    _SECTIONS = ("points", "spaces", "names", "api")

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        self._data: dict[str, dict[str, object]] = {s: {} for s in self._SECTIONS}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        self._lock = threading.RLock()
        if self.path is not None:
            self.load()

    # -- persistence ---------------------------------------------------
    def load(self) -> None:
        if self.path is None or not os.path.exists(self.path):
            return
        try:
            with open(self.path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(raw, dict):
            # a torn or foreign write can be valid JSON of the wrong shape;
            # treat it exactly like a corrupt file (empty, not fatal)
            return
        with self._lock:
            for section in self._SECTIONS:
                stored = raw.get(section)
                if isinstance(stored, dict):
                    self._data[section].update(stored)

    def flush(self, force: bool = False) -> None:
        """Persist to disk (no-op for purely in-memory or clean caches).

        ``force=True`` rewrites even when nothing changed — the compaction
        path, which re-serializes with minimal separators and drops whatever
        junk an interrupted or foreign writer left in the file.
        """
        with self._lock:
            if self.path is None or not (self._dirty or force):
                return
            tmp = f"{self.path}.tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(self._data, fh, separators=(",", ":"))
            os.replace(tmp, self.path)
            self._dirty = False

    def __len__(self) -> int:
        with self._lock:
            return sum(len(self._data[s]) for s in self._SECTIONS)

    # -- sharding support ----------------------------------------------
    def dump(self) -> dict[str, dict]:
        """A detached snapshot of every section (the ``/v1/cache`` payload).

        The returned dict is JSON-serializable and round-trips through
        :meth:`from_payload`, which is how a sweep coordinator pulls a remote
        server's warm entries over the wire instead of shipping cache files.
        """
        with self._lock:
            return {s: dict(self._data[s]) for s in self._SECTIONS}

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "MemoCache":
        """An in-memory cache rebuilt from a :meth:`dump` payload.

        Wrong-shape sections degrade to empty — the same tolerance as
        :meth:`load`, since the payload may come from an untrusted or
        mid-upgrade server.
        """
        cache = cls()
        if isinstance(payload, Mapping):
            for section in cls._SECTIONS:
                stored = payload.get(section)
                if isinstance(stored, dict):
                    cache._data[section].update(stored)
        return cache

    def merge_from(self, other: "MemoCache | str | os.PathLike") -> dict[str, int]:
        """Fold another cache (object or JSON file) into this one.

        Entries already present locally win — shards of the same design space
        hold identical values for identical keys, so first-wins keeps merging
        deterministic regardless of file order.  Returns the count of newly
        added entries per section.

        A shard *file* that cannot be read — appearing mid-write, truncated,
        or holding valid JSON of the wrong shape — contributes zero entries
        rather than raising, the same degrade-to-empty contract as
        :meth:`load` (the ``repro cache`` CLI validates files up front when a
        loud failure is wanted).
        """
        if not isinstance(other, MemoCache):
            other = MemoCache(other)
        # snapshot under the source lock first, then fold under ours — never
        # holding both locks at once (two caches merging into each other from
        # two threads must not deadlock)
        with other._lock:
            theirs = {s: dict(other._data[s]) for s in self._SECTIONS}
        added = {}
        with self._lock:
            for section in self._SECTIONS:
                ours = self._data[section]
                new = {k: v for k, v in theirs[section].items() if k not in ours}
                if new:
                    ours.update(new)
                    self._dirty = True
                added[section] = len(new)
        return added

    def stats(self) -> dict[str, int]:
        """Entry count per section (plus hit/miss counters for this run)."""
        with self._lock:
            out = {section: len(self._data[section]) for section in self._SECTIONS}
            out["hits"] = self.hits
            out["misses"] = self.misses
            return out

    # -- typed accessors -----------------------------------------------
    def get(self, section: str, key: str):
        with self._lock:
            value = self._data[section].get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
            return value

    def put(self, section: str, key: str, value) -> None:
        with self._lock:
            self._data[section][key] = value
            self._dirty = True


#: Leads every ``spaces`` key.  Entries written before the canonical key
#: was stored (``[selection, matrix]`` pairs under an untagged key) are never
#: read, and builds that wrote them never read these: after an upgrade each
#: space is enumerated once more, and its points keep hitting.
_SPACE_FORMAT = "v2"


def _key_to_json(key: tuple | None) -> list | None:
    """A :func:`canonical_signature` as JSON lists (``None`` stays ``None``)."""
    if key is None:
        return None
    return [[name, kind, [list(vec) for vec in basis]] for name, kind, basis in key]


def _key_from_json(key: object, tensors: int) -> tuple:
    """The :func:`canonical_signature` tuple a stored key encodes.

    Raises ``ValueError`` unless ``key`` holds one ``[name, kind, [[p1, p2,
    dt], ...]]`` entry per tensor, with string name and kind and components
    that are exactly ``int`` (a ``bool`` or ``float`` is refused).
    """
    if type(key) is not list or len(key) != tensors:
        raise ValueError(f"canonical key needs {tensors} tensor entries")
    out = []
    for entry in key:
        if type(entry) is not list or len(entry) != 3:
            raise ValueError("malformed canonical key entry")
        name, kind, basis = entry
        if type(name) is not str or type(kind) is not str or type(basis) is not list:
            raise ValueError("malformed canonical key entry")
        vecs = []
        for vec in basis:
            if type(vec) is not list or len(vec) != 3:
                raise ValueError("malformed canonical key vector")
            p1, p2, dt = vec
            if type(p1) is not int or type(p2) is not int or type(dt) is not int:
                raise ValueError("canonical key components must be integers")
            vecs.append((p1, p2, dt))
        out.append((name, kind, tuple(vecs)))
    return tuple(out)


def _replayed_specs(statement: Statement, stored: object) -> list[DataflowSpec] | None:
    """The specs a ``spaces`` entry records, or ``None`` when it is malformed.

    The entry comes from disk or from another server's ``/v1/cache``, so it
    is checked again, in one pass, and a malformed design makes the whole
    entry a miss: each distinct selection must name three distinct loops of
    ``statement``, and each matrix must be 3x3, full rank and hold exactly
    ``int`` components (a ``float``, ``bool`` or string is refused, never
    truncated).  The specs are then built without checking again.  A
    well-formed canonical key is trusted, like a stored point.
    """
    if type(stored) is not list:
        return None
    tensors = len(statement.accesses)
    selections: set[tuple] = set()
    specs = []
    try:
        for entry in stored:
            if type(entry) is not list or len(entry) != 3:
                return None
            sel, matrix, key = entry
            if type(sel) is not list:
                return None
            selected = tuple(sel)
            if selected not in selections:
                check_selection(statement, selected)
                selections.add(selected)
            (a, b, c), (d, e, f), (g, h, i) = matrix
            # one chained identity test: all nine components exactly int
            if not (
                type(a) is type(b) is type(c) is type(d) is type(e)
                is type(f) is type(g) is type(h) is type(i) is int
            ):
                return None
            det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            if det == 0:
                return None
            spec = DataflowSpec.trusted(
                statement, selected, STT.trusted(((a, b, c), (d, e, f), (g, h, i)), det)
            )
            if key is not None:
                spec.canonical_key = _key_from_json(key, tensors)
            specs.append(spec)
    except (TypeError, ValueError):
        return None
    return specs


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
def _evaluate_one(spec: DataflowSpec, perf: PerfModel, cost: CostModel) -> tuple:
    """Evaluate one design, returning the outcome tuple the memo cache stores.

    ``("ok", perf, cycles, area, power)`` on success or
    ``("fail", stage, reason)`` when a model rejects the design.
    """
    try:
        pr = perf.evaluate(spec)
    except (ValueError, NotImplementedError) as exc:
        return ("fail", "perf", f"{type(exc).__name__}: {exc}")
    try:
        cr = cost.evaluate(spec)
    except (ValueError, NotImplementedError) as exc:
        return ("fail", "cost", f"{type(exc).__name__}: {exc}")
    return ("ok", pr.normalized, pr.cycles, cr.area_mm2, cr.power_mw)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class EvaluationEngine:
    """Owns the enumerate -> prune -> evaluate -> Pareto pipeline.

    Parameters
    ----------
    array:
        Hardware configuration (defaults to the paper's 16x16 / 320 MHz).
    width:
        Datapath bit width for the cost model.
    cost_params / sram_words:
        Cost-model calibration knobs.
    perf / cost:
        Pre-built models (override ``array``/``width`` when given).
    cache:
        A :class:`MemoCache`, a filesystem path for an on-disk JSON cache, or
        ``None`` to disable memoization.
    autoflush:
        Persist the cache after each pipeline run (default).  A server
        session sharing one big cache across many requests passes ``False``
        and flushes explicitly (shutdown, ``/v1/cache/flush``) instead of
        rewriting the file per request.
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
        cache: MemoCache | str | os.PathLike | None = None,
        autoflush: bool = True,
    ):
        if perf is not None and array is None:
            array = perf.config
        self.array = array or ArrayConfig()
        self._custom_models = perf is not None or cost is not None
        self.perf = perf or PerfModel(self.array)
        self.cost = cost or CostModel.for_array(
            self.array, width=width, params=cost_params, sram_words=sram_words
        )
        if isinstance(cache, (str, os.PathLike)):
            cache = MemoCache(cache)
        self.cache = cache
        self.autoflush = autoflush

    def _flush(self) -> None:
        if self.cache is not None and self.autoflush:
            self.cache.flush()

    # -- cache keys ----------------------------------------------------
    @staticmethod
    def _statement_key(statement: Statement) -> tuple:
        # Access matrices must be part of the identity: two statements with
        # equal names/extents but different index expressions classify
        # dataflows differently and must not alias in a persistent cache.
        return (
            statement.name,
            statement.space.names,
            statement.space.extents,
            tuple(
                (acc.tensor.name, acc.tensor.is_output, tuple(acc.matrix))
                for acc in statement.accesses
            ),
        )

    def _config_key(self) -> tuple:
        return (
            dataclasses.astuple(self.array),
            self.cost.rows,
            self.cost.cols,
            self.cost.width,
            self.cost.freq_mhz,
            self.cost.sram_words,
            dataclasses.astuple(self.cost.params),
        )

    def _key_prefix(self, statement: Statement) -> tuple[str, str]:
        """The ``repr`` of a design key's statement and configuration parts.

        They are the same for every design of one stream, so :meth:`stream`
        builds them once and :meth:`_design_key` splices them in.
        """
        return repr(self._statement_key(statement)), repr(self._config_key())

    def _design_key(self, prefix: tuple[str, str], spec: DataflowSpec) -> str:
        # Canonical signatures identify hardware up to mirroring/rotating the
        # array, which only preserves the models' outputs when the array is
        # square; rectangular arrays fall back to the exact signature.
        # Canonical enumeration and space-cache replay hand their specs over
        # with the key computed.
        if self.array.rows == self.array.cols:
            sig = spec.canonical_key or canonical_signature(spec)
        else:
            sig = spec.signature()
        # byte-identical to repr((statement key, selected, sig, config key)),
        # so persisted caches keep hitting
        statement_repr, config_repr = prefix
        return f"({statement_repr}, {spec.selected!r}, {sig!r}, {config_repr})"

    # -- stage 1+2: streaming enumeration with pruning ------------------
    def iter_space(
        self,
        statement: Statement,
        *,
        one_d_only: bool = False,
        selections: Iterable[Sequence[str]] | None = None,
        predicates: Sequence[Predicate] = (),
        bound: int = 1,
        per_selection_limit: int | None = None,
        realizable_only: bool = True,
        canonical: bool = True,
        stats: EvaluationStats | None = None,
    ) -> Iterator[DataflowSpec]:
        """Stream the pruned design space, through the space cache when warm.

        A cache hit replays the stored ``(selection, STT matrix, canonical
        key)`` triples — reconstructing a spec is ~100x cheaper than
        discovering it, and its replayed :attr:`DataflowSpec.canonical_key`
        spares :meth:`stream` the signature — and a miss records them as
        they stream past for the next run.  A malformed entry is a miss, and
        the re-enumerated space overwrites it.
        """
        allowed_types = ONE_D_TYPES if one_d_only else None
        stats = stats or EvaluationStats()
        if selections is not None:
            # materialize up front: generators would be consumed by key
            # construction below and arrive empty at iter_designs
            selections = [tuple(sel) for sel in selections]
        cacheable = self.cache is not None and not predicates
        space_key = None
        if cacheable:
            space_key = repr(
                (
                    _SPACE_FORMAT,
                    self._statement_key(statement),
                    bound,
                    sorted(t.value for t in allowed_types) if allowed_types else None,
                    realizable_only,
                    canonical,
                    tuple(selections) if selections is not None else None,
                    per_selection_limit,
                )
            )
            stored = self.cache.get("spaces", space_key)
            replayed = None if stored is None else _replayed_specs(statement, stored)
            if replayed is not None:
                stats.space_cache_hit = True
                yield from replayed
                return
        recorded: list[list] = []
        for spec in iter_designs(
            statement,
            selections=selections,
            bound=bound,
            per_selection_limit=per_selection_limit,
            allowed_types=allowed_types,
            realizable_only=realizable_only,
            canonical=canonical,
            predicates=predicates,
            stats=stats.enum,
        ):
            if cacheable:
                recorded.append(
                    [
                        list(spec.selected),
                        [list(row) for row in spec.stt.matrix],
                        _key_to_json(spec.canonical_key),
                    ]
                )
            yield spec
        if cacheable:
            self.cache.put("spaces", space_key, recorded)

    # -- stage 3: evaluation --------------------------------------------
    @staticmethod
    def _point_from_outcome(spec: DataflowSpec, outcome: tuple) -> DesignPoint:
        """Build the :class:`DesignPoint` for one :func:`_evaluate_one` outcome."""
        if outcome[0] == "ok":
            _, perf_n, cycles, area, power = outcome
            return DesignPoint(
                spec=spec,
                normalized_perf=perf_n,
                cycles=cycles,
                area_mm2=area,
                power_mw=power,
            )
        _, stage, reason = outcome
        return DesignPoint(
            spec=spec,
            failure=DesignFailure(
                spec_name=spec.name,
                letters=spec.letters,
                stage=stage,
                reason=reason,
            ),
        )

    def _lookup(
        self, prefix: tuple[str, str], spec: DataflowSpec, stats: EvaluationStats
    ) -> tuple[tuple | None, str | None]:
        """Memo-cache probe: ``(cached outcome, None)`` or ``(None, put-key)``."""
        stats.enumerated += 1
        if self.cache is None:
            return None, None
        key = self._design_key(prefix, spec)
        cached = self.cache.get("points", key)
        if cached is not None:
            stats.cache_hits += 1
            return tuple(cached), None
        stats.cache_misses += 1
        return None, key

    def stream(
        self,
        statement: Statement,
        *,
        specs: Iterable[DataflowSpec] | None = None,
        stats: EvaluationStats | None = None,
        seq_start: int = 0,
        **space_kwargs,
    ) -> Iterator[DesignPoint]:
        """Yield evaluated :class:`DesignPoint` rows one at a time.

        This is the incremental face of :meth:`evaluate`: each design is
        resolved from the memo cache or run through the models the moment it
        comes off the enumeration stream, so a consumer — the evaluation
        service's NDJSON ``/v1/explore`` endpoint and the job runner's row
        log in particular — sees results as they are produced instead of
        after the whole space finishes.  Failures are yielded inline as
        points carrying a :class:`DesignFailure`.

        Every yielded point carries ``seq`` — its 1-based emission index
        offset by ``seq_start`` — which is what the service's incremental
        job-row cursors are built on.  Pass a shared ``stats`` to observe the
        run's counters; the cache is flushed when the generator is exhausted
        or closed, and a stream closed early records no space.
        """
        stats = stats if stats is not None else EvaluationStats()
        source: Iterable[DataflowSpec]
        if specs is not None:
            source = specs
        else:
            source = self.iter_space(statement, stats=stats, **space_kwargs)
        prefix = self._key_prefix(statement)
        seq = seq_start
        try:
            for spec in source:
                outcome, key = self._lookup(prefix, spec, stats)
                if outcome is None:
                    outcome = _evaluate_one(spec, self.perf, self.cost)
                    stats.evaluated += 1
                    if key is not None:
                        self.cache.put("points", key, list(outcome))
                point = self._point_from_outcome(spec, outcome)
                if not point.ok:
                    stats.skipped += 1
                seq += 1
                point.seq = seq
                yield point
        finally:
            self._flush()

    def evaluate(
        self,
        statement: Statement,
        *,
        specs: Iterable[DataflowSpec] | None = None,
        one_d_only: bool = False,
        selections: Iterable[Sequence[str]] | None = None,
        predicates: Sequence[Predicate] = (),
        bound: int = 1,
        per_selection_limit: int | None = None,
        realizable_only: bool = True,
        canonical: bool = True,
    ) -> EvaluationResult:
        """Run the full pipeline for one workload: a fold over :meth:`stream`.

        ``specs`` bypasses enumeration (evaluate an explicit design list).
        Points come back in enumeration order.
        """
        stats = EvaluationStats()
        points: list[DesignPoint] = []
        failures: list[DesignPoint] = []
        for point in self.stream(
            statement,
            specs=specs,
            stats=stats,
            one_d_only=one_d_only,
            selections=selections,
            predicates=predicates,
            bound=bound,
            per_selection_limit=per_selection_limit,
            realizable_only=realizable_only,
            canonical=canonical,
        ):
            (points if point.ok else failures).append(point)
        return EvaluationResult(
            workload=statement.name,
            array=self.array,
            points=points,
            failures=failures,
            stats=stats,
        )

    # -- named-dataflow evaluation (paper Fig. 5 benchmarks) -------------
    def resolve_name(
        self, statement: Statement, name: str, *, bound: int = 1, limit: int = 24
    ) -> DataflowSpec:
        """The best-performing STT realization of a paper dataflow name.

        Name resolution walks the full STT candidate stream (the expensive
        part); the resolved ``(selection, matrix)`` pair is memoized in the
        ``names`` cache section so warm runs skip straight to the model.
        """
        key = None
        if self.cache is not None:
            # name resolution scores specs with the perf model only, so
            # the key must not embed cost-model knobs (spurious misses)
            key = repr(
                (
                    self._statement_key(statement),
                    name,
                    bound,
                    limit,
                    dataclasses.astuple(self.array),
                )
            )
            stored = self.cache.get("names", key)
            if stored is not None:
                sel, matrix = stored
                return DataflowSpec(
                    statement,
                    tuple(sel),
                    STT(tuple(tuple(row) for row in matrix)),
                )
        spec = best_spec_from_name(
            statement,
            name,
            lambda s: self.perf.evaluate(s).normalized,
            bound=bound,
            limit=limit,
        )
        if self.cache is not None:
            self.cache.put(
                "names",
                key,
                [list(spec.selected), [list(row) for row in spec.stt.matrix]],
            )
        return spec

    def evaluate_names(
        self,
        statement: Statement,
        names: Sequence[str],
        *,
        bound: int = 1,
        limit: int = 24,
    ) -> list[tuple[str, PerfResult]]:
        """Evaluate paper dataflow names, best-scoring STT per name."""
        rows = [
            (name, self.perf.evaluate(self.resolve_name(statement, name, bound=bound, limit=limit)))
            for name in names
        ]
        self._flush()
        return rows

    # -- stage 4: multi-workload sweeps ----------------------------------
    def sweep(
        self,
        workloads: Sequence[Statement | str],
        configs: Sequence[ArrayConfig] | None = None,
        **evaluate_kwargs,
    ) -> list[EvaluationResult]:
        """Run the pipeline over ``workloads`` x ``configs``.

        Workloads may be :class:`Statement` objects or Table II names
        (resolved via :func:`repro.ir.workloads.by_name`).  All runs share
        this engine's memo cache, so overlapping sweeps get warmer as they
        go.  Results arrive in ``configs``-major order, the order
        :class:`repro.service.SweepCoordinator` folds a sharded sweep into.
        """
        configs = list(configs) if configs is not None else [self.array]
        statements = [
            workload_lib.by_name(w) if isinstance(w, str) else w for w in workloads
        ]
        results: list[EvaluationResult] = []
        for config in configs:
            engine = self if config == self.array else self._sibling(config)
            for statement in statements:
                results.append(engine.evaluate(statement, **evaluate_kwargs))
        return results

    def _sibling(self, config: ArrayConfig) -> "EvaluationEngine":
        """An engine for another array config sharing this one's cache."""
        if self._custom_models:
            # Custom models are bound to this engine's config; silently
            # rebuilding defaults for other configs would mix models within
            # one sweep and invalidate cross-config comparisons.
            raise ValueError(
                "sweep() across array configs is not supported on an engine "
                "built with custom perf/cost models; construct one engine "
                "per config instead"
            )
        return EvaluationEngine(
            config,
            width=self.cost.width,
            cost_params=self.cost.params,
            sram_words=self.cost.sram_words,
            cache=self.cache,
            autoflush=self.autoflush,
        )
