"""Typed, versioned request/result types for the public evaluation API.

Every evaluation in the unified API travels as a :class:`DesignRequest` and
comes back as an :class:`EvalResult`.  Both are plain dataclasses with a
stable JSON representation (``to_json``/``from_json`` round-trip exactly) and
an explicit ``schema_version`` so persisted requests — memo-cache entries,
sharded-sweep manifests, service payloads — fail loudly instead of silently
misparsing when the schema evolves.

A request is *self-contained*: workload name + loop extents, the dataflow
(either a paper-style name like ``"MNK-SST"`` or an explicit selection + STT
matrix), the target backend, and the full hardware/cost configuration.  Its
:meth:`DesignRequest.cache_key` is the canonical JSON encoding, which is what
lets the two-level memo cache key *every* backend — cost, perf, FPGA
(Table III) and the functional simulator alike — with one scheme.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.naming import check_bound
from repro.cost.model import CostParams
from repro.perf.model import ArrayConfig

__all__ = [
    "SCHEMA_VERSION",
    "MAX_ARRAY_DIM",
    "MAX_NAMES",
    "MAX_RESOLVE_LIMIT",
    "SchemaVersionError",
    "DesignRequest",
    "EvalResult",
    "array_from_dict",
    "check_resolve_options",
]

#: Version of the request/result wire format.  Bump on incompatible change;
#: ``from_dict``/``from_json`` reject anything else.
SCHEMA_VERSION = 1


class SchemaVersionError(ValueError):
    """A serialized request/result carries an unsupported ``schema_version``."""


def _check_version(payload: Mapping[str, Any], kind: str) -> None:
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{kind} schema_version {version!r} is not supported "
            f"(this build speaks version {SCHEMA_VERSION})"
        )


def _check_fields(payload: Mapping[str, Any], cls, kind: str) -> None:
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"{kind} has unknown field(s) {unknown}; known: {sorted(known)}")


#: Largest ``rows``/``cols`` an array from the wire may have.  Model time
#: grows with the array (a 256x256 perf request holds an executor for
#: seconds), every array in the repository is at most 16x16, and the cap
#: also bounds the key space of the models' geometry memos.
MAX_ARRAY_DIM = 64


def array_from_dict(payload: Any) -> ArrayConfig:
    """Decode and check an ``array`` block that arrived from the wire.

    The one validator behind every decoder that takes an array from a
    request (``DesignRequest.from_dict`` and ``repro.service.wire``):
    ``rows``/``cols`` are integers in ``1..MAX_ARRAY_DIM``, ``dtype_bytes``
    an integer >= 1, ``freq_mhz``/``onchip_bw_gbps`` finite and > 0.
    Raises ``ValueError`` naming the offending field.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"array must be an object, got {type(payload).__name__}")
    _check_fields(payload, ArrayConfig, "array")
    array = ArrayConfig(**payload)

    def is_int(value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    for name in ("rows", "cols"):
        value = getattr(array, name)
        if not is_int(value) or not 1 <= value <= MAX_ARRAY_DIM:
            raise ValueError(
                f"array {name} must be an integer in 1..{MAX_ARRAY_DIM}, got {value!r}"
            )
    if not is_int(array.dtype_bytes) or array.dtype_bytes < 1:
        raise ValueError(
            f"array dtype_bytes must be an integer >= 1, got {array.dtype_bytes!r}"
        )
    for name in ("freq_mhz", "onchip_bw_gbps"):
        value = getattr(array, name)
        if not (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and math.isfinite(value)
            and value > 0
        ):
            raise ValueError(f"array {name} must be a finite number > 0, got {value!r}")
    return array


#: Most matches ``resolve=best`` scores for one name.  Every caller in the
#: repository uses the default, 24; each match is one perf evaluation, and
#: an unbounded limit scored all of a GEMM name's matches (1.06 s at bound
#: 1) and found 1,985 in the first 22 s at bound 2.
MAX_RESOLVE_LIMIT = 64

#: Most names one ``/v1/evaluate_names`` call resolves.  Each name costs
#: 0.2-1.5 s at bound 1; the longest list in the repository has 10 (the
#: Fig. 5 GEMM benchmark).
MAX_NAMES = 16


def check_resolve_options(*, bound: Any, limit: Any, names: Any = ()) -> None:
    """Check the name-resolution options of a request from the wire.

    The one validator behind ``/v1/evaluate`` (its ``options``) and
    ``/v1/evaluate_names``: ``bound`` passes
    :func:`repro.core.naming.check_bound`, ``limit`` is an integer in
    ``1..MAX_RESOLVE_LIMIT``, and ``names`` is a list of at most
    ``MAX_NAMES`` strings.  Raises ``ValueError`` naming the field.
    """
    check_bound(bound)
    if (
        isinstance(limit, bool)
        or not isinstance(limit, int)
        or not 1 <= limit <= MAX_RESOLVE_LIMIT
    ):
        raise ValueError(f"limit must be an integer in 1..{MAX_RESOLVE_LIMIT}, got {limit!r}")
    if not (
        isinstance(names, (list, tuple))
        and len(names) <= MAX_NAMES
        and all(isinstance(name, str) for name in names)
    ):
        # no echo: the list is the part of the body that can be long
        raise ValueError(f"names must be a list of at most {MAX_NAMES} strings")


@dataclass(frozen=True)
class DesignRequest:
    """One design-point evaluation, fully described.

    Parameters
    ----------
    workload:
        Table II workload name (see :data:`repro.ir.workloads.TABLE_II`).
    extents:
        Loop-extent overrides passed to the workload factory.
    dataflow:
        Paper-style dataflow name (``"MNK-SST"``); resolution policy comes
        from ``options["resolve"]`` (``"simplest"`` default, or ``"best"`` to
        score every matching STT with the performance model).
    selection / stt:
        Explicit design: the three selected loops and the STT matrix rows.
        Takes precedence over ``dataflow`` when both are given.
    backend:
        Registered evaluator name: ``"cost"``, ``"perf"``, ``"fpga"``,
        ``"sim"``, or anything added via
        :func:`repro.api.register_evaluator`.
    array / width / cost / sram_words:
        Hardware platform and cost-model calibration.
    options:
        Backend-specific knobs (JSON-serializable), e.g. ``vec`` /
        ``floorplan_optimized`` for ``fpga`` or ``seed`` / ``tile`` for
        ``sim``.
    """

    workload: str
    dataflow: str | None = None
    selection: tuple[str, ...] | None = None
    stt: tuple[tuple[int, ...], ...] | None = None
    backend: str = "perf"
    extents: Mapping[str, int] = field(default_factory=dict)
    array: ArrayConfig = field(default_factory=ArrayConfig)
    width: int = 16
    cost: CostParams | None = None
    sram_words: int = 32768
    options: Mapping[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.dataflow is None and self.stt is None:
            raise ValueError(
                "DesignRequest needs a dataflow name or an explicit selection+stt"
            )
        if self.stt is not None and self.selection is None:
            raise ValueError("an explicit stt matrix also needs its loop selection")
        # normalize mutable/sequence fields so equality and cache keys are
        # representation-independent
        object.__setattr__(self, "extents", dict(self.extents))
        object.__setattr__(self, "options", dict(self.options))
        if self.selection is not None:
            object.__setattr__(self, "selection", tuple(self.selection))
        if self.stt is not None:
            object.__setattr__(
                self, "stt", tuple(tuple(int(v) for v in row) for row in self.stt)
            )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "workload": self.workload,
            "dataflow": self.dataflow,
            "selection": list(self.selection) if self.selection is not None else None,
            "stt": [list(row) for row in self.stt] if self.stt is not None else None,
            "backend": self.backend,
            "extents": dict(self.extents),
            "array": dataclasses.asdict(self.array),
            "width": self.width,
            "cost": dataclasses.asdict(self.cost) if self.cost is not None else None,
            "sram_words": self.sram_words,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DesignRequest":
        _check_version(payload, "DesignRequest")
        _check_fields(payload, cls, "DesignRequest")
        data = dict(payload)
        if data.get("array") is not None:
            data["array"] = array_from_dict(data["array"])
        else:
            data.pop("array", None)
        if data.get("cost") is not None:
            data["cost"] = CostParams(**data["cost"])
        if data.get("selection") is not None:
            data["selection"] = tuple(data["selection"])
        if data.get("stt") is not None:
            data["stt"] = tuple(tuple(row) for row in data["stt"])
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DesignRequest":
        return cls.from_dict(json.loads(text))

    def cache_key(self) -> str:
        """Canonical encoding: the memo-cache key for this request."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass
class EvalResult:
    """Outcome of one :class:`DesignRequest`, uniform across backends.

    ``metrics`` holds the backend's numeric outputs under stable names
    (``normalized_perf``/``cycles`` for perf, ``area_mm2``/``power_mw`` for
    cost, ``lut``/``dsp``/``freq_mhz``/... for fpga, ``cycles_run`` for sim);
    ``details`` carries JSON-safe structured extras (resolved STT matrix,
    breakdowns, the Table III row).  A backend rejection is not an exception
    but ``ok=False`` plus a structured ``failure_stage``/``failure_reason`` —
    same philosophy as the engine's :class:`~repro.explore.engine.DesignFailure`
    channel.  ``cached`` is transport metadata: ``True`` when the result was
    served from the memo cache rather than computed.
    """

    backend: str
    workload: str
    dataflow: str | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)
    ok: bool = True
    failure_stage: str | None = None
    failure_reason: str | None = None
    cached: bool = False
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def failure(
        cls, backend: str, workload: str, stage: str, reason: str, dataflow: str | None = None
    ) -> "EvalResult":
        return cls(
            backend=backend,
            workload=workload,
            dataflow=dataflow,
            ok=False,
            failure_stage=stage,
            failure_reason=reason,
        )

    def __getitem__(self, metric: str) -> float:
        return self.metrics[metric]

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        # deep-copy the nested payload: serialized results land in the memo
        # cache, and an aliased dict would let caller mutations corrupt it
        return {
            "schema_version": self.schema_version,
            "backend": self.backend,
            "workload": self.workload,
            "dataflow": self.dataflow,
            "metrics": dict(self.metrics),
            "details": copy.deepcopy(self.details),
            "ok": self.ok,
            "failure_stage": self.failure_stage,
            "failure_reason": self.failure_reason,
            "cached": self.cached,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EvalResult":
        _check_version(payload, "EvalResult")
        _check_fields(payload, cls, "EvalResult")
        return cls(**dict(payload))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalResult":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:
        if not self.ok:
            return (
                f"EvalResult({self.backend}:{self.workload}, failed "
                f"[{self.failure_stage}] {self.failure_reason})"
            )
        shown = ", ".join(f"{k}={v:.4g}" for k, v in sorted(self.metrics.items()))
        tag = ", cached" if self.cached else ""
        return f"EvalResult({self.backend}:{self.workload}/{self.dataflow}, {shown}{tag})"
