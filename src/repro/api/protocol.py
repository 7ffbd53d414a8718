"""The transport-agnostic session protocol.

:class:`SessionProtocol` is the public evaluation surface extracted from the
original ``Session`` facade, so that *where* evaluation happens is an
implementation detail: :class:`~repro.api.session.LocalSession` runs the
backends in-process, :class:`~repro.service.client.RemoteSession` speaks
the same protocol over HTTP/JSON to a ``repro serve`` process.  Every consumer — the CLI, the
examples, the benchmarks — is written against the protocol and runs
unmodified over either.

The surface (all JSON-serializable at the edges, which is what makes the
remote implementation possible without a second wire format):

- :meth:`~SessionProtocol.evaluate` — one design, any backend, memoized;
- :meth:`~SessionProtocol.evaluate_many` — the batch primitive: a list of
  :class:`~repro.api.types.DesignRequest` evaluated with per-request memo
  hits, each distinct miss evaluated once;
- :meth:`~SessionProtocol.explore` / :meth:`~SessionProtocol.sweep` — the
  design-space pipeline (enumerate -> prune -> evaluate);
- :meth:`~SessionProtocol.evaluate_names` — paper dataflow names, best STT
  realization per name;
- :meth:`~SessionProtocol.cache_stats` / :meth:`~SessionProtocol.flush` —
  memo-cache introspection and persistence.

:class:`SessionBase` carries the implementation-shared half: the platform
defaults (array/width/cost/sram), the :meth:`~SessionBase.request` builder,
and the ``evaluate()`` argument coercion, so local and remote sessions build
bit-identical :class:`DesignRequest` payloads from the same convenience
arguments.
"""

from __future__ import annotations

from typing import (
    Any,
    Iterable,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.api.types import DesignRequest, EvalResult
from repro.cost.model import CostParams
from repro.perf.model import ArrayConfig

__all__ = ["SessionProtocol", "SessionBase"]


@runtime_checkable
class SessionProtocol(Protocol):
    """What every session implementation — local or remote — answers to."""

    #: Default hardware platform used by :meth:`request` when a call does not
    #: carry its own ``array``.
    array: ArrayConfig

    def request(
        self,
        workload: str,
        dataflow: str | None = None,
        *,
        backend: str = "perf",
        extents: Mapping[str, int] | None = None,
        selection: Sequence[str] | None = None,
        stt: Sequence[Sequence[int]] | None = None,
        options: Mapping[str, Any] | None = None,
        array: ArrayConfig | None = None,
        width: int | None = None,
        cost: CostParams | None = None,
        sram_words: int | None = None,
    ) -> DesignRequest: ...

    def evaluate(
        self,
        request: DesignRequest | str,
        dataflow: str | None = None,
        **request_kwargs,
    ) -> EvalResult: ...

    def evaluate_many(
        self, requests: Sequence[DesignRequest | Mapping[str, Any]]
    ) -> list[EvalResult]: ...

    def explore(self, workload, **evaluate_kwargs): ...

    def sweep(self, workloads: Sequence, configs=None, **evaluate_kwargs) -> list: ...

    def evaluate_names(
        self, statement, names: Sequence[str], *, bound: int = 1, limit: int = 24
    ) -> list: ...

    def cache_stats(self) -> dict[str, int]: ...

    def flush(self) -> None: ...


class SessionBase:
    """Shared request-building half of a session implementation.

    Holds the platform defaults and turns the convenience call form
    (``evaluate("gemm", "MNK-SST", backend="cost")``) into a self-contained
    :class:`DesignRequest` — identically for every transport, so a request
    built by a :class:`RemoteSession` evaluates to the same cache key the
    server computes.
    """

    def __init__(
        self,
        array: ArrayConfig | None = None,
        *,
        width: int = 16,
        cost_params: CostParams | None = None,
        sram_words: int = 32768,
    ):
        self.array = array or ArrayConfig()
        self.width = width
        self.cost_params = cost_params
        self.sram_words = sram_words

    # -- lifecycle -----------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()

    def flush(self) -> None:  # pragma: no cover - overridden by implementations
        """Persist session state (memo cache); no-op by default."""

    def cache_stats(self) -> dict[str, int]:  # pragma: no cover - overridden
        return {}

    # -- request building ----------------------------------------------
    def request(
        self,
        workload: str,
        dataflow: str | None = None,
        *,
        backend: str = "perf",
        extents: Mapping[str, int] | None = None,
        selection: Sequence[str] | None = None,
        stt: Sequence[Sequence[int]] | None = None,
        options: Mapping[str, Any] | None = None,
        array: ArrayConfig | None = None,
        width: int | None = None,
        cost: CostParams | None = None,
        sram_words: int | None = None,
    ) -> DesignRequest:
        """Build a :class:`DesignRequest`, filling defaults from the session."""
        return DesignRequest(
            workload=workload,
            dataflow=dataflow,
            selection=tuple(selection) if selection is not None else None,
            stt=tuple(tuple(row) for row in stt) if stt is not None else None,
            backend=backend,
            extents=dict(extents or {}),
            array=array or self.array,
            width=self.width if width is None else width,
            cost=cost if cost is not None else self.cost_params,
            sram_words=self.sram_words if sram_words is None else sram_words,
            options=dict(options or {}),
        )

    def _coerce_request(
        self,
        request: DesignRequest | Mapping[str, Any] | str,
        dataflow: str | None,
        request_kwargs: Mapping[str, Any],
    ) -> DesignRequest:
        """Normalize ``evaluate()`` arguments into one ready request."""
        if isinstance(request, DesignRequest):
            if dataflow is not None or request_kwargs:
                raise TypeError(
                    "pass either a DesignRequest or workload/dataflow arguments, not both"
                )
            return request
        if isinstance(request, Mapping):
            if dataflow is not None or request_kwargs:
                raise TypeError(
                    "pass either a request payload or workload/dataflow arguments, not both"
                )
            return DesignRequest.from_dict(request)
        return self.request(request, dataflow, **request_kwargs)

    @staticmethod
    def _coerce_requests(
        requests: Iterable[DesignRequest | Mapping[str, Any]],
    ) -> list[DesignRequest]:
        """Normalize an ``evaluate_many()`` batch (requests or payload dicts)."""
        out: list[DesignRequest] = []
        for request in requests:
            if isinstance(request, DesignRequest):
                out.append(request)
            elif isinstance(request, Mapping):
                out.append(DesignRequest.from_dict(request))
            else:
                raise TypeError(
                    "evaluate_many() takes DesignRequest objects or payload "
                    f"mappings, got {type(request).__name__}"
                )
        return out

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.array.rows}x{self.array.cols} @ "
            f"{self.array.freq_mhz:g} MHz, width={self.width})"
        )
