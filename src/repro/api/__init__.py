"""Unified public API: one session, one request type, pluggable backends.

The TensorLib pipeline exposes four evaluation backends that historically had
four incompatible call conventions (``CostModel.evaluate``,
``PerfModel.evaluate`` and its since-removed ``evaluate_named`` twin,
``FPGAModel.evaluate``, ``sim.harness.run_functional``).  This package is
the coherent front door:

- :class:`~repro.api.types.DesignRequest` / :class:`~repro.api.types.EvalResult`
  — typed, versioned, JSON round-trippable descriptions of one evaluation;
- :class:`~repro.api.registry.Evaluator` + :func:`register_evaluator` — the
  pluggable backend registry (``"cost"``, ``"perf"``, ``"fpga"``, ``"sim"``
  built in);
- :class:`~repro.api.protocol.SessionProtocol` — the transport-agnostic
  session surface (``evaluate``/``evaluate_many``/``explore``/``sweep``/
  ``evaluate_names``/``cache_stats``/``flush``);
- :class:`~repro.api.session.LocalSession` — the in-process implementation
  owning backend selection, the shared memo cache, and the design-space
  engine (``Session`` remains as a compatible alias).  The HTTP implementation,
  :class:`~repro.service.client.RemoteSession`, lives in :mod:`repro.service`.

Quickstart::

    from repro.api import LocalSession

    session = LocalSession(cache="memo.json")
    print(session.evaluate("gemm", "MNK-SST"))                  # perf
    print(session.evaluate("gemm", "MNK-SST", backend="cost"))  # area/power
    batch = session.evaluate_many(
        [session.request("gemm", "MNK-SST", backend=b) for b in ("perf", "cost")]
    )
    frontier = session.explore("gemm").pareto()
"""

from repro.api.protocol import SessionBase, SessionProtocol
from repro.api.registry import (
    Evaluator,
    available_backends,
    get_evaluator,
    register_evaluator,
    reset_registry,
    unregister_evaluator,
)
from repro.api.session import LocalSession, Session
from repro.api.types import (
    SCHEMA_VERSION,
    DesignRequest,
    EvalResult,
    SchemaVersionError,
)

__all__ = [
    "SCHEMA_VERSION",
    "SchemaVersionError",
    "DesignRequest",
    "EvalResult",
    "Evaluator",
    "LocalSession",
    "Session",
    "SessionBase",
    "SessionProtocol",
    "available_backends",
    "get_evaluator",
    "register_evaluator",
    "reset_registry",
    "unregister_evaluator",
]
