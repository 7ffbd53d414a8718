"""The async evaluation service: location-transparent sessions over HTTP/JSON.

PR 2 made every evaluation a versioned, JSON-round-trippable
``DesignRequest``/``EvalResult`` pair; this package is the payoff — the same
:class:`~repro.api.protocol.SessionProtocol` surface served over the wire:

- :class:`~repro.service.server.EvaluationService` — a stdlib-asyncio
  HTTP/1.1 server exposing ``/v1/evaluate``, ``/v1/evaluate_many``,
  ``/v1/explore`` (NDJSON streaming), ``/v1/jobs`` (bounded sweep queue
  with an incremental per-design row log, streamed by the ``/rows`` NDJSON
  long-poll) and ``/v1/cache/stats``, run via
  ``repro serve`` — the full wire reference is ``docs/service-api.md``;
- :class:`~repro.service.client.RemoteSession` — the drop-in client: every
  consumer written against :class:`SessionProtocol` runs unmodified against
  a local or a remote session (plus the job helpers ``submit_job`` /
  ``job`` / ``iter_job_rows`` / ``cancel_job``);
- :class:`~repro.service.server.ServiceThread` — in-process embedding for
  tests, benchmarks and examples;
- :class:`~repro.service.coordinator.SweepCoordinator` /
  :class:`~repro.service.coordinator.CoordinatedSession` — shard a
  ``sweep()`` across several servers via the job API (capacity-weighted
  inflight, ``shard_size`` item grouping, incremental row-stream folding,
  failure reassignment and back-off on a full job queue) and fold the
  results and memo caches back together, via ``repro sweep --url A --url B``
  — the fleet runbook is ``docs/deployment.md``.

Quickstart::

    # machine A
    $ python -m repro.cli serve --host 0.0.0.0 --port 8321 --cache memo.json

    # machine B (or the same one)
    from repro.service import RemoteSession
    with RemoteSession("http://machine-a:8321") as session:
        print(session.evaluate("gemm", "MNK-SST"))
        print(session.explore("gemm").pareto())
"""

from repro.service.client import AsyncRemoteSession, RemoteSession
from repro.service.coordinator import CoordinatedSession, SweepCoordinator
from repro.service.server import EvaluationService, ServiceThread
from repro.service.wire import ServiceBusyError

__all__ = [
    "AsyncRemoteSession",
    "CoordinatedSession",
    "EvaluationService",
    "RemoteSession",
    "ServiceBusyError",
    "ServiceThread",
    "SweepCoordinator",
]
