"""SessionProtocol conformance and the evaluate_many batch primitive."""

import pytest

from repro.api import (
    EvalResult,
    LocalSession,
    Session,
    SessionProtocol,
    register_evaluator,
    reset_registry,
)
from repro.perf.model import ArrayConfig

SMALL = {"m": 4, "n": 4, "k": 4}
SMALL_ARRAY = ArrayConfig(rows=2, cols=2)


def _mixed_requests(session, n_per_backend=2):
    """A deterministic mixed-backend batch (perf/cost/fpga/sim)."""
    names = ["MNK-SST", "MNK-MTM"]
    requests = []
    for name in names[:n_per_backend]:
        for backend in ("perf", "cost", "fpga", "sim"):
            requests.append(
                session.request(
                    "gemm",
                    name,
                    backend=backend,
                    extents=SMALL,
                    array=SMALL_ARRAY,
                    options={"workload_label": "MM"} if backend == "fpga" else {},
                )
            )
    return requests


class TestProtocol:
    def test_local_session_conforms(self):
        assert isinstance(LocalSession(), SessionProtocol)

    def test_remote_session_conforms(self):
        from repro.service import RemoteSession

        # construction is offline: no server needed to check the surface
        assert isinstance(RemoteSession("http://127.0.0.1:1"), SessionProtocol)

    def test_coordinated_session_conforms(self):
        from repro.service import CoordinatedSession

        # a whole fleet answers to the same protocol as one local session
        session = CoordinatedSession(["http://127.0.0.1:1", "http://127.0.0.1:2"])
        assert isinstance(session, SessionProtocol)

    def test_session_alias(self):
        assert Session is LocalSession

    def test_protocol_methods_exist(self):
        for name in (
            "request",
            "evaluate",
            "evaluate_many",
            "explore",
            "sweep",
            "evaluate_names",
            "cache_stats",
            "flush",
        ):
            assert callable(getattr(LocalSession, name)), name


class TestEvaluateMany:
    def test_order_matches_requests(self):
        session = LocalSession(SMALL_ARRAY)
        requests = _mixed_requests(session)
        results = session.evaluate_many(requests)
        assert len(results) == len(requests)
        for request, result in zip(requests, results):
            assert result.backend == request.backend
            assert result.ok, (request.backend, result.failure_reason)

    def test_matches_single_evaluate(self):
        session = LocalSession(SMALL_ARRAY)
        requests = _mixed_requests(session, n_per_backend=1)
        batch = session.evaluate_many(requests)
        singles = [LocalSession(SMALL_ARRAY).evaluate(r) for r in requests]
        assert [r.metrics for r in batch] == [s.metrics for s in singles]

    def test_accepts_payload_dicts(self):
        session = LocalSession(SMALL_ARRAY)
        request = session.request("gemm", "MNK-SST", extents=SMALL)
        (from_obj,) = session.evaluate_many([request])
        (from_dict,) = session.evaluate_many([request.to_dict()])
        assert from_obj.metrics == from_dict.metrics

    def test_rejects_junk(self):
        with pytest.raises(TypeError, match="DesignRequest"):
            LocalSession(SMALL_ARRAY).evaluate_many(["gemm"])

    def test_warm_batch_is_all_memo_hits(self, tmp_path):
        path = tmp_path / "memo.json"
        cold_session = LocalSession(SMALL_ARRAY, cache=path)
        cold = cold_session.evaluate_many(_mixed_requests(cold_session))
        assert not any(r.cached for r in cold)
        warm_session = LocalSession(SMALL_ARRAY, cache=path)
        warm = warm_session.evaluate_many(_mixed_requests(warm_session))
        assert all(r.cached for r in warm)
        assert warm_session.cache.hits == len(warm)
        for c, w in zip(cold, warm):
            w.cached = False
            assert w == c

    def test_duplicates_evaluate_once(self):
        calls = []

        class Counting:
            backend = "counting"

            def evaluate(self, request):
                calls.append(request.dataflow)
                return EvalResult(
                    backend="counting",
                    workload=request.workload,
                    dataflow=request.dataflow,
                    metrics={"n": 1.0},
                )

        register_evaluator("counting", Counting)
        try:
            session = LocalSession(SMALL_ARRAY)
            request = session.request(
                "gemm", "MNK-SST", backend="counting", extents=SMALL
            )
            results = session.evaluate_many([request, request, request])
            assert len(results) == 3 and len(calls) == 1
            # fan-out copies are detached from each other
            results[0].metrics["n"] = 99.0
            assert results[1].metrics["n"] == 1.0
        finally:
            reset_registry()

    def test_overridden_builtin_stays_in_process(self):
        """A built-in overridden at runtime (override=True) answers through
        evaluate_many: the batch resolves each backend in the live registry
        of this process, never a fresh copy holding only the stock class."""
        import os

        pids = []

        class CalibratedCost:
            backend = "cost"

            def evaluate(self, request):
                pids.append(os.getpid())
                return EvalResult(
                    backend="cost",
                    workload=request.workload,
                    dataflow=request.dataflow,
                    metrics={"area_mm2": -1.0, "power_mw": -1.0},  # marker values
                )

        register_evaluator("cost", CalibratedCost, override=True)
        try:
            session = LocalSession(SMALL_ARRAY)
            requests = [
                session.request("gemm", name, backend="cost", extents=SMALL)
                for name in ("MNK-SST", "MNK-MTM", "MNK-STS")
            ]
            results = session.evaluate_many(requests)
            # the override answered (not the stock CostModel) ...
            assert [r["area_mm2"] for r in results] == [-1.0, -1.0, -1.0]
            # ... and it ran in this process
            assert set(pids) == {os.getpid()}
        finally:
            reset_registry()

    def test_runtime_backend_stays_in_process(self):
        """A backend registered at runtime answers through evaluate_many,
        mixed in one batch with built-ins."""

        class Local:
            backend = "only-here"

            def evaluate(self, request):
                return EvalResult(
                    backend="only-here",
                    workload=request.workload,
                    metrics={"pid_bound": 1.0},
                )

        register_evaluator("only-here", Local)
        try:
            session = LocalSession(SMALL_ARRAY)
            requests = [
                session.request("gemm", "MNK-SST", backend="only-here", extents=SMALL),
                session.request("gemm", "MNK-SST", backend="perf", extents=SMALL),
                session.request("gemm", "MNK-MTM", backend="perf", extents=SMALL),
            ]
            results = session.evaluate_many(requests)
            assert results[0]["pid_bound"] == 1.0
            assert all(r.ok for r in results)
        finally:
            reset_registry()

    def test_resolve_failures_flow_through(self):
        """Structured failures are batch results, not batch aborts."""
        session = LocalSession(SMALL_ARRAY)
        results = session.evaluate_many(
            [
                session.request("batched_gemv", "MNK-TSS", extents=SMALL),
                session.request("gemm", "MNK-SST", extents=SMALL),
            ]
        )
        assert not results[0].ok and results[0].failure_stage == "resolve"
        assert results[1].ok

    def test_empty_batch(self):
        assert LocalSession(SMALL_ARRAY).evaluate_many([]) == []
