"""Session behavior: routing, memoization per backend, delegation, shims.

The behavioral classes (routing, delegation) are parametrized over **both**
``SessionProtocol`` implementations — the in-process ``LocalSession`` and
the HTTP ``RemoteSession`` against a live in-process server — so location
transparency is enforced by the same assertions, not by a parallel suite.
"""

import warnings

import pytest

from repro.api import (
    DesignRequest,
    EvalResult,
    LocalSession,
    Session,
    register_evaluator,
    reset_registry,
)
from repro.explore.engine import EvaluationEngine, MemoCache
from repro.ir import workloads
from repro.perf.model import ArrayConfig, PerfModel

SMALL = {"m": 4, "n": 4, "k": 4}
SMALL_ARRAY = ArrayConfig(rows=2, cols=2)
GEMM_SEL = [("m", "n", "k")]


@pytest.fixture(scope="module")
def service_thread():
    """One live evaluation service for the whole module's remote sessions."""
    from repro.service import ServiceThread

    with ServiceThread(LocalSession(ArrayConfig(rows=8, cols=8))) as thread:
        yield thread


@pytest.fixture(params=["local", "remote"])
def session(request):
    """The same behavioral surface served in-process and over HTTP."""
    if request.param == "local":
        return Session(ArrayConfig(rows=8, cols=8))
    from repro.service import RemoteSession

    thread = request.getfixturevalue("service_thread")
    return RemoteSession(thread.url, array=ArrayConfig(rows=8, cols=8))


class TestRouting:
    def test_perf_backend(self, session):
        r = session.evaluate("gemm", "MNK-SST", extents={"m": 64, "n": 64, "k": 64})
        assert r.ok and r.backend == "perf" and r.dataflow == "MNK-SST"
        assert 0 < r["normalized_perf"] <= 1
        assert r["cycles"] >= r["peak_cycles"]
        # resolved design travels in the details (JSON-safe)
        assert len(r.details["stt"]) == 3

    def test_cost_backend(self, session):
        r = session.evaluate(
            "gemm", "MNK-SST", backend="cost", extents={"m": 64, "n": 64, "k": 64}
        )
        assert r.ok and r["area_mm2"] > 0 and r["power_mw"] > 0

    def test_fpga_backend(self, session):
        r = session.evaluate(
            "gemm",
            "MNK-STS",
            backend="fpga",
            array=ArrayConfig(rows=10, cols=16),
            options={"workload_label": "MM"},
        )
        assert r.ok
        assert r["dsp"] > 0 and r["lut"] > 0
        assert abs(r["freq_mhz"] - 263) < 6  # paper Table III
        assert r.details["row"]["generator"] == "TensorLib"

    def test_sim_backend(self, session):
        r = session.evaluate(
            "gemm", "MNK-SST", backend="sim", array=SMALL_ARRAY, extents=SMALL
        )
        assert r.ok
        assert r["cycles_run"] > 0
        assert r["elements"] == 16

    def test_matches_direct_model_calls(self, session):
        """The facade is an adapter, not a re-implementation."""
        from repro.core import naming
        from repro.cost.model import CostModel

        gemm = workloads.gemm(64, 64, 64)
        spec = naming.spec_from_name(gemm, "MNK-SST")
        direct_perf = PerfModel(session.array).evaluate(spec)
        direct_cost = CostModel.for_array(session.array, width=16).evaluate(spec)
        r_perf = session.evaluate("gemm", "MNK-SST", extents={"m": 64, "n": 64, "k": 64})
        r_cost = session.evaluate(
            "gemm", "MNK-SST", backend="cost", extents={"m": 64, "n": 64, "k": 64}
        )
        assert r_perf["cycles"] == direct_perf.cycles
        assert r_perf["normalized_perf"] == direct_perf.normalized
        assert r_cost["area_mm2"] == direct_cost.area_mm2
        assert r_cost["power_mw"] == direct_cost.power_mw

    def test_explicit_stt_request(self, session):
        r = session.evaluate(
            "gemm",
            selection=("m", "n", "k"),
            stt=((1, 0, 0), (0, 1, 0), (1, 1, 1)),
            extents={"m": 64, "n": 64, "k": 64},
        )
        assert r.ok and r.dataflow == "MNK-SST"  # the paper's canonical OS STT

    def test_self_contained_request(self, session):
        """A full DesignRequest carries its own platform config."""
        req = DesignRequest(
            workload="gemm",
            dataflow="MNK-SST",
            backend="perf",
            extents={"m": 64, "n": 64, "k": 64},
            array=ArrayConfig(rows=4, cols=4),
        )
        r = session.evaluate(req)
        assert r["peak_cycles"] == workloads.gemm(64, 64, 64).macs() / 16

    def test_request_plus_kwargs_rejected(self, session):
        req = session.request("gemm", "MNK-SST")
        with pytest.raises(TypeError, match="not both"):
            session.evaluate(req, backend="cost")

    def test_infeasible_dataflow_is_structured_failure(self, session):
        # Batched-GEMV supports only unicast A (paper): T for A cannot resolve
        r = session.evaluate("batched_gemv", "MNK-TSS", extents={"m": 4, "n": 4, "k": 4})
        assert not r.ok
        assert r.failure_stage == "resolve"
        assert "LookupError" in r.failure_reason

    def test_unknown_backend_raises(self, session):
        with pytest.raises(LookupError, match="registered"):
            session.evaluate("gemm", "MNK-SST", backend="nope")

    def test_custom_backend_via_session(self, session):
        class Doubler:
            backend = "doubler"

            def evaluate(self, request):
                return EvalResult(
                    backend="doubler",
                    workload=request.workload,
                    metrics={"two": 2.0},
                )

        register_evaluator("doubler", Doubler)
        try:
            r = session.evaluate("gemm", "MNK-SST", backend="doubler")
            assert r["two"] == 2.0
        finally:
            reset_registry()


class TestMemoization:
    @pytest.mark.parametrize(
        "backend,kwargs",
        [
            ("perf", {}),
            ("cost", {}),
            ("fpga", {"options": {"workload_label": "MM"}}),
            ("sim", {}),
        ],
    )
    def test_warm_hit_per_backend(self, tmp_path, backend, kwargs):
        """Every backend — including fpga and sim — rides the memo cache."""
        path = tmp_path / "memo.json"
        cold = Session(SMALL_ARRAY, cache=path).evaluate(
            "gemm", "MNK-SST", backend=backend, extents=SMALL, **kwargs
        )
        assert cold.ok and not cold.cached
        warm_session = Session(SMALL_ARRAY, cache=path)
        warm = warm_session.evaluate(
            "gemm", "MNK-SST", backend=backend, extents=SMALL, **kwargs
        )
        assert warm.cached
        assert warm_session.cache.hits == 1
        # identical payloads modulo the transport flag
        warm.cached = False
        assert warm == cold

    def test_sim_warm_hit_skips_simulation(self, tmp_path):
        """A warm sim request never rebuilds the harness (monkey-proof)."""
        path = tmp_path / "memo.json"
        Session(SMALL_ARRAY, cache=path).evaluate(
            "gemm", "MNK-SST", backend="sim", extents=SMALL
        )
        import repro.sim.harness as harness

        calls = []
        original = harness.verify_functional

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        harness.verify_functional = counting
        try:
            warm = Session(SMALL_ARRAY, cache=path).evaluate(
                "gemm", "MNK-SST", backend="sim", extents=SMALL
            )
        finally:
            harness.verify_functional = original
        assert warm.cached and warm.ok
        assert calls == []

    def test_different_backends_do_not_alias(self, tmp_path):
        path = tmp_path / "memo.json"
        session = Session(SMALL_ARRAY, cache=path)
        a = session.evaluate("gemm", "MNK-SST", backend="perf", extents=SMALL)
        b = session.evaluate("gemm", "MNK-SST", backend="cost", extents=SMALL)
        assert not a.cached and not b.cached
        assert session.cache.stats()["api"] == 2

    def test_caller_mutations_cannot_corrupt_cache(self, tmp_path):
        """Returned results are detached copies of the cache entries."""
        session = Session(SMALL_ARRAY, cache=tmp_path / "memo.json")
        first = session.evaluate("gemm", "MNK-SST", extents=SMALL)
        first.details.clear()
        first.metrics.pop("cycles")
        second = session.evaluate("gemm", "MNK-SST", extents=SMALL)
        assert second.cached
        assert second["cycles"] > 0
        assert second.details["stt"]
        second.details["stt"][0][0] = 999
        third = session.evaluate("gemm", "MNK-SST", extents=SMALL)
        assert third.details["stt"][0][0] != 999

    def test_stale_schema_entry_degrades_to_miss(self, tmp_path):
        """A cache entry from another schema version is recomputed, not fatal."""
        path = tmp_path / "memo.json"
        session = Session(SMALL_ARRAY, cache=path)
        session.evaluate("gemm", "MNK-SST", extents=SMALL)
        key = session.request("gemm", "MNK-SST", extents=SMALL).cache_key()
        stale = dict(session.cache._data["api"][key])
        stale["schema_version"] = 99
        session.cache.put("api", key, stale)
        session.cache.hits = session.cache.misses = 0
        refreshed = Session(SMALL_ARRAY, cache=session.cache).evaluate(
            "gemm", "MNK-SST", extents=SMALL
        )
        assert refreshed.ok and not refreshed.cached  # recomputed + overwritten
        stats = session.cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)  # refused: a miss
        assert Session(SMALL_ARRAY, cache=session.cache).evaluate(
            "gemm", "MNK-SST", extents=SMALL
        ).cached

    def test_autoflush_off_defers_write(self, tmp_path):
        path = tmp_path / "memo.json"
        with Session(SMALL_ARRAY, cache=path, autoflush=False) as session:
            session.evaluate("gemm", "MNK-SST", extents=SMALL)
            assert not path.exists()
        assert path.exists()  # context exit flushed

    def test_backend_bugs_propagate_not_memoized(self, session):
        """Only designed-in rejections become ok=False; bugs raise."""
        from repro.api import get_evaluator, register_evaluator, reset_registry

        class Buggy:
            backend = "buggy"

            def evaluate(self, request):
                from repro.api.backends import _evaluating

                def run(statement, spec):
                    return {}["missing"]  # a KeyError-shaped code bug

                return _evaluating(run, self.backend, request)

        register_evaluator("buggy", Buggy)
        try:
            with pytest.raises(KeyError):
                get_evaluator("buggy").evaluate(
                    session.request("gemm", "MNK-SST", backend="buggy")
                )
        finally:
            reset_registry()

    def test_resolve_failures_memoize_backend_failures_do_not(self, tmp_path):
        """Infeasible-design facts cache (they cost a full STT walk); failures
        inside a backend recompute — they may be bugs fixed by the next build."""
        from repro.api import register_evaluator, reset_registry

        path = tmp_path / "memo.json"
        resolve_kwargs = dict(extents={"m": 4, "n": 4, "k": 4})
        cold = Session(SMALL_ARRAY, cache=path)
        first = cold.evaluate("batched_gemv", "MNK-TSS", **resolve_kwargs)
        assert not first.ok and first.failure_stage == "resolve"
        warm = Session(SMALL_ARRAY, cache=path).evaluate(
            "batched_gemv", "MNK-TSS", **resolve_kwargs
        )
        assert warm.cached and warm.failure_stage == "resolve"

        class AlwaysFails:
            backend = "always-fails"
            calls = 0

            def evaluate(self, request):
                AlwaysFails.calls += 1
                return EvalResult.failure(
                    self.backend, request.workload, stage=self.backend, reason="flaky"
                )

        register_evaluator("always-fails", AlwaysFails)
        try:
            session = Session(SMALL_ARRAY, cache=path)
            a = session.evaluate("gemm", "MNK-SST", backend="always-fails", extents=SMALL)
            b = session.evaluate("gemm", "MNK-SST", backend="always-fails", extents=SMALL)
            assert not a.cached and not b.cached
            assert AlwaysFails.calls == 2
        finally:
            reset_registry()

    def test_cli_cache_tools_reject_corrupt_shards(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "good.json"
        Session(SMALL_ARRAY, cache=good).evaluate("gemm", "MNK-SST", extents=SMALL)
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": {truncated')
        merged = tmp_path / "m.json"
        assert main(["cache", "merge", "-o", str(merged), str(good), str(bad)]) == 1
        assert "corrupt" in capsys.readouterr().err
        assert not merged.exists()  # nothing written on a rejected merge
        assert main(["cache", "stats", str(bad)]) == 1
        assert main(["cache", "compact", str(bad)]) == 1

    def test_no_cache_means_no_memoization(self):
        session = Session(SMALL_ARRAY, cache=None)
        first = session.evaluate("gemm", "MNK-SST", extents=SMALL)
        second = session.evaluate("gemm", "MNK-SST", extents=SMALL)
        assert not first.cached and not second.cached

    def test_shared_cache_with_engine_paths(self, tmp_path):
        """Session.evaluate and Session.explore share one MemoCache file."""
        path = tmp_path / "memo.json"
        session = Session(ArrayConfig(rows=8, cols=8), cache=path)
        session.evaluate("gemm", "MNK-SST", extents={"m": 64, "n": 64, "k": 64})
        result = session.explore(workloads.gemm(64, 64, 64), selections=GEMM_SEL)
        assert len(result) > 20
        stats = session.cache_stats()
        assert stats["api"] == 1
        assert stats["points"] == len(result) + len(result.failures)
        assert stats["spaces"] == 1


class TestMergeAndCompact:
    def test_shard_merge_combines_backends(self, tmp_path):
        """Two machines' caches fold into one fully warm cache."""
        shard_a, shard_b, merged = (
            tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        )
        Session(SMALL_ARRAY, cache=shard_a).evaluate(
            "gemm", "MNK-SST", extents=SMALL
        )
        Session(SMALL_ARRAY, cache=shard_b).evaluate(
            "gemm", "MNK-SST", backend="cost", extents=SMALL
        )
        out = MemoCache(merged)
        added_a = out.merge_from(shard_a)
        added_b = out.merge_from(MemoCache(shard_b))
        assert added_a["api"] == 1 and added_b["api"] == 1
        out.flush()
        warm = Session(SMALL_ARRAY, cache=merged)
        assert warm.evaluate("gemm", "MNK-SST", extents=SMALL).cached
        assert warm.evaluate("gemm", "MNK-SST", backend="cost", extents=SMALL).cached

    def test_merge_first_wins_and_counts(self, tmp_path):
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        Session(SMALL_ARRAY, cache=path_a).evaluate("gemm", "MNK-SST", extents=SMALL)
        Session(SMALL_ARRAY, cache=path_b).evaluate("gemm", "MNK-SST", extents=SMALL)
        cache = MemoCache(path_a)
        assert cache.merge_from(path_b)["api"] == 0  # identical key: first wins

    def test_cli_cache_tools(self, tmp_path, capsys):
        from repro.cli import main

        shard_a, shard_b = tmp_path / "a.json", tmp_path / "b.json"
        merged = tmp_path / "m.json"
        Session(SMALL_ARRAY, cache=shard_a).evaluate("gemm", "MNK-SST", extents=SMALL)
        Session(SMALL_ARRAY, cache=shard_b).evaluate(
            "gemm", "MNK-SST", backend="cost", extents=SMALL
        )
        assert main(["cache", "merge", "-o", str(merged), str(shard_a), str(shard_b)]) == 0
        assert "2" in capsys.readouterr().out
        assert main(["cache", "stats", str(merged)]) == 0
        assert "2 api" in capsys.readouterr().out
        assert main(["cache", "compact", str(merged)]) == 0
        assert "compacted" in capsys.readouterr().out
        assert main(["cache", "stats", str(tmp_path / "missing.json")]) == 1

    def test_cache_stats_via_session(self, tmp_path):
        session = Session(SMALL_ARRAY, cache=tmp_path / "memo.json")
        assert session.cache_stats()["api"] == 0
        assert Session(SMALL_ARRAY).cache_stats() == {}


class TestDelegation:
    def test_explore_matches_engine(self, session):
        """Local and remote explores are bit-identical to the bare engine."""
        gemm = workloads.gemm(64, 64, 64)
        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8))
        via_session = session.explore(gemm, selections=GEMM_SEL)
        via_engine = engine.evaluate(gemm, selections=GEMM_SEL)
        assert [p.metrics() for p in via_session] == [p.metrics() for p in via_engine]
        assert [p.name for p in via_session] == [p.name for p in via_engine]

    def test_explore_accepts_workload_names(self, session):
        result = session.explore(
            "batched_gemv", one_d_only=True, array=ArrayConfig(rows=4, cols=4)
        )
        assert result.workload == "batched_gemv"
        assert result.array == ArrayConfig(rows=4, cols=4)
        assert len(result) > 0

    def test_sweep_delegates(self, session):
        results = session.sweep(
            [workloads.gemm(64, 64, 64), "batched_gemv"],
            selections=None,
            one_d_only=True,
        )
        assert [r.workload for r in results] == ["gemm", "batched_gemv"]

    def test_evaluate_names_delegates(self, session):
        rows = session.evaluate_names("gemm", ["MNK-SST", "MNK-MTM"])
        assert [name for name, _ in rows] == ["MNK-SST", "MNK-MTM"]
        assert all(r.cycles > 0 for _, r in rows)

    def test_evaluate_many_delegates(self, session):
        requests = [
            session.request("gemm", name, backend=backend, extents=SMALL)
            for name in ("MNK-SST", "MNK-MTM")
            for backend in ("perf", "cost")
        ]
        results = session.evaluate_many(requests)
        assert [r.backend for r in results] == ["perf", "cost", "perf", "cost"]
        assert [r.dataflow for r in results] == ["MNK-SST", "MNK-SST", "MNK-MTM", "MNK-MTM"]
        assert all(r.ok for r in results)
        singles = [session.evaluate(request) for request in requests]
        assert [r.metrics for r in results] == [s.metrics for s in singles]

    def test_context_manager_flushes(self, tmp_path):
        path = tmp_path / "memo.json"
        with Session(SMALL_ARRAY, cache=path) as session:
            session.evaluate("gemm", "MNK-SST", extents=SMALL)
        assert path.exists()


class TestDeprecationShims:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_workers_keyword_accepts_serial(self, workers):
        """``workers`` survives only as the serial spelling (0 or 1)."""
        session = LocalSession(SMALL_ARRAY, workers=workers)
        assert session.evaluate("gemm", "MNK-SST", extents=SMALL).ok

    @pytest.mark.parametrize("workers", [2, -1])
    def test_workers_keyword_refuses_parallel(self, workers):
        """More cores go through the fleet, and the refusal says so."""
        with pytest.raises(ValueError, match="repro serve"):
            LocalSession(SMALL_ARRAY, workers=workers)

    def test_new_paths_do_not_warn(self):
        session = Session(ArrayConfig(rows=8, cols=8))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.evaluate("gemm", "MNK-SST", extents={"m": 16, "n": 16, "k": 16})
            session.explore(workloads.gemm(16, 16, 16), selections=GEMM_SEL)


class TestPackageSurface:
    def test_lazy_top_level_exports(self):
        import repro
        from repro.api import SessionProtocol

        assert repro.Session is Session
        assert repro.LocalSession is LocalSession
        assert repro.Session is LocalSession  # the compatible alias
        assert repro.SessionProtocol is SessionProtocol
        assert repro.DesignRequest is DesignRequest
        assert repro.EvalResult is EvalResult
        with pytest.raises(AttributeError):
            repro.not_a_thing
