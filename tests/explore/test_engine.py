"""Tests for the streaming evaluation engine (enumerate -> prune -> evaluate)."""

import json

import pytest

from repro.core.enumerate import EnumerationStats, enumerate_designs, iter_designs
from repro.explore.engine import (
    ONE_D_TYPES,
    DesignFailure,
    EvaluationEngine,
    EvaluationStats,
    MemoCache,
)
from repro.ir import workloads
from repro.perf.model import ArrayConfig


@pytest.fixture()
def small_engine():
    return EvaluationEngine(ArrayConfig(rows=8, cols=8), width=16)


GEMM_SEL = [("m", "n", "k")]


class TestStreamingEnumeration:
    def test_lazy_matches_eager(self):
        gemm = workloads.gemm(16, 16, 16)
        stats = EnumerationStats()
        lazy = list(
            iter_designs(gemm, realizable_only=True, canonical=True, stats=stats)
        )
        eager = enumerate_designs(gemm, realizable_only=True, canonical=True)
        assert [s.signature() for s in lazy] == [s.signature() for s in eager]
        assert stats.yielded == len(lazy)
        assert stats.candidates > stats.yielded

    def test_streaming_early_stop(self):
        """The space is never materialized: taking 5 designs is cheap."""
        gemm = workloads.gemm(16, 16, 16)
        stream = iter_designs(gemm, realizable_only=True, canonical=True)
        first5 = [next(stream) for _ in range(5)]
        assert len({s.signature() for s in first5}) == 5

    def test_gemm_count_matches_paper_magnitude(self):
        """Paper §VI-B: 148 distinct realizable GEMM designs on 16x16; the
        reproduction's count is pinned exactly (see docs/architecture.md)."""
        gemm = workloads.gemm(16, 16, 16)
        count = sum(1 for _ in iter_designs(gemm, realizable_only=True, canonical=True))
        assert count == 207, f"{count} GEMM designs (paper: 148)"

    def test_depthwise_count_matches_paper_magnitude(self):
        """Paper §VI-B: 33 distinct realizable Depthwise designs on 16x16;
        the reproduction's one-D count is pinned exactly (see
        docs/architecture.md).

        Design distinctness is extent-independent (classification only reads
        access matrices), so small extents give the full-size count fast.
        """
        dw = workloads.depthwise_conv(k=8, y=8, x=8, p=3, q=3)
        count = sum(
            1
            for _ in iter_designs(
                dw, realizable_only=True, canonical=True, allowed_types=ONE_D_TYPES
            )
        )
        assert count == 112, f"{count} one-D depthwise designs (paper: 33)"

    def test_user_predicate_prunes_in_stream(self):
        gemm = workloads.gemm(16, 16, 16)
        stats = EnumerationStats()
        no_multicast = lambda spec: "M" not in spec.letters
        designs = list(
            iter_designs(
                gemm,
                selections=GEMM_SEL,
                realizable_only=True,
                canonical=True,
                predicates=[no_multicast],
                stats=stats,
            )
        )
        assert designs
        assert all("M" not in s.letters for s in designs)
        assert stats.predicate_filtered > 0


class TestEngineEvaluate:
    def test_generator_selections_not_exhausted(self, tmp_path):
        """selections may be a generator; cache-key construction must not
        consume it before enumeration (regression: empty space poisoned the
        persistent cache)."""
        path = tmp_path / "memo.json"
        gemm = workloads.gemm(64, 64, 64)
        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        result = engine.evaluate(gemm, selections=(sel for sel in GEMM_SEL))
        assert len(result) > 20
        warm = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path).evaluate(
            gemm, selections=GEMM_SEL
        )
        assert warm.stats.space_cache_hit
        assert len(warm) == len(result)

    def test_explicit_specs_bypass_enumeration(self, small_engine):
        from repro.core import naming

        gemm = workloads.gemm(64, 64, 64)
        spec = naming.spec_from_name(gemm, "MNK-SST")
        result = small_engine.evaluate(gemm, specs=[spec])
        assert len(result) == 1
        assert result.points[0].name == "MNK-SST"

    def test_pareto_and_best_helpers(self, small_engine):
        gemm = workloads.gemm(64, 64, 64)
        result = small_engine.evaluate(gemm, selections=GEMM_SEL)
        front = result.pareto()
        assert front and len(front) <= len(result)
        best = result.best(3)
        assert len(best) == 3
        assert best[0].normalized_perf == max(p.normalized_perf for p in result)


class TestFailureChannel:
    def _failing_engine(self):
        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8))

        class FailingPerf:
            config = engine.array

            def evaluate(self, spec):
                raise ValueError("injected model failure")

        engine.perf = FailingPerf()
        return engine

    def test_failures_are_structured_not_swallowed(self):
        engine = self._failing_engine()
        gemm = workloads.gemm(64, 64, 64)
        result = engine.evaluate(gemm, selections=GEMM_SEL)
        assert result.points == []
        assert result.stats.skipped == len(result.failures) > 20
        failure = result.failures[0].failure
        assert isinstance(failure, DesignFailure)
        assert failure.stage == "perf"
        assert "injected model failure" in failure.reason
        assert not result.failures[0].ok
        assert "skipped" in result.failure_report()


class TestMemoCache:
    def test_warm_run_hits_cache(self, tmp_path):
        path = tmp_path / "memo.json"
        gemm = workloads.gemm(64, 64, 64)

        cold_engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        cold = cold_engine.evaluate(gemm, selections=GEMM_SEL)
        assert len(cold) > 20 and not cold.failures
        assert cold.stats.cache_hits == 0
        assert cold.stats.evaluated == len(cold)
        assert path.exists()

        warm_engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        warm = warm_engine.evaluate(gemm, selections=GEMM_SEL)
        assert warm.stats.space_cache_hit
        assert warm.stats.cache_hits == len(warm)
        assert warm.stats.evaluated == 0
        assert [p.metrics() for p in warm] == [p.metrics() for p in cold]

    def test_cache_file_is_json(self, tmp_path):
        path = tmp_path / "memo.json"
        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        engine.evaluate(workloads.gemm(64, 64, 64), selections=GEMM_SEL)
        data = json.loads(path.read_text())
        assert set(data) >= {"points", "spaces"}
        assert data["points"]

    def test_stream_closed_early_flushes_points_not_space(self, tmp_path):
        """An abandoned stream persists the points it evaluated but never
        records its partial space as if it were the whole one."""
        path = tmp_path / "memo.json"
        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        stream = engine.stream(workloads.gemm(64, 64, 64), selections=GEMM_SEL)
        assert [next(stream).seq for _ in range(3)] == [1, 2, 3]
        stream.close()
        data = json.loads(path.read_text())
        assert len(data["points"]) == 3
        assert data["spaces"] == {}
        assert engine.cache.stats()["spaces"] == 0

    def test_different_config_misses(self, tmp_path):
        path = tmp_path / "memo.json"
        gemm = workloads.gemm(64, 64, 64)
        EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path).evaluate(
            gemm, selections=GEMM_SEL
        )
        other = EvaluationEngine(ArrayConfig(rows=4, cols=4), cache=path).evaluate(
            gemm, selections=GEMM_SEL
        )
        assert other.stats.cache_hits == 0

    def test_corrupt_cache_degrades_gracefully(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text("{not json")
        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        result = engine.evaluate(workloads.gemm(64, 64, 64), selections=GEMM_SEL)
        assert len(result) > 20

    def test_in_memory_cache_across_repeat_evaluates(self):
        cache = MemoCache()
        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=cache)
        gemm = workloads.gemm(64, 64, 64)
        first = engine.evaluate(gemm, selections=GEMM_SEL)
        second = engine.evaluate(gemm, selections=GEMM_SEL)
        assert second.stats.cache_hits == len(first)
        assert second.stats.evaluated == 0

    def test_same_name_different_accesses_do_not_alias(self, tmp_path):
        """Statement identity includes the access matrices: a different
        einsum with the same name, loops and extents must miss the cache."""
        from repro.ir.einsum import parse_statement

        path = tmp_path / "memo.json"
        gemm = workloads.gemm(64, 64, 64)  # C[m,n] += A[m,k] * B[n,k]
        imposter = parse_statement(
            "C[m,n] += A[k,m] * B[k,n]", name="gemm", m=64, n=64, k=64
        )
        EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path).evaluate(
            gemm, selections=GEMM_SEL
        )
        other = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path).evaluate(
            imposter, selections=GEMM_SEL
        )
        assert not other.stats.space_cache_hit
        assert other.stats.cache_hits == 0

    def test_evaluate_names_memoized(self, tmp_path):
        path = tmp_path / "memo.json"
        gemm = workloads.gemm(64, 64, 64)
        cold = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        rows_cold = cold.evaluate_names(gemm, ["MNK-SST", "MNK-MTM"])
        warm = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        rows_warm = warm.evaluate_names(gemm, ["MNK-SST", "MNK-MTM"])
        assert warm.cache.hits == 2
        assert [(n, r.cycles) for n, r in rows_cold] == [
            (n, r.cycles) for n, r in rows_warm
        ]


    @pytest.mark.parametrize("replayed", [False, True])
    @pytest.mark.parametrize("rows, cols", [(8, 8), (8, 4)])
    def test_design_keys_keep_their_bytes(self, rows, cols, replayed):
        """Keys built from the once-per-stream prefix are byte-identical to
        ``repr((statement key, selection, signature, config key))`` built
        per design from ``dataclasses.astuple``, so existing cache files
        keep hitting.  Square arrays key on the canonical signature,
        rectangular ones on the exact one, whether the specs come from
        enumeration or from a replay of the space cache."""
        import dataclasses

        from repro.core.enumerate import canonical_signature

        cache = MemoCache()
        engine = EvaluationEngine(ArrayConfig(rows=rows, cols=cols), cache=cache)
        statement = workloads.depthwise_conv(k=8, y=6, x=6, p=3, q=3)
        specs = list(engine.iter_space(statement, per_selection_limit=4))
        if replayed:
            stats = EvaluationStats()
            specs = list(engine.iter_space(statement, per_selection_limit=4, stats=stats))
            assert stats.space_cache_hit
        engine.evaluate(statement, specs=specs)

        statement_key = (
            statement.name,
            statement.space.names,
            statement.space.extents,
            tuple(
                (acc.tensor.name, acc.tensor.is_output, tuple(acc.matrix))
                for acc in statement.accesses
            ),
        )
        config_key = (
            dataclasses.astuple(engine.array),
            engine.cost.rows,
            engine.cost.cols,
            engine.cost.width,
            engine.cost.freq_mhz,
            engine.cost.sram_words,
            dataclasses.astuple(engine.cost.params),
        )
        expected = [
            repr(
                (
                    statement_key,
                    spec.selected,
                    canonical_signature(spec) if rows == cols else spec.signature(),
                    config_key,
                )
            )
            for spec in specs
        ]
        prefix = engine._key_prefix(statement)
        assert [engine._design_key(prefix, spec) for spec in specs] == expected
        assert sorted(cache.dump()["points"]) == sorted(set(expected))


def _counting_signatures(monkeypatch) -> list:
    """Count the engine's calls to ``canonical_signature``, one entry each."""
    import repro.explore.engine as engine_mod

    calls = []
    real = engine_mod.canonical_signature

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(engine_mod, "canonical_signature", counted)
    return calls


def _point_keys(engine, statement, points) -> list[str]:
    prefix = engine._key_prefix(statement)
    return [engine._design_key(prefix, p.spec) for p in points]


def _set_matrix_component(entry, accept, value):
    """Replace the first STT component of the entry's first design that
    ``accept`` admits by ``value(component)``."""
    matrix = entry[0][1]
    r, c = next((r, c) for r, row in enumerate(matrix) for c, v in enumerate(row) if accept(v))
    matrix[r][c] = value(matrix[r][c])


class TestSpaceCacheKeys:
    """The ``spaces`` section stores each design's canonical key beside its
    ``(selection, STT)`` pair, so a warm stream on a square array computes
    no signature; the entry format is versioned through the space key."""

    DW = dict(k=8, y=6, x=6, p=3, q=3)

    def _cold(self, path, **kwargs):
        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        statement = workloads.depthwise_conv(**self.DW)
        cold = engine.evaluate(statement, per_selection_limit=4, **kwargs)
        return statement, cold, _point_keys(engine, statement, cold.points)

    @staticmethod
    def _space_entry(path):
        spaces = json.loads(path.read_text())["spaces"]
        assert len(spaces) == 1
        return next(iter(spaces.items()))

    @staticmethod
    def _space_entry_value(path, key):
        return json.loads(path.read_text())["spaces"][key]

    def test_warm_stream_computes_no_signature(self, tmp_path, monkeypatch):
        path = tmp_path / "memo.json"
        statement, cold, cold_keys = self._cold(path)
        calls = _counting_signatures(monkeypatch)
        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        warm = engine.evaluate(statement, per_selection_limit=4)
        assert warm.stats.space_cache_hit
        assert warm.stats.cache_hits == len(cold) > 0
        assert _point_keys(engine, statement, warm.points) == cold_keys
        assert calls == []

    def test_replayed_keys_match_fresh_signatures(self, tmp_path):
        """Every Table II workload, flushed to JSON and reloaded: each
        replayed key has the bytes of a freshly computed signature."""
        from repro.core.dataflow import DataflowSpec
        from repro.core.enumerate import canonical_signature

        path = tmp_path / "memo.json"
        statements = [
            workloads.by_name(name, **{loop: 4 for loop in workloads.accepted_extents(name)})
            for name in workloads.TABLE_II
        ]
        cold = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        for statement in statements:
            list(cold.iter_space(statement, per_selection_limit=8))
        cold.cache.flush()
        warm = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        replayed = 0
        for statement in statements:
            stats = EvaluationStats()
            for spec in warm.iter_space(statement, per_selection_limit=8, stats=stats):
                fresh = DataflowSpec(statement, spec.selected, spec.stt)
                assert repr(spec.canonical_key) == repr(canonical_signature(fresh))
                replayed += 1
            assert stats.space_cache_hit
        assert replayed > 6 * 8

    def test_entry_under_the_untagged_key_is_not_read(self, tmp_path):
        """Builds before the key was stored wrote ``[selection, matrix]``
        pairs under an untagged space key; that entry is never read.  The
        space is enumerated again, and its points still hit."""
        import ast

        path = tmp_path / "memo.json"
        statement, cold, cold_keys = self._cold(path)
        key, entry = self._space_entry(path)
        tag, *rest = ast.literal_eval(key)
        assert tag == "v2"
        data = json.loads(path.read_text())
        data["spaces"] = {repr(tuple(rest)): [[sel, matrix] for sel, matrix, _ in entry]}
        path.write_text(json.dumps(data))

        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        warm = engine.evaluate(statement, per_selection_limit=4)
        assert not warm.stats.space_cache_hit
        assert warm.stats.enum.candidates > 0
        assert warm.stats.cache_hits == len(cold)
        assert warm.stats.evaluated == 0
        assert _point_keys(engine, statement, warm.points) == cold_keys
        assert self._space_entry_value(path, key) == entry

    @pytest.mark.parametrize(
        "corrupt",
        [
            pytest.param(lambda e: e[0][2].pop(), id="wrong-tensor-count"),
            pytest.param(lambda e: e[0].__setitem__(2, "key"), id="string-key"),
            pytest.param(
                lambda e: next(t for t in e[0][2] if t[2])[2][0].__setitem__(0, 1.0),
                id="float-component",
            ),
            pytest.param(
                lambda e: next(t for t in e[0][2] if t[2])[2][0].__setitem__(0, True),
                id="bool-component",
            ),
            pytest.param(lambda e: e[-1].pop(), id="two-element-entry"),
            pytest.param(lambda e: e[0].__setitem__(1, [[1, 0], [0, 1]]), id="bad-matrix"),
            pytest.param(lambda e: e.append("design"), id="string-design"),
            # a float, bool or numeric string that int() would truncate to
            # the stored component: the key then names another design
            pytest.param(
                lambda e: _set_matrix_component(e, lambda v: v >= 0, lambda v: v + 0.7),
                id="float-matrix-component",
            ),
            pytest.param(
                lambda e: _set_matrix_component(e, lambda v: v in (0, 1), bool),
                id="bool-matrix-component",
            ),
            pytest.param(
                lambda e: _set_matrix_component(e, lambda v: True, str),
                id="string-matrix-component",
            ),
            pytest.param(lambda e: e[0][1].__setitem__(2, list(e[0][1][0])), id="singular-matrix"),
            pytest.param(lambda e: e[0][0].__setitem__(0, "zz"), id="unknown-loop"),
            pytest.param(lambda e: e[0][0].__setitem__(1, e[0][0][0]), id="repeated-loop"),
        ],
    )
    def test_malformed_entry_is_a_miss(self, tmp_path, corrupt):
        path = tmp_path / "memo.json"
        statement, cold, cold_keys = self._cold(path)
        key, entry = self._space_entry(path)
        data = json.loads(path.read_text())
        corrupt(data["spaces"][key])
        path.write_text(json.dumps(data))

        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        warm = engine.evaluate(statement, per_selection_limit=4)
        assert not warm.stats.space_cache_hit
        assert warm.stats.evaluated == 0
        assert [p.metrics() for p in warm.points] == [p.metrics() for p in cold.points]
        assert _point_keys(engine, statement, warm.points) == cold_keys
        assert self._space_entry_value(path, key) == entry  # overwritten

    def test_non_canonical_space_carries_no_key(self, tmp_path, monkeypatch):
        path = tmp_path / "memo.json"
        statement, cold, cold_keys = self._cold(path, canonical=False)
        _, entry = self._space_entry(path)
        assert [design[2] for design in entry] == [None] * len(entry)
        calls = _counting_signatures(monkeypatch)
        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=path)
        warm = engine.evaluate(statement, per_selection_limit=4, canonical=False)
        assert warm.stats.space_cache_hit
        assert len(calls) == warm.stats.enumerated == cold.stats.enumerated > 0
        assert _point_keys(engine, statement, warm.points) == cold_keys


class TestSweep:
    def test_multi_workload_sweep(self, small_engine):
        results = small_engine.sweep(
            [workloads.gemm(64, 64, 64), "batched_gemv"],
            selections=None,
            one_d_only=True,
        )
        assert [r.workload for r in results] == ["gemm", "batched_gemv"]
        assert all(len(r) > 0 for r in results)

    def test_multi_config_sweep_rejects_custom_models(self):
        """Custom models are config-bound; sweeping other configs with them
        silently swapped in defaults before — now it refuses."""
        from repro.perf.model import PerfModel

        engine = EvaluationEngine(perf=PerfModel(ArrayConfig(rows=8, cols=8)))
        with pytest.raises(ValueError, match="custom perf/cost"):
            engine.sweep(
                [workloads.gemm(64, 64, 64)],
                configs=[ArrayConfig(rows=8, cols=8), ArrayConfig(rows=4, cols=4)],
                selections=GEMM_SEL,
            )

    def test_multi_config_sweep_shares_cache(self):
        cache = MemoCache()
        engine = EvaluationEngine(ArrayConfig(rows=8, cols=8), cache=cache)
        configs = [ArrayConfig(rows=8, cols=8), ArrayConfig(rows=4, cols=4)]
        results = engine.sweep(
            [workloads.gemm(64, 64, 64)], configs=configs, selections=GEMM_SEL
        )
        assert len(results) == 2
        assert results[0].array.rows == 8 and results[1].array.rows == 4
        # both configs' points landed in the one shared cache
        rerun = engine.sweep(
            [workloads.gemm(64, 64, 64)], configs=configs, selections=GEMM_SEL
        )
        assert all(r.stats.evaluated == 0 for r in rerun)
