"""Stream identity of the block-batched enumeration.

:func:`iter_designs` classifies candidates in numpy blocks.  These tests pin
it to a plain reference loop kept here — one :class:`DataflowSpec` per
candidate, :func:`is_realizable`, :func:`canonical_signature` and a seen-set
— on the yielded ``(selection, STT)`` stream, on every
:class:`EnumerationStats` field after each ``next()``, and on the canonical
key each survivor carries.  The full Depthwise, Conv2D, MTTKRP and TTMc
reference runs take 14–33 s each, so only their limited runs are here; the
benchmark's output digests cover the full sweeps.  The block dedupe computes
canonical keys only for the first candidate of each oriented-code row, so
the key function itself is also pinned, on every row, to the per-symmetry
loop kept here.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core import linalg, naming
from repro.core.dataflow import DataflowSpec, DataflowType
from repro.core.enumerate import (
    _ARRAY_SYMMETRIES,
    EnumerationStats,
    _SelectionBlocks,
    canonical_signature,
    is_realizable,
    iter_designs,
    loop_selections,
)
from repro.core.stt import STT
from repro.explore.engine import ONE_D_TYPES
from repro.ir import workloads
from repro.ir.einsum import parse_statement


def _reference_specs(statement, selected, *, bound=1, limit, allowed_types, realizable_only,
                     canonical, predicates, stats):
    seen = set()
    count = 0
    for stt in naming.stt_candidates(bound):
        stats.candidates += 1
        try:
            spec = DataflowSpec(statement, selected, stt)
        except ValueError:
            stats.invalid += 1
            continue
        if allowed_types is not None and any(fl.kind not in allowed_types for fl in spec.flows):
            stats.type_filtered += 1
            continue
        if realizable_only and not is_realizable(spec):
            stats.unrealizable += 1
            continue
        if predicates and not all(pred(spec) for pred in predicates):
            stats.predicate_filtered += 1
            continue
        sig = canonical_signature(spec) if canonical else spec.signature()
        if sig in seen:
            stats.duplicates += 1
            continue
        seen.add(sig)
        stats.yielded += 1
        yield spec
        count += 1
        if limit is not None and count >= limit:
            return


def _reference_designs(statement, *, selections=None, bound=1, per_selection_limit=None,
                       allowed_types=None, realizable_only=False, canonical=False,
                       predicates=(), stats):
    seen = set()
    chosen = selections if selections is not None else loop_selections(statement)
    if canonical and selections is None:
        chosen = sorted({tuple(sorted(sel)) for sel in chosen})
    for sel in chosen:
        for spec in _reference_specs(
            statement, tuple(sel), bound=bound, limit=per_selection_limit,
            allowed_types=allowed_types,
            realizable_only=realizable_only, canonical=canonical, predicates=predicates,
            stats=stats,
        ):
            sig = (tuple(sorted(sel)), canonical_signature(spec)) if canonical else spec.signature()
            if sig in seen:
                stats.yielded -= 1
                stats.duplicates += 1
                continue
            seen.add(sig)
            yield spec


def _trace(designs, statement, **options):
    """``(selection, matrix, flows, stats after this next())`` per yielded
    design.  The reference loop's specs solve their flows lazily, so this
    also pins the flows that enumeration hands over to the lazy solve."""
    stats = EnumerationStats()
    rows = [
        (spec.selected, spec.stt.matrix, spec.flows, dataclasses.astuple(stats))
        for spec in designs(statement, stats=stats, **options)
    ]
    return rows, dataclasses.astuple(stats)


def _assert_same_stream(statement, **options):
    got = _trace(iter_designs, statement, **options)
    assert got == _trace(_reference_designs, statement, **options)
    return got[0]


TABLE_II = ("gemm", "batched_gemv", "conv2d", "depthwise_conv", "mttkrp", "ttmc")
REALIZABLE_CANONICAL = {"realizable_only": True, "canonical": True}


@pytest.mark.parametrize("name", TABLE_II)
def test_table_ii_at_limit_8(name):
    _assert_same_stream(workloads.by_name(name), per_selection_limit=8, **REALIZABLE_CANONICAL)


@pytest.mark.parametrize("name", ["gemm", "batched_gemv"])
def test_full_sweep(name):
    rows = _assert_same_stream(workloads.by_name(name), **REALIZABLE_CANONICAL)
    assert rows


def test_one_d_only():
    # (y, x, q) gives the weights 2-D reuse, so every candidate is type-filtered
    rows = _assert_same_stream(workloads.by_name("depthwise_conv"), allowed_types=ONE_D_TYPES,
                               selections=[("y", "x", "q"), ("k", "y", "q")],
                               **REALIZABLE_CANONICAL)
    assert rows and rows[0][3][2] == len(naming._candidate_matrices(1))


def test_type_filter_counts_before_realizability():
    no_multicast = frozenset(
        {DataflowType.UNICAST, DataflowType.STATIONARY, DataflowType.SYSTOLIC}
    )
    rows = _assert_same_stream(workloads.by_name("depthwise_conv"), allowed_types=no_multicast,
                               realizable_only=True, selections=[("y", "p", "k"), ("k", "y", "q")])
    _sel, _matrix, _flows, (_c, _i, type_filtered, unrealizable, *_rest) = rows[0]
    assert type_filtered and unrealizable


@pytest.mark.parametrize("name", ["conv2d", "ttmc"])
def test_exact_signature_with_limit(name):
    _assert_same_stream(workloads.by_name(name), per_selection_limit=5, realizable_only=True,
                        canonical=False)


@pytest.mark.parametrize(
    "formula, extents, options",
    [
        # every tensor indexed by all three loops: no reuse directions at all
        ("C[i,j,k] += A[i,j,k] * B[i,j,k]", {"i": 4, "j": 4, "k": 4}, REALIZABLE_CANONICAL),
        # strided accesses: reuse vectors with components past the realizable range
        ("O[k,y,x] += I[k,2*y+p,2*x+q] * W[k,p,q]", {"k": 4, "y": 4, "x": 4, "p": 3, "q": 3},
         {"per_selection_limit": 4, "canonical": True}),
        # the output indexed by unselected loops only: full 3-D reuse
        ("O[k,y,x] += I[c,y+p,x+q] * W[k,c,p,q]", {"k": 4, "c": 4, "y": 4, "x": 4, "p": 3, "q": 3},
         {"selections": [("c", "p", "q")], "per_selection_limit": 12, "canonical": True}),
    ],
)
def test_unusual_reuse_shapes(formula, extents, options):
    _assert_same_stream(parse_statement(formula, **extents), **options)


@pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "exact"])
@pytest.mark.parametrize("realizable_only", [True, False], ids=["realizable", "unfiltered"])
@pytest.mark.parametrize("name, selection", [
    pytest.param("gemm", ("k", "m", "n"), id="gemm-kmn"),
    pytest.param("depthwise_conv", ("p", "q", "x"), id="depthwise-pqx"),
])
def test_bound_2_at_limit_60(name, selection, realizable_only, canonical):
    # bound 2 doubles the radix of the dedupe codes
    _assert_same_stream(workloads.by_name(name), selections=[selection], bound=2,
                        per_selection_limit=60, realizable_only=realizable_only,
                        canonical=canonical)


def test_two_orderings_of_one_loop_set_dedupe_across_selections():
    gemm = workloads.gemm(8, 8, 8)
    rows = _assert_same_stream(gemm, selections=[("m", "n", "k"), ("n", "m", "k")],
                               per_selection_limit=40, **REALIZABLE_CANONICAL)
    assert len(rows) < 80  # some of the second ordering's designs were dropped


def test_repeated_selection_with_exact_signature():
    gemm = workloads.gemm(8, 8, 8)
    rows = _assert_same_stream(gemm, selections=[("m", "n", "k"), ("m", "n", "k")],
                               per_selection_limit=10)
    assert len(rows) == 10


def test_invalid_selection_counts_every_candidate_invalid():
    gemm = workloads.gemm(8, 8, 8)
    rows = _assert_same_stream(gemm, selections=[("m", "n", "x"), ("m", "n"), ("k", "m", "n")],
                               per_selection_limit=4, **REALIZABLE_CANONICAL)
    table = len(naming._candidate_matrices(1))
    candidates, invalid = rows[0][3][:2]  # at the first yield
    assert invalid == 2 * table < candidates


def test_user_predicate_sees_the_same_candidates_in_order():
    calls = {"batched": [], "reference": []}

    def recorder(log):
        def predicate(spec):
            log.append(spec.stt.matrix)
            return spec.stt.matrix[2][0] >= 0
        return predicate

    dw = workloads.by_name("depthwise_conv")
    options = dict(per_selection_limit=6, **REALIZABLE_CANONICAL)
    got = _trace(iter_designs, dw, predicates=[recorder(calls["batched"])], **options)
    want = _trace(_reference_designs, dw, predicates=[recorder(calls["reference"])], **options)
    assert got == want
    assert calls["batched"] == calls["reference"]
    assert got[1][4] > 0  # some candidates were predicate-filtered


def test_stats_on_a_stopped_prefix():
    dw = workloads.by_name("depthwise_conv")
    batched = EnumerationStats()
    reference = EnumerationStats()
    stream = iter_designs(dw, stats=batched, **REALIZABLE_CANONICAL)
    expected = _reference_designs(dw, stats=reference, **REALIZABLE_CANONICAL)
    for spec, want in itertools.islice(zip(stream, expected), 40):
        assert (spec.selected, spec.stt.matrix) == (want.selected, want.stt.matrix)
        assert batched == reference
    stream.close()
    assert batched == reference


@pytest.mark.parametrize("name", TABLE_II)
def test_carried_key_is_the_canonical_signature(name):
    statement = workloads.by_name(name)
    for spec in iter_designs(statement, per_selection_limit=8, **REALIZABLE_CANONICAL):
        fresh = DataflowSpec(statement, spec.selected, STT(spec.stt.matrix))
        assert fresh.canonical_key is None
        assert fresh._flows is None and spec._flows is not None  # handed over, not solved
        assert spec.canonical_key == canonical_signature(fresh)
        assert repr(spec.canonical_key) == repr(canonical_signature(fresh))
        assert all(type(v) is int for row in spec.stt.matrix for v in row)
        assert repr(spec.flows) == repr(fresh.flows)
        assert all(
            type(v) is int
            for fl in spec.flows
            for vec in fl.reuse.basis + fl.reuse.iter_basis
            for v in vec
        )


def _lex_min(a, b):
    """Row-wise lexicographic minimum of two equal-shape 2-D int arrays."""
    if not a.shape[1]:
        return a
    col = (a != b).argmax(axis=1)
    rows = np.arange(len(a))
    return np.where((b[rows, col] < a[rows, col])[:, None], b, a)


def _reference_keys(blocks, vecs):
    """Canonical keys by one code array per array symmetry, each tensor's
    codes sorted, keeping the running lexicographic minimum."""
    vecs = vecs.astype(np.int64)
    p1, p2, dt = vecs[:, 0], vecs[:, 1], vecs[:, 2]
    best = None
    for (a, b), (c, d) in _ARRAY_SYMMETRIES:
        codes = blocks._codes(a * p1 + b * p2, c * p1 + d * p2, dt)
        for s, dim in blocks.groups:
            if dim > 1:
                codes[:, s : s + dim].sort(axis=1)
        best = codes if best is None else _lex_min(best, codes)
    return best


def _assert_keys(blocks, vecs):
    keys = blocks.keys(vecs, canonical=True)
    assert keys.shape == (len(vecs), blocks.directions.shape[1])
    assert np.array_equal(keys, _reference_keys(blocks, vecs))
    # the block dedupe's premise: equal oriented codes give equal canonical keys
    _, first, inverse = np.unique(blocks.keys(vecs, canonical=False), axis=0,
                                  return_index=True, return_inverse=True)
    assert np.array_equal(keys, keys[first[inverse.reshape(-1)]])


@pytest.mark.parametrize("name", ["gemm", "depthwise_conv"])
def test_canonical_key_on_every_realizable_bound_1_candidate(name):
    statement = workloads.by_name(name)
    table = naming._candidate_matrices(1)
    for selection in loop_selections(statement):
        blocks = _SelectionBlocks(statement, selection, 1)
        vecs = blocks.reuse(table)
        _assert_keys(blocks, vecs[(np.abs(vecs) <= 1).all(axis=(1, 2))])


@pytest.mark.parametrize("name", ["gemm", "depthwise_conv"])
def test_canonical_key_on_a_bound_2_sample(name):
    statement = workloads.by_name(name)
    table = naming._candidate_matrices(2)
    rng = np.random.default_rng(2)
    for selection in loop_selections(statement):
        blocks = _SelectionBlocks(statement, selection, 2)
        _assert_keys(blocks, blocks.reuse(table[rng.choice(len(table), 2000, replace=False)]))


def test_exact_signature_runs_carry_no_key():
    specs = list(iter_designs(workloads.gemm(8, 8, 8), per_selection_limit=3))
    assert specs and all(spec.canonical_key is None for spec in specs)


class TestCandidateTable:
    @staticmethod
    def _reference(bound):
        def complexity(matrix):
            flat = [v for row in matrix for v in row]
            return (
                sum(abs(v) for row in matrix[:2] for v in row),
                sum(abs(v) for v in flat),
                sum(1 for v in flat if v < 0),
                flat,
            )

        out = []
        for flat in itertools.product(range(-bound, bound + 1), repeat=9):
            matrix = (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))
            if linalg.determinant(matrix) != 0:
                out.append(matrix)
        out.sort(key=complexity)
        return out

    def test_bound_1_matches_the_product_and_determinant_construction(self):
        reference = self._reference(1)
        table = naming._candidate_matrices(1)
        assert table.shape == (11808, 3, 3)
        assert table.tolist() == [[list(row) for row in m] for m in reference]
        tuples = naming._candidate_tuples(1)
        assert tuples == tuple(reference)
        assert all(type(v) is int for m in tuples for row in m for v in row)

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            naming._candidate_matrices(1)[0, 0, 0] = 5

    @pytest.mark.parametrize("bound", [0, 3, -1, True, 1.0, "2", None])
    def test_bound_outside_1_to_2_is_refused(self, bound):
        with pytest.raises(ValueError, match="bound"):
            naming._candidate_matrices(bound)
        with pytest.raises(ValueError, match="bound"):
            next(naming.stt_candidates(bound))
        with pytest.raises(ValueError, match="bound"):
            next(iter_designs(workloads.gemm(4, 4, 4), bound=bound))
