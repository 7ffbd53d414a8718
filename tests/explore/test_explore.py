"""Tests for design-space exploration and Pareto extraction."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import LocalSession
from repro.core import naming
from repro.explore.pareto import pareto_front
from repro.ir import workloads
from repro.perf.model import ArrayConfig


def explore(statement, *, rows, cols, **evaluate_kwargs):
    """The successfully evaluated points of one session explore."""
    session = LocalSession(ArrayConfig(rows=rows, cols=cols))
    return session.explore(statement, **evaluate_kwargs).points


@pytest.fixture(scope="module")
def points():
    gemm = workloads.gemm(64, 64, 64)
    # restrict to one selection to keep the sweep quick
    return explore(gemm, rows=8, cols=8, selections=[("m", "n", "k")])


class TestExplore:
    def test_nonempty(self, points):
        assert len(points) > 20

    def test_fields_populated(self, points):
        for pt in points:
            assert 0 < pt.normalized_perf <= 1
            assert pt.area_mm2 > 0
            assert pt.power_mw > 0
            assert pt.cycles > 0

    def test_explicit_specs(self):
        gemm = workloads.gemm(64, 64, 64)
        specs = [naming.spec_from_name(gemm, "MNK-SST")]
        pts = explore(gemm, rows=8, cols=8, specs=specs)
        assert len(pts) == 1
        assert pts[0].name == "MNK-SST"

    def test_one_d_only(self):
        bg = workloads.batched_gemv(16, 16, 16)
        pts = explore(bg, rows=4, cols=4, one_d_only=True)
        assert pts
        assert all(set(pt.letters) <= set("USTM") for pt in pts)


class TestPareto:
    def test_simple_front(self):
        pts = [(1, 5), (2, 2), (5, 1), (3, 3), (6, 6)]
        front = pareto_front(pts, [lambda p: p[0], lambda p: p[1]])
        assert set(front) == {(1, 5), (2, 2), (5, 1)}

    def test_maximize_direction(self):
        pts = [(1, 5), (2, 2), (5, 1), (6, 6)]
        front = pareto_front(
            pts, [lambda p: p[0], lambda p: p[1]], minimize=[False, False]
        )
        assert front == [(6, 6)]

    def test_duplicates_survive(self):
        pts = [(1, 1), (1, 1), (2, 2)]
        front = pareto_front(pts, [lambda p: p[0], lambda p: p[1]])
        assert front == [(1, 1), (1, 1)]

    def test_validation(self):
        with pytest.raises(ValueError):
            pareto_front([(1,)], [])
        with pytest.raises(ValueError):
            pareto_front([(1,)], [lambda p: p[0]], minimize=[True, False])

    def test_design_point_front(self, points):
        front = pareto_front(
            points,
            [lambda p: -p.normalized_perf, lambda p: p.power_mw],
        )
        assert front
        assert len(front) <= len(points)
        # the fastest design is always on the perf/power frontier
        fastest = max(points, key=lambda p: p.normalized_perf)
        best_power_at_fastest = min(
            p.power_mw for p in points if p.normalized_perf == fastest.normalized_perf
        )
        assert any(
            p.normalized_perf == fastest.normalized_perf
            and p.power_mw == best_power_at_fastest
            for p in front
        )


def _reference_front(points, objectives, minimize=None):
    """The O(n^2) definition: keep each point no other point dominates."""
    mins = list(minimize) if minimize is not None else [True] * len(objectives)
    keyed = [
        (tuple(obj(pt) if mn else -obj(pt) for obj, mn in zip(objectives, mins)), pt)
        for pt in points
    ]
    front = []
    for k, pt in keyed:
        dominated = any(
            k2 is not k
            and all(a <= b for a, b in zip(k2, k))
            and any(a < b for a, b in zip(k2, k))
            for k2, _ in keyed
        )
        if not dominated:
            front.append(pt)
    return front


class _Point:
    """A distinct object per drawn point, so the front is compared by identity."""

    def __init__(self, values):
        self.values = values


#: Ties, signed zeros, infinities and NaN: the values that break a naive sort.
_VALUES = st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, math.inf, -math.inf, math.nan])


@st.composite
def _fronts(draw):
    n_obj = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[_VALUES] * n_obj), max_size=60))
    minimize = draw(st.none() | st.lists(st.booleans(), min_size=n_obj, max_size=n_obj))
    return [_Point(row) for row in rows], n_obj, minimize


class TestParetoProperty:
    @given(_fronts())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_quadratic_definition(self, case):
        """The sort-based front returns the same objects, in input order,
        as the O(n^2) definition."""
        points, n_obj, minimize = case
        objectives = [lambda p, i=i: p.values[i] for i in range(n_obj)]
        got = pareto_front(points, objectives, minimize)
        want = _reference_front(points, objectives, minimize)
        assert [id(p) for p in got] == [id(p) for p in want]
