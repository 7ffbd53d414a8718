"""Tests for design-space exploration and Pareto extraction."""

import pytest

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
