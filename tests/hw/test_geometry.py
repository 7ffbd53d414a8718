"""Unit + property tests for PE array geometry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.geometry import Grid, cross

DIRS = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda d: d != (0, 0))


class TestGrid:
    def test_contains(self):
        g = Grid(2, 3)
        assert (0, 0) in g
        assert (1, 2) in g
        assert (2, 0) not in g
        assert (0, 3) not in g
        assert (-1, 0) not in g

    def test_points_count(self):
        g = Grid(3, 4)
        assert len(list(g.points())) == 12
        assert g.size == 12

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Grid(0, 4)


class TestEntryExit:
    def test_entry_down(self):
        g = Grid(4, 4)
        assert g.entry_point((2, 1), (1, 0)) == ((0, 1), 2)

    def test_entry_right(self):
        g = Grid(4, 4)
        assert g.entry_point((2, 3), (0, 1)) == ((2, 0), 3)

    def test_entry_diagonal(self):
        g = Grid(4, 4)
        assert g.entry_point((2, 3), (1, 1)) == ((0, 1), 2)

    def test_entry_negative_direction(self):
        g = Grid(4, 4)
        assert g.entry_point((1, 1), (-1, 0)) == ((3, 1), 2)

    def test_exit_is_entry_reversed(self):
        g = Grid(4, 4)
        exit_pe, steps = g.exit_point((1, 1), (1, 0))
        assert exit_pe == (3, 1)
        assert steps == 2

    def test_is_entry_is_exit(self):
        g = Grid(3, 3)
        assert g.is_entry((0, 1), (1, 0))
        assert not g.is_entry((1, 1), (1, 0))
        assert g.is_exit((2, 1), (1, 0))

    def test_zero_direction_rejected(self):
        g = Grid(3, 3)
        with pytest.raises(ValueError):
            g.entry_point((1, 1), (0, 0))
        with pytest.raises(ValueError):
            g.lines((0, 0))

    def test_outside_point_rejected(self):
        g = Grid(3, 3)
        with pytest.raises(ValueError):
            g.entry_point((5, 5), (1, 0))

    @given(st.integers(1, 5), st.integers(1, 5), DIRS)
    @settings(max_examples=200)
    def test_entry_walk_consistency(self, rows, cols, d):
        g = Grid(rows, cols)
        for p in g.points():
            entry, steps = g.entry_point(p, d)
            assert entry in g
            assert g.is_entry(entry, d)
            # walking forward `steps` from entry reaches p
            cur = entry
            for _ in range(steps):
                cur = (cur[0] + d[0], cur[1] + d[1])
            assert cur == p


class TestLines:
    def test_rows_as_lines(self):
        g = Grid(3, 4)
        lines = g.lines((0, 1))  # moving along columns -> lines are rows
        assert len(lines) == 3
        for line in lines:
            rows = {p[0] for p in line.points}
            assert len(rows) == 1
            assert len(line.points) == 4

    def test_cols_as_lines(self):
        g = Grid(3, 4)
        lines = g.lines((1, 0))
        assert len(lines) == 4

    def test_diagonal_lines(self):
        g = Grid(3, 3)
        lines = g.lines((1, 1))
        assert len(lines) == 5  # anti-diagonals of a 3x3

    def test_line_points_ordered_along_direction(self):
        g = Grid(4, 4)
        for line in g.lines((1, 1)):
            for p, q in zip(line.points, line.points[1:]):
                assert (q[0] - p[0], q[1] - p[1]) == (1, 1)

    def test_line_of(self):
        g = Grid(4, 4)
        d = (0, 1)
        idx = g.line_of((2, 3), d)
        lines = g.lines(d)
        assert (2, 3) in lines[idx].points

    @given(st.integers(1, 5), st.integers(1, 5), DIRS)
    @settings(max_examples=200)
    def test_lines_partition_grid(self, rows, cols, d):
        g = Grid(rows, cols)
        seen = set()
        for line in g.lines(d):
            for p in line.points:
                assert p not in seen
                seen.add(p)
                assert cross(p, d) == line.raw_id
        assert len(seen) == g.size


class TestLineChains:
    def test_row_lines_shifted_by_column_step(self):
        g = Grid(4, 4)
        # multicast along rows (0,1); systolic hop down (1,0)
        shift = g.line_shift((0, 1), (1, 0))
        assert shift == 1
        chains = g.line_chain((0, 1), (1, 0))
        assert len(chains) == 1
        assert len(chains[0]) == 4

    def test_parallel_directions_rejected(self):
        g = Grid(4, 4)
        with pytest.raises(ValueError):
            g.line_chain((0, 1), (0, 1))

    def test_diagonal_chain(self):
        g = Grid(3, 3)
        chains = g.line_chain((1, 1), (1, 0))
        total = sum(len(c) for c in chains)
        assert total == len(g.lines((1, 1)))

    @given(st.integers(2, 4), st.integers(2, 4))
    @settings(max_examples=50)
    def test_chains_cover_all_lines(self, rows, cols):
        g = Grid(rows, cols)
        mc, sy = (0, 1), (1, 0)
        chains = g.line_chain(mc, sy)
        covered = [raw for chain in chains for raw in chain]
        assert sorted(covered) == sorted(line.raw_id for line in g.lines(mc))


#: Every grid up to 8x8 and every direction in [-3, 3]^2 except 0.
SMALL_GRIDS = [(rows, cols) for rows in range(1, 9) for cols in range(1, 9)]
SMALL_DIRS = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
#: Systolic hops for the chain cases (the chain walker is the slow one).
HOPS = [(a, b) for a in range(-1, 2) for b in range(-1, 2) if (a, b) != (0, 0)]


class TestCounts:
    """The closed forms and count memos against the walkers they replace."""

    def test_boundary_count_and_max_steps_match_walkers(self):
        for rows, cols in SMALL_GRIDS:
            g = Grid(rows, cols)
            points = list(g.points())
            for d in SMALL_DIRS:
                entries = sum(g.is_entry(p, d) for p in points)
                exits = sum(g.is_exit(p, d) for p in points)
                assert g.boundary_count(d) == entries == exits, (rows, cols, d)
                deepest_entry = max(g.entry_point(p, d)[1] for p in points)
                deepest_exit = max(g.exit_point(p, d)[1] for p in points)
                assert g.max_steps(d) == deepest_entry == deepest_exit, (rows, cols, d)

    def test_line_count_and_chain_stats_match_walkers(self):
        for rows, cols in SMALL_GRIDS:
            g = Grid(rows, cols)
            for mc in SMALL_DIRS:
                assert g.line_count(mc) == len(g.lines(mc)), (rows, cols, mc)
                for sy in HOPS:
                    if g.line_shift(mc, sy) == 0:
                        continue
                    chains = g.line_chain(mc, sy)
                    expected = (len(chains), max(len(chain) for chain in chains))
                    assert g.chain_stats(mc, sy) == expected, (rows, cols, mc, sy)

    def test_transposed_grids_do_not_alias(self):
        wide, tall = Grid(4, 5), Grid(5, 4)
        # rows and columns differ, so every answer differs; asking each grid
        # again after the other shows the memo keys keep them apart
        for _ in range(2):
            assert (wide.line_count((1, 0)), tall.line_count((1, 0))) == (5, 4)
            assert (wide.chain_stats((1, 0), (0, 1)), tall.chain_stats((1, 0), (0, 1))) == (
                (1, 5),
                (1, 4),
            )
            assert (wide.max_steps((1, 0)), tall.max_steps((1, 0))) == (3, 4)
            assert (wide.boundary_count((1, 2)), tall.boundary_count((1, 2))) == (11, 12)

    def test_zero_direction_rejected(self):
        g = Grid(3, 3)
        with pytest.raises(ValueError):
            g.max_steps((0, 0))
        with pytest.raises(ValueError):
            g.line_count((0, 0))
        with pytest.raises(ValueError):
            g.chain_stats((0, 1), (0, 2))
