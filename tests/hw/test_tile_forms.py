"""The tile search and the active-PE count are exact integer forms.

:func:`repro.hw.plan._grow_tile` walks a per-row budget instead of
re-summing the footprint for every candidate step, and
:func:`repro.perf.model._active_pes` counts the tile's PE image as a bitset
instead of walking every tile point into a set.  The walkers they replaced
are kept here as references and compared, uncached, on every distinct pair
of space rows with entries in ``-1..1`` (those of the bound-1 STT table)
and a seeded sample of those with entries in ``-2..2`` (bound 2).
"""

import itertools
import random

import pytest

from repro.hw.plan import _grow_tile
from repro.perf.model import _active_pes

EXTENTS = (1, 2, 3, 7, 16, 17, 28, 48, 64, 128)
ARRAYS = ((16, 16), (8, 4), (4, 8), (5, 7), (1, 16), (1, 1), (64, 64))


def _space_row_pairs(bound):
    """Every pair of linearly independent space rows with entries in ``-bound..bound``."""
    pairs = []
    for flat in itertools.product(range(-bound, bound + 1), repeat=6):
        r1, r2 = flat[:3], flat[3:]
        if any(r1[i] * r2[j] != r1[j] * r2[i] for i, j in ((0, 1), (0, 2), (1, 2))):
            pairs.append((r1, r2))
    return pairs


PAIRS = _space_row_pairs(1) + random.Random(2).sample(_space_row_pairs(2), 150)


def _footprint(space_rows, tile):
    """Extent of the tile's image under the two space rows (box image)."""
    spans = []
    for row in space_rows:
        lo = sum(min(0, coeff) * (t - 1) for coeff, t in zip(row, tile))
        hi = sum(max(0, coeff) * (t - 1) for coeff, t in zip(row, tile))
        spans.append(hi - lo + 1)
    return (spans[0], spans[1])


def _reference_tile(space_rows, extents, rows, cols):
    """Greedy round-robin growth, re-summing the footprint for each step."""

    def fits(t):
        fp = _footprint(space_rows, t)
        return fp[0] <= rows and fp[1] <= cols

    tile = [1] * len(extents)
    if not fits(tile):
        raise ValueError(f"even a 1x1x1 tile does not fit a {rows}x{cols} array")
    grew = True
    while grew:
        grew = False
        for i in range(len(tile)):
            if tile[i] < extents[i]:
                cand = list(tile)
                cand[i] += 1
                if fits(cand):
                    tile = cand
                    grew = True
    return tuple(tile)


def _reference_active_pes(space_rows, tile_extents, footprint):
    """Every tile point's PE coordinate, collected into a set."""
    relevant = [i for i in range(len(tile_extents)) if any(row[i] for row in space_rows)]
    count = 1
    for i in relevant:
        count *= tile_extents[i]
    if count > 1_000_000:
        return footprint[0] * footprint[1]
    ranges = [range(t) if i in relevant else range(1) for i, t in enumerate(tile_extents)]
    seen = set()
    for x in itertools.product(*ranges):
        p1 = sum(c * v for c, v in zip(space_rows[0], x))
        p2 = sum(c * v for c, v in zip(space_rows[1], x))
        seen.add((p1, p2))
    return len(seen)


def test_the_pairs_cover_the_bound_1_table():
    assert len(_space_row_pairs(1)) == 624
    assert len(PAIRS) == 774


@pytest.mark.parametrize("rows, cols", ARRAYS, ids=[f"{r}x{c}" for r, c in ARRAYS])
def test_tile_and_active_pes_match_the_walkers(rows, cols):
    rng = random.Random(rows * 1000 + cols)
    # the point walk over 64x64 tiles costs ~8 ms a case: a seeded sample there
    pairs = PAIRS if rows * cols <= 256 else rng.sample(PAIRS, 60)
    for space_rows in pairs:
        extents = tuple(rng.choice(EXTENTS) for _ in range(3))
        tile = _reference_tile(space_rows, extents, rows, cols)
        got = _grow_tile.__wrapped__(space_rows, extents, rows, cols)
        assert got == tile, (space_rows, extents)
        footprint = _footprint(space_rows, tile)
        assert footprint[0] <= rows and footprint[1] <= cols
        want = _reference_active_pes(space_rows, tile, footprint)
        assert _active_pes.__wrapped__(space_rows, tile, footprint) == want, (space_rows, tile)


@pytest.mark.parametrize("rows, cols", [(0, 4), (4, 0), (-1, -1)])
def test_no_tile_fits_an_empty_array(rows, cols):
    space_rows = ((1, 0, 0), (0, 1, 0))
    with pytest.raises(ValueError, match="even a 1x1x1 tile"):
        _reference_tile(space_rows, (4, 4, 4), rows, cols)
    with pytest.raises(ValueError, match="even a 1x1x1 tile"):
        _grow_tile.__wrapped__(space_rows, (4, 4, 4), rows, cols)


def test_huge_tile_counts_its_footprint():
    # 128**3 points on three relevant loops is past the walk's 1_000_000 bound
    space_rows = ((1, 0, 1), (0, 1, 1))
    tile = (128, 128, 128)
    footprint = _footprint(space_rows, tile)
    assert footprint == (255, 255)
    assert _active_pes.__wrapped__(space_rows, tile, footprint) == 255 * 255
    assert _reference_active_pes(space_rows, tile, footprint) == 255 * 255


def test_a_loop_off_the_space_rows_takes_its_full_extent():
    # k has no space coefficient: it never spends the budget
    assert _grow_tile.__wrapped__(((1, 0, 0), (0, 1, 0)), (64, 64, 128), 16, 16) == (16, 16, 128)
    # a skewed row shares its 7 PEs of room between m and k, round-robin
    skewed = (((1, 0, 1), (0, 1, 0)), (64, 64, 128), 8, 8)
    assert _grow_tile.__wrapped__(*skewed) == _reference_tile(*skewed) == (5, 8, 4)
