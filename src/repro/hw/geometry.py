"""PE-array geometry shared by hardware generation and schedule derivation.

Coordinates: ``p = (row, col)`` with ``0 <= row < rows`` and ``0 <= col <
cols``.  A *space direction* is the ``(dp1, dp2)`` part of a reuse vector.

Lines
-----
Multicast buses and systolic chains group PEs into *lines* along a direction
``d``: the set of PEs reachable from each other by integer steps of ``d``.
The cross product ``row * d2 - col * d1`` is constant along a line and serves
as its raw id; :meth:`Grid.line_index` normalizes raw ids to a dense
``0..G-1`` range for port naming.

Counts
------
The analytic models read only *how many* boundary PEs, lines and chains a
direction has, never which ones.  :meth:`Grid.boundary_count` and
:meth:`Grid.max_steps` are closed forms; :meth:`Grid.line_count` and
:meth:`Grid.chain_stats` are memoized per ``(rows, cols, direction)`` in
bounded caches that hold integers only.  The walkers (:meth:`Grid.is_entry`,
:meth:`Grid.entry_point`, :meth:`Grid.lines`, :meth:`Grid.line_chain`) stay
uncached: they serve hardware generation and scheduling, and they are the
reference the counts are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

__all__ = ["Grid", "cross", "Line"]

#: Entries per count memo; a sweep touches a few dozen (grid, direction) keys.
_MEMO_SIZE = 4096


def cross(p: Sequence[int], d: Sequence[int]) -> int:
    """Line invariant of point ``p`` along direction ``d`` (2-D cross product)."""
    return p[0] * d[1] - p[1] * d[0]


@dataclass(frozen=True)
class Line:
    """One line of PEs along a direction."""

    raw_id: int
    index: int
    points: tuple[tuple[int, int], ...]  # ordered along +d


class Grid:
    """A ``rows x cols`` PE array with line/boundary geometry helpers."""

    def __init__(self, rows: int, cols: int):
        if rows <= 0 or cols <= 0:
            raise ValueError(f"grid needs positive dims, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols

    def __contains__(self, p: Sequence[int]) -> bool:
        return 0 <= p[0] < self.rows and 0 <= p[1] < self.cols

    def points(self) -> Iterator[tuple[int, int]]:
        for r in range(self.rows):
            for c in range(self.cols):
                yield (r, c)

    @property
    def size(self) -> int:
        return self.rows * self.cols

    # -- systolic chains --------------------------------------------------
    def entry_point(self, p: Sequence[int], d: Sequence[int]) -> tuple[tuple[int, int], int]:
        """First in-array PE of the line through ``p`` along ``d`` and the
        number of ``d``-steps from that entry to ``p``.

        Data travelling along ``d`` is injected at the entry PE; an element
        needed at ``p`` at time ``t`` enters at ``t - steps * dt``.
        """
        if d[0] == 0 and d[1] == 0:
            raise ValueError("entry_point needs a nonzero direction")
        if tuple(p) not in self:
            raise ValueError(f"{p} outside {self.rows}x{self.cols} grid")
        cur = (p[0], p[1])
        steps = 0
        while True:
            prev = (cur[0] - d[0], cur[1] - d[1])
            if prev not in self:
                return cur, steps
            cur = prev
            steps += 1

    def exit_point(self, p: Sequence[int], d: Sequence[int]) -> tuple[tuple[int, int], int]:
        """Last in-array PE of the line through ``p`` along ``d`` (and steps)."""
        entry, back = self.entry_point(p, (-d[0], -d[1]))
        return entry, back

    def is_entry(self, p: Sequence[int], d: Sequence[int]) -> bool:
        """True when ``p - d`` falls outside the array."""
        return (p[0] - d[0], p[1] - d[1]) not in self

    def is_exit(self, p: Sequence[int], d: Sequence[int]) -> bool:
        return (p[0] + d[0], p[1] + d[1]) not in self

    def boundary_count(self, d: Sequence[int]) -> int:
        """Number of entry PEs along ``d`` (equally, of exit PEs).

        A PE is *not* an entry exactly when ``p - d`` is in the array too,
        and those PEs form the overlap of the array with its shift by ``d``.
        """
        inner = max(0, self.rows - abs(d[0])) * max(0, self.cols - abs(d[1]))
        return self.size - inner

    def max_steps(self, d: Sequence[int]) -> int:
        """Largest ``entry_point(p, d)[1]`` over the array (equally, of
        ``exit_point``): the most ``d``-steps that fit inside it."""
        if d[0] == 0 and d[1] == 0:
            raise ValueError("max_steps needs a nonzero direction")
        return min((n - 1) // abs(x) for n, x in ((self.rows, d[0]), (self.cols, d[1])) if x)

    # -- lines -------------------------------------------------------------
    def lines(self, d: Sequence[int]) -> list[Line]:
        """All lines along direction ``d``, indexed densely by raw id order."""
        if d[0] == 0 and d[1] == 0:
            raise ValueError("lines need a nonzero direction")
        groups: dict[int, list[tuple[int, int]]] = {}
        for p in self.points():
            groups.setdefault(cross(p, d), []).append(p)
        lines = []
        for index, raw in enumerate(sorted(groups)):
            pts = groups[raw]
            # Order points along +d (project onto d).
            pts.sort(key=lambda p: p[0] * d[0] + p[1] * d[1])
            lines.append(Line(raw_id=raw, index=index, points=tuple(pts)))
        return lines

    def line_count(self, d: Sequence[int]) -> int:
        """``len(self.lines(d))``, memoized per grid shape and direction."""
        return _line_count(self.rows, self.cols, (int(d[0]), int(d[1])))

    def line_index(self, d: Sequence[int]) -> dict[int, int]:
        """Map raw line id -> dense index for direction ``d``."""
        return {line.raw_id: line.index for line in self.lines(d)}

    def line_of(self, p: Sequence[int], d: Sequence[int]) -> int:
        """Dense line index of the line through ``p`` along ``d``."""
        return self.line_index(d)[cross(p, d)]

    # -- line graphs for systolic+multicast dataflows ----------------------
    def line_shift(self, mc: Sequence[int], sy_space: Sequence[int]) -> int:
        """Raw-id delta when a line along ``mc`` shifts by ``sy_space``.

        Used by the systolic+multicast dataflow: the value held by line ``g``
        moves to line ``g + shift`` after one systolic hop.
        """
        return cross(sy_space, mc)

    def line_chain(self, mc: Sequence[int], sy_space: Sequence[int]) -> list[list[int]]:
        """Chains of raw line ids connected by systolic hops.

        Returns one list per chain, ordered from entry line to exit line.
        Raises if the shift is zero (the systolic direction must actually move
        across lines — otherwise the two reuse directions are parallel, which
        a rank-2 reuse space precludes).
        """
        shift = self.line_shift(mc, sy_space)
        if shift == 0:
            raise ValueError("systolic direction does not cross multicast lines")
        raw_ids = {line.raw_id for line in self.lines(mc)}
        chains = []
        for raw in sorted(raw_ids):
            if raw - shift not in raw_ids:  # entry line
                chain = []
                cur = raw
                while cur in raw_ids:
                    chain.append(cur)
                    cur += shift
                chains.append(chain)
        return chains

    def chain_stats(self, mc: Sequence[int], sy_space: Sequence[int]) -> tuple[int, int]:
        """``(number of chains, longest chain)`` of :meth:`line_chain`,
        memoized per grid shape and direction pair."""
        return _chain_stats(
            self.rows,
            self.cols,
            (int(mc[0]), int(mc[1])),
            (int(sy_space[0]), int(sy_space[1])),
        )


# Module-level memos keyed by plain int tuples, so they never pin a Grid.
@lru_cache(maxsize=_MEMO_SIZE)
def _line_count(rows: int, cols: int, d: tuple[int, int]) -> int:
    return len(Grid(rows, cols).lines(d))


@lru_cache(maxsize=_MEMO_SIZE)
def _chain_stats(
    rows: int, cols: int, mc: tuple[int, int], sy_space: tuple[int, int]
) -> tuple[int, int]:
    chains = Grid(rows, cols).line_chain(mc, sy_space)
    return len(chains), max(len(chain) for chain in chains)
