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
direction has, never which ones, and they read them through the module
functions below, which take plain ints so that a model pass builds no
:class:`Grid`.  :func:`boundary_count`, :func:`max_steps` and
:func:`line_count` are closed forms; :func:`chain_stats` walks the set of raw
line ids and is memoized per ``(rows, cols, mc, sy)`` in a bounded cache that
holds integers only.  The :class:`Grid` methods of the same names delegate to
them.  The walkers (:meth:`Grid.is_entry`, :meth:`Grid.entry_point`,
:meth:`Grid.lines`, :meth:`Grid.line_chain`) stay uncached: they serve
hardware generation and scheduling, and they are the reference the counts are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterator, Sequence

__all__ = [
    "Grid",
    "cross",
    "Line",
    "check_dims",
    "boundary_count",
    "max_steps",
    "line_count",
    "chain_stats",
]


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
        check_dims(rows, cols)
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
        """Number of entry PEs along ``d`` (equally, of exit PEs)."""
        return boundary_count(self.rows, self.cols, d[0], d[1])

    def max_steps(self, d: Sequence[int]) -> int:
        """Largest ``entry_point(p, d)[1]`` over the array (equally, of
        ``exit_point``): the most ``d``-steps that fit inside it."""
        return max_steps(self.rows, self.cols, d[0], d[1])

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
        """``len(self.lines(d))``, in closed form."""
        return line_count(self.rows, self.cols, d[0], d[1])

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
        return chain_stats(
            self.rows, self.cols, int(mc[0]), int(mc[1]), int(sy_space[0]), int(sy_space[1])
        )


# ----------------------------------------------------------------------
# Counts over plain ints, so a model pass never builds a Grid
# ----------------------------------------------------------------------
def check_dims(rows: int, cols: int) -> None:
    """Raise ``ValueError`` unless a ``rows x cols`` array has PEs."""
    if rows <= 0 or cols <= 0:
        raise ValueError(f"grid needs positive dims, got {rows}x{cols}")


def boundary_count(rows: int, cols: int, d0: int, d1: int) -> int:
    """Number of entry PEs along ``(d0, d1)`` (equally, of exit PEs).

    A PE is *not* an entry exactly when ``p - d`` is in the array too, and
    those PEs form the overlap of the array with its shift by ``d``.
    """
    inner_rows, inner_cols = rows - abs(d0), cols - abs(d1)
    if inner_rows <= 0 or inner_cols <= 0:
        return rows * cols
    return rows * cols - inner_rows * inner_cols


def max_steps(rows: int, cols: int, d0: int, d1: int) -> int:
    """The most ``(d0, d1)``-steps that fit inside a ``rows x cols`` array."""
    if d0 == 0:
        if d1 == 0:
            raise ValueError("max_steps needs a nonzero direction")
        return (cols - 1) // abs(d1)
    if d1 == 0:
        return (rows - 1) // abs(d0)
    return min((rows - 1) // abs(d0), (cols - 1) // abs(d1))


def line_count(rows: int, cols: int, d0: int, d1: int) -> int:
    """Number of lines along ``(d0, d1)``.

    PEs share a line exactly when they differ by a multiple of the primitive
    direction ``d / gcd(d0, d1)``, so each line has one entry PE along it and
    the count is that direction's :func:`boundary_count`.
    """
    if d0 == 0 and d1 == 0:
        raise ValueError("lines need a nonzero direction")
    g = gcd(d0, d1)
    return boundary_count(rows, cols, d0 // g, d1 // g)


#: Entries in the chain memo; a sweep touches a few dozen (grid, direction) keys.
_MEMO_SIZE = 4096


@lru_cache(maxsize=_MEMO_SIZE)
def chain_stats(rows: int, cols: int, mc0: int, mc1: int, sy0: int, sy1: int) -> tuple[int, int]:
    """``(number of chains, longest chain)`` of :meth:`Grid.line_chain` along
    multicast direction ``(mc0, mc1)`` and systolic hop ``(sy0, sy1)``.

    Walks the set of raw line ids ``{row * mc1 - col * mc0}`` by the shift one
    hop adds, without building the lines themselves.
    """
    shift = sy0 * mc1 - sy1 * mc0
    if shift == 0:
        raise ValueError("systolic direction does not cross multicast lines")
    raw_ids = {r * mc1 - c * mc0 for r in range(rows) for c in range(cols)}
    chains = longest = 0
    for raw in raw_ids:
        if raw - shift not in raw_ids:  # entry line
            length = 1
            raw += shift
            while raw in raw_ids:
                length += 1
                raw += shift
            chains += 1
            longest = max(longest, length)
    return chains, longest
