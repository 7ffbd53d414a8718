"""Execution planning: tiling, stage geometry and phase timing.

The selected loops map onto the array through the STT; when their extents (or
the skew of the space rows) exceed the physical array, the loops are tiled
and each tile executes as one *stage* (paper §IV: "when PE and memory sizes
are determined, the loops are performed tiling to fit the hardware
resources").  The sequential (non-selected) loops contribute further stages.

:class:`StagePlan` captures everything geometric about a stage:

- the tile extents and the resulting space offset/footprint,
- the stage-local time span ``t_span`` of the tile under the time row,
- the systolic injection *lead* (how many cycles before first use a value
  must enter the boundary),
- the :class:`~repro.hw.controller.StageTiming` phase schedule,
- the enumeration of stages (tile origins x sequential-loop points).

The per-stage numbers come from :func:`stage_geometry`, a pass over plain
ints that the performance model calls directly, so a design evaluated by
the models builds no :class:`StagePlan` and each formula has one
implementation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from repro.core.dataflow import DataflowSpec, DataflowType
from repro.hw.controller import StageTiming
from repro.hw.geometry import Grid, chain_stats, max_steps

__all__ = ["choose_tile", "plan_ints", "stage_geometry", "stage_count", "StagePlan", "Stage"]


def choose_tile(spec: DataflowSpec, rows: int, cols: int) -> dict[str, int]:
    """Pick tile extents for the selected loops so the space image fits.

    Greedy: grow the loop whose increment keeps the footprint legal and adds
    the most parallelism, until nothing can grow.  For unit space rows this
    reduces to "spatial loops tile to the array dimension, the time loop runs
    in full", matching the paper's experiments.
    """
    return dict(zip(spec.selected, plan_ints(spec, rows, cols)[0]))


def plan_ints(
    spec: DataflowSpec, rows: int, cols: int
) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The ints a plan of ``spec`` on a ``rows x cols`` array starts from:
    ``(tile, extents, sequential_points)``.

    ``tile`` is :func:`choose_tile`'s pick and ``extents`` the selected
    loops' extents, both in selection order; ``sequential_points`` counts
    the points of the remaining loops.  All three are read by position from
    the statement's space, so no sub-space is built.
    """
    space = spec.statement.space
    all_extents = space.extents
    extents = tuple([all_extents[i] for i in space.positions(spec.selected)])
    tile = _grow_tile(spec.stt.space_rows, extents, rows, cols)
    # the selected loops' extents divide the full volume exactly
    return tile, extents, math.prod(all_extents) // math.prod(extents)


@lru_cache(maxsize=4096)
def _grow_tile(
    space_rows: tuple[tuple[int, ...], ...],
    extents: tuple[int, ...],
    rows: int,
    cols: int,
) -> tuple[int, ...]:
    """:func:`choose_tile`'s search, memoized on the ints it depends on.

    Space row ``r`` of a tile spans ``1 + sum_i |row_r[i]| * (t_i - 1)``
    PEs, so fitting the array is a budget of ``room_r = dims_r - 1`` per row
    and a +1 step of loop ``i`` spends ``|row_r[i]|`` of it.  A loop with no
    space coefficient spends nothing and takes its full extent; the others
    step round-robin while their cost fits both rooms.  A loop that does not
    fit never fits later, since the rooms only shrink.
    """
    room = [rows - 1, cols - 1]
    if min(room) < 0:
        raise ValueError(f"even a 1x1x1 tile does not fit a {rows}x{cols} array")
    costs = [tuple(abs(c) for c in col) for col in zip(*space_rows)]
    tile = [1 if any(cost) else extent for cost, extent in zip(costs, extents)]
    growing = [i for i, cost in enumerate(costs) if any(cost) and tile[i] < extents[i]]
    while growing:
        still = []
        for i in growing:
            c1, c2 = costs[i]
            if c1 <= room[0] and c2 <= room[1]:
                room[0] -= c1
                room[1] -= c2
                tile[i] += 1
                if tile[i] < extents[i]:
                    still.append(i)
        growing = still
    return tuple(tile)


def stage_geometry(
    stt: Sequence[Sequence[int]],
    tile: Sequence[int],
    directions: Sequence[tuple],
    rows: int,
    cols: int,
) -> tuple:
    """The ints of one stage of ``tile`` (selected-loop extents, in
    selection order) under the 3x3 ``stt`` matrix on a ``rows x cols`` array.

    ``directions`` is the design's :attr:`DataflowSpec.flow_directions`
    (inputs first, the output last).  Returns ``(space_offset, footprint,
    t_min, t_span, lead, out_lag, load_len, drain_len)``:

    - the space image of the tile box spans ``footprint`` PEs per space row
      and is shifted by ``space_offset`` to start at PE ``(0, 0)``; the time
      row spans ``t_span`` cycles from ``t_min``;
    - ``lead`` is the worst-case boundary-to-PE travel of a systolic input
      (how many cycles before first use a value must enter the array), and
      ``out_lag`` the travel of systolic partial sums from the last compute
      cycle to the boundary;
    - stationary inputs load down chains of ``rows`` PEs and bus-loaded ones
      in one cycle; a stationary output drains over ``rows`` cycles.
    """
    s1, s2, s3 = tile[0] - 1, tile[1] - 1, tile[2] - 1
    spans = []
    for a, b, c in stt:
        # a row maps the tile box onto [lo, lo + span): lo sums its negative
        # terms, and each loop step adds |coefficient| to the span
        lo = (a * s1 if a < 0 else 0) + (b * s2 if b < 0 else 0) + (c * s3 if c < 0 else 0)
        spans.append((lo, abs(a) * s1 + abs(b) * s2 + abs(c) * s3 + 1))
    (lo1, f1), (lo2, f2), (t_min, t_span) = spans
    if f1 > rows or f2 > cols:
        raise ValueError(f"tile space footprint {(f1, f2)} exceeds array {rows}x{cols}")

    lead = 0
    chain_load = bus_load = False
    for kind, sy, mc in directions[:-1]:
        if kind is DataflowType.SYSTOLIC or kind is DataflowType.SYSTOLIC_MULTICAST:
            lead = max(lead, _travel(kind, sy, mc, rows, cols))
        elif kind is DataflowType.STATIONARY:
            chain_load = True
        elif kind is DataflowType.MULTICAST_STATIONARY or kind is DataflowType.FULL_REUSE:
            bus_load = True
    kind, sy, mc = directions[-1]
    if kind is DataflowType.SYSTOLIC or kind is DataflowType.SYSTOLIC_MULTICAST:
        out_lag = _travel(kind, sy, mc, rows, cols)
    else:
        out_lag = 0
    load_len = rows if chain_load else (1 if bus_load else 0)
    drain_len = rows if kind is DataflowType.STATIONARY else 0
    return (-lo1, -lo2), (f1, f2), t_min, t_span, lead, out_lag, load_len, drain_len


def stage_count(extents: Sequence[int], tile: Sequence[int], sequential_points: int) -> int:
    """Stages of a plan: the sequential loops' points times the tiles that
    cover the selected loops' ``extents``."""
    n = sequential_points
    for extent, t in zip(extents, tile):
        n *= -(-extent // t)
    return n


def _travel(
    kind: DataflowType, sy: Sequence[int], mc: Sequence[int] | None, rows: int, cols: int
) -> int:
    """Cycles a systolic(-multicast) flow takes to cross the array: the most
    hops that fit, or the longest chain of multicast lines, times the delay."""
    if kind is DataflowType.SYSTOLIC:
        return max_steps(rows, cols, sy[0], sy[1]) * sy[2]
    _, longest = chain_stats(rows, cols, mc[0], mc[1], sy[0], sy[1])
    return (longest - 1) * sy[2]


def _checked_tile(spec: DataflowSpec, tile: object) -> dict[str, int]:
    """A copy of a caller's ``tile``, refused unless it maps exactly the
    selected loops to ``int`` extents in ``1..extent`` (it may come from a
    request's options)."""
    sel = spec.selected_space
    if not isinstance(tile, Mapping):
        raise ValueError(
            f"tile must map the selected loops {sel.names} to ints, got {type(tile).__name__}"
        )
    for name in tile:
        if name not in sel.names:
            raise ValueError(f"tile names loop {name!r}, which is not one of {sel.names}")
    for name in sel.names:
        if name not in tile:
            raise ValueError(f"tile has no extent for loop {name!r}")
        value = tile[name]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"tile extent {value!r} for loop {name!r} is not an int")
        if not 1 <= value <= sel[name].extent:
            raise ValueError(f"tile extent {value!r} invalid for loop {name!r}")
    return dict(tile)


@dataclass(frozen=True)
class Stage:
    """One stage: where the tile sits in the full iteration space."""

    index: int
    tile_origin: dict[str, int]  # selected loop -> base value
    sequential: dict[str, int]  # non-selected loop -> value

    def global_point(self, spec: DataflowSpec, local: Sequence[int]) -> tuple[int, ...]:
        """Full iteration point for a tile-local selected-loop point."""
        values = dict(self.sequential)
        for name, base, off in zip(spec.selected, (self.tile_origin[n] for n in spec.selected), local):
            values[name] = base + off
        return tuple(values[n] for n in spec.statement.space.names if n in values)


class StagePlan:
    """Complete geometric plan for executing a spec on a ``rows x cols`` array."""

    def __init__(
        self,
        spec: DataflowSpec,
        rows: int,
        cols: int,
        tile: dict[str, int] | None = None,
    ):
        self.spec = spec
        self.grid = Grid(rows, cols)
        chosen, self._extents, self._sequential_points = plan_ints(spec, rows, cols)
        if tile is None:
            self.tile = dict(zip(spec.selected, chosen))
        else:
            self.tile = _checked_tile(spec, tile)
        self.tile_extents = tuple(self.tile[n] for n in spec.selected)
        (
            self.space_offset,
            self.footprint,
            self.t_min,
            self.t_span,
            self.lead,
            self.out_lag,
            load_len,
            drain_len,
        ) = stage_geometry(spec.stt.matrix, self.tile_extents, spec.flow_directions, rows, cols)
        # +1 flush for registered outputs, +out_lag for systolic exit travel.
        exec_len = self.lead + self.t_span + 1 + self.out_lag
        self.timing = StageTiming(load_len=load_len, exec_len=exec_len, drain_len=drain_len)

    # ------------------------------------------------------------------
    def local_points(self) -> Iterator[tuple[int, ...]]:
        """All tile-local selected-loop points."""
        return itertools.product(*(range(t) for t in self.tile_extents))

    def place(self, local: Sequence[int]) -> tuple[tuple[int, int], int]:
        """Map a tile-local point to (PE coordinate, stage-local cycle).

        The cycle is relative to the start of the execute phase *plus* the
        systolic lead, i.e. the actual compute cycle within the stage is
        ``timing.exec_start + lead + (t - t_min)`` — kept here in one place so
        the schedule and the controller cannot drift.
        """
        space, t = self.spec.stt.apply(local)
        p = (space[0] + self.space_offset[0], space[1] + self.space_offset[1])
        cycle = self.timing.exec_start + self.lead + (t - self.t_min)
        return p, cycle

    def stages(self) -> Iterator[Stage]:
        """Enumerate stages: sequential-loop points x tile origins."""
        sel = self.spec.selected_space
        seq = self.spec.sequential_space
        origins = [
            range(0, sel[name].extent, self.tile[name]) for name in sel.names
        ]
        index = 0
        for seq_point in seq.points():
            seq_vals = {
                name: val
                for name, val in zip(seq.names, seq_point)
                if name != "_unit"
            }
            for origin in itertools.product(*origins):
                yield Stage(
                    index=index,
                    tile_origin=dict(zip(sel.names, origin)),
                    sequential=seq_vals,
                )
                index += 1

    def n_stages(self) -> int:
        return stage_count(self._extents, self.tile_extents, self._sequential_points)

    def total_cycles(self) -> int:
        return self.n_stages() * self.timing.total

    def __repr__(self) -> str:
        return (
            f"StagePlan(tile={self.tile}, footprint={self.footprint}, "
            f"t_span={self.t_span}, lead={self.lead}, stages={self.n_stages()})"
        )
