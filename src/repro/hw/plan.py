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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from repro.core.dataflow import DataflowSpec, DataflowType
from repro.hw.controller import StageTiming
from repro.hw.geometry import Grid

__all__ = ["choose_tile", "StagePlan", "Stage"]


def choose_tile(spec: DataflowSpec, rows: int, cols: int) -> dict[str, int]:
    """Pick tile extents for the selected loops so the space image fits.

    Greedy: grow the loop whose increment keeps the footprint legal and adds
    the most parallelism, until nothing can grow.  For unit space rows this
    reduces to "spatial loops tile to the array dimension, the time loop runs
    in full", matching the paper's experiments.
    """
    sel_space = spec.selected_space
    tile = _grow_tile(spec.stt.space_rows, sel_space.extents, rows, cols)
    return dict(zip(sel_space.names, tile))


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
        self.tile = choose_tile(spec, rows, cols) if tile is None else _checked_tile(spec, tile)
        self.tile_extents = tuple(self.tile[n] for n in spec.selected)

        # Space image of the local tile box and its normalizing offset.
        space_rows = spec.stt.space_rows
        p_lo = []
        p_hi = []
        for row in space_rows:
            lo = sum(min(0, c) * (t - 1) for c, t in zip(row, self.tile_extents))
            hi = sum(max(0, c) * (t - 1) for c, t in zip(row, self.tile_extents))
            p_lo.append(lo)
            p_hi.append(hi)
        self.space_offset = (-p_lo[0], -p_lo[1])
        footprint = (p_hi[0] - p_lo[0] + 1, p_hi[1] - p_lo[1] + 1)
        if footprint[0] > rows or footprint[1] > cols:
            raise ValueError(
                f"tile space footprint {footprint} exceeds array {rows}x{cols}"
            )
        self.footprint = footprint

        # Stage-local time range.
        trow = spec.stt.time_row
        t_lo = sum(min(0, c) * (t - 1) for c, t in zip(trow, self.tile_extents))
        t_hi = sum(max(0, c) * (t - 1) for c, t in zip(trow, self.tile_extents))
        self.t_min = t_lo
        self.t_span = t_hi - t_lo + 1

        # Systolic injection lead: worst-case boundary-to-PE travel time.
        self.lead = self._compute_lead()
        # Output flush lag: systolic partial sums computed on the last cycle
        # still have to travel to the array boundary before collection.
        self.out_lag = self._compute_out_lag()
        self.timing = self._compute_timing()

    # ------------------------------------------------------------------
    def _compute_lead(self) -> int:
        lead = 0
        for flow in self.spec.input_flows:
            if flow.kind is DataflowType.SYSTOLIC:
                s1, s2, dt = flow.systolic_direction
                lead = max(lead, self.grid.max_steps((s1, s2)) * dt)
            elif flow.kind is DataflowType.SYSTOLIC_MULTICAST:
                lead = max(lead, self._chain_span(flow))
        return lead

    def _compute_out_lag(self) -> int:
        flow = self.spec.output_flow
        if flow.kind is DataflowType.SYSTOLIC:
            s1, s2, dt = flow.systolic_direction
            return self.grid.max_steps((s1, s2)) * dt
        if flow.kind is DataflowType.SYSTOLIC_MULTICAST:
            return self._chain_span(flow)
        return 0

    def _chain_span(self, flow) -> int:
        """Cycles to cross the longest systolic chain of multicast lines."""
        mc = flow.multicast_direction
        sy = flow.systolic_direction
        _, longest = self.grid.chain_stats((mc[0], mc[1]), (sy[0], sy[1]))
        return (longest - 1) * sy[2]

    def _compute_timing(self) -> StageTiming:
        has_chain_load = any(
            fl.kind is DataflowType.STATIONARY for fl in self.spec.input_flows
        )
        has_bus_load = any(
            fl.kind in (DataflowType.MULTICAST_STATIONARY, DataflowType.FULL_REUSE)
            for fl in self.spec.input_flows
        )
        load_len = self.grid.rows if has_chain_load else (1 if has_bus_load else 0)
        drain_len = (
            self.grid.rows
            if self.spec.output_flow.kind is DataflowType.STATIONARY
            else 0
        )
        # +1 flush for registered outputs, +out_lag for systolic exit travel.
        exec_len = self.lead + self.t_span + 1 + self.out_lag
        return StageTiming(load_len=load_len, exec_len=exec_len, drain_len=drain_len)

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
        sel = self.spec.selected_space
        n = self.spec.sequential_space.volume()
        for name in sel.names:
            n *= -(-sel[name].extent // self.tile[name])
        return n

    def total_cycles(self) -> int:
        return self.n_stages() * self.timing.total

    def __repr__(self) -> str:
        return (
            f"StagePlan(tile={self.tile}, footprint={self.footprint}, "
            f"t_span={self.t_span}, lead={self.lead}, stages={self.n_stages()})"
        )
