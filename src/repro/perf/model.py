"""Cycle-count model for dataflow performance comparison (paper Fig. 5).

Normalized performance is defined as in the paper: execution cycles of an
ideal fully-utilized array divided by modelled cycles::

    peak_cycles = total_MACs / (rows * cols)
    normalized  = peak_cycles / modelled_cycles          (<= 1)

The model composes per-stage costs from the stage geometry that
:class:`~repro.hw.plan.StagePlan` is built from (the same tiling/lead/lag used
to build the real controller, read through :func:`~repro.hw.plan.plan_ints`
and :func:`~repro.hw.plan.stage_geometry` as plain ints, so a design costs
one pass and no plan object) with three analytic effects:

1. **Packing** — when a spatial loop's extent is smaller than the array
   dimension, several copies are packed side by side (paper: "XYP-SMM ...
   only 15 out of 16 rows of PE are used" for p = 3), folding other loop
   iterations into the same stage.
2. **Double buffering** — stationary load/drain overlaps the next stage's
   compute (paper Fig. 3(c,d)), so a stage costs
   ``max(exec, load, drain) + skew`` rather than their sum.
3. **Bandwidth stalls** — the per-cycle element demand of each tensor's
   dataflow is compared against the available on-chip bytes/cycle; demand
   above capacity stretches the stage linearly (paper: unicast MTTKRP/TTMc
   dataflows "perform worse ... bandwidth becomes insufficient").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.dataflow import DataflowSpec, DataflowType
from repro.hw.geometry import boundary_count, chain_stats, check_dims, line_count
from repro.hw.plan import plan_ints, stage_count, stage_geometry

__all__ = ["ArrayConfig", "PerfResult", "PerfModel"]


@dataclass(frozen=True)
class ArrayConfig:
    """Hardware configuration of the evaluation platform (paper §VI-A)."""

    rows: int = 16
    cols: int = 16
    freq_mhz: float = 320.0
    onchip_bw_gbps: float = 32.0
    dtype_bytes: int = 2  # INT16 / FP16 datapath

    @property
    def pes(self) -> int:
        return self.rows * self.cols

    @property
    def bytes_per_cycle(self) -> float:
        return self.onchip_bw_gbps * 1e9 / (self.freq_mhz * 1e6)

    @property
    def elements_per_cycle(self) -> float:
        return self.bytes_per_cycle / self.dtype_bytes


@dataclass
class PerfResult:
    """Modelled execution of one dataflow on one workload."""

    spec_name: str
    total_macs: int
    cycles: float
    peak_cycles: float
    utilization: float  # spatial PE utilization after packing
    bandwidth_stall: float  # >= 1.0
    stage_cycles: float
    n_stages: float
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def normalized(self) -> float:
        """Paper Fig. 5 metric: peak cycles / modelled cycles (<= 1)."""
        return min(1.0, self.peak_cycles / self.cycles)

    @property
    def runtime_ms(self) -> float:
        freq = self.breakdown.get("freq_mhz", 320.0)
        return self.cycles / (freq * 1e3)


class PerfModel:
    """Evaluate dataflow specs on a fixed array configuration."""

    def __init__(self, config: ArrayConfig | None = None, allow_packing: bool = True):
        self.config = config or ArrayConfig()
        self.allow_packing = allow_packing

    # ------------------------------------------------------------------
    def evaluate(self, spec: DataflowSpec) -> PerfResult:
        cfg = self.config
        rows, cols = cfg.rows, cfg.cols
        check_dims(rows, cols)
        tile, extents, sequential_points = plan_ints(spec, rows, cols)
        stt = spec.stt
        directions = spec.flow_directions
        _, footprint, _, t_span, lead, out_lag, load_len, drain_len = stage_geometry(
            stt.matrix, tile, directions, rows, cols
        )

        # --- spatial utilization and packing -----------------------------
        f1, f2 = footprint
        if self.allow_packing:
            packed1 = (rows // f1) * f1 if f1 < rows else f1
            packed2 = (cols // f2) * f2 if f2 < cols else f2
        else:
            packed1, packed2 = f1, f2
        pack_factor = (packed1 // f1) * (packed2 // f2)
        active_pes = _active_pes(stt.space_rows, tile, footprint)
        active_pes *= pack_factor
        utilization = active_pes / cfg.pes

        # --- per-stage cycles --------------------------------------------
        # Skew: systolic fill (lead) + output flush (out_lag) + epilogue.
        skew = lead + out_lag + 1
        exec_cycles = t_span
        # Double buffering overlaps load/drain with the next stage's compute.
        stage_cycles = max(exec_cycles, load_len, drain_len) + skew

        # --- stage count (packing folds stages together) -------------------
        n_stages = stage_count(extents, tile, sequential_points) / pack_factor

        # --- bandwidth stall -----------------------------------------------
        # Average on-chip traffic during the execute phase, in elements.
        demand = 0.0
        for kind, sy, mc in directions:
            if kind is DataflowType.UNICAST:
                demand += active_pes  # every PE hits the buffer every cycle
            elif kind is DataflowType.SYSTOLIC:
                demand += boundary_count(rows, cols, sy[0], sy[1])
            elif kind is DataflowType.MULTICAST:
                demand += line_count(rows, cols, mc[0], mc[1])
            elif kind is DataflowType.BROADCAST or kind is DataflowType.FULL_REUSE:
                demand += 1
            elif kind is DataflowType.STATIONARY:
                # One tile of held values streamed once per stage.
                demand += active_pes / exec_cycles
            elif kind is DataflowType.MULTICAST_STATIONARY:
                demand += line_count(rows, cols, mc[0], mc[1]) / exec_cycles
            elif kind is DataflowType.SYSTOLIC_MULTICAST:
                demand += chain_stats(rows, cols, mc[0], mc[1], sy[0], sy[1])[0]
            else:  # pragma: no cover
                raise AssertionError(kind)
        stall = max(1.0, demand / cfg.elements_per_cycle)

        cycles = n_stages * stage_cycles * stall
        total_macs = spec.statement.macs()
        peak = total_macs / cfg.pes
        return PerfResult(
            spec_name=spec.name,
            total_macs=total_macs,
            cycles=cycles,
            peak_cycles=peak,
            utilization=utilization,
            bandwidth_stall=stall,
            stage_cycles=stage_cycles,
            n_stages=n_stages,
            breakdown={
                "skew": skew,
                "exec": exec_cycles,
                "load": load_len,
                "drain": drain_len,
                "demand_elems_per_cycle": demand,
                "freq_mhz": cfg.freq_mhz,
                "pack_factor": pack_factor,
            },
        )


@lru_cache(maxsize=4096)
def _active_pes(
    space_rows: tuple[tuple[int, ...], ...],
    tile_extents: tuple[int, ...],
    footprint: tuple[int, int],
) -> int:
    """Distinct PE coordinates touched by one (unpacked) tile, memoized on
    the ints it depends on.

    The tile's image is the Minkowski sum of one segment ``{k * (a, b)}``
    per loop with space column ``(a, b)``.  Shifted to start at the
    footprint's corner, every partial sum stays inside the footprint, so a
    Python int with bit ``p1 * footprint[1] + p2`` per PE holds it without
    wrapping: each loop ORs one shifted copy per step, and the count is the
    set bits.
    """
    # Only loops with a nonzero column in some space row affect placement.
    relevant = [
        i
        for i in range(len(tile_extents))
        if any(row[i] != 0 for row in space_rows)
    ]
    count = 1
    for i in relevant:
        count *= tile_extents[i]
    if count > 1_000_000:
        return footprint[0] * footprint[1]
    stride = footprint[1]
    image = 1
    for i in relevant:
        a, b, t = space_rows[0][i], space_rows[1][i], tile_extents[i]
        a0, b0 = min(0, a) * (t - 1), min(0, b) * (t - 1)
        grown = 0
        for k in range(t):
            grown |= image << ((k * a - a0) * stride + k * b - b0)
        image = grown
    return image.bit_count()
