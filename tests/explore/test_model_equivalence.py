"""The flat model passes against the object-chain implementations they replaced.

``PerfModel.evaluate`` and ``count_resources`` read each design's integers
in one pass, and ``StagePlan`` takes its geometry from the same
``stage_geometry`` helper.  The implementations they replaced are kept here
as references: the ``StagePlan``-based perf model with its
``_elements_per_cycle``, the ``_pe_counts`` + ``getattr``/``setattr`` resource
count, and ``StagePlan``'s ``_compute_*`` methods, all over a grid that counts
lines and chains with the walkers.  Every canonical realizable design of the
six Table II workloads, at two extents each, must give the same results, in
value and in type, on square, rectangular and degenerate arrays, with and
without packing.

The reference cost totals add their terms left to right, as ``sum()`` of
floats did up to Python 3.11 (it compensates from 3.12 on), so the models'
totals keep the same bits on every supported Python.
"""

from __future__ import annotations

import dataclasses
import itertools
from functools import lru_cache

import pytest

from repro.core.dataflow import DataflowType
from repro.core.enumerate import iter_designs
from repro.cost.counts import ResourceCounts, count_resources
from repro.cost.model import CostModel, CostResult
from repro.hw.controller import StageTiming
from repro.hw.geometry import Grid
from repro.hw.plan import StagePlan, choose_tile
from repro.ir import workloads
from repro.perf.model import ArrayConfig, PerfModel, PerfResult, _active_pes

#: Two extent choices per Table II workload (from the benchmark catalogue).
EXTENTS = {
    "gemm": ({"m": 64, "n": 64, "k": 64}, {"m": 128, "n": 96, "k": 48}),
    "batched_gemv": ({"m": 16, "n": 64, "k": 64}, {"m": 8, "n": 128, "k": 64}),
    "conv2d": (
        {"k": 64, "c": 64, "y": 56, "x": 56, "p": 3, "q": 3},
        {"k": 128, "c": 32, "y": 14, "x": 14, "p": 3, "q": 3},
    ),
    "depthwise_conv": (
        {"k": 32, "y": 28, "x": 28, "p": 3, "q": 3},
        {"k": 96, "y": 28, "x": 28, "p": 3, "q": 3},
    ),
    "mttkrp": ({"i": 32, "j": 32, "k": 32, "l": 32}, {"i": 64, "j": 16, "k": 32, "l": 48}),
    "ttmc": (
        {"i": 32, "j": 32, "k": 32, "l": 32, "m": 32},
        {"i": 16, "j": 48, "k": 48, "l": 16, "m": 32},
    ),
}
ARRAYS = ((16, 16), (8, 8), (4, 4), (8, 4), (4, 8), (1, 16), (1, 1))
#: Designs per loop selection; keeps the whole comparison to a few seconds.
PER_SELECTION = 10


# ----------------------------------------------------------------------
# Reference implementations (before the flat passes)
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _walked_line_count(rows, cols, d):
    return len(Grid(rows, cols).lines(d))


@lru_cache(maxsize=None)
def _walked_chain_stats(rows, cols, mc, sy):
    chains = Grid(rows, cols).line_chain(mc, sy)
    return len(chains), max(len(chain) for chain in chains)


class _WalkerGrid(Grid):
    """A grid whose counts come from walking its lines and chains."""

    def boundary_count(self, d):
        inner = max(0, self.rows - abs(d[0])) * max(0, self.cols - abs(d[1]))
        return self.size - inner

    def max_steps(self, d):
        return min((n - 1) // abs(x) for n, x in ((self.rows, d[0]), (self.cols, d[1])) if x)

    def line_count(self, d):
        return _walked_line_count(self.rows, self.cols, (d[0], d[1]))

    def chain_stats(self, mc, sy):
        return _walked_chain_stats(self.rows, self.cols, (mc[0], mc[1]), (sy[0], sy[1]))


class _RefStagePlan:
    """``StagePlan``'s geometry as it was computed per design."""

    def __init__(self, spec, rows, cols, tile=None):
        self.spec = spec
        self.grid = _WalkerGrid(rows, cols)
        self.tile = choose_tile(spec, rows, cols) if tile is None else dict(tile)
        self.tile_extents = tuple(self.tile[n] for n in spec.selected)

        space_rows = spec.stt.space_rows
        p_lo = []
        p_hi = []
        for row in space_rows:
            p_lo.append(sum(min(0, c) * (t - 1) for c, t in zip(row, self.tile_extents)))
            p_hi.append(sum(max(0, c) * (t - 1) for c, t in zip(row, self.tile_extents)))
        self.space_offset = (-p_lo[0], -p_lo[1])
        footprint = (p_hi[0] - p_lo[0] + 1, p_hi[1] - p_lo[1] + 1)
        if footprint[0] > rows or footprint[1] > cols:
            raise ValueError(f"tile space footprint {footprint} exceeds array {rows}x{cols}")
        self.footprint = footprint

        trow = spec.stt.time_row
        t_lo = sum(min(0, c) * (t - 1) for c, t in zip(trow, self.tile_extents))
        t_hi = sum(max(0, c) * (t - 1) for c, t in zip(trow, self.tile_extents))
        self.t_min = t_lo
        self.t_span = t_hi - t_lo + 1
        self.lead = self._compute_lead()
        self.out_lag = self._compute_out_lag()
        self.timing = self._compute_timing()

    def _compute_lead(self):
        lead = 0
        for flow in self.spec.input_flows:
            if flow.kind is DataflowType.SYSTOLIC:
                s1, s2, dt = flow.systolic_direction
                lead = max(lead, self.grid.max_steps((s1, s2)) * dt)
            elif flow.kind is DataflowType.SYSTOLIC_MULTICAST:
                lead = max(lead, self._chain_span(flow))
        return lead

    def _compute_out_lag(self):
        flow = self.spec.output_flow
        if flow.kind is DataflowType.SYSTOLIC:
            s1, s2, dt = flow.systolic_direction
            return self.grid.max_steps((s1, s2)) * dt
        if flow.kind is DataflowType.SYSTOLIC_MULTICAST:
            return self._chain_span(flow)
        return 0

    def _chain_span(self, flow):
        mc = flow.multicast_direction
        sy = flow.systolic_direction
        _, longest = self.grid.chain_stats((mc[0], mc[1]), (sy[0], sy[1]))
        return (longest - 1) * sy[2]

    def _compute_timing(self):
        has_chain_load = any(fl.kind is DataflowType.STATIONARY for fl in self.spec.input_flows)
        has_bus_load = any(
            fl.kind in (DataflowType.MULTICAST_STATIONARY, DataflowType.FULL_REUSE)
            for fl in self.spec.input_flows
        )
        load_len = self.grid.rows if has_chain_load else (1 if has_bus_load else 0)
        drain_len = (
            self.grid.rows if self.spec.output_flow.kind is DataflowType.STATIONARY else 0
        )
        exec_len = self.lead + self.t_span + 1 + self.out_lag
        return StageTiming(load_len=load_len, exec_len=exec_len, drain_len=drain_len)

    def n_stages(self):
        sel = self.spec.selected_space
        n = self.spec.sequential_space.volume()
        for name in sel.names:
            n *= -(-sel[name].extent // self.tile[name])
        return n


def _ref_elements_per_cycle(spec, plan, active_pes):
    grid = plan.grid
    exec_cycles = max(1, plan.t_span)
    demand = 0.0
    for flow in spec.flows:
        kind = flow.kind
        if kind is DataflowType.UNICAST:
            demand += active_pes
        elif kind is DataflowType.SYSTOLIC:
            s = flow.systolic_direction
            demand += grid.boundary_count((s[0], s[1]))
        elif kind in (DataflowType.MULTICAST,):
            demand += grid.line_count((flow.multicast_direction[0], flow.multicast_direction[1]))
        elif kind in (DataflowType.BROADCAST, DataflowType.FULL_REUSE):
            demand += 1
        elif kind is DataflowType.STATIONARY:
            demand += active_pes / exec_cycles
        elif kind is DataflowType.MULTICAST_STATIONARY:
            mc = flow.multicast_direction
            demand += grid.line_count((mc[0], mc[1])) / exec_cycles
        elif kind is DataflowType.SYSTOLIC_MULTICAST:
            mc = flow.multicast_direction
            chains, _ = grid.chain_stats(
                (mc[0], mc[1]),
                (flow.systolic_direction[0], flow.systolic_direction[1]),
            )
            demand += chains
        else:
            raise AssertionError(kind)
    return demand


def _ref_perf(model, spec):
    cfg = model.config
    plan = _RefStagePlan(spec, cfg.rows, cfg.cols)
    timing = plan.timing
    f1, f2 = plan.footprint
    if model.allow_packing:
        packed1 = (cfg.rows // f1) * f1 if f1 < cfg.rows else f1
        packed2 = (cfg.cols // f2) * f2 if f2 < cfg.cols else f2
    else:
        packed1, packed2 = f1, f2
    pack_factor = (packed1 // f1) * (packed2 // f2)
    active_pes = _active_pes(spec.stt.space_rows, plan.tile_extents, plan.footprint)
    active_pes *= pack_factor
    utilization = active_pes / cfg.pes
    skew = plan.lead + plan.out_lag + 1
    exec_cycles = plan.t_span
    stage_cycles = max(exec_cycles, timing.load_len, timing.drain_len) + skew
    n_stages = plan.n_stages() / pack_factor
    demand = _ref_elements_per_cycle(spec, plan, active_pes)
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
            "load": timing.load_len,
            "drain": timing.drain_len,
            "demand_elems_per_cycle": demand,
            "freq_mhz": cfg.freq_mhz,
            "pack_factor": pack_factor,
        },
    )


def _ref_pe_counts(spec):
    c = ResourceCounts()
    controls = set()
    for flow in spec.input_flows:
        kind = flow.kind
        if kind is DataflowType.SYSTOLIC:
            c.regs += 1
        elif kind is DataflowType.STATIONARY:
            c.regs += 2
            controls.update(("load_en", "swap_in"))
        elif kind in (DataflowType.MULTICAST_STATIONARY, DataflowType.FULL_REUSE):
            c.regs += 2
            controls.update(("load_en", "swap_in"))
    c.muls += len(spec.input_flows) - 1 if len(spec.input_flows) > 1 else 1
    if len(spec.input_flows) == 1:
        c.muls = 0
    out = spec.output_flow.kind
    if out is DataflowType.SYSTOLIC:
        c.adds += 1
        c.regs += 1
    elif out is DataflowType.STATIONARY:
        c.regs += 2
        c.adds += 1
        c.muxes += 2
        c.logic += 1
        controls.update(("acc_clear", "swap_out", "drain_en"))
    elif out is DataflowType.UNICAST:
        c.regs += 1
    return c, controls


def _ref_count_resources(spec, rows, cols, width=16):
    grid = _WalkerGrid(rows, cols)
    total = ResourceCounts(width=width)
    pe, controls = _ref_pe_counts(spec)
    for f in ("regs", "adds", "muls", "muxes", "logic"):
        setattr(total, f, getattr(pe, f) * grid.size)
    for flow in spec.flows:
        kind = flow.kind
        if kind is DataflowType.SYSTOLIC:
            s1, s2, dt = flow.systolic_direction
            ports = grid.boundary_count((s1, s2))
            total.regs += (grid.size - ports) * (dt - 1)
            total.sram_ports_per_cycle += ports
        elif kind is DataflowType.UNICAST:
            total.sram_ports_per_cycle += grid.size
        elif kind is DataflowType.MULTICAST:
            mc = (flow.multicast_direction[0], flow.multicast_direction[1])
            lines = grid.line_count(mc)
            total.sram_ports_per_cycle += lines
            if flow.is_output:
                total.adds += grid.size - lines
                total.regs += lines
            else:
                total.bus_wire_hops += grid.size
        elif kind is DataflowType.BROADCAST:
            total.sram_ports_per_cycle += 1
            if flow.is_output:
                total.adds += grid.size - 1
                total.regs += 1
            else:
                total.bus_wire_hops += grid.size
        elif kind is DataflowType.FULL_REUSE:
            if flow.is_output:
                total.adds += grid.size - 1 + 1
                total.regs += 1
                total.muxes += 1
            else:
                total.bus_wire_hops += grid.size
        elif kind is DataflowType.MULTICAST_STATIONARY:
            mc = (flow.multicast_direction[0], flow.multicast_direction[1])
            lines = grid.line_count(mc)
            if not flow.is_output:
                total.bus_wire_hops += grid.size
            if flow.is_output:
                total.adds += (grid.size - lines) + lines
                total.regs += lines
                total.muxes += lines
        elif kind is DataflowType.SYSTOLIC_MULTICAST:
            mc = (flow.multicast_direction[0], flow.multicast_direction[1])
            sy = flow.systolic_direction
            lines = grid.line_count(mc)
            chains, _ = grid.chain_stats(mc, (sy[0], sy[1]))
            if not flow.is_output:
                total.bus_wire_hops += grid.size
            total.sram_ports_per_cycle += chains
            hops = lines - chains
            if flow.is_output:
                total.adds += (grid.size - lines) + hops
                total.regs += hops * sy[2]
            else:
                total.regs += hops * sy[2]
        elif kind is DataflowType.STATIONARY:
            total.sram_ports_per_cycle += 0
        else:
            raise AssertionError(kind)
    total.control_fanout = len(controls) * grid.size
    total.regs += 10
    total.adds += 1
    total.muxes += 1
    total.logic += 10
    return total


def _left_fold(values):
    """What ``sum()`` of floats computed up to Python 3.11: plain additions, in order."""
    total = 0.0
    for value in values:
        total += value
    return total


def _neumaier(values):
    """Compensated summation, as ``sum()`` of floats does from Python 3.12."""
    total = compensation = 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


def _ref_cost(model, spec):
    p = model.params
    w = model.width
    scale = w / 16.0
    counts = _ref_count_resources(spec, model.rows, model.cols, width=w)
    area = {
        "mul": counts.muls * p.area_mul_per_bit2 * w * w,
        "add": counts.adds * p.area_add_per_bit * w,
        "reg": counts.regs * p.area_reg_per_bit * w,
        "mux": counts.muxes * p.area_mux_per_bit * w,
        "logic": counts.logic * p.area_logic_gate,
        "sram": model.sram_words * p.area_sram_per_word * scale,
        "wire": counts.bus_wire_hops * p.area_wire_per_hop * scale,
        "control": counts.control_fanout * p.area_control_per_pe,
    }
    area["fixed"] = p.area_fixed_mm2 * 1e6
    area_mm2 = _left_fold(area.values()) / 1e6
    cycles_per_sec = model.freq_mhz * 1e6
    pj = {
        "mac": (counts.muls * p.e_mul + counts.adds * p.e_add) * scale,
        "reg": counts.regs * p.e_reg * scale,
        "mux": counts.muxes * p.e_mux * scale,
        "bus": counts.bus_wire_hops * p.e_bus_per_hop * scale,
        "sram": counts.sram_ports_per_cycle * p.e_sram_access * scale,
        "control": counts.control_fanout * p.e_control_per_pe,
    }
    power = {k: v * cycles_per_sec / 1e9 for k, v in pj.items()}
    power["leakage"] = area_mm2 * p.leakage_mw_per_mm2
    return CostResult(
        spec_name=spec.name,
        area_mm2=area_mm2,
        power_mw=_left_fold(power.values()),
        area_breakdown={k: v / 1e6 for k, v in area.items()},
        power_breakdown=power,
        counts=counts,
    )


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _bits(value):
    """A value's full identity: types and float reprs all the way down."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return type(value).__name__, tuple((f.name, _bits(getattr(value, f.name))) for f in fields)
    if isinstance(value, dict):
        return "dict", tuple((key, _bits(item)) for key, item in value.items())
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(_bits(item) for item in value)
    return type(value).__name__, repr(value)


def _plan_bits(plan):
    return _bits(
        (
            plan.tile,
            plan.tile_extents,
            plan.footprint,
            plan.space_offset,
            plan.t_min,
            plan.t_span,
            plan.lead,
            plan.out_lag,
            plan.timing,
            plan.n_stages(),
        )
    )


@lru_cache(maxsize=None)
def _designs(workload: str, choice: int) -> tuple:
    statement = workloads.by_name(workload, **EXTENTS[workload][choice])
    return tuple(
        iter_designs(
            statement, realizable_only=True, canonical=True, per_selection_limit=PER_SELECTION
        )
    )


CASES = [(w, c) for w in EXTENTS for c in (0, 1)]


@pytest.mark.parametrize("workload, choice", CASES, ids=[f"{w}-{c}" for w, c in CASES])
def test_flat_passes_match_the_object_chain(workload, choice):
    designs = _designs(workload, choice)
    assert designs
    for rows, cols in ARRAYS:
        config = ArrayConfig(rows=rows, cols=cols)
        cost = CostModel.for_array(config)
        models = [PerfModel(config, allow_packing=packing) for packing in (True, False)]
        for spec in designs:
            where = (spec.name, spec.stt.matrix, rows, cols)
            assert _plan_bits(StagePlan(spec, rows, cols)) == _plan_bits(
                _RefStagePlan(spec, rows, cols)
            ), where
            for model in models:
                assert _bits(model.evaluate(spec)) == _bits(_ref_perf(model, spec)), (
                    where,
                    model.allow_packing,
                )
            assert _bits(count_resources(spec, rows, cols)) == _bits(
                _ref_count_resources(spec, rows, cols)
            ), where
            assert _bits(cost.evaluate(spec)) == _bits(_ref_cost(cost, spec)), where


def test_cost_totals_are_not_what_a_compensated_sum_gives():
    """The references add cost totals left to right; on some of these
    designs a compensated sum gives other bits, so pinning the totals to the
    references is not vacuous on any Python."""
    cost = CostModel(rows=16, cols=16)
    differing = 0
    for workload, choice in CASES:
        for spec in _designs(workload, choice):
            terms = list(cost.evaluate(spec).power_breakdown.values())
            differing += _left_fold(terms) != _neumaier(terms)
    assert differing > 0


def test_caller_tiles_match_the_object_chain():
    """Smaller tiles than the search picks, and tiles that overflow the array."""
    for workload in ("gemm", "conv2d", "depthwise_conv"):
        for spec in _designs(workload, 0):
            chosen = choose_tile(spec, 8, 8)
            extents = spec.selected_space
            for shrink, grow in itertools.product((1, 2), (0, 1)):
                tile = {
                    name: min(extents[name].extent, max(1, t // shrink) + grow)
                    for name, t in chosen.items()
                }
                try:
                    want = _plan_bits(_RefStagePlan(spec, 8, 8, tile))
                except ValueError as exc:
                    with pytest.raises(ValueError, match="exceeds array") as got:
                        StagePlan(spec, 8, 8, tile)
                    assert str(got.value) == str(exc)
                    continue
                assert _plan_bits(StagePlan(spec, 8, 8, tile)) == want, (spec.name, tile)


@pytest.mark.parametrize("rows, cols", [(0, 4), (4, 0), (-1, 3)])
def test_empty_arrays_fail_as_before(rows, cols):
    spec = _designs("gemm", 0)[0]
    message = f"grid needs positive dims, got {rows}x{cols}"
    with pytest.raises(ValueError, match=message):
        PerfModel(ArrayConfig(rows=rows, cols=cols)).evaluate(spec)
    with pytest.raises(ValueError, match=message):
        CostModel(rows=rows, cols=cols).evaluate(spec)
    with pytest.raises(ValueError, match=message):
        StagePlan(spec, rows, cols)
