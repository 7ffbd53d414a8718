"""Analytic primitive-resource counting for generated accelerators.

Mirrors the construction in :mod:`repro.hw.pe` and :mod:`repro.hw.array`
exactly — ``tests/cost/test_counts.py`` asserts equality against real netlist
cell counts — but runs in microseconds, so design-space sweeps over hundreds
of 16x16 designs stay fast.

Beyond raw cell counts, it records the *interconnect profile* the power model
needs: multicast bus lengths (wire capacitance), boundary port counts (SRAM
traffic), and control-signal fanout (the paper attributes stationary
dataflows' energy premium to exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dataflow import DataflowSpec, DataflowType
from repro.hw.geometry import Grid

__all__ = ["ResourceCounts", "count_resources"]

_TREE_OUT = (
    DataflowType.MULTICAST,
    DataflowType.BROADCAST,
    DataflowType.MULTICAST_STATIONARY,
    DataflowType.FULL_REUSE,
    DataflowType.SYSTOLIC_MULTICAST,
)


@dataclass
class ResourceCounts:
    """Primitive cells plus interconnect/activity metadata."""

    regs: int = 0
    adds: int = 0
    muls: int = 0
    muxes: int = 0
    logic: int = 0  # 1-bit gates (and/or/not/eq/lt)
    #: total multicast/broadcast bus length in PE hops (wire capacitance).
    bus_wire_hops: int = 0
    #: PEs reading/writing the scratchpad every execute cycle.
    sram_ports_per_cycle: int = 0
    #: PEs fanned out to by stage-control signals (load/swap/clear/drain).
    control_fanout: int = 0
    #: data bit width everything above is counted at.
    width: int = 32

    def merge(self, other: "ResourceCounts") -> None:
        self.regs += other.regs
        self.adds += other.adds
        self.muls += other.muls
        self.muxes += other.muxes
        self.logic += other.logic
        self.bus_wire_hops += other.bus_wire_hops
        self.sram_ports_per_cycle += other.sram_ports_per_cycle
        self.control_fanout += other.control_fanout


def _pe_counts(spec: DataflowSpec) -> tuple[ResourceCounts, set[str]]:
    """Per-PE primitive counts and the set of control signals required."""
    c = ResourceCounts()
    controls: set[str] = set()
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
        # direct inputs (multicast/broadcast/unicast/systolic_multicast): none
    c.muls += len(spec.input_flows) - 1 if len(spec.input_flows) > 1 else 1
    if len(spec.input_flows) == 1:
        c.muls = 0  # single input: the operand is the product
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
    # tree outputs: product leaves combinationally
    return c, controls


def count_resources(spec: DataflowSpec, rows: int, cols: int, width: int = 16) -> ResourceCounts:
    """Resource counts for the full array (PEs + interconnect + controller)."""
    grid = Grid(rows, cols)
    total = ResourceCounts(width=width)
    pe, controls = _pe_counts(spec)
    for f in ("regs", "adds", "muls", "muxes", "logic"):
        setattr(total, f, getattr(pe, f) * grid.size)

    # ---- interconnect ------------------------------------------------------
    for flow in spec.flows:
        kind = flow.kind
        if kind is DataflowType.SYSTOLIC:
            s1, s2, dt = flow.systolic_direction
            # entry PEs (inputs) and exit PEs (outputs) are equally many
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
                # Reduction trees are local adder wiring, not long broadcast
                # tracks — the paper notes tree outputs stay cheap.
                total.adds += grid.size - lines
                total.regs += lines  # root registers
            else:
                # lines partition the array: every PE sits on one bus
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
                total.adds += grid.size - 1 + 1  # tree + accumulator add
                total.regs += 1
                total.muxes += 1
            else:
                total.bus_wire_hops += grid.size  # scalar broadcast to all PEs
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
            # column load chains reuse the shadow regs; amortized SRAM traffic
            total.sram_ports_per_cycle += 0
        else:  # pragma: no cover
            raise AssertionError(kind)

    # ---- control fanout ----------------------------------------------------
    total.control_fanout = len(controls) * grid.size

    # ---- controller --------------------------------------------------------
    total.regs += 10  # stage counter
    total.adds += 1
    total.muxes += 1
    total.logic += 10  # comparators and gates

    return total
