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
from repro.hw.geometry import boundary_count, chain_stats, check_dims, line_count

__all__ = ["ResourceCounts", "count_resources"]


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


def count_resources(spec: DataflowSpec, rows: int, cols: int, width: int = 16) -> ResourceCounts:
    """Resource counts for the full array (PEs + interconnect + controller).

    One pass over the design's flows, in plain ints: the per-PE cells and
    stage-control signals first, scaled to the array, then each flow's
    interconnect, then the controller.
    """
    check_dims(rows, cols)
    size = rows * cols
    directions = spec.flow_directions
    inputs = directions[:-1]

    # ---- per-PE cells and control signals --------------------------------
    regs = adds = muxes = logic = controls = 0
    for kind, _, _ in inputs:
        if kind is DataflowType.SYSTOLIC:
            regs += 1
        elif kind in (
            DataflowType.STATIONARY,
            DataflowType.MULTICAST_STATIONARY,
            DataflowType.FULL_REUSE,
        ):
            regs += 2  # double buffer, loaded under load_en / swap_in
            controls = 2
        # direct inputs (multicast/broadcast/unicast/systolic_multicast): none
    muls = len(inputs) - 1  # a single input is the product itself
    kind = directions[-1][0]
    if kind is DataflowType.SYSTOLIC:
        adds += 1
        regs += 1
    elif kind is DataflowType.STATIONARY:
        regs += 2
        adds += 1
        muxes += 2
        logic += 1
        controls += 3  # acc_clear, swap_out, drain_en
    elif kind is DataflowType.UNICAST:
        regs += 1
    # tree outputs: product leaves combinationally
    regs *= size
    adds *= size
    muls *= size
    muxes *= size
    logic *= size
    wire_hops = sram_ports = 0

    # ---- interconnect ------------------------------------------------------
    last = len(inputs)
    for index, (kind, sy, mc) in enumerate(directions):
        is_output = index == last
        if kind is DataflowType.SYSTOLIC:
            # entry PEs (inputs) and exit PEs (outputs) are equally many
            ports = boundary_count(rows, cols, sy[0], sy[1])
            regs += (size - ports) * (sy[2] - 1)
            sram_ports += ports
        elif kind is DataflowType.UNICAST:
            sram_ports += size
        elif kind is DataflowType.MULTICAST:
            lines = line_count(rows, cols, mc[0], mc[1])
            sram_ports += lines
            if is_output:
                # Reduction trees are local adder wiring, not long broadcast
                # tracks — the paper notes tree outputs stay cheap.
                adds += size - lines
                regs += lines  # root registers
            else:
                # lines partition the array: every PE sits on one bus
                wire_hops += size
        elif kind is DataflowType.BROADCAST:
            sram_ports += 1
            if is_output:
                adds += size - 1
                regs += 1
            else:
                wire_hops += size
        elif kind is DataflowType.FULL_REUSE:
            if is_output:
                adds += size - 1 + 1  # tree + accumulator add
                regs += 1
                muxes += 1
            else:
                wire_hops += size  # scalar broadcast to all PEs
        elif kind is DataflowType.MULTICAST_STATIONARY:
            lines = line_count(rows, cols, mc[0], mc[1])
            if is_output:
                adds += (size - lines) + lines
                regs += lines
                muxes += lines
            else:
                wire_hops += size
        elif kind is DataflowType.SYSTOLIC_MULTICAST:
            lines = line_count(rows, cols, mc[0], mc[1])
            chains, _ = chain_stats(rows, cols, mc[0], mc[1], sy[0], sy[1])
            sram_ports += chains
            hops = lines - chains
            if is_output:
                adds += (size - lines) + hops
            else:
                wire_hops += size
            regs += hops * sy[2]
        elif kind is DataflowType.STATIONARY:
            pass  # column load chains reuse the shadow regs; amortized SRAM traffic
        else:  # pragma: no cover
            raise AssertionError(kind)

    # ---- controller: stage counter, its adder and mux, comparators/gates ----
    return ResourceCounts(
        regs=regs + 10,
        adds=adds + 1,
        muls=muls,
        muxes=muxes + 1,
        logic=logic + 10,
        bus_wire_hops=wire_hops,
        sram_ports_per_cycle=sram_ports,
        control_fanout=controls * size,
        width=width,
    )
