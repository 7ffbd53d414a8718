"""Calibrated 55 nm area/power model (paper Fig. 6 substitute).

Area is a static function of the primitive counts plus the on-chip SRAM;
power is activity-based dynamic energy at the operating frequency plus
area-proportional leakage.  Coefficients are calibrated so a 16x16 INT16
array at 320 MHz lands in the paper's reported ranges (GEMM: 35-63 mW,
0.75-0.875 mm^2) and reproduces the paper's qualitative findings:

- dataflow choice moves *power* (~1.8x) far more than *area* (~1.16x),
- two multicast inputs (MM?) cost the most energy (bus capacitance),
- reduction-tree outputs are cheap despite similar STT-level structure,
- stationary tensors pay area and energy for double buffers and the
  stage-control fanout,
- unicast dataflows pay heavily for per-PE SRAM traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

from repro.core.dataflow import DataflowSpec
from repro.cost.counts import ResourceCounts, count_resources

__all__ = ["CostParams", "CostResult", "CostModel"]


@dataclass(frozen=True)
class CostParams:
    """Technology coefficients (55 nm class, INT16-normalized).

    Areas in um^2 *per bit* unless noted; energies in pJ *per access per
    16-bit word* (scaled by ``width/16`` on evaluation).
    """

    # --- area (um^2) -----------------------------------------------------
    area_mul_per_bit2: float = 5.5  # multiplier grows ~quadratically: coef * W^2
    area_add_per_bit: float = 11.0
    area_reg_per_bit: float = 7.5
    area_mux_per_bit: float = 4.5
    area_logic_gate: float = 6.0
    area_sram_per_word: float = 4.2  # per 16-bit word equivalent
    area_wire_per_hop: float = 16.0  # routed multicast track per PE hop
    area_control_per_pe: float = 20.0  # control distribution per fanout point
    area_fixed_mm2: float = 0.155  # clock tree, host interface, pads

    # --- dynamic energy (pJ per access, 16-bit) ---------------------------
    e_mul: float = 0.26
    e_add: float = 0.035
    e_reg: float = 0.03
    e_mux: float = 0.008
    e_bus_per_hop: float = 0.085  # driving one PE hop of multicast wire
    e_sram_access: float = 0.38
    e_control_per_pe: float = 0.016

    # --- static ----------------------------------------------------------
    leakage_mw_per_mm2: float = 2.2


@dataclass
class CostResult:
    """Area/power evaluation of one design point."""

    spec_name: str
    area_mm2: float
    power_mw: float
    area_breakdown: dict[str, float]
    power_breakdown: dict[str, float]
    counts: ResourceCounts


class CostModel:
    """Evaluate ASIC area and power for dataflow specs.

    ``sram_words`` sets the scratchpad provisioning (the paper's designs
    share a fixed on-chip buffer, so it contributes constant area).
    """

    def __init__(
        self,
        rows: int = 16,
        cols: int = 16,
        width: int = 16,
        freq_mhz: float = 320.0,
        params: CostParams | None = None,
        sram_words: int = 32768,
    ):
        self.rows = rows
        self.cols = cols
        self.width = width
        self.freq_mhz = freq_mhz
        self.params = params or CostParams()
        self.sram_words = sram_words

    @classmethod
    def for_array(
        cls,
        array,
        *,
        width: int = 16,
        params: CostParams | None = None,
        sram_words: int = 32768,
    ) -> "CostModel":
        """Build a cost model matching an :class:`~repro.perf.model.ArrayConfig`.

        The single construction path used by the evaluation engine and the
        ``cost`` API backend, so geometry/frequency can never drift between
        the perf and cost sides of one evaluation.
        """
        return cls(
            rows=array.rows,
            cols=array.cols,
            width=width,
            freq_mhz=array.freq_mhz,
            params=params,
            sram_words=sram_words,
        )

    # ------------------------------------------------------------------
    def evaluate(self, spec: DataflowSpec) -> CostResult:
        p = self.params
        w = self.width
        scale = w / 16.0
        counts = count_resources(spec, self.rows, self.cols, width=w)

        # ---- area ----------------------------------------------------------
        area = {
            "mul": counts.muls * p.area_mul_per_bit2 * w * w,
            "add": counts.adds * p.area_add_per_bit * w,
            "reg": counts.regs * p.area_reg_per_bit * w,
            "mux": counts.muxes * p.area_mux_per_bit * w,
            "logic": counts.logic * p.area_logic_gate,
            "sram": self.sram_words * p.area_sram_per_word * scale,
            "wire": counts.bus_wire_hops * p.area_wire_per_hop * scale,
            "control": counts.control_fanout * p.area_control_per_pe,
        }
        area["fixed"] = p.area_fixed_mm2 * 1e6
        # Totals add left to right from 0.0, as sum() did up to Python 3.11:
        # sum() compensates from 3.12 on, which would move their last bits.
        area_mm2 = reduce(add, area.values(), 0.0) / 1e6

        # ---- power ---------------------------------------------------------
        cycles_per_sec = self.freq_mhz * 1e6
        pj = {
            "mac": (counts.muls * p.e_mul + counts.adds * p.e_add) * scale,
            "reg": counts.regs * p.e_reg * scale,
            "mux": counts.muxes * p.e_mux * scale,
            "bus": counts.bus_wire_hops * p.e_bus_per_hop * scale,
            "sram": counts.sram_ports_per_cycle * p.e_sram_access * scale,
            "control": counts.control_fanout * p.e_control_per_pe,
        }
        power = {k: v * cycles_per_sec / 1e9 for k, v in pj.items()}  # pJ*Hz -> mW
        power["leakage"] = area_mm2 * p.leakage_mw_per_mm2
        power_mw = reduce(add, power.values(), 0.0)

        return CostResult(
            spec_name=spec.name,
            area_mm2=area_mm2,
            power_mw=power_mw,
            area_breakdown={k: v / 1e6 for k, v in area.items()},
            power_breakdown=power,
            counts=counts,
        )
