"""On-chip memory configuration and behavioural scratchpad model.

The paper assigns "each group of PEs that reuse the same tensor indexes ...
a particular memory bank" (§V-B) and generates a flexible memory template
with configurable load/store patterns.  We reproduce that as:

- :class:`BankConfig` / :class:`MemoryConfig` — the *structural* outcome of
  memory generation: how many banks each tensor needs, their port widths and
  depths, and the access pattern class.  The FPGA/ASIC cost models consume
  this (BRAM counts, SRAM area).
- :class:`Scratchpad` — a behavioural model holding the actual tensors during
  functional simulation.  The schedule generator decides *which element* each
  port needs each cycle; the scratchpad serves those reads and applies
  read-modify-write accumulation for partial outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.dataflow import DataflowSpec, DataflowType
from repro.hw.array import ArrayInfo

__all__ = ["BankConfig", "MemoryConfig", "Scratchpad", "plan_memory"]


@dataclass(frozen=True)
class BankConfig:
    """One tensor's bank allocation."""

    tensor: str
    is_output: bool
    n_banks: int
    words_per_bank: int
    pattern: str  # "stream" | "per_line" | "per_pe" | "per_column" | "scalar"

    @property
    def total_words(self) -> int:
        return self.n_banks * self.words_per_bank


@dataclass(frozen=True)
class MemoryConfig:
    """Complete on-chip buffer plan for a generated accelerator."""

    banks: tuple[BankConfig, ...]

    def bank(self, tensor: str) -> BankConfig:
        for b in self.banks:
            if b.tensor == tensor:
                return b
        raise KeyError(f"no bank plan for tensor {tensor!r}")

    @property
    def total_words(self) -> int:
        return sum(b.total_words for b in self.banks)

    @property
    def total_ports(self) -> int:
        return sum(b.n_banks for b in self.banks)


def plan_memory(spec: DataflowSpec, info: ArrayInfo) -> MemoryConfig:
    """Derive the bank plan from the dataflow (paper §V-B).

    Port counts follow the interconnect: one bank per multicast line, per
    unicast PE, per stationary column chain, per systolic boundary entry.
    Depths provision a double-buffered tile of the tensor footprint.
    """
    grid = info.grid
    banks = []
    for flow in spec.flows:
        wiring = info.tensor(flow.tensor_name)
        kind = flow.kind
        if kind is DataflowType.UNICAST:
            n, pattern = grid.size, "per_pe"
        elif kind in (DataflowType.MULTICAST, DataflowType.MULTICAST_STATIONARY):
            n, pattern = len(wiring.line_map), "per_line"
        elif kind is DataflowType.SYSTOLIC_MULTICAST:
            n, _ = grid.chain_stats(wiring.line_dir, wiring.sy_space)
            pattern = "per_line"
        elif kind is DataflowType.SYSTOLIC:
            n, pattern = grid.boundary_count(wiring.sy_space), "stream"
        elif kind is DataflowType.STATIONARY:
            n, pattern = grid.cols, "per_column"
        elif kind in (DataflowType.BROADCAST, DataflowType.FULL_REUSE):
            n, pattern = 1, "scalar"
        else:  # pragma: no cover - exhaustive
            raise AssertionError(kind)
        footprint = flow.access.footprint()
        words = max(2, 2 * -(-footprint // max(n, 1)))  # double-buffered tile
        banks.append(
            BankConfig(
                tensor=flow.tensor_name,
                is_output=flow.is_output,
                n_banks=n,
                words_per_bank=words,
                pattern=pattern,
            )
        )
    return MemoryConfig(banks=tuple(banks))


class Scratchpad:
    """Behavioural on-chip buffer used by the functional harness.

    Holds input tensors read-only and accumulates into the output tensor
    (read-modify-write, as the paper's memory template does for partial
    results that revisit the buffer).
    """

    def __init__(self, spec: DataflowSpec, inputs: Mapping[str, np.ndarray]):
        self.spec = spec
        self.inputs: dict[str, np.ndarray] = {}
        for flow in spec.input_flows:
            name = flow.tensor_name
            arr = np.asarray(inputs[name])
            expected = flow.access.shape()
            if arr.shape != expected:
                raise ValueError(
                    f"tensor {name} has shape {arr.shape}, access needs {expected}"
                )
            self.inputs[name] = arr
        self.output = np.zeros(spec.output_flow.access.shape(), dtype=np.int64)

    def read(self, tensor: str, index: tuple[int, ...]) -> int:
        return int(self.inputs[tensor][index])

    def accumulate(self, index: tuple[int, ...], value: int) -> None:
        self.output[index] += value
