"""Analytical performance model reproducing paper Fig. 5.

The functional simulator executes real netlists but cannot run paper-scale
workloads (a 16x16 array over ResNet layers); this package models execution
cycles analytically from the *same* stage geometry
(:func:`~repro.hw.plan.stage_geometry`, which :class:`~repro.hw.plan.StagePlan`
is built from) the hardware uses, adding the effects the paper discusses:

- pipeline fill/drain skew of systolic dataflows vs multicast,
- double-buffered overlap of stationary load/drain with compute,
- on-chip bandwidth stalls for unicast dataflows,
- PE under-utilization for small loop extents (with packing),
- communication delay dominating short stages.

Cross-validated against the netlist simulator on small instances
(``tests/perf/test_crosscheck.py``).
"""

from repro.perf.model import PerfModel, PerfResult, ArrayConfig

__all__ = ["PerfModel", "PerfResult", "ArrayConfig"]
