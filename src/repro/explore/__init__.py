"""Design-space exploration: enumerate -> prune -> evaluate -> Pareto.

The productivity claim of the paper is that generation is cheap enough to
sweep the whole dataflow space; this package packages that loop as a
streaming pipeline.  :class:`repro.explore.engine.EvaluationEngine` owns the
full flow — lazy enumeration (:mod:`repro.core.enumerate`), composable
pruning, serial evaluation through the performance and cost models with a
two-level memo cache, structured failure reporting, and multi-workload
sweeps — while :meth:`repro.api.LocalSession.explore` is the one-call front
door and :func:`repro.explore.pareto.pareto_front` extracts the interesting
frontier.
"""

from repro.explore.engine import (
    DesignFailure,
    DesignPoint,
    EvaluationEngine,
    EvaluationResult,
    EvaluationStats,
    MemoCache,
)
from repro.explore.pareto import pareto_front

__all__ = [
    "DesignPoint",
    "DesignFailure",
    "EvaluationEngine",
    "EvaluationResult",
    "EvaluationStats",
    "MemoCache",
    "pareto_front",
]
