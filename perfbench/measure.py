"""End-to-end metrics shared by the three workloads, and the run context."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

#: Every end-to-end metric, in BENCHMARK.json order: (name, unit).
END_TO_END = (
    ("designs_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Setup is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5


@dataclass
class Context:
    """What one invocation asked for, plus its private scratch directory."""

    seed: int
    seconds: float
    trace: bool
    workdir: str


@dataclass
class Outcome:
    """A workload's answer: the result line's fields plus printable notes."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    notes: list[str] = field(default_factory=list)


def end_to_end(designs: int, busy_s: float, latencies_s, setups, rss_mb: float,
               unit: str, slowdown: float) -> tuple[dict[str, float], str]:
    """The end-to-end metric values plus a one-line description of them.

    ``latencies_s`` are the workload's per-request waits (``unit`` names
    what a request is on this workload); they and ``busy_s`` are divided by
    the run's host ``slowdown`` (see ``calibration.py``).  ``setups`` are
    ``(scaled, raw)`` seconds of each set-up, each already scaled by the
    samples taken around it.
    """
    latencies_ms = [1000.0 * v / slowdown for v in latencies_s]
    values = {
        "designs_per_s": designs * slowdown / busy_s,
        "request_p50_ms": statistics.median(latencies_ms),
        "request_p95_ms": statistics.quantiles(latencies_ms, n=20, method="inclusive")[18],
        "setup_s": statistics.median(scaled for scaled, _raw in setups),
        "peak_rss_mb": rss_mb,
    }
    beyond = sum(1 for v in latencies_ms if v > values["request_p95_ms"])
    note = (
        f"{designs} designs in {busy_s:.3f} s busy; host slowdown {slowdown:.4f} "
        f"(raw designs_per_s {designs / busy_s:.3f}); request = {unit}: "
        f"p50 {values['request_p50_ms']:.3f} ms, p95 {values['request_p95_ms']:.3f} ms "
        f"over {len(latencies_ms)} samples ({beyond} beyond p95); set-ups (scaled/raw) "
        + ", ".join(f"{scaled:.3f}/{raw:.3f}" for scaled, raw in setups) + " s"
    )
    return values, note
