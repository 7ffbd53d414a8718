"""Per-layer spans, recorded from outside the program.

:func:`install` wraps the public functions each ``src/repro`` layer answers
through (module attributes and class methods, looked up at call time by the
program), so a traced run needs no change under ``src/``.  Each call becomes
one span: ``[id, name, start, end, parent id, tag, child seconds]``.  Spans
live in memory and are written once, when the process ends; a layer's self
time is a span's duration minus the part its child spans cover.

The server launcher (``serve.py``) installs the same wrappers, so spans cover
server-side work as well.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import threading
import time

__all__ = ["Tracer", "install", "summarize", "PER_LAYER"]


class Tracer:
    """Span and counter sink shared by every wrapper in one process.

    Wrappers are installed once and stay cheap pass-throughs until
    :meth:`start`; :meth:`start` also drops whatever a warm-up recorded.
    """

    def __init__(self):
        self.enabled = False
        self.records: list[list] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        #: Request or pass the benchmark is serving now (tags root spans).
        self.tag = None
        self._ordinals: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def start(self) -> None:
        self.records = []
        with self._lock:
            self.counters = {}
            self._ordinals = {}
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def open(self, name: str) -> list:
        """Begin a span; it inherits its parent's tag, else the thread's."""
        stack = self._local.__dict__.setdefault("stack", [])
        if stack:
            parent, tag = stack[-1][0], stack[-1][5]
        else:
            parent, tag = 0, self._local.__dict__.get("tag", self.tag)
        rec = [next(self._ids), name, time.perf_counter(), 0.0, parent, tag, 0.0]
        stack.append(rec)
        return rec

    def tag_thread(self, kind: str) -> None:
        """Tag this thread's later root spans with ``kind``'s next ordinal.

        Servers learn nothing of the client's request ids, so a span there
        is tagged with the ordinal of the request or job it serves.
        """
        if self._local.__dict__.get("stack"):
            return
        with self._lock:
            ordinal = self._ordinals.get(kind, 0)
            self._ordinals[kind] = ordinal + 1
        self._local.tag = f"{kind}{ordinal}"

    def close(self, rec: list) -> None:
        rec[3] = end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][6] += end - rec[2]
        self.records.append(rec)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def dump(self) -> dict:
        return {"spans": self.records, "counters": self.counters}

    # -- wrapper factories ---------------------------------------------
    def timed(self, name: str, fn, after=None, ordinal: str | None = None):
        """A call wrapper recording one span per call.

        ``ordinal`` names the unit of work a root call starts (see
        :meth:`tag_thread`).
        """

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if ordinal is not None:
                self.tag_thread(ordinal)
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """A call wrapper that only counts calls (for very hot functions)."""

        def wrapper(*args, **kwargs):
            if self.enabled:
                self.count(name)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def stepped(self, name: str, fn, classify=None, ordinal: str | None = None):
        """Wrap a generator function: one span per ``next()`` step.

        ``classify(args, kwargs)`` may return ``(args, kwargs, rename)``;
        ``rename()`` is asked after each step for a new span name.
        """

        def wrapper(*args, **kwargs):
            rename = None
            if classify is not None:
                args, kwargs, rename = classify(args, kwargs)
            inner = fn(*args, **kwargs)
            if not self.enabled:
                return inner
            if ordinal is not None:
                self.tag_thread(ordinal)
            return self._steps(name, inner, rename)

        wrapper.__wrapped__ = fn
        return wrapper

    def _steps(self, name, inner, rename):
        try:
            while True:
                rec = self.open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    if rename is not None:
                        rec[1] = rename() or name
                    self.close(rec)
                yield item
        finally:
            inner.close()


def _patch(tracer: Tracer, owner, attr: str, make) -> None:
    """Replace ``owner.attr`` by ``make(original)``; note it when missing."""
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        tracer.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import repro.api.backends as backends
    import repro.core.enumerate as enumerate_mod
    import repro.explore.engine as engine_mod
    import repro.perf.model as perf_mod
    import repro.service.wire as wire_mod
    import repro.sim.harness as harness_mod
    from repro.api.session import LocalSession
    from repro.api.types import DesignRequest, EvalResult
    from repro.cost.model import CostModel
    from repro.explore.engine import EvaluationEngine, EvaluationStats, MemoCache
    from repro.fpga.resources import FPGAModel
    from repro.hw.generator import AcceleratorGenerator
    from repro.service.client import RemoteSession

    t = tracer

    def memo_hits(value):
        t.count("explore.memo_gets")
        if value is not None:
            t.count("explore.memo_hits")

    def sim_cycles(summary):
        if isinstance(summary, dict):
            t.count("sim.cycles", summary.get("cycles_run", 0))

    def space_stats(args, kwargs):
        # see whether the space came from the cache: iter_space sets
        # stats.space_cache_hit on its first step
        stats = kwargs.get("stats") or EvaluationStats()
        kwargs = dict(kwargs, stats=stats)
        return args, kwargs, lambda: "explore.space_replay" if stats.space_cache_hit else None

    timed = t.timed
    _patch(t, engine_mod, "iter_designs", lambda f: t.stepped("core.enumerate", f))
    _patch(t, enumerate_mod, "canonical_signature",
           lambda f: t.counted("core.dedup_signatures", f))
    for owner in (backends, engine_mod):
        _patch(t, owner, "best_spec_from_name", lambda f: timed("core.name_resolve", f))
    _patch(t, backends, "spec_from_name", lambda f: timed("core.name_resolve", f))
    _patch(t, perf_mod.PerfModel, "evaluate", lambda f: timed("perf.evaluate", f))
    _patch(t, perf_mod, "StagePlan", lambda f: timed("hw.plan", f))
    _patch(t, AcceleratorGenerator, "generate", lambda f: timed("hw.generate", f))
    _patch(t, CostModel, "evaluate", lambda f: timed("cost.evaluate", f))
    _patch(t, FPGAModel, "evaluate", lambda f: timed("fpga.evaluate", f))
    _patch(t, harness_mod, "verify_functional",
           lambda f: timed("sim.verify", f, after=sim_cycles))
    _patch(t, engine_mod, "canonical_signature",
           lambda f: timed("explore.key_signature", f))
    _patch(t, EvaluationEngine, "iter_space",
           lambda f: t.stepped("explore.iter_space", f, classify=space_stats, ordinal="space"))
    _patch(t, MemoCache, "get", lambda f: timed("explore.memo", f, after=memo_hits))
    _patch(t, MemoCache, "put", lambda f: timed("explore.memo", f))
    _patch(t, LocalSession, "evaluate", lambda f: timed("api.evaluate", f, ordinal="request"))
    for cls in (DesignRequest, EvalResult):
        for attr in ("to_dict", "from_dict"):
            _patch(t, cls, attr, lambda f: timed("api.codec", f))
    _patch(t, RemoteSession, "submit_job", lambda f: timed("service.submit", f))
    _patch(t, wire_mod, "point_to_row", lambda f: timed("service.encode", f))
    _patch(t, wire_mod, "row_to_point", lambda f: timed("service.decode", f))
    _patch(t, os, "fsync", lambda f: timed("service.fsync", f))
    if t.missing:
        print(f"note: not traced (missing): {', '.join(t.missing)}", file=sys.stderr)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
#: Every per-layer metric, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    ("core.enumerate_s", "s"),
    ("core.candidates", "count"),
    ("core.yield_ratio", "ratio"),
    ("core.dedup_signatures", "count"),
    ("core.name_resolve_s", "s"),
    ("perf.evaluate_s", "s"),
    ("perf.calls", "count"),
    ("hw.plan_s", "s"),
    ("hw.plan_builds", "count"),
    ("hw.generate_s", "s"),
    ("cost.evaluate_s", "s"),
    ("cost.calls", "count"),
    ("fpga.evaluate_s", "s"),
    ("sim.simulate_s", "s"),
    ("sim.cycles_per_s", "1/s"),
    ("explore.key_signature_s", "s"),
    ("explore.space_replay_s", "s"),
    ("explore.memo_s", "s"),
    ("explore.memo_hit_ratio", "ratio"),
    ("api.evaluate_s", "s"),
    ("api.codec_s", "s"),
    ("service.submit_ms_p50", "ms"),
    ("service.first_row_ms_p50", "ms"),
    ("service.encode_s", "s"),
    ("service.decode_s", "s"),
    ("service.fsync_calls", "count"),
    ("service.fsync_s", "s"),
    ("service.fold_queue_peak", "count"),
    ("service.rows_per_design", "ratio"),
    ("service.retries", "count"),
    ("service.http_ms_p50", "ms"),
    ("bench.trace_overhead", "ratio"),
)


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover."""
    out: dict[str, float] = {}
    for _id, name, start, end, _parent, _tag, child in spans:
        out[name] = out.get(name, 0.0) + (end - start - child)
    return out


def span_counts(spans) -> dict[str, int]:
    out: dict[str, int] = {}
    for rec in spans:
        out[rec[1]] = out.get(rec[1], 0) + 1
    return out


def durations(spans, name: str) -> list[float]:
    """Durations of every ``name`` span, in start order."""
    return [end - start for _i, n, start, end, *_ in sorted(spans, key=lambda r: r[2]) if n == name]


def median_ms(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def summarize(dumps, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from span dumps (this process plus servers).

    ``extra`` supplies what the workload measured itself (enumeration
    counters, coordinator reports, trace overhead); anything a layer did
    not do on this workload reads 0.
    """
    spans = [rec for dump in dumps for rec in dump["spans"]]
    counters: dict[str, float] = {}
    for dump in dumps:
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
    own = self_times(spans)
    calls = span_counts(spans)
    sim_s = own.get("sim.verify", 0.0)
    gets = counters.get("explore.memo_gets", 0)
    values = {
        "core.enumerate_s": own.get("core.enumerate", 0.0),
        "core.dedup_signatures": counters.get("core.dedup_signatures", 0),
        "core.name_resolve_s": own.get("core.name_resolve", 0.0),
        "perf.evaluate_s": own.get("perf.evaluate", 0.0),
        "perf.calls": calls.get("perf.evaluate", 0),
        "hw.plan_s": own.get("hw.plan", 0.0),
        "hw.plan_builds": calls.get("hw.plan", 0),
        "hw.generate_s": own.get("hw.generate", 0.0),
        "cost.evaluate_s": own.get("cost.evaluate", 0.0),
        "cost.calls": calls.get("cost.evaluate", 0),
        "fpga.evaluate_s": own.get("fpga.evaluate", 0.0),
        "sim.simulate_s": sim_s,
        "sim.cycles_per_s": counters.get("sim.cycles", 0) / sim_s if sim_s else 0.0,
        "explore.key_signature_s": own.get("explore.key_signature", 0.0),
        "explore.space_replay_s": own.get("explore.space_replay", 0.0),
        "explore.memo_s": own.get("explore.memo", 0.0),
        "explore.memo_hit_ratio": counters.get("explore.memo_hits", 0) / gets if gets else 0.0,
        "api.evaluate_s": own.get("api.evaluate", 0.0),
        "api.codec_s": own.get("api.codec", 0.0),
        "service.submit_ms_p50": median_ms(durations(spans, "service.submit")),
        "service.encode_s": own.get("service.encode", 0.0),
        "service.decode_s": own.get("service.decode", 0.0),
        "service.fsync_calls": calls.get("service.fsync", 0),
        "service.fsync_s": own.get("service.fsync", 0.0),
    }
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _unit in PER_LAYER}


def shares(spans, wall: float) -> str:
    """One line: each layer's self time as a share of ``wall`` seconds."""
    own = self_times(spans)
    parts = [
        f"{name} {100.0 * secs / wall:.1f}%"
        for name, secs in sorted(own.items(), key=lambda kv: -kv[1])
        if secs / wall >= 0.001
    ]
    return f"self-time shares of {wall:.2f} s: " + ", ".join(parts)
