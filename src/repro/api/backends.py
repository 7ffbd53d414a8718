"""Built-in evaluator backends: the four legacy call conventions, unified.

Before the API redesign every consumer glued the backends together by hand::

    CostModel(rows, cols, width).evaluate(spec)            # cost
    PerfModel(config).evaluate(spec) / .evaluate_named(..) # perf (two doors!)
    FPGAModel(vec=8).evaluate(spec, rows, cols, ...)       # fpga
    sim.harness.run_functional(spec, rows, cols, ...)      # sim

Each adapter here folds one of those into the single
``evaluate(DesignRequest) -> EvalResult`` signature (the second perf door,
``evaluate_named``, has since been removed).  Adapters are stateless:
models are built per request from the request's own array/width/cost fields
(construction is trivially cheap next to evaluation, and the Session-level
memo cache absorbs repeats), so one registry instance serves any mix of
configurations.

Backend rejections (degenerate skews, unsupported dataflows, functional
mismatches) come back as structured ``ok=False`` results, never exceptions —
the same philosophy as the engine's failure channel.
"""

from __future__ import annotations

from typing import Callable

from repro.api.registry import _register_builtin
from repro.api.types import DesignRequest, EvalResult, check_resolve_options
from repro.core.dataflow import DataflowSpec
from repro.core.naming import best_spec_from_name, spec_from_name
from repro.core.stt import STT
from repro.cost.model import CostModel
from repro.fpga.resources import ARRIA10, VU9P, FPGAModel
from repro.ir import workloads
from repro.ir.einsum import Statement
from repro.perf.model import PerfModel

__all__ = [
    "BUILTIN_EVALUATORS",
    "CostEvaluator",
    "PerfEvaluator",
    "FpgaEvaluator",
    "SimEvaluator",
    "resolve_request",
    "register_builtins",
]

#: Exception types that mean "this design is rejected", not "the code is
#: broken" — they become structured failures instead of propagating.  The
#: resolve stage needs the broad set (unknown workload names raise KeyError,
#: infeasible dataflow names LookupError); the backend stage is kept narrow
#: (matching the engine's ``_evaluate_one``) so a genuine bug — a typo'd dict
#: key, a broken model — propagates instead of being memoized as a bogus
#: ``ok=False`` rejection.
_RESOLVE_REJECTIONS = (ValueError, NotImplementedError, LookupError, KeyError)
_BACKEND_REJECTIONS = (ValueError, NotImplementedError)


def resolve_request(request: DesignRequest) -> tuple[Statement, DataflowSpec]:
    """Instantiate the workload statement and the design spec of a request.

    An explicit ``selection``+``stt`` wins; otherwise the ``dataflow`` name is
    resolved per ``options["resolve"]``: ``"simplest"`` (default) takes the
    first matching STT in complexity order, ``"best"`` scores every match
    (up to ``options["limit"]``) with the performance model on the request's
    array — the policy the CLI and the Fig. 5 benchmarks use.  ``bound`` and
    ``limit`` are checked by :func:`repro.api.types.check_resolve_options`
    first.
    """
    statement = workloads.by_name(request.workload, **request.extents)
    if request.stt is not None:
        spec = DataflowSpec(statement, tuple(request.selection), STT(request.stt))
        return statement, spec
    resolve = request.options.get("resolve", "simplest")
    bound = request.options.get("bound", 1)
    limit = request.options.get("limit", 24)
    check_resolve_options(bound=bound, limit=limit)
    if resolve == "best":
        model = PerfModel(request.array)
        spec = best_spec_from_name(
            statement,
            request.dataflow,
            lambda s: model.evaluate(s).normalized,
            bound=bound,
            limit=limit,
        )
    elif resolve == "simplest":
        spec = spec_from_name(statement, request.dataflow, bound=bound)
    else:
        raise ValueError(f"unknown resolve policy {resolve!r} (use 'simplest' or 'best')")
    return statement, spec


def _spec_details(spec: DataflowSpec) -> dict:
    return {
        "selection": list(spec.selected),
        "stt": [list(row) for row in spec.stt.matrix],
        "letters": spec.letters,
    }


def _evaluating(
    fn: Callable[[Statement, DataflowSpec], EvalResult],
    backend: str,
    request: DesignRequest,
) -> EvalResult:
    """Run one backend body, converting rejections into structured failures."""
    try:
        statement, spec = resolve_request(request)
    except _RESOLVE_REJECTIONS as exc:
        return EvalResult.failure(
            backend,
            request.workload,
            stage="resolve",
            reason=f"{type(exc).__name__}: {exc}",
            dataflow=request.dataflow,
        )
    try:
        return fn(statement, spec)
    except _BACKEND_REJECTIONS as exc:
        return EvalResult.failure(
            backend,
            request.workload,
            stage=backend,
            reason=f"{type(exc).__name__}: {exc}",
            dataflow=spec.name,
        )


class PerfEvaluator:
    """Cycle-count model (paper Fig. 5) behind the unified signature."""

    backend = "perf"

    def evaluate(self, request: DesignRequest) -> EvalResult:
        def run(statement: Statement, spec: DataflowSpec) -> EvalResult:
            r = PerfModel(request.array).evaluate(spec)
            return EvalResult(
                backend=self.backend,
                workload=request.workload,
                dataflow=spec.name,
                metrics={
                    "normalized_perf": r.normalized,
                    "cycles": r.cycles,
                    "peak_cycles": r.peak_cycles,
                    "utilization": r.utilization,
                    "bandwidth_stall": r.bandwidth_stall,
                    "runtime_ms": r.runtime_ms,
                },
                details={**_spec_details(spec), "breakdown": dict(r.breakdown)},
            )

        return _evaluating(run, self.backend, request)


class CostEvaluator:
    """Calibrated 55 nm area/power model (paper Fig. 6) adapter."""

    backend = "cost"

    def evaluate(self, request: DesignRequest) -> EvalResult:
        def run(statement: Statement, spec: DataflowSpec) -> EvalResult:
            model = CostModel.for_array(
                request.array,
                width=request.width,
                params=request.cost,
                sram_words=request.sram_words,
            )
            r = model.evaluate(spec)
            return EvalResult(
                backend=self.backend,
                workload=request.workload,
                dataflow=spec.name,
                metrics={"area_mm2": r.area_mm2, "power_mw": r.power_mw},
                details={
                    **_spec_details(spec),
                    "area_breakdown": dict(r.area_breakdown),
                    "power_breakdown": dict(r.power_breakdown),
                },
            )

        return _evaluating(run, self.backend, request)


_FPGA_DEVICES = {VU9P.name: VU9P, ARRIA10.name: ARRIA10}


class FpgaEvaluator:
    """FPGA resource/frequency model (paper Table III) adapter.

    ``options``: ``vec`` (default 8), ``device`` (``"VU9P"``/``"Arria-10"``),
    plus the keyword-only evaluation knobs documented in
    :data:`repro.fpga.resources.EVAL_DEFAULTS` (``workload_label``,
    ``buffer_bytes``, ``floorplan_optimized``, ``generator``).
    """

    backend = "fpga"

    def evaluate(self, request: DesignRequest) -> EvalResult:
        def run(statement: Statement, spec: DataflowSpec) -> EvalResult:
            opts = request.options
            device_name = opts.get("device", VU9P.name)
            try:
                device = _FPGA_DEVICES[device_name]
            except KeyError:
                raise ValueError(
                    f"unknown FPGA device {device_name!r}; known: {sorted(_FPGA_DEVICES)}"
                ) from None
            model = FPGAModel(device=device, vec=int(opts.get("vec", 8)))
            eval_kwargs = {
                k: opts[k]
                for k in ("workload_label", "buffer_bytes", "floorplan_optimized", "generator")
                if k in opts
            }
            r = model.evaluate(spec, request.array.rows, request.array.cols, **eval_kwargs)
            return EvalResult(
                backend=self.backend,
                workload=request.workload,
                dataflow=spec.name,
                metrics={
                    "lut": float(r.lut),
                    "dsp": float(r.dsp),
                    "bram": float(r.bram),
                    "freq_mhz": r.freq_mhz,
                    "gops": r.gops,
                    "lut_pct": r.lut_pct,
                    "dsp_pct": r.dsp_pct,
                    "bram_pct": r.bram_pct,
                },
                details={**_spec_details(spec), "row": r.row()},
            )

        return _evaluating(run, self.backend, request)


class SimEvaluator:
    """Functional netlist-vs-numpy verification adapter.

    ``options``: ``width`` (simulation datapath bits, default 32), ``seed``
    (input RNG), ``tile`` (loop -> tile-size mapping).  A mismatch between
    the simulated netlist and the numpy reference comes back as a structured
    ``ok=False`` result with stage ``"sim"``; success memoizes the cycle
    count and output checksum, which is what makes warm ``verify`` runs free.
    """

    backend = "sim"

    def evaluate(self, request: DesignRequest) -> EvalResult:
        from repro.sim.harness import verify_functional

        def run(statement: Statement, spec: DataflowSpec) -> EvalResult:
            opts = request.options
            try:
                summary = verify_functional(
                    spec,
                    request.array.rows,
                    request.array.cols,
                    width=int(opts.get("width", 32)),
                    tile=opts.get("tile"),
                    seed=int(opts.get("seed", 0)),
                )
            except AssertionError as exc:
                return EvalResult.failure(
                    self.backend,
                    request.workload,
                    stage="sim",
                    reason=f"functional mismatch: {exc}",
                    dataflow=spec.name,
                )
            return EvalResult(
                backend=self.backend,
                workload=request.workload,
                dataflow=spec.name,
                metrics={
                    "cycles_run": float(summary["cycles_run"]),
                    "elements": float(summary["elements"]),
                },
                details={**_spec_details(spec), "output_checksum": summary["output_checksum"]},
            )

        return _evaluating(run, self.backend, request)


#: Backend name -> built-in evaluator class (what :func:`register_builtins`
#: installs).
BUILTIN_EVALUATORS = {
    cls.backend: cls
    for cls in (CostEvaluator, PerfEvaluator, FpgaEvaluator, SimEvaluator)
}


def register_builtins() -> None:
    """Idempotently register the four built-in backends."""
    for cls in BUILTIN_EVALUATORS.values():
        _register_builtin(cls.backend, cls)


register_builtins()
