"""RA008: unsanitized wire input must not reach a sensitive sink.

Everything a request hands the server is attacker-controlled: the JSON
body, the query string, the ``/v1/jobs/<id>`` path segment, the raw header
block.  This checker taints all of it at the source and follows it through
the dataflow engine (:mod:`repro.analysis.dataflow`) until it either passes
a **registered sanitizer** or reaches a **sink**:

========== ==========================================================
sources    parameters named ``payload``/``params``/``headers``/``body``/
           ``path``/``query`` on methods of the class that defines
           ``_route``; ``json.loads(...)``; stream reads
           (``reader.readline/readexactly/readuntil``)
sanitizers ``wire.bounded_body`` (validates *and bounds*),
           ``wire.job_items``, ``wire.instantiate_statement``,
           ``wire.engine_options``, ``wire.array_from_dict``,
           ``accepted_extents``, ``DesignRequest.from_dict``,
           ``_since_param``; ``int()``/``float()`` launder *content*
           (the result cannot traverse a path or name an attribute)
           but **not magnitude** — only a bounds check does that
sinks      filesystem paths (``open``, ``Path`` ops, ``os.remove``…),
           memo-cache keys (``*cache*.get/put``), allocations sized by
           the value (``[x] * n``, ``bytes(n)``, ``readexactly(n)``),
           dynamic dispatch (``getattr``/``eval``/``import_module``),
           and subprocess invocations
========== ==========================================================

Two taint kinds make the ``int()`` rule precise: ``taint:str`` (untrusted
*content*) and ``taint:size`` (untrusted *magnitude*).  A source mints
both; ``int(payload["bound"])`` drops the first and keeps the second, so
``await reader.readexactly(int(headers["content-length"]))`` — a request
asking the server to buffer an attacker-chosen number of bytes — is still
a finding until the length passes ``wire.bounded_body()``.

Taint follows calls one level deep: when a handler passes a tainted value
to a function the :class:`~repro.analysis.callgraph.ProjectGraph` resolves,
the callee is re-walked with the taint seeded into its parameter, so
``_route`` slicing a job id out of ``path`` and handing it to
``_job_detail`` keeps the id tainted inside ``_job_detail``.  Trees with no
``_route`` class (fixture subsets) are a no-op.
"""

from __future__ import annotations

import ast

from repro.analysis.callgraph import ProjectGraph, strip_self
from repro.analysis.checkers import Checker, LintContext
from repro.analysis.dataflow import (
    EMPTY,
    Domain,
    FunctionWalker,
    Label,
    bind_arguments,
)
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

__all__ = ["TaintChecker"]

T_STR = "taint:str"  #: untrusted content (strings, nested payloads)
T_SIZE = "taint:size"  #: untrusted magnitude (counts, lengths, bounds)
_KINDS = (T_STR, T_SIZE)

#: Parameter names that *are* the request on the ``_route`` class's methods.
_SOURCE_PARAMS = ("payload", "params", "headers", "body", "path", "query")

#: Call tails that read raw bytes off the wire (results are tainted, and a
#: tainted length argument is itself an allocation sink).
_STREAM_READS = ("readline", "readexactly", "readuntil")

#: sanitizer name (matched on the stripped dotted tail) -> kinds it clears.
SANITIZERS: dict[str, frozenset[str]] = {
    "int": frozenset({T_STR}),
    "float": frozenset({T_STR}),
    "len": frozenset({T_STR, T_SIZE}),
    "bool": frozenset({T_STR, T_SIZE}),
    "bounded_body": frozenset({T_STR, T_SIZE}),
    "job_items": frozenset({T_STR, T_SIZE}),
    "instantiate_statement": frozenset({T_STR, T_SIZE}),
    "engine_options": frozenset({T_STR, T_SIZE}),
    "_engine_options": frozenset({T_STR, T_SIZE}),
    "array_from_dict": frozenset({T_STR, T_SIZE}),
    "from_dict": frozenset({T_STR, T_SIZE}),
    "_since_param": frozenset({T_STR, T_SIZE}),
    "accepted_extents": frozenset({T_STR, T_SIZE}),
}

#: call-sink tails -> (taint kind that fires, human phrase).  Every tainted
#: argument position counts except where noted in ``_sink_args``.
_CALL_SINKS: dict[str, tuple[str, str]] = {
    "open": (T_STR, "a filesystem path (open)"),
    "unlink": (T_STR, "a filesystem path (unlink)"),
    "remove": (T_STR, "a filesystem path (remove)"),
    "rmtree": (T_STR, "a filesystem path (rmtree)"),
    "makedirs": (T_STR, "a filesystem path (makedirs)"),
    "rename": (T_STR, "a filesystem path (rename)"),
    "Path": (T_STR, "a filesystem path (Path)"),
    "getattr": (T_STR, "dynamic attribute dispatch (getattr)"),
    "eval": (T_STR, "dynamic code (eval)"),
    "exec": (T_STR, "dynamic code (exec)"),
    "import_module": (T_STR, "dynamic import (import_module)"),
    "run": (T_STR, "a subprocess invocation (run)"),
    "check_output": (T_STR, "a subprocess invocation (check_output)"),
    "check_call": (T_STR, "a subprocess invocation (check_call)"),
    "Popen": (T_STR, "a subprocess invocation (Popen)"),
    "system": (T_STR, "a subprocess invocation (system)"),
    "bytes": (T_SIZE, "an allocation sized by the value (bytes)"),
    "bytearray": (T_SIZE, "an allocation sized by the value (bytearray)"),
    "readexactly": (T_SIZE, "a network read sized by the value (readexactly)"),
}

#: subprocess sinks only fire when the call resolves through a subprocess/os
#: module alias — ``run`` alone is far too common a method name.
_NEEDS_MODULE = {
    "run": ("subprocess",),
    "check_output": ("subprocess",),
    "check_call": ("subprocess",),
    "Popen": ("subprocess",),
    "system": ("os", "subprocess"),
    "remove": ("os", "shutil"),
    "rename": ("os", "shutil"),
    "rmtree": ("os", "shutil"),
    "makedirs": ("os",),
}

#: getattr's *name* argument is position 1; everything else checks all args.
_SINK_ARG = {"getattr": 1}


def _route_class(graph: ProjectGraph) -> tuple[str, str] | None:
    """``(module, class)`` of the server class — the one defining ``_route``."""
    for fqn, info in graph.functions.items():
        if fqn.endswith("._route") and info.cls is not None:
            return graph.module_of(fqn), info.cls
    return None


class _TaintDomain(Domain):
    def __init__(self, checker: "TaintChecker", graph: ProjectGraph, depth: int):
        self.checker = checker
        self.graph = graph
        self.depth = depth  #: remaining call-summary budget (one level)

    # -- sources ----------------------------------------------------------
    def seed_params(self, fqn, info):
        if not self.checker.is_server_scope(fqn):
            return {}
        seeds = {}
        for arg in info.node.args.posonlyargs + info.node.args.args:
            if arg.arg in _SOURCE_PARAMS:
                seeds[arg.arg] = self.checker.source(
                    f"request {arg.arg!r}", arg.lineno, fqn
                )
        return seeds

    # -- the call hook: sanitizer, then source, then sink, then summary ---
    def call(self, walker, node, raw, recv, args, kwargs):
        tail = strip_self(raw).rsplit(".", 1)[-1] if raw else None

        if tail in SANITIZERS:
            cleared = SANITIZERS[tail]
            dirty = recv
            for _, values in args:
                dirty = dirty | values
            for values in kwargs.values():
                dirty = dirty | values
            return frozenset(v for v in dirty if v.kind not in cleared)

        if self.checker.is_server_scope(walker.fqn):
            if tail == "loads" and raw is not None and raw.startswith("json."):
                return self.checker.source("json.loads body", node.lineno, walker.fqn)
            if tail in _STREAM_READS:
                self._check_sink(walker, node, raw, tail, args, kwargs)
                return self.checker.source(
                    f"stream read ({tail})", node.lineno, walker.fqn
                )

        self._check_sink(walker, node, raw, tail, args, kwargs)
        result = self._summarize(walker, node, args, kwargs)
        if result is not None:
            return result
        return super().call(walker, node, raw, recv, args, kwargs)

    def binop(self, walker, node, left, right):
        # [x] * n — an allocation whose size an attacker picked
        if isinstance(node.op, ast.Mult):
            for own, other_node in ((right, node.left), (left, node.right)):
                sized = isinstance(other_node, ast.List) or (
                    isinstance(other_node, ast.Constant)
                    and isinstance(other_node.value, (str, bytes))
                )
                if sized:
                    for label in own:
                        if label.kind == T_SIZE:
                            self.checker.emit(
                                walker,
                                node.lineno,
                                label,
                                "a sequence-repeat allocation (`*`)",
                            )
        return left | right

    # -- helpers ----------------------------------------------------------
    def _check_sink(self, walker, node, raw, tail, args, kwargs):
        if tail in ("get", "put") and raw is not None:
            # memo-cache keys: ``*cache*.get/put`` — a request-controlled
            # key pollutes (or probes) the shared cache namespace
            chain = strip_self(raw).split(".")
            if len(chain) >= 2 and "cache" in chain[-2].lower():
                kind, phrase = T_STR, "a memo-cache key"
            else:
                return
        elif tail in _CALL_SINKS:
            kind, phrase = _CALL_SINKS[tail]
        else:
            return
        needs = _NEEDS_MODULE.get(tail)
        if needs is not None:
            head = strip_self(raw).split(".")[0] if raw else ""
            if head not in needs:
                return
        positions = list(enumerate(v for _, v in args))
        only = _SINK_ARG.get(tail)
        if only is not None:
            positions = [p for p in positions if p[0] == only]
        tainted = EMPTY
        for _, values in positions:
            tainted = tainted | values
        for values in kwargs.values():
            tainted = tainted | values
        for label in sorted(tainted, key=lambda lb: (lb.origin, lb.line)):
            if label.kind == kind:
                self.checker.emit(walker, node.lineno, label, phrase)

    def _summarize(self, walker, node, args, kwargs):
        """One-level call summary: re-walk a resolved callee with the
        caller's taint bound into its parameters."""
        if self.depth <= 0:
            return None
        callee = walker.resolved_callee(node)
        if callee is None or callee not in self.graph.functions:
            return None
        if not any(v for _, v in args) and not any(kwargs.values()):
            return None
        if callee in self.checker.walking:
            return None  # recursion (or a root already being walked)
        seed = bind_arguments(self.graph.functions[callee], node, args, kwargs)
        if not seed:
            return None
        inner = _TaintDomain(self.checker, self.graph, self.depth - 1)
        collector = _ReturnCollector(inner)
        self.checker.walking.add(callee)
        try:
            FunctionWalker(self.graph, callee, collector, seed=seed).run()
        finally:
            self.checker.walking.discard(callee)
        return collector.returned_values


class _ReturnCollector(Domain):
    """Wrap a domain, recording what the walked function returns — the
    summary's result value at the original call site."""

    def __init__(self, inner: Domain):
        self.inner = inner
        self.returned_values: frozenset[Label] = EMPTY

    def seed_params(self, fqn, info):
        return self.inner.seed_params(fqn, info)

    def call(self, walker, node, raw, recv, args, kwargs):
        return self.inner.call(walker, node, raw, recv, args, kwargs)

    def binop(self, walker, node, left, right):
        return self.inner.binop(walker, node, left, right)

    def returned(self, walker, node, values):
        self.returned_values = self.returned_values | values


class TaintChecker(Checker):
    id = "RA008"
    title = "unsanitized wire input reaching a sensitive sink"

    def check(self, sources: list[SourceFile], context: LintContext) -> list[Finding]:
        graph: ProjectGraph = context.project_graph(sources)
        located = _route_class(graph)
        if located is None:
            return []  # fixture subset without a server surface
        self._server = located
        self._graph = graph
        self._sources: set[tuple[str, str, int]] = set()
        self._findings: dict[tuple, Finding] = {}
        self.walking: set[str] = set()

        mod, cls = located
        roots = sorted(
            fqn
            for fqn, info in graph.functions.items()
            if graph.module_of(fqn) == mod and info.cls == cls
        )
        for fqn in roots:
            domain = _TaintDomain(self, graph, depth=1)
            self.walking.add(fqn)
            try:
                FunctionWalker(graph, fqn, domain).run()
            finally:
                self.walking.discard(fqn)

        context.note("ra008_sources", len(self._sources))
        context.note("ra008_findings", len(self._findings))
        return sorted(self._findings.values())

    # -- callbacks from the domain ----------------------------------------
    def is_server_scope(self, fqn: str) -> bool:
        mod, cls = self._server
        info = self._graph.functions.get(fqn)
        return (
            info is not None
            and self._graph.module_of(fqn) == mod
            and info.cls == cls
        )

    def source(self, origin: str, line: int, fqn: str) -> frozenset[Label]:
        self._sources.add((fqn, origin, line))
        return frozenset(Label(kind=kind, origin=origin, line=line) for kind in _KINDS)

    def emit(
        self, walker: FunctionWalker, line: int, label: Label, phrase: str
    ) -> None:
        source = self._graph.source_of(walker.fqn)
        symbol = walker.fqn.partition(":")[2]
        finding = Finding(
            path=source.rel,
            line=line,
            checker=self.id,
            symbol=symbol,
            message=(
                f"request-derived value ({label.origin}, line {label.line}) "
                f"reaches {phrase} without passing a registered sanitizer; "
                "route it through wire.bounded_body()/wire.job_items()/"
                "int()-plus-bound before it sizes or names anything"
            ),
        )
        self._findings[finding.key] = finding
