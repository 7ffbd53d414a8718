"""Forward dataflow over function ASTs, on top of the project call graph.

:class:`~repro.analysis.callgraph.ProjectGraph` answers *who calls whom*;
this module answers *where a value goes*.  :class:`FunctionWalker` runs a
forward may-analysis over one function body: an environment maps **roots**
(dotted Name/Attribute chains — ``payload``, ``self._files``) to sets of
:class:`Label` facts, and the walker pushes those facts through

* assignments, ``+=``, and tuple/starred unpacking (element-wise when the
  right-hand side is a literal tuple of matching arity);
* attribute and subscript stores, which *weakly* update the chain root —
  ``headers[name] = value`` taints ``headers``, it does not replace it;
* every expression form that merely moves values around (f-strings,
  comprehensions, conditionals, boolean operators, container displays);
* branches, which fork the environment and merge pointwise (union) so a
  fact established on either arm of an ``if`` survives it;
* loops, by running the body text twice — enough for the loop-carried
  flows this codebase contains (a value poisoned late in iteration *n*
  reaching a use early in iteration *n+1*).

What a *call* does to values is the checker's business, not the walker's:
a :class:`Domain` subclass decides whether ``int(x)`` launders a fact,
``json.loads(...)`` mints one, or ``open(path)`` is a sink.  The walker
hands the domain every call (with receiver and argument values already
evaluated), every binary operation, and every ``return``/``yield``;
``with``, ``await`` and stores just move values along.
:func:`bind_arguments` maps a call's arguments onto a resolved callee's
parameters so a domain can run a **one-level call summary**: re-walk the
callee with the caller's facts seeded into its parameters, through the same
``ProjectGraph`` edges the reachability checkers use.

Nested ``def``s and lambdas are separate scopes and are skipped, exactly
like :func:`~repro.analysis.callgraph._own_statements` skips them when
collecting call sites.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.callgraph import FunctionInfo, ProjectGraph, dotted_name

__all__ = [
    "EMPTY",
    "Domain",
    "FunctionWalker",
    "Label",
    "bind_arguments",
]

#: The empty value set: the default for every root the analysis never wrote.
EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class Label:
    """One fact attached to a value as it flows (hashable, so sets merge)."""

    kind: str  #: domain-defined, e.g. ``"taint:size"`` or ``"task"``
    origin: str  #: human phrasing of where the fact was born
    line: int  #: source line of the origin, for findings


class Domain:
    """Checker-specific semantics; the base class is pure propagation."""

    def seed_params(
        self, fqn: str, info: FunctionInfo
    ) -> dict[str, frozenset[Label]]:
        """Initial facts for parameter roots (e.g. taint a ``payload`` arg)."""
        return {}

    def call(
        self,
        walker: "FunctionWalker",
        node: ast.Call,
        raw: str | None,
        recv: frozenset[Label],
        args: list[tuple[ast.AST, frozenset[Label]]],
        kwargs: dict[str, frozenset[Label]],
    ) -> frozenset[Label]:
        """Value of a call expression.  Default: calls propagate — the
        result carries whatever the receiver and arguments carried."""
        out = recv
        for _, values in args:
            out = out | values
        for values in kwargs.values():
            out = out | values
        return out

    def binop(
        self, walker: "FunctionWalker", node: ast.BinOp,
        left: frozenset[Label], right: frozenset[Label],
    ) -> frozenset[Label]:
        return left | right

    def returned(
        self, walker: "FunctionWalker", node: ast.AST,
        values: frozenset[Label],
    ) -> None:
        """A ``return``/``yield`` shipped these facts out of the scope."""


def bind_arguments(
    info: FunctionInfo,
    call: ast.Call,
    args: list[tuple[ast.AST, frozenset[Label]]],
    kwargs: dict[str, frozenset[Label]],
) -> dict[str, frozenset[Label]]:
    """Map a call's argument values onto a callee's parameter names.

    Positional arguments skip an initial ``self``/``cls`` parameter (the
    receiver is not an argument at the call site); ``*args``/``**kwargs``
    spill is ignored — a summary only needs the named flows.
    """
    params = [a.arg for a in info.node.args.posonlyargs + info.node.args.args]
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    bound: dict[str, frozenset[Label]] = {}
    for param, (_, values) in zip(params, args):
        if values:
            bound[param] = values
    kwonly = {a.arg for a in info.node.args.kwonlyargs}
    for name, values in kwargs.items():
        if values and (name in kwonly or name in params):
            bound[name] = values
    return bound


class FunctionWalker:
    """One forward pass (run twice) over one function's own statements."""

    def __init__(
        self,
        graph: ProjectGraph,
        fqn: str,
        domain: Domain,
        *,
        seed: dict[str, frozenset[Label]] | None = None,
        passes: int = 2,
    ):
        self.graph = graph
        self.fqn = fqn
        self.info: FunctionInfo = graph.functions[fqn]
        self.domain = domain
        self.env: dict[str, frozenset[Label]] = {}
        self._passes = passes
        #: call node -> resolved callee fqn, from the project graph's pass
        self._callees: dict[int, str | None] = {
            id(site.node): callee for site, callee in graph.calls.get(fqn, ())
        }
        self._seed = dict(seed or {})

    # -- driving ---------------------------------------------------------
    def run(self) -> dict[str, frozenset[Label]]:
        self.env = dict(self._seed)
        for name, values in self.domain.seed_params(self.fqn, self.info).items():
            self.env[name] = self.env.get(name, EMPTY) | values
        for _ in range(self._passes):
            for stmt in self.info.node.body:
                self._stmt(stmt)
        return self.env

    def resolved_callee(self, node: ast.Call) -> str | None:
        return self._callees.get(id(node))

    # -- environment ------------------------------------------------------
    def lookup(self, root: str) -> frozenset[Label]:
        """Facts on a dotted root, including those on any chain prefix:
        ``job.payload`` carries whatever ``job`` carries."""
        out = self.env.get(root, EMPTY)
        while "." in root:
            root = root.rsplit(".", 1)[0]
            out = out | self.env.get(root, EMPTY)
        return out

    def _bind(self, target: ast.AST, values: frozenset[Label], node: ast.AST):
        if isinstance(target, ast.Name):
            self.env[target.id] = values  # strong update: straight-line kills
        elif isinstance(target, ast.Attribute):
            root = dotted_name(target)
            if root is not None:
                self.env[root] = self.env.get(root, EMPTY) | values
        elif isinstance(target, ast.Subscript):
            root = dotted_name(target.value)
            if root is not None:
                self.env[root] = self.env.get(root, EMPTY) | values
        elif isinstance(target, (ast.Tuple, ast.List)):
            parts = None
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                getattr(node, "value", None), (ast.Tuple, ast.List)
            ):
                source = node.value.elts
                if len(source) == len(target.elts) and not any(
                    isinstance(t, ast.Starred) for t in target.elts
                ):
                    parts = [self.eval(elt) for elt in source]
            for index, elt in enumerate(target.elts):
                self._bind(elt, values if parts is None else parts[index], node)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, values, node)

    # -- statements -------------------------------------------------------
    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scope: its flows are its own
        if isinstance(node, ast.Assign):
            values = self.eval(node.value)
            for target in node.targets:
                self._bind(target, values, node)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._bind(node.target, self.eval(node.value), node)
        elif isinstance(node, ast.AugAssign):
            values = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                values = values | self.env.get(node.target.id, EMPTY)
            self._bind(node.target, values, node)
        elif isinstance(node, ast.Expr):
            self.eval(node.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.domain.returned(self, node, self.eval(node.value))
        elif isinstance(node, (ast.If,)):
            self.eval(node.test)
            self._branch([node.body, node.orelse])
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            # body twice: a fact born late in iteration n reaches a use
            # early in iteration n+1 on the second sweep
            self._bind(node.target, self.eval(node.iter), node)
            for _ in range(2):
                for stmt in node.body:
                    self._stmt(stmt)
            for stmt in node.orelse:
                self._stmt(stmt)
        elif isinstance(node, ast.While):
            self.eval(node.test)
            for _ in range(2):
                for stmt in node.body:
                    self._stmt(stmt)
            for stmt in node.orelse:
                self._stmt(stmt)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                values = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, values, node)
            for stmt in node.body:
                self._stmt(stmt)
        elif isinstance(node, ast.Try):
            # may-analysis: every block contributes to one environment, so
            # facts from body, handlers, else, and finally all survive
            for stmt in node.body:
                self._stmt(stmt)
            for handler in node.handlers:
                if handler.name:
                    self.env[handler.name] = EMPTY
                for stmt in handler.body:
                    self._stmt(stmt)
            for stmt in node.orelse:
                self._stmt(stmt)
            for stmt in node.finalbody:
                self._stmt(stmt)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self.eval(node.exc)
        elif isinstance(node, ast.Assert):
            self.eval(node.test)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                root = dotted_name(target)
                if root is not None:
                    self.env.pop(root, None)
        # Pass/Break/Continue/Import/Global/Nonlocal: no value flow

    def _branch(self, arms: list[list[ast.stmt]]) -> None:
        before = dict(self.env)
        merged: dict[str, frozenset[Label]] = {}
        for arm in arms:
            self.env = dict(before)
            for stmt in arm:
                self._stmt(stmt)
            for root, values in self.env.items():
                merged[root] = merged.get(root, EMPTY) | values
        self.env = merged

    # -- expressions ------------------------------------------------------
    def eval(self, node: ast.AST | None) -> frozenset[Label]:
        if node is None or isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, (ast.Name, ast.Attribute)):
            root = dotted_name(node)
            return self.lookup(root) if root is not None else EMPTY
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            self.eval(node.slice)
            return base
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, ast.BinOp):
            return self.domain.binop(
                self, node, self.eval(node.left), self.eval(node.right)
            )
        if isinstance(node, (ast.BoolOp,)):
            out = EMPTY
            for value in node.values:
                out = out | self.eval(value)
            return out
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.Compare):
            out = self.eval(node.left)
            for comp in node.comparators:
                out = out | self.eval(comp)
            return EMPTY if out is EMPTY else out
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out = EMPTY
            for elt in node.elts:
                out = out | self.eval(elt)
            return out
        if isinstance(node, ast.Dict):
            out = EMPTY
            for key in node.keys:
                if key is not None:
                    out = out | self.eval(key)
            for value in node.values:
                out = out | self.eval(value)
            return out
        if isinstance(node, (ast.JoinedStr,)):
            out = EMPTY
            for value in node.values:
                out = out | self.eval(value)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            for gen in node.generators:
                self._bind(gen.target, self.eval(gen.iter), node)
                for cond in gen.ifs:
                    self.eval(cond)
            if isinstance(node, ast.DictComp):
                return self.eval(node.key) | self.eval(node.value)
            return self.eval(node.elt)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            values = self.eval(node.value)
            self._bind(node.target, values, node)
            return values
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self.domain.returned(self, node, self.eval(node.value))
            return EMPTY
        if isinstance(node, ast.Lambda):
            return EMPTY  # separate scope, like nested defs
        if isinstance(node, ast.Slice):
            self.eval(node.lower)
            self.eval(node.upper)
            self.eval(node.step)
            return EMPTY
        return EMPTY

    def _call(self, node: ast.Call) -> frozenset[Label]:
        raw = dotted_name(node.func)
        recv = EMPTY
        if isinstance(node.func, ast.Attribute):
            recv = self.eval(node.func.value)
        elif not isinstance(node.func, ast.Name):
            self.eval(node.func)
        args = [(arg, self.eval(arg)) for arg in node.args]
        kwargs = {
            kw.arg: self.eval(kw.value)
            for kw in node.keywords
            if kw.arg is not None
        }
        for kw in node.keywords:  # **spread: evaluated, unnamed
            if kw.arg is None:
                self.eval(kw.value)
        return self.domain.call(self, node, raw, recv, args, kwargs)
