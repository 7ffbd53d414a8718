"""RA002: the ``/v1`` wire contract must agree three ways.

The HTTP surface is hand-maintained in three places: the ``_route`` dispatch
in ``repro/service/server.py``, the paths issued by ``RemoteSession`` /
``AsyncRemoteSession`` in ``repro/service/client.py``, and the endpoint
table in ``docs/service-api.md``.  Drift between them has historically
surfaced as a runtime 404 or a silently-ignored query parameter; this
checker makes it a lint failure instead.

Extraction is structural, not textual, on the Python side:

* **server** — every ``route == ("METHOD", "/v1/...")`` comparison inside
  ``_route``, plus the parametrized branches built from ``method`` equality
  / membership tests combined with ``path.startswith(...)`` /
  ``path.endswith(...)`` (synthesized as ``/v1/jobs/<id>``,
  ``/v1/jobs/<id>/rows``).  Query parameters are every ``params.get("x")``.
* **clients** — every call through the transport helpers (``_call``,
  ``_open``, ``_roundtrip``) whose path is a string literal, an f-string
  (``{...}`` placeholders normalize to ``<id>``), or a local variable
  assembled from those with ``=`` / ``+=``.  Query strings split off the
  path and contribute parameter names.
* **docs** — every ``` `METHOD /v1/...` ``` mention (the endpoint index and
  the per-endpoint headings), plus every ``?param=`` / ``&param=`` mention.

The three route sets must be equal, and the server's query-parameter set
must match the clients' and be documented.  Every disagreement is anchored
to the side that has to change: an undocumented route points at
``server.py``, a documented-but-unimplemented one at the docs line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.callgraph import dotted_name
from repro.analysis.checkers import Checker, LintContext
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

__all__ = [
    "WireContract",
    "WireContractChecker",
    "docs_contract",
    "extract_client_contract",
    "extract_server_contract",
]

#: Transport helpers whose calls carry ``(method, path)`` as their first
#: two positional arguments.
_TRANSPORT_HELPERS = {"_call", "_open", "_roundtrip"}

_DOC_ROUTE_RE = re.compile(r"`(GET|POST|DELETE|PUT|PATCH)\s+(/v1[^`\s]*)")
_DOC_PARAM_RE = re.compile(r"[?&]([A-Za-z_][A-Za-z0-9_]*)=")


@dataclass
class WireContract:
    """One side's view of the wire surface: routes + query parameters."""

    label: str
    #: (METHOD, normalized path) -> first (file, line) seen
    routes: dict[tuple[str, str], tuple[str, int]] = field(default_factory=dict)
    #: query parameter name -> first (file, line) seen
    params: dict[str, tuple[str, int]] = field(default_factory=dict)

    def add_route(self, method: str, path: str, origin: tuple[str, int]) -> None:
        path, _, query = path.partition("?")
        for name in _DOC_PARAM_RE.findall(f"?{query}" if query else ""):
            self.params.setdefault(name, origin)
        if path.startswith("/v1"):
            self.routes.setdefault((method, path), origin)

    def add_param(self, name: str, origin: tuple[str, int]) -> None:
        self.params.setdefault(name, origin)


# -- server side -------------------------------------------------------


def _route_function(tree: ast.Module) -> ast.AsyncFunctionDef | ast.FunctionDef | None:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "_route":
                return node
    return None


def _const_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _branch_routes(test: ast.expr) -> list[tuple[str, str, int]]:
    """Routes asserted by one ``if``/``elif`` condition inside ``_route``."""
    out: list[tuple[str, str, int]] = []
    # direct: route == ("GET", "/v1/...")
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare) or len(node.ops) != 1:
            continue
        left, op, right = node.left, node.ops[0], node.comparators[0]
        if (
            isinstance(op, ast.Eq)
            and isinstance(left, ast.Name)
            and left.id == "route"
            and isinstance(right, ast.Tuple)
            and len(right.elts) == 2
        ):
            method, path = (_const_str(e) for e in right.elts)
            if method and path:
                out.append((method, path, node.lineno))
    if out:
        return out
    # parametrized: method tests + path.startswith/endswith tests ANDed
    methods: list[str] = []
    prefix = suffix = None
    lineno = test.lineno
    for node in ast.walk(test):
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, op, right = node.left, node.ops[0], node.comparators[0]
            if isinstance(left, ast.Name) and left.id == "method":
                if isinstance(op, ast.Eq) and _const_str(right):
                    methods.append(_const_str(right))
                elif isinstance(op, ast.In) and isinstance(right, (ast.Tuple, ast.List)):
                    methods.extend(m for m in map(_const_str, right.elts) if m)
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name == "path.startswith" and node.args:
                prefix = _const_str(node.args[0])
            elif name == "path.endswith" and node.args:
                suffix = _const_str(node.args[0])
    if methods and prefix:
        path = prefix + "<id>" + (suffix or "")
        out.extend((method, path, lineno) for method in methods)
    return out


def extract_server_contract(source: SourceFile) -> WireContract:
    contract = WireContract(label="server")
    fn = _route_function(source.tree)
    if fn is not None:
        stack: list[ast.stmt] = list(fn.body)
        while stack:
            stmt = stack.pop(0)
            if isinstance(stmt, ast.If):
                for method, path, lineno in _branch_routes(stmt.test):
                    contract.add_route(method, path, (source.rel, lineno))
                stack.extend(stmt.orelse)
                stack.extend(stmt.body)
    # query parameters: every params.get("x") anywhere in the module
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call) and dotted_name(node.func) == "params.get":
            if node.args:
                name = _const_str(node.args[0])
                if name:
                    contract.add_param(name, (source.rel, node.lineno))
    return contract


# -- client side -------------------------------------------------------


def _literal_path(node: ast.AST, local_strings: dict[str, str]) -> str | None:
    """A path expression as a string, ``<id>`` standing in for placeholders."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                parts.append("<id>")
        return "".join(parts)
    if isinstance(node, ast.Name):
        return local_strings.get(node.id)
    return None


def _local_strings(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
    """Locals assembled from string pieces, ``+=`` concatenating — resolves
    the ``path = f"..."; path += f"?since=..."`` idiom to one string."""
    out: dict[str, str] = {}

    def scan(stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    value = _literal_path(stmt.value, out)
                    if value is not None:
                        out[target.id] = value
            elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Add):
                if isinstance(stmt.target, ast.Name) and stmt.target.id in out:
                    piece = _literal_path(stmt.value, out)
                    if piece is not None:
                        out[stmt.target.id] += piece
        # nested blocks (if/try/loops) in lexical order
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for block in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, block, None)
                if inner:
                    scan(inner)
            for handler in getattr(stmt, "handlers", ()):
                scan(handler.body)

    scan(fn.body)
    return out


def extract_client_contract(source: SourceFile) -> WireContract:
    contract = WireContract(label="client")
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local_strings = _local_strings(node)
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            name = dotted_name(sub.func)
            if name is None or "." not in name:
                continue
            if name.rsplit(".", 1)[-1] not in _TRANSPORT_HELPERS or len(sub.args) < 2:
                continue
            method = _const_str(sub.args[0])
            if method is None:
                continue
            path = _literal_path(sub.args[1], local_strings)
            if path is not None:
                contract.add_route(method, path, (source.rel, sub.lineno))
    return contract


# -- docs side ---------------------------------------------------------


def docs_contract(rel: str, text: str) -> WireContract:
    contract = WireContract(label="docs")
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _DOC_ROUTE_RE.finditer(line):
            contract.add_route(match.group(1), match.group(2), (rel, lineno))
        for match in _DOC_PARAM_RE.finditer(line):
            contract.add_param(match.group(1), (rel, lineno))
    return contract


# -- the three-way comparison -----------------------------------------


def compare_contracts(
    server: WireContract,
    client: WireContract,
    docs: WireContract | None,
) -> list[Finding]:
    findings: list[Finding] = []

    def mismatch(origin: tuple[str, int], message: str) -> None:
        findings.append(
            Finding(
                path=origin[0],
                line=origin[1],
                checker="RA002",
                symbol="wire-contract",
                message=message,
            )
        )

    def fmt(route: tuple[str, str]) -> str:
        return f"{route[0]} {route[1]}"

    server_anchor = next(iter(server.routes.values()), ("server", 1))
    for route, origin in sorted(client.routes.items()):
        if route not in server.routes:
            mismatch(origin, f"client issues {fmt(route)} but the server has no such route")
    for route, origin in sorted(server.routes.items()):
        if route not in client.routes:
            mismatch(
                origin,
                f"server route {fmt(route)} is not exercised by any client "
                "(RemoteSession/AsyncRemoteSession)",
            )
    if docs is not None:
        for route, origin in sorted(server.routes.items()):
            if route not in docs.routes:
                mismatch(
                    origin,
                    f"server route {fmt(route)} is undocumented in docs/service-api.md",
                )
        for route, origin in sorted(docs.routes.items()):
            if route not in server.routes:
                mismatch(
                    origin,
                    f"documented route {fmt(route)} has no server implementation",
                )
    for name, origin in sorted(server.params.items()):
        if name not in client.params:
            mismatch(
                origin,
                f"server reads query param {name!r} but no client ever sends it",
            )
        if docs is not None and name not in docs.params:
            mismatch(
                origin,
                f"server query param {name!r} is undocumented in docs/service-api.md",
            )
    for name, origin in sorted(client.params.items()):
        if name not in server.params:
            mismatch(
                origin,
                f"client sends query param {name!r} the server never reads",
            )
    if not server.routes:
        mismatch(
            server_anchor,
            "no routes extracted from server._route — extraction is broken "
            "or the dispatch moved; update the RA002 extractor",
        )
    return findings


class WireContractChecker(Checker):
    id = "RA002"
    title = "server/client/docs wire-contract agreement"

    #: Path suffixes locating the two Python sides in the fileset.
    server_suffix = "service/server.py"
    client_suffix = "service/client.py"

    def check(self, sources: list[SourceFile], context: LintContext) -> list[Finding]:
        server_src = next(
            (s for s in sources if s.rel.endswith(self.server_suffix)), None
        )
        client_src = next(
            (s for s in sources if s.rel.endswith(self.client_suffix)), None
        )
        if server_src is None or client_src is None:
            # not linting the service layer (e.g. a fixtures-only run)
            context.note("ra002_routes", 0)
            return []
        server = extract_server_contract(server_src)
        client = extract_client_contract(client_src)
        docs = None
        if context.docs_text is not None:
            rel = context.docs_path.as_posix() if context.docs_path else "docs"
            docs = docs_contract(rel, context.docs_text)
        context.note("ra002_routes", len(server.routes))
        context.note("ra002_client_routes", len(client.routes))
        context.note("ra002_docs_routes", len(docs.routes) if docs else None)
        context.note("ra002_params", sorted(server.params))
        return compare_contracts(server, client, docs)
