"""Call graphs with the event-loop execution context, module-local and project-wide.

The blocking-call checker needs to know *where a function runs*, not just
what it does: a ``time.sleep`` is fine on an executor thread and poison on
the event loop.  The **loop context** is every ``async def`` body, plus
every sync function it (transitively) calls *directly* — a helper three
hops below a coroutine still blocks the loop when it blocks.  A callable
handed to ``loop.run_in_executor`` by reference creates no call edge.

:class:`ModuleGraph` collects the functions and call sites of one module.
Module-local resolution is name-based: ``self.foo()`` resolves to the
enclosing class's ``foo`` (or a base class defined in the same module),
``C.helper()`` to a local class's static/class method, bare names to
siblings or module-level functions.

:class:`ProjectGraph` lifts this across every file the runner loads: each
module's ``import`` / ``from x import y`` statements become an alias table,
so ``wire.row_to_point(...)`` in the coordinator resolves to the function in
``repro/service/wire.py``, ``MemoCache.from_payload(...)`` to the classmethod
in the engine, and ``self.method()`` falls through locally-defined base
classes into the modules that define them.  Star imports resolve bare names
into the starred module; import cycles are harmless (resolution is a dict
lookup, reachability a BFS with a visited set).  Calls that resolve nowhere
keep their dotted text (``time.sleep``, ``self.session.flush``) — exactly
what the blocking-call pattern tables match against.  Nested ``def``s and
lambdas are separate scopes: *passing* one to an executor creates no loop
edge, only a direct call does.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.source import SourceFile

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ModuleGraph",
    "ProjectGraph",
    "dotted_name",
    "module_name",
]

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for Name/Attribute chains; ``()``/``[]`` stand in for
    call/subscript bases so suffix matching still works
    (``run_coroutine_threadsafe(...).result`` -> ``().result``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    if isinstance(node, ast.Call):
        return "()"
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value)
        return f"{base}[]" if base is not None else None
    return None


def strip_self(raw: str) -> str:
    """``self.session.flush`` -> ``session.flush`` (ditto ``cls.``)."""
    for prefix in ("self.", "cls."):
        if raw.startswith(prefix):
            return raw[len(prefix) :]
    return raw


def module_name(rel: str) -> str:
    """``repro/service/wire.py`` -> ``repro.service.wire`` (display-path form;
    ``__init__.py`` collapses onto its package)."""
    name = rel[:-3] if rel.endswith(".py") else rel
    name = name.replace("\\", "/").strip("/").replace("/", ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name or "<string>"


@dataclass
class CallSite:
    """One ``ast.Call`` inside a function body."""

    raw: str  #: the dotted text as written (``self.session.flush``)
    node: ast.Call
    resolved: str | None = None  #: qualname of a same-module callee, if any


@dataclass
class FunctionInfo:
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    cls: str | None
    parent: str | None  #: enclosing function qualname for nested defs
    calls: list[CallSite] = field(default_factory=list)


def _own_statements(fn: ast.FunctionDef | ast.AsyncFunctionDef):
    """Walk a function body without descending into nested defs/lambdas."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # a nested scope: its calls belong to it, not to us
        yield node
        stack.extend(ast.iter_child_nodes(node))


class ModuleGraph:
    """Functions and module-locally resolved call edges for one module."""

    def __init__(self, source: SourceFile):
        self.source = source
        self.functions: dict[str, FunctionInfo] = {}
        #: class name -> dotted base-class names (for method resolution
        #: through ``self.`` and ``Class.method`` dispatch)
        self.classes: dict[str, list[str]] = {}
        self._collect(source.tree, cls=None, parent=None)
        for info in self.functions.values():
            self._link(info)

    # -- construction --------------------------------------------------
    def _collect(self, node: ast.AST, cls: str | None, parent: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                bases = [dotted_name(b) for b in child.bases]
                self.classes[child.name] = [b for b in bases if b is not None]
                self._collect(child, cls=child.name, parent=None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if parent is not None:
                    qualname = f"{parent}.<locals>.{child.name}"
                elif cls is not None:
                    qualname = f"{cls}.{child.name}"
                else:
                    qualname = child.name
                self.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    node=child,
                    is_async=isinstance(child, ast.AsyncFunctionDef),
                    cls=cls,
                    parent=parent,
                )
                # nested defs: scope chains deeper than one level keep the
                # innermost parent (enough for this codebase's nesting)
                self._collect(child, cls=cls, parent=qualname)

    def _resolve(self, raw: str, info: FunctionInfo) -> str | None:
        """Map a dotted call target to a same-module qualname, if it is one."""
        bare = strip_self(raw)
        if "(" in bare or "[" in bare:
            return None
        if "." in bare:
            # ``C.helper()``: static/class-method dispatch on a local class
            head, _, rest = bare.partition(".")
            if head in self.classes and "." not in rest:
                return self._method_in_class(head, rest)
            return None
        if raw.startswith(("self.", "cls.")) and info.cls is not None:
            return self._method_in_class(info.cls, bare)
        # a bare name: sibling nested def first, then module-level function
        if info.parent is not None:
            candidate = f"{info.parent}.<locals>.{bare}"
            if candidate in self.functions:
                return candidate
        scope = info.qualname
        candidate = f"{scope}.<locals>.{bare}"
        if candidate in self.functions:
            return candidate
        return bare if bare in self.functions else None

    def _method_in_class(
        self, cls: str, method: str, _seen: set[str] | None = None
    ) -> str | None:
        """``cls.method`` in this module, walking locally-defined base classes."""
        seen = _seen or set()
        if cls in seen:
            return None  # inheritance cycle in broken source: stop
        seen.add(cls)
        candidate = f"{cls}.{method}"
        if candidate in self.functions:
            return candidate
        for base in self.classes.get(cls, ()):
            if base in self.classes:
                found = self._method_in_class(base, method, seen)
                if found is not None:
                    return found
        return None

    def _link(self, info: FunctionInfo) -> None:
        for node in _own_statements(info.node):
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func)
            if raw is None:
                continue
            info.calls.append(
                CallSite(raw=raw, node=node, resolved=self._resolve(raw, info))
            )


class ProjectGraph:
    """The import-resolving call graph across every loaded source file.

    Function identities are ``"module:qualname"`` strings (``:`` keeps module
    and qualname unambiguous); :meth:`display` renders them back to something
    a human reads in a finding message.  Construction is linear in the source
    set: one :class:`ModuleGraph` per file, one alias table per file, then a
    single resolution pass over every call site.  Import cycles between
    modules are fine — resolution is a dict lookup and never recurses into
    imports, and :meth:`closure` is a BFS with a visited set.
    """

    def __init__(self, sources: list[SourceFile]):
        self.modules: dict[str, ModuleGraph] = {}
        for source in sources:
            self.modules[module_name(source.rel)] = ModuleGraph(source)
        self._imports: dict[str, dict[str, str]] = {}
        self._stars: dict[str, list[str]] = {}
        for mod, graph in self.modules.items():
            self._imports[mod], self._stars[mod] = self._import_table(
                graph.source.tree, mod
            )
        #: fqn -> FunctionInfo for every function in every module
        self.functions: dict[str, FunctionInfo] = {
            f"{mod}:{qual}": info
            for mod, graph in self.modules.items()
            for qual, info in graph.functions.items()
        }
        #: fqn -> [(CallSite, callee fqn | None)] — every call, resolved
        self.calls: dict[str, list[tuple[CallSite, str | None]]] = {}
        for mod, graph in self.modules.items():
            for qual, info in graph.functions.items():
                resolved: list[tuple[CallSite, str | None]] = []
                for site in info.calls:
                    if site.resolved is not None:
                        callee: str | None = f"{mod}:{site.resolved}"
                    else:
                        callee = self._resolve_external(mod, info, site.raw)
                    resolved.append((site, callee))
                self.calls[f"{mod}:{qual}"] = resolved

    # -- import tables --------------------------------------------------
    @staticmethod
    def _import_table(
        tree: ast.Module, module: str
    ) -> tuple[dict[str, str], list[str]]:
        """alias -> dotted target for every import anywhere in the module.

        Function-local imports are folded into the module table — a mild
        over-approximation that keeps lazy-import heavy modules (the CLI)
        resolvable without scope tracking.
        """
        table: dict[str, str] = {}
        stars: list[str] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        table[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # ``from .wire import x`` in a.b.c anchors at a.b
                    parts = module.split(".")
                    anchor = parts[: max(0, len(parts) - node.level)]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        if base:
                            stars.append(base)
                        continue
                    target = f"{base}.{alias.name}" if base else alias.name
                    table[alias.asname or alias.name] = target
        return table, stars

    # -- resolution ------------------------------------------------------
    def _resolve_external(
        self, mod: str, info: FunctionInfo, raw: str
    ) -> str | None:
        """Resolve a call the module-local pass could not: imports, star
        imports, and ``self.``-methods inherited from another module."""
        if raw.startswith(("self.", "cls.")):
            name = strip_self(raw)
            if info.cls is not None and "." not in name:
                return self._method_via_bases(mod, info.cls, name)
            return None
        if "(" in raw or "[" in raw:
            return None
        parts = raw.split(".")
        target = self._imports.get(mod, {}).get(parts[0])
        if target is not None:
            return self._lookup(".".join([target, *parts[1:]]))
        if len(parts) == 1:
            for star in self._stars.get(mod, ()):
                graph = self.modules.get(star)
                if graph is not None and parts[0] in graph.functions:
                    return f"{star}:{parts[0]}"
        return None

    def _lookup(self, full: str, _depth: int = 0) -> str | None:
        """``repro.service.wire.row_to_point`` -> its fqn, via the longest
        known-module prefix; class names map to ``__init__``/methods."""
        if _depth > 8:  # re-export chains this deep are broken source
            return None
        parts = full.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            graph = self.modules.get(mod)
            if graph is None:
                continue
            qual = ".".join(parts[cut:])
            if qual in graph.functions:
                return f"{mod}:{qual}"
            if qual in graph.classes:
                # a constructor call: edge to __init__ when one is defined
                return self._method_via_bases(mod, qual, "__init__")
            if "." in qual:
                cls, _, method = qual.rpartition(".")
                if cls in graph.classes:
                    return self._method_via_bases(mod, cls, method)
            # a package re-export: ``from repro.service import Coordinated-
            # Session`` binds through service/__init__.py's own import table
            head, rest = parts[cut], parts[cut + 1 :]
            reexport = self._imports.get(mod, {}).get(head)
            if reexport is not None:
                return self._lookup(".".join([reexport, *rest]), _depth + 1)
            return None  # the module exists but the symbol does not
        return None

    def _locate_class(self, mod: str, dotted: str) -> tuple[str, str] | None:
        """Resolve a base-class reference to ``(module, class name)``."""
        graph = self.modules.get(mod)
        if graph is None:
            return None
        if "." not in dotted:
            if dotted in graph.classes:
                return (mod, dotted)
            target = self._imports.get(mod, {}).get(dotted)
        else:
            parts = dotted.split(".")
            root = self._imports.get(mod, {}).get(parts[0])
            target = ".".join([root, *parts[1:]]) if root is not None else None
        if target is None:
            return None
        tparts = target.split(".")
        for cut in range(len(tparts) - 1, 0, -1):
            owner = ".".join(tparts[:cut])
            owner_graph = self.modules.get(owner)
            if owner_graph is None:
                continue
            qual = ".".join(tparts[cut:])
            return (owner, qual) if qual in owner_graph.classes else None
        return None

    def _method_via_bases(
        self,
        mod: str,
        cls: str,
        method: str,
        _seen: set[tuple[str, str]] | None = None,
    ) -> str | None:
        """``cls.method`` resolved through the full (cross-module) MRO walk."""
        seen = _seen or set()
        if (mod, cls) in seen:
            return None  # inheritance cycle: stop
        seen.add((mod, cls))
        graph = self.modules.get(mod)
        if graph is None:
            return None
        qual = f"{cls}.{method}"
        if qual in graph.functions:
            return f"{mod}:{qual}"
        for base in graph.classes.get(cls, ()):
            located = self._locate_class(mod, base)
            if located is not None:
                found = self._method_via_bases(*located, method, _seen=seen)
                if found is not None:
                    return found
        return None

    # -- queries ---------------------------------------------------------
    def module_of(self, fqn: str) -> str:
        return fqn.partition(":")[0]

    def display(self, fqn: str, relative_to: str | None = None) -> str:
        """``mod:qual`` -> ``qual`` at home, ``modbase.qual`` abroad."""
        mod, _, qual = fqn.partition(":")
        if relative_to is not None and mod == relative_to:
            return qual
        return f"{mod.rsplit('.', 1)[-1]}.{qual}"

    def source_of(self, fqn: str) -> SourceFile:
        return self.modules[self.module_of(fqn)].source

    def cross_module_edges(self) -> list[tuple[str, str]]:
        """Every resolved call site whose callee lives in another module."""
        return [
            (caller, callee)
            for caller, sites in self.calls.items()
            for _site, callee in sites
            if callee is not None
            and self.module_of(callee) != self.module_of(caller)
        ]

    def closure(self, roots: set[str]) -> dict[str, list[str]]:
        """Reachable fqns with one shortest call chain each (BFS)."""
        chains: dict[str, list[str]] = {
            root: [root] for root in roots if root in self.functions
        }
        frontier = list(chains)
        while frontier:
            current = frontier.pop(0)
            for _site, callee in self.calls.get(current, ()):
                if callee is not None and callee not in chains:
                    chains[callee] = chains[current] + [callee]
                    frontier.append(callee)
        return chains

    def loop_context(self) -> dict[str, list[str]]:
        """fqn -> call chain from an ``async def``, project-wide: a coroutine
        in one module reaches blocking helpers defined in any other."""
        roots = {fqn for fqn, info in self.functions.items() if info.is_async}
        return self.closure(roots)
