"""The project-wide call graph resolves the shapes the checkers lean on.

Everything here feeds in-memory sources through :class:`ProjectGraph` — the
``rel`` paths double as module names (``pkg/mod.py`` -> ``pkg.mod``), so the
fixtures can import each other exactly like real files would.
"""

from repro.analysis.callgraph import ModuleGraph, ProjectGraph, module_name
from repro.analysis.source import SourceFile


def src(rel: str, text: str) -> SourceFile:
    return SourceFile.from_text(text, rel=rel)


def graph(*files: tuple[str, str]) -> ProjectGraph:
    return ProjectGraph([src(rel, text) for rel, text in files])


def edges_of(g: ProjectGraph, fqn: str) -> set[str]:
    return {callee for _site, callee in g.calls[fqn] if callee is not None}


class TestModuleName:
    def test_plain_and_package(self):
        assert module_name("repro/service/wire.py") == "repro.service.wire"
        assert module_name("pkg/__init__.py") == "pkg"


class TestCrossModuleResolution:
    def test_from_import_and_module_attr(self):
        g = graph(
            ("pkg/util.py", "def helper():\n    return 1\n"),
            (
                "pkg/user.py",
                "from pkg import util\n"
                "from pkg.util import helper\n"
                "def a():\n    return util.helper()\n"
                "def b():\n    return helper()\n",
            ),
        )
        assert edges_of(g, "pkg.user:a") == {"pkg.util:helper"}
        assert edges_of(g, "pkg.user:b") == {"pkg.util:helper"}

    def test_import_alias(self):
        g = graph(
            ("pkg/util.py", "def helper():\n    return 1\n"),
            (
                "pkg/user.py",
                "import pkg.util as u\n" "def a():\n    return u.helper()\n",
            ),
        )
        assert edges_of(g, "pkg.user:a") == {"pkg.util:helper"}

    def test_package_reexport(self):
        g = graph(
            ("pkg/__init__.py", "from pkg.impl import thing\n"),
            ("pkg/impl.py", "def thing():\n    return 1\n"),
            (
                "app/main.py",
                "import pkg\n" "def run():\n    return pkg.thing()\n",
            ),
        )
        assert edges_of(g, "app.main:run") == {"pkg.impl:thing"}

    def test_cross_module_edges_query(self):
        g = graph(
            ("pkg/util.py", "def helper():\n    return local()\n\ndef local():\n    return 1\n"),
            (
                "pkg/user.py",
                "from pkg.util import helper\n"
                "def a():\n    return helper()\n",
            ),
        )
        crossing = g.cross_module_edges()
        assert ("pkg.user:a", "pkg.util:helper") in crossing
        # the intra-module helper -> local edge does not count
        assert ("pkg.util:helper", "pkg.util:local") not in crossing


class TestDecoratedDefs:
    def test_decorated_functions_still_resolve(self):
        g = graph(
            (
                "pkg/mod.py",
                "import functools\n"
                "def deco(fn):\n    return fn\n"
                "@deco\n"
                "def target():\n    return 1\n"
                "@functools.lru_cache\n"
                "def cached():\n    return target()\n",
            ),
        )
        assert "pkg.mod:target" in g.functions
        assert edges_of(g, "pkg.mod:cached") == {"pkg.mod:target"}


class TestAsyncShapes:
    def test_async_generators_and_async_for(self):
        g = graph(
            (
                "pkg/mod.py",
                "async def rows():\n"
                "    for i in range(3):\n"
                "        yield i\n"
                "async def consume():\n"
                "    async for row in rows():\n"
                "        handle(row)\n"
                "def handle(row):\n    return row\n",
            ),
        )
        assert g.functions["pkg.mod:rows"].is_async
        # both the async-for iterable call and the body call are edges
        assert edges_of(g, "pkg.mod:consume") == {
            "pkg.mod:rows",
            "pkg.mod:handle",
        }
        # loop context pulls the sync handler in behind the coroutine
        assert "pkg.mod:handle" in g.loop_context()


class TestMethodDispatch:
    def test_staticmethod_and_classmethod_local(self):
        g = graph(
            (
                "pkg/mod.py",
                "class C:\n"
                "    @staticmethod\n"
                "    def s():\n        return 1\n"
                "    @classmethod\n"
                "    def c(cls):\n        return cls.s()\n"
                "    def m(self):\n        return C.c()\n",
            ),
        )
        assert edges_of(g, "pkg.mod:C.m") == {"pkg.mod:C.c"}
        assert edges_of(g, "pkg.mod:C.c") == {"pkg.mod:C.s"}

    def test_imported_class_staticmethod(self):
        g = graph(
            (
                "pkg/lib.py",
                "class Codec:\n"
                "    @staticmethod\n"
                "    def decode(b):\n        return b\n",
            ),
            (
                "pkg/user.py",
                "from pkg.lib import Codec\n"
                "def run(b):\n    return Codec.decode(b)\n",
            ),
        )
        assert edges_of(g, "pkg.user:run") == {"pkg.lib:Codec.decode"}

    def test_inherited_method_across_modules(self):
        g = graph(
            (
                "pkg/base.py",
                "class Base:\n" "    def shared(self):\n        return 1\n",
            ),
            (
                "pkg/sub.py",
                "from pkg.base import Base\n"
                "class Sub(Base):\n"
                "    def run(self):\n        return self.shared()\n",
            ),
        )
        assert edges_of(g, "pkg.sub:Sub.run") == {"pkg.base:Base.shared"}

    def test_constructor_edge_to_init(self):
        g = graph(
            (
                "pkg/lib.py",
                "class Thing:\n"
                "    def __init__(self):\n        self.x = 1\n",
            ),
            (
                "pkg/user.py",
                "from pkg.lib import Thing\n"
                "def make():\n    return Thing()\n",
            ),
        )
        assert edges_of(g, "pkg.user:make") == {"pkg.lib:Thing.__init__"}


class TestStarImports:
    def test_star_import_resolves_bare_names(self):
        g = graph(
            ("pkg/util.py", "def helper():\n    return 1\n"),
            (
                "pkg/user.py",
                "from pkg.util import *\n" "def a():\n    return helper()\n",
            ),
        )
        assert edges_of(g, "pkg.user:a") == {"pkg.util:helper"}

    def test_star_import_does_not_shadow_locals(self):
        g = graph(
            ("pkg/util.py", "def helper():\n    return 1\n"),
            (
                "pkg/user.py",
                "from pkg.util import *\n"
                "def helper():\n    return 2\n"
                "def a():\n    return helper()\n",
            ),
        )
        assert edges_of(g, "pkg.user:a") == {"pkg.user:helper"}


class TestImportCycles:
    def test_mutual_imports_terminate(self):
        g = graph(
            (
                "pkg/a.py",
                "from pkg import b\n"
                "def fa():\n    return b.fb()\n",
            ),
            (
                "pkg/b.py",
                "from pkg import a\n"
                "def fb():\n    return a.fa()\n",
            ),
        )
        assert edges_of(g, "pkg.a:fa") == {"pkg.b:fb"}
        assert edges_of(g, "pkg.b:fb") == {"pkg.a:fa"}
        # closure over the call cycle terminates too
        chains = g.closure({"pkg.a:fa"})
        assert set(chains) == {"pkg.a:fa", "pkg.b:fb"}

    def test_reexport_cycle_terminates(self):
        # two __init__ files re-exporting from each other: lookup gives up
        # instead of recursing forever
        g = graph(
            ("x/__init__.py", "from y import thing\n"),
            ("y/__init__.py", "from x import thing\n"),
            ("app/main.py", "import x\ndef run():\n    return x.thing()\n"),
        )
        assert edges_of(g, "app.main:run") == set()

    def test_inheritance_cycle_terminates(self):
        g = graph(
            (
                "pkg/mod.py",
                "class A(B):\n    pass\n"
                "class B(A):\n"
                "    def m(self):\n        return self.missing()\n",
            ),
        )
        assert edges_of(g, "pkg.mod:B.m") == set()


class TestModuleGraph:
    """The per-module pass every ProjectGraph is built from."""

    def local_edges(self, text: str) -> dict[str, set[str]]:
        mg = ModuleGraph(src("solo.py", text))
        return {
            qual: {site.resolved for site in info.calls if site.resolved}
            for qual, info in mg.functions.items()
        }

    def test_self_method_nested_def_and_bare_name_resolve_locally(self):
        edges = self.local_edges(
            "class C:\n"
            "    def run(self):\n"
            "        return self.step()\n"
            "    def step(self):\n"
            "        def inner():\n"
            "            return helper()\n"
            "        return inner()\n"
            "def helper():\n    return 1\n"
        )
        assert edges["C.run"] == {"C.step"}
        assert edges["C.step"] == {"C.step.<locals>.inner"}
        assert edges["C.step.<locals>.inner"] == {"helper"}

    def test_foreign_and_dynamic_targets_stay_unresolved(self):
        mg = ModuleGraph(
            src(
                "solo.py",
                "import json\n"
                "def f(obj, make):\n"
                "    json.dumps(obj)\n"
                "    obj.method()\n"
                "    make()()\n",
            )
        )
        sites = mg.functions["f"].calls
        assert {site.raw for site in sites} >= {"json.dumps", "obj.method", "make"}
        assert [site.resolved for site in sites] == [None] * len(sites)


class TestQueries:
    def test_closure_keeps_one_shortest_chain(self):
        g = graph(
            (
                "pkg/mod.py",
                "def root():\n    a()\n    leaf()\n"
                "def a():\n    b()\n"
                "def b():\n    leaf()\n"
                "def leaf():\n    return 1\n",
            ),
        )
        chains = g.closure({"pkg.mod:root"})
        assert chains["pkg.mod:leaf"] == ["pkg.mod:root", "pkg.mod:leaf"]
        assert chains["pkg.mod:b"] == ["pkg.mod:root", "pkg.mod:a", "pkg.mod:b"]

    def test_closure_ignores_roots_the_graph_does_not_know(self):
        g = graph(("pkg/mod.py", "def f():\n    return 1\n"))
        assert g.closure({"pkg.mod:missing", "other:f"}) == {}

    def test_loop_context_leaves_out_code_no_coroutine_reaches(self):
        g = graph(
            (
                "pkg/mod.py",
                "async def serve():\n    handle()\n"
                "def handle():\n    return 1\n"
                "def offline():\n    handle()\n",
            ),
        )
        chains = g.loop_context()
        assert chains["pkg.mod:handle"] == ["pkg.mod:serve", "pkg.mod:handle"]
        assert "pkg.mod:offline" not in chains

    def test_display_is_bare_at_home_and_qualified_abroad(self):
        g = graph(("pkg/util.py", "def helper():\n    return 1\n"))
        assert g.display("pkg.util:helper", relative_to="pkg.util") == "helper"
        assert g.display("pkg.util:helper", relative_to="pkg.user") == "util.helper"
        assert g.display("pkg.util:helper") == "util.helper"
        assert g.source_of("pkg.util:helper").rel == "pkg/util.py"
