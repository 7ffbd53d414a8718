"""Statement shapes the dataflow engine moves values through on its own.

``with`` items, ``await`` and stores carry facts along without asking the
:class:`Domain` anything: ``with expr as x`` binds the facts of ``expr``,
``await expr`` yields the facts of ``expr``, and a call inside either is
still handed to :meth:`Domain.call`.  The RA008 taint pass leans on these
defaults (``line = await reader.readline()`` carries the request line, a
``with`` on a lock binds nothing), so they are pinned here next to the
propagation tests in ``test_dataflow.py``.
"""

from repro.analysis.callgraph import ProjectGraph
from repro.analysis.dataflow import EMPTY, Domain, FunctionWalker, Label
from repro.analysis.source import SourceFile

TAINT = Label(kind="t", origin="seed", line=1)


class SeedDomain(Domain):
    """Taints the ``payload`` parameter; records every call it is handed;
    ``clean(...)`` launders its arguments."""

    def __init__(self):
        self.calls = []

    def seed_params(self, fqn, info):
        names = {a.arg for a in info.node.args.args}
        return {"payload": frozenset({TAINT})} if "payload" in names else {}

    def call(self, walker, node, raw, recv, args, kwargs):
        self.calls.append(raw)
        if raw == "clean":
            return EMPTY
        return super().call(walker, node, raw, recv, args, kwargs)


def walk(text: str, fqn_tail: str = "f"):
    graph = ProjectGraph([SourceFile.from_text(text, rel="mod.py")])
    domain = SeedDomain()
    env = FunctionWalker(graph, f"mod:{fqn_tail}", domain).run()
    return env, domain


class TestWith:
    def test_with_as_binds_the_context_value(self):
        env, _ = walk(
            "def f(payload):\n"
            "    with open(payload) as handle:\n"
            "        pass\n",
        )
        assert env["handle"] == {TAINT}

    def test_async_with_as_binds_the_context_value(self):
        env, _ = walk(
            "async def f(payload):\n"
            "    async with connect(payload) as conn:\n"
            "        pass\n",
        )
        assert env["conn"] == {TAINT}

    def test_each_item_binds_its_own_value(self):
        env, _ = walk(
            "def f(payload, other):\n"
            "    with open(payload) as a, open(other) as b:\n"
            "        pass\n",
        )
        assert env["a"] == {TAINT}
        assert env["b"] == EMPTY

    def test_item_without_as_is_still_evaluated(self):
        # `with lock:` binds nothing, but a call in the item reaches the
        # domain (a sink there must still be seen)
        env, domain = walk(
            "def f(self, payload):\n"
            "    with self._lock:\n"
            "        pass\n"
            "    with sink(payload):\n"
            "        pass\n",
        )
        assert "sink" in domain.calls
        assert set(env) == {"payload"}

    def test_facts_bound_in_the_body_survive_the_block(self):
        env, _ = walk(
            "def f(payload):\n"
            "    with guard():\n"
            "        kept = payload\n"
            "    after = kept\n",
        )
        assert env["after"] == {TAINT}


class TestAwait:
    def test_await_passes_the_awaited_value_through(self):
        env, _ = walk(
            "async def f(payload):\n"
            "    body = await read(payload)\n",
        )
        assert env["body"] == {TAINT}

    def test_await_keeps_the_domains_call_decision(self):
        env, domain = walk(
            "async def f(payload):\n"
            "    body = await clean(payload)\n",
        )
        assert set(domain.calls) == {"clean"}
        assert env["body"] == EMPTY


class TestOtherBindings:
    def test_annotated_assignment_binds(self):
        env, _ = walk(
            "def f(payload):\n"
            "    typed: str = payload\n"
            "    bare: int\n",
        )
        assert env["typed"] == {TAINT}
        assert "bare" not in env

    def test_walrus_binds_and_yields_the_value(self):
        env, _ = walk(
            "def f(payload):\n"
            "    if (size := payload):\n"
            "        copy = size\n",
        )
        assert env["size"] == {TAINT}
        assert env["copy"] == {TAINT}

    def test_starred_target_takes_the_whole_value(self):
        # a starred target defeats element-wise unpacking: every target
        # gets the union of the right-hand side
        env, _ = walk(
            "def f(payload):\n"
            "    head, *rest = 1, payload\n",
        )
        assert env["head"] == {TAINT}
        assert env["rest"] == {TAINT}
