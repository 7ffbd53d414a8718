"""RA001: blocking calls reachable from ``async def`` bodies.

One synchronous ``flush()`` on the event loop stalls *every* in-flight row
stream and health probe at once — the exact tail-latency failure mode the
service layer's executor discipline exists to prevent.  This checker walks
the project-wide call graph (:class:`~repro.analysis.callgraph.ProjectGraph`)
from every coroutine through directly-called sync helpers — across module
boundaries, so a coroutine in the coordinator that calls a helper defined in
``wire.py`` which calls ``json.dump`` is flagged just like a local call —
and flags calls matching two pattern tables:

* :data:`BLOCKING_EXACT` — stdlib calls that always block (``time.sleep``,
  ``open``, ``subprocess.*``, sync socket construction, file renames…);
* :data:`BLOCKING_TAILS` — the repo's own known-blocking surfaces, matched
  on their dotted tails (``session.flush``, ``cache.merge_from``,
  ``engine.evaluate``…), all of which either hit disk or take the memo-cache
  lock that an executor thread may hold for seconds.

Handing a callable *reference* to ``loop.run_in_executor`` (or a coroutine
to ``run_coroutine_threadsafe``) creates no call edge, so the sanctioned
patterns pass untouched; nested ``def``s and lambdas are separate scopes and
only count when the coroutine actually calls them.
"""

from __future__ import annotations

from repro.analysis.callgraph import strip_self
from repro.analysis.checkers import Checker, LintContext
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

__all__ = ["BLOCKING_EXACT", "BLOCKING_TAILS", "BlockingInAsyncChecker"]

#: Stdlib calls that always block the calling thread (matched on the full
#: dotted name, after stripping a leading ``self.``/``cls.``).
BLOCKING_EXACT = {
    "time.sleep": "sleeps the event loop",
    "open": "synchronous file I/O",
    "socket.socket": "synchronous socket construction",
    "socket.create_connection": "synchronous connect",
    "subprocess.run": "blocks until the child exits",
    "subprocess.call": "blocks until the child exits",
    "subprocess.check_call": "blocks until the child exits",
    "subprocess.check_output": "blocks until the child exits",
    "subprocess.Popen": "spawns a child synchronously",
    "os.system": "blocks until the shell exits",
    "os.popen": "synchronous pipe I/O",
    "os.replace": "synchronous file I/O",
    "os.rename": "synchronous file I/O",
    "os.remove": "synchronous file I/O",
    "os.unlink": "synchronous file I/O",
    "os.makedirs": "synchronous file I/O",
    "json.dump": "synchronous file I/O",
    "json.load": "synchronous file I/O",
    "pickle.dump": "synchronous file I/O",
    "pickle.load": "synchronous file I/O",
    "urllib.request.urlopen": "synchronous HTTP",
}

#: Known-blocking repro calls, matched on the dotted *tail* of the call
#: (``self.session.flush()`` -> ``session.flush``).  Everything here either
#: performs file I/O or contends on the MemoCache RLock, which a flushing
#: executor thread can hold for seconds on a large cache.
BLOCKING_TAILS = {
    "session.flush": "file I/O under the memo-cache lock",
    "session.evaluate": "model evaluation",
    "session.evaluate_many": "batch model evaluation",
    "session.evaluate_names": "model evaluation",
    "session.explore": "a full design-space sweep",
    "session.sweep": "a full design-space sweep",
    "session.cache_stats": "takes the memo-cache lock (held across flushes)",
    "session.cache_pull": "serializes the full memo cache under its lock",
    "cache.flush": "file I/O under the memo-cache lock",
    "cache.load": "file I/O under the memo-cache lock",
    "cache.dump": "copies every section under the memo-cache lock",
    "cache.merge_from": "folds under the memo-cache lock",
    "cache.stats": "takes the memo-cache lock (held across flushes)",
    "engine.evaluate": "a full design-space sweep",
    "engine.sweep": "a full design-space sweep",
    "engine.evaluate_names": "dataflow scoring (model evaluation)",
    "().result": "synchronous wait on a future",
}


def classify_blocking(raw: str) -> str | None:
    """Why dotted call ``raw`` blocks, or ``None`` when it is loop-safe."""
    name = strip_self(raw)
    reason = BLOCKING_EXACT.get(name)
    if reason is not None:
        return reason
    for tail, tail_reason in BLOCKING_TAILS.items():
        if name == tail or name.endswith(f".{tail}"):
            return tail_reason
    return None


class BlockingInAsyncChecker(Checker):
    id = "RA001"
    title = "blocking call reachable from async def"

    def check(self, sources: list[SourceFile], context: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        graph = context.project_graph(sources)
        loop_chains = graph.loop_context()
        async_functions = sum(
            1 for info in graph.functions.values() if info.is_async
        )
        for fqn, chain in loop_chains.items():
            info = graph.functions.get(fqn)
            if info is None:
                continue
            mod = graph.module_of(fqn)
            qualname = fqn.partition(":")[2]
            shown = [graph.display(hop, relative_to=mod) for hop in chain]
            for site in info.calls:
                reason = classify_blocking(site.raw)
                if reason is None:
                    continue
                if len(chain) == 1:
                    via = f"in async {qualname}"
                else:
                    via = (
                        f"in {qualname} (reachable from async {shown[0]} "
                        f"via {' -> '.join(shown)})"
                    )
                findings.append(
                    Finding(
                        path=graph.source_of(fqn).rel,
                        line=site.node.lineno,
                        checker=self.id,
                        symbol=qualname,
                        message=(
                            f"blocking call {strip_self(site.raw)}() on the "
                            f"event loop {via}: {reason}; move it onto "
                            "loop.run_in_executor"
                        ),
                    )
                )
        context.note("ra001_async_functions", async_functions)
        return findings
