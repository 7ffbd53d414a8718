"""The ``repro lint`` checker registry.

==========  ================================================================
``RA001``   blocking calls reachable from ``async def`` bodies (loop stalls),
            followed across module boundaries
``RA002``   server/client/docs wire-contract drift on the ``/v1`` surface
``RA006``   error-envelope contract: server raises map to
            ``wire._ERROR_TYPES`` and both clients decode them
``RA007``   fold determinism: no unordered iteration or unseeded
            randomness reachable from the sweep fold paths
``RA008``   taint: unsanitized request input (body fields, query params,
            path segments) reaching filesystem/cache/allocation/dispatch
            sinks without a registered sanitizer
==========  ================================================================

A checker is a class with an ``id``, a ``title``, and a
``check(sources, context) -> list[Finding]`` method; add new ones to
``ALL_CHECKERS`` and they ride the waiver framework for free (see
``docs/development.md`` for the walkthrough).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

__all__ = ["ALL_CHECKERS", "Checker", "LintContext"]


@dataclass
class LintContext:
    """Cross-file inputs a checker may need beyond the Python sources."""

    #: ``docs/service-api.md`` (path, text) when discoverable; ``None`` when
    #: linting an installed package with no docs tree alongside.
    docs_path: Path | None = None
    docs_text: str | None = None
    #: Populated by checkers with run metadata (e.g. RA002's route counts)
    #: so callers can assert the comparison actually happened.
    summary: dict | None = None
    #: The project-wide call graph, built once per run by the first checker
    #: that asks (RA001 and RA006-RA008 all share it).
    graph: object | None = None

    def note(self, key: str, value) -> None:
        if self.summary is not None:
            self.summary[key] = value

    def project_graph(self, sources: list[SourceFile]):
        """The memoized :class:`~repro.analysis.callgraph.ProjectGraph`."""
        if self.graph is None:
            from repro.analysis.callgraph import ProjectGraph

            self.graph = ProjectGraph(sources)
        return self.graph


class Checker:
    """Base class: subclasses set ``id``/``title`` and implement ``check``."""

    id: str = "RA000"
    title: str = ""

    def check(
        self, sources: list[SourceFile], context: LintContext
    ) -> list[Finding]:  # pragma: no cover - interface
        raise NotImplementedError


def _registry() -> list[type[Checker]]:
    from repro.analysis.checkers.blocking import BlockingInAsyncChecker
    from repro.analysis.checkers.determinism import FoldDeterminismChecker
    from repro.analysis.checkers.error_contract import ErrorEnvelopeChecker
    from repro.analysis.checkers.taint import TaintChecker
    from repro.analysis.checkers.wire_contract import WireContractChecker

    return [
        BlockingInAsyncChecker,
        WireContractChecker,
        ErrorEnvelopeChecker,
        FoldDeterminismChecker,
        TaintChecker,
    ]


ALL_CHECKERS: list[type[Checker]] = _registry()
