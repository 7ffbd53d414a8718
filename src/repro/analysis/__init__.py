"""``repro.analysis``: the repo's own static-analysis pass (``repro lint``).

A small AST-based checker suite that proves the properties the service
layer's concurrency and wire design depend on, instead of trusting review
to catch regressions:

* :mod:`~repro.analysis.checkers.blocking` (**RA001**) — no blocking call
  reachable from an ``async def`` body;
* :mod:`~repro.analysis.checkers.wire_contract` (**RA002**) — server
  routes, client paths and ``docs/service-api.md`` agree three ways;
* :mod:`~repro.analysis.checkers.error_contract` (**RA006**) — every
  server-reachable ``raise`` round-trips through ``wire._ERROR_TYPES``;
* :mod:`~repro.analysis.checkers.determinism` (**RA007**) — nothing
  nondeterministic is reachable from the sweep fold paths;
* :mod:`~repro.analysis.checkers.taint` (**RA008**) — no request-derived
  value reaches a sensitive sink unsanitized.

RA001 and RA006-RA008 share one project-wide, import-resolving call graph
(:class:`~repro.analysis.callgraph.ProjectGraph`), and RA008 runs the
forward dataflow engine (:mod:`~repro.analysis.dataflow`) on top of it.
Everything is pure :mod:`ast` — the analyzed code is parsed, never
imported.  Front doors: ``repro lint`` (CLI), :func:`run_lint` (tests/CI),
``docs/development.md`` (the checker catalog and waiver syntax).
"""

from repro.analysis.findings import Finding, Waiver
from repro.analysis.runner import LintOptions, LintResult, format_text, run_lint

__all__ = [
    "Finding",
    "LintOptions",
    "LintResult",
    "Waiver",
    "format_text",
    "run_lint",
]
