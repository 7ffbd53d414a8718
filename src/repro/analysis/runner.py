"""Orchestration for ``repro lint``: collect, check, suppress, report.

The runner glues the pieces together: it loads the sources
(:mod:`repro.analysis.source`), runs every selected checker
(:mod:`repro.analysis.checkers`), then splits the findings into active and
waived (:func:`repro.analysis.findings.apply_suppressions`).  Only the
active ones fail the run, and a waiver that suppressed nothing is one of
them (``RA000``).

Defaults are discovery-based so ``repro lint`` works from a checkout *and*
against an installed package: the source root falls back to the ``repro``
package directory, the docs to the enclosing repo root (the first ancestor
holding ``pyproject.toml``) when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.checkers import ALL_CHECKERS, LintContext
from repro.analysis.findings import (
    Finding,
    Waiver,
    apply_suppressions,
    scan_waivers,
)
from repro.analysis.source import SourceFile, collect_sources

__all__ = [
    "LintOptions",
    "LintResult",
    "default_src_root",
    "discover_repo_root",
    "format_text",
    "run_lint",
]


def default_src_root() -> Path:
    """The installed ``repro`` package directory — lint ourselves by default."""
    import repro

    return Path(repro.__file__).resolve().parent


def discover_repo_root(start: Path | None = None) -> Path | None:
    """First ancestor with a ``pyproject.toml`` (the checkout root), if any."""
    probe = (start or default_src_root()).resolve()
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return None


@dataclass
class LintOptions:
    paths: list[Path] = field(default_factory=list)
    docs_path: Path | None = None
    select: set[str] | None = None  #: checker ids to run (None = all)

    def resolve(self) -> "LintOptions":
        """Fill unset fields via discovery; explicit values always win."""
        paths = list(self.paths) or [default_src_root()]
        root = discover_repo_root(paths[0])
        docs = self.docs_path
        if docs is None and root is not None:
            candidate = root / "docs" / "service-api.md"
            docs = candidate if candidate.exists() else None
        return LintOptions(paths=paths, docs_path=docs, select=self.select)


@dataclass
class LintResult:
    findings: list[Finding]  #: active (unwaived) — these fail
    waived: list[tuple[Finding, Waiver]]
    files: list[str]
    checkers: list[str]
    summary: dict

    @property
    def ok(self) -> bool:
        return not self.findings


def run_lint(
    options: LintOptions | None = None, *, sources: list[SourceFile] | None = None
) -> LintResult:
    """Run the analysis pass; ``sources`` overrides file collection (tests).

    Raises :class:`ValueError` when ``select`` names an id no checker has:
    a pass that runs nothing must not read as clean.  A waiver whose
    checkers all ran and that suppressed no finding is stale, and becomes
    an ``RA000`` finding; a waiver for a checker ``select`` left out is not
    judged.
    """
    options = (options or LintOptions()).resolve()
    if options.select:
        unknown = sorted(options.select - {c.id for c in ALL_CHECKERS})
        if unknown:
            raise ValueError(
                f"unknown checker id(s) {', '.join(unknown)}; registered: "
                + ", ".join(c.id for c in ALL_CHECKERS)
            )
    if sources is None:
        sources = [s for path in options.paths for s in collect_sources(path)]

    context = LintContext(summary={})
    if options.docs_path is not None and options.docs_path.exists():
        context.docs_path = options.docs_path
        context.docs_text = options.docs_path.read_text()
    findings: list[Finding] = []
    waivers: list[Waiver] = []
    checker_ids: list[str] = []
    for checker_cls in ALL_CHECKERS:
        if options.select and checker_cls.id not in options.select:
            continue
        checker_ids.append(checker_cls.id)
        findings.extend(checker_cls().check(sources, context))
    if context.graph is not None:
        context.summary["cross_module_edges"] = len(
            context.graph.cross_module_edges()
        )
    for source in sources:
        file_waivers, malformed = scan_waivers(source.rel, source.text)
        waivers.extend(file_waivers)
        findings.extend(malformed)  # RA000: malformed waivers always surface
    active, waived = apply_suppressions(sorted(set(findings)), waivers)
    used = {waiver for _, waiver in waived}
    stale = [
        Finding(
            path=waiver.path,
            line=waiver.line,
            checker="RA000",
            message=f"stale waiver: no {', '.join(waiver.checkers)} finding here to suppress",
        )
        for waiver in waivers
        if waiver not in used and set(waiver.checkers) <= set(checker_ids)
    ]
    context.summary["waivers"] = len(waivers)
    return LintResult(
        findings=sorted(active + stale),
        waived=waived,
        files=[s.rel for s in sources],
        checkers=checker_ids,
        summary=context.summary,
    )


def format_text(result: LintResult, *, verbose: bool = False) -> str:
    lines: list[str] = []
    for finding in result.findings:
        lines.append(finding.render())
    if verbose:
        for finding, waiver in result.waived:
            lines.append(f"{finding.render()}  [waived: {waiver.reason}]")
    waived = f" ({len(result.waived)} waived)" if result.waived else ""
    verdict = "clean" if result.ok else f"{len(result.findings)} finding(s)"
    lines.append(
        f"repro lint: {verdict} across {len(result.files)} file(s), "
        f"checkers {', '.join(result.checkers)}{waived}"
    )
    return "\n".join(lines)
