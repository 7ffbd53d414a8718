"""The shared finding/waiver vocabulary of the ``repro lint`` pass.

Every checker (:mod:`repro.analysis.checkers`) reports :class:`Finding`
objects — file:line anchored, tagged with the checker id — and a finding is
suppressed by an **inline waiver**: a ``# repro-lint: waive[RA001] reason``
comment on the offending line (or alone on the line above it) waives the
named checkers there, *with a mandatory justification* — a waiver without a
reason is itself a finding (``RA000``).

Waived findings are still collected (``--verbose`` lists them), they just
stop failing the run.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = [
    "Finding",
    "Waiver",
    "apply_suppressions",
    "scan_waivers",
]

#: The waiver grammar (one or several comma-separated checker ids; see the
#: module docstring for the spelled-out form).
_WAIVER_RE = re.compile(
    r"#\s*repro-lint:\s*waive\[\s*([A-Za-z0-9_,\s]+?)\s*\]\s*(.*?)\s*$"
)
#: Anything that *looks* like it wants to be a lint pragma gets validated, so
#: a typo in the verb fails loudly instead of silently suppressing nothing.
_PRAGMA_RE = re.compile(r"#\s*repro-lint\b")
_CHECKER_ID_RE = re.compile(r"^RA\d{3}$")


def _comment_tokens(text: str) -> list[tuple[int, str, bool]]:
    """Real ``#`` comments as ``(line, comment_text, standalone)`` triples.

    Tokenizing (rather than scanning raw lines) keeps pragma-shaped text in
    docstrings and string literals — e.g. this very module documenting the
    syntax — from being parsed as waivers.  Falls back to nothing on
    tokenize errors; the AST parse will have failed loudly first anyway.
    """
    out: list[tuple[int, str, bool]] = []
    lines = text.splitlines()
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type != tokenize.COMMENT:
                continue
            line = token.start[0]
            source_line = lines[line - 1] if line <= len(lines) else ""
            standalone = source_line.strip().startswith("#")
            out.append((line, token.string, standalone))
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse failed first
        pass
    return out


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, anchored to ``path:line`` and a checker id."""

    path: str
    line: int
    checker: str
    message: str
    #: The enclosing function/class qualname when the checker knows it.
    symbol: str = ""

    @property
    def key(self) -> tuple[str, str, str, str]:
        """Identity without the line number (one finding per flow)."""
        return (self.checker, self.path, self.symbol, self.message)

    def render(self) -> str:
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}: {self.checker}{sym} {self.message}"


@dataclass(frozen=True)
class Waiver:
    """One parsed ``# repro-lint: waive[...]`` comment."""

    path: str
    line: int
    checkers: tuple[str, ...]
    reason: str
    #: The source lines this waiver suppresses (the comment's own line, plus
    #: the next line when the comment stands alone).
    applies_to: tuple[int, ...] = field(default=())


def scan_waivers(path: str, text: str) -> tuple[list[Waiver], list[Finding]]:
    """Parse every waiver comment in ``text``; malformed ones become findings.

    A waiver on a code line applies to that line; a waiver alone on its line
    applies to the line below it (the conventional "decorate the statement"
    placement).  Returns ``(waivers, malformed_findings)`` — the latter carry
    the pseudo-checker id ``RA000`` so a broken waiver cannot pass silently.
    """
    waivers: list[Waiver] = []
    malformed: list[Finding] = []
    for lineno, comment, standalone in _comment_tokens(text):
        if not _PRAGMA_RE.search(comment):
            continue
        match = _WAIVER_RE.search(comment)
        if not match:
            malformed.append(
                Finding(
                    path=path,
                    line=lineno,
                    checker="RA000",
                    message=(
                        "malformed repro-lint pragma; expected "
                        "'# repro-lint: waive[RA001] reason'"
                    ),
                )
            )
            continue
        ids = tuple(part.strip() for part in match.group(1).split(",") if part.strip())
        reason = match.group(2).strip()
        bad_ids = [cid for cid in ids if not _CHECKER_ID_RE.match(cid)]
        if not ids or bad_ids:
            malformed.append(
                Finding(
                    path=path,
                    line=lineno,
                    checker="RA000",
                    message=f"waiver names invalid checker id(s) {bad_ids or ['<none>']}",
                )
            )
            continue
        if not reason:
            malformed.append(
                Finding(
                    path=path,
                    line=lineno,
                    checker="RA000",
                    message=(
                        f"waiver for {', '.join(ids)} has no justification; "
                        "every waiver must say why"
                    ),
                )
            )
            continue
        applies = (lineno, lineno + 1) if standalone else (lineno,)
        waivers.append(
            Waiver(
                path=path, line=lineno, checkers=ids, reason=reason, applies_to=applies
            )
        )
    return waivers, malformed


def apply_suppressions(
    findings: list[Finding], waivers: list[Waiver]
) -> tuple[list[Finding], list[tuple[Finding, Waiver]]]:
    """Split findings into (active, waived)."""
    by_site: dict[tuple[str, int], list[Waiver]] = {}
    for waiver in waivers:
        for line in waiver.applies_to:
            by_site.setdefault((waiver.path, line), []).append(waiver)
    active: list[Finding] = []
    waived: list[tuple[Finding, Waiver]] = []
    for finding in findings:
        waiver = next(
            (
                w
                for w in by_site.get((finding.path, finding.line), ())
                if finding.checker in w.checkers
            ),
            None,
        )
        if waiver is not None:
            waived.append((finding, waiver))
        else:
            active.append(finding)
    return active, waived
