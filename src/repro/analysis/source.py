"""Source loading for the analysis pass: parsed files, never imported ones.

The checkers work on :class:`ast` trees only — the target code is *parsed*,
not executed, so ``repro lint`` can analyze the service layer without
starting servers, opening sockets, or importing optional backends.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

__all__ = ["SourceFile", "collect_sources", "load_source"]


@dataclass
class SourceFile:
    """One parsed Python source: text + AST + the display path findings use."""

    rel: str
    text: str
    tree: ast.Module

    @classmethod
    def from_text(cls, text: str, rel: str = "<string>") -> "SourceFile":
        """Parse in-memory source — the hook the checker tests feed fixtures
        (and deliberately corrupted copies of real modules) through."""
        return cls(rel=rel, text=text, tree=ast.parse(text, filename=rel))


def _display_path(path: Path, root: Path | None) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def load_source(path: Path, root: Path | None = None) -> SourceFile:
    text = path.read_text()
    rel = _display_path(path, root)
    return SourceFile(rel=rel, text=text, tree=ast.parse(text, filename=rel))


def collect_sources(root: Path) -> list[SourceFile]:
    """Every ``*.py`` under ``root`` (or just ``root`` if it is a file).

    Display paths are kept relative to ``root``'s parent so findings read
    ``repro/service/server.py:...`` wherever the pass is invoked from.
    """
    if root.is_file():
        return [load_source(root, root.parent)]
    return [
        load_source(path, root.parent)
        for path in sorted(root.rglob("*.py"))
        if "__pycache__" not in path.parts
    ]
