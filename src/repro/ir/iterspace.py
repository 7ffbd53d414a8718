"""Iterators and iteration spaces for perfect loop nests.

The Space-Time Transformation (paper §II) operates on points of the iteration
space: a loop nest with iterators ``(i, j, k)`` and extents ``(M, N, K)``
defines the integer box ``[0, M) x [0, N) x [0, K)``.  :class:`IterationSpace`
stores the ordered iterators and provides point enumeration, volume
computation, and sub-space selection (the paper maps *three* selected loops to
2-D space + time; the remaining loops run sequentially).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator as TIterator, Sequence


@dataclass(frozen=True, order=True)
class Iterator:
    """A single loop iterator with a half-open extent ``[0, extent)``.

    Iterator names are single lowercase identifiers by convention (``m``,
    ``n``, ``k``, ``x``, ``p`` …) so they can be spelled in dataflow names like
    ``MNK-SST``.
    """

    name: str
    extent: int

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ValueError(f"iterator name must be an identifier, got {self.name!r}")
        if self.extent <= 0:
            raise ValueError(f"iterator {self.name!r} needs a positive extent, got {self.extent}")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.name}<{self.extent}>"


class IterationSpace:
    """An ordered collection of :class:`Iterator` objects.

    The order is significant: access matrices and STT matrices index their
    columns by iterator position.
    """

    def __init__(self, iterators: Sequence[Iterator]):
        names = [it.name for it in iterators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate iterator names in {names}")
        if not iterators:
            raise ValueError("iteration space needs at least one iterator")
        self._iterators = tuple(iterators)
        self._index = {it.name: pos for pos, it in enumerate(self._iterators)}
        self._extents = tuple(it.extent for it in self._iterators)

    @classmethod
    def from_extents(cls, **extents: int) -> "IterationSpace":
        """Build a space from keyword arguments, e.g. ``from_extents(m=4, n=8)``.

        Keyword order is preserved (Python ≥3.7 keeps ``**kwargs`` ordered).
        """
        return cls([Iterator(name, extent) for name, extent in extents.items()])

    @property
    def iterators(self) -> tuple[Iterator, ...]:
        return self._iterators

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(it.name for it in self._iterators)

    @property
    def extents(self) -> tuple[int, ...]:
        return self._extents

    @property
    def rank(self) -> int:
        return len(self._iterators)

    def __len__(self) -> int:
        return len(self._iterators)

    def __iter__(self) -> TIterator[Iterator]:
        return iter(self._iterators)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Iterator:
        return self._iterators[self._index[name]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IterationSpace):
            return NotImplemented
        return self._iterators == other._iterators

    def __hash__(self) -> int:
        return hash(self._iterators)

    def __repr__(self) -> str:
        inner = ", ".join(f"{it.name}={it.extent}" for it in self._iterators)
        return f"IterationSpace({inner})"

    def position(self, name: str) -> int:
        """Column index of iterator ``name`` in access/STT matrices."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no iterator {name!r} in {self.names}") from None

    def positions(self, names: Iterable[str]) -> tuple[int, ...]:
        try:
            return tuple(map(self._index.__getitem__, names))
        except KeyError as exc:
            raise KeyError(f"no iterator {exc.args[0]!r} in {self.names}") from None

    def volume(self) -> int:
        """Number of points (total MAC operations of the kernel)."""
        vol = 1
        for it in self._iterators:
            vol *= it.extent
        return vol

    def points(self) -> TIterator[tuple[int, ...]]:
        """Enumerate all integer points in lexicographic (loop-nest) order."""
        return itertools.product(*(range(it.extent) for it in self._iterators))

    def select(self, names: Sequence[str]) -> "IterationSpace":
        """Sub-space of the named iterators, in the given order."""
        return IterationSpace([self[name] for name in names])

    def complement(self, names: Sequence[str]) -> "IterationSpace":
        """Sub-space of all iterators *not* named, preserving nest order.

        These are the loops the paper executes sequentially outside the PE
        array when more than three loops exist.
        """
        chosen = set(names)
        missing = chosen - set(self.names)
        if missing:
            raise KeyError(f"unknown iterators {sorted(missing)}")
        rest = [it for it in self._iterators if it.name not in chosen]
        if not rest:
            # A degenerate single-point space keeps downstream loops simple.
            return IterationSpace([Iterator("_unit", 1)])
        return IterationSpace(rest)

    def with_extents(self, **extents: int) -> "IterationSpace":
        """Copy of this space with some extents overridden (used by tiling)."""
        unknown = set(extents) - set(self.names)
        if unknown:
            raise KeyError(f"unknown iterators {sorted(unknown)}")
        return IterationSpace(
            [Iterator(it.name, extents.get(it.name, it.extent)) for it in self._iterators]
        )
