"""Design-space enumeration (paper §VI-B).

The paper sweeps the STT space and reports 148 distinct GEMM designs and 33
distinct Depthwise-Conv2D designs for a 16x16 array.  Distinctness is by
*hardware identity*: two STT matrices that classify every tensor identically
(same dataflow type, same reuse directions) generate the same accelerator.

Enumeration is *streaming*: :func:`iter_specs` and :func:`iter_designs` are
lazy generators that yield each surviving design as soon as it is found, so
the space is never materialized and downstream consumers
(:class:`repro.explore.engine.EvaluationEngine`) can evaluate, batch, or
abort mid-stream.  Underneath, :func:`iter_specs` walks the process-wide,
complexity-ordered candidate table in numpy blocks: 128 candidates first,
doubling up to 4096, so a consumer that stops after a few designs pays for
few candidates.  A tensor's reuse directions under ``T`` are ``T @ d`` for
the integer nullspace ``d`` of its restricted access matrix, which depends
only on the loop selection; one block is therefore one integer matrix
product followed by array ops that orient, classify (Table I) and apply the
dataflow-type and nearest-neighbour filters.  Each block is then deduped in
two stages, in numpy.  Every passing candidate's oriented reuse vectors are
encoded as a row of integer codes, and only the first candidate of each
distinct code row goes on: equal oriented vectors give equal keys.  Those
candidates get their dedupe key (with ``canonical=True``, the least variant
over the 8 array symmetries, all 8 computed as one stacked array), and only
the first candidate with each key — the simplest STT representative, since
the table is complexity-ordered — reaches Python, which drops the keys of
earlier blocks and builds a :class:`DataflowSpec` for the rest.  That spec
carries its canonical key (:attr:`DataflowSpec.canonical_key`), so that
nothing downstream recomputes :func:`canonical_signature`, and its
per-tensor flows, built from the same block row (the ``T @ d`` columns,
their orientation and the Table I kind codes), so that nothing re-solves
:attr:`DataflowSpec.flows`.  User predicates skip the block dedupe: they
still see every candidate that passes the built-in filters, in order,
before the dedupe, as specs that carry their flows too, because a predicate
may reject a key's first candidate so that a later one survives.  Every
candidate's fate (passed, or why it was dropped) is one block array, which
keeps the :class:`EnumerationStats` counters exact at every yield.

A canonical sweep without predicates classifies one candidate in eight.
The 8 array symmetries act on the table itself, as signed permutations of
an STT's two space rows, and split it into orbits of exactly 8
(:func:`_orbit_index`).  A symmetry only permutes and negates the space
components of every ``T @ d``, so it keeps the filters, the Table I kinds
and the canonical key, and the first candidate of each key is its orbit's
first.  Such a walk's block classifies the next orbit firsts and spans the
table up to the one after, and each other candidate takes its orbit first's
built-in filter fate, or is a duplicate when that one passed.  Exact sweeps
and sweeps with predicates classify every candidate.

:func:`enumerate_specs` / :func:`enumerate_designs` remain as thin eager
wrappers producing the same designs in the same order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.core.dataflow import DataflowSpec, DataflowType, TensorDataflow, check_selection
from repro.core.naming import _candidate_matrices
from repro.core.reuse import ReuseSpace, orient, reuse_directions
from repro.core.stt import STT
from repro.ir.einsum import Statement

__all__ = [
    "iter_specs",
    "iter_designs",
    "enumerate_specs",
    "enumerate_designs",
    "loop_selections",
    "DesignSpace",
    "EnumerationStats",
    "is_realizable",
    "canonical_signature",
    "check_limit",
]

#: A composable pruning predicate: keep the spec when it returns True.
Predicate = Callable[[DataflowSpec], bool]

#: The 8 symmetries of a square PE array (dihedral group), as 2x2 matrices
#: ``((a, b), (c, d))`` mapping PE coordinates ``(p1, p2)`` to
#: ``(a*p1 + b*p2, c*p1 + d*p2)``: relabelling PE coordinates produces
#: electrically identical hardware, so the design-space sweep dedupes modulo
#: these.
_ARRAY_SYMMETRIES = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((-1, 0), (0, 1)),
    ((1, 0), (0, -1)),
    ((-1, 0), (0, -1)),
    ((0, -1), (1, 0)),
    ((0, 1), (-1, 0)),
    ((0, -1), (-1, 0)),
)


def is_realizable(spec: DataflowSpec, *, max_step: int = 1, max_delay: int = 1) -> bool:
    """Hardware realizability filter used for the paper's design-space sweeps.

    Keeps designs whose every reuse direction is a *neighbour* step: space
    components in ``[-max_step, max_step]`` and systolic delay at most
    ``max_delay`` cycles.  Longer jumps are expressible in the netlist (extra
    delay registers, long wires) but the paper's synthesized space uses
    nearest-neighbour interconnect.
    """
    for fl in spec.flows:
        for vec in fl.reuse.basis:
            *space, dt = vec
            if any(abs(v) > max_step for v in space):
                return False
            if abs(dt) > max_delay:
                return False
    return True


def canonical_signature(spec: DataflowSpec) -> tuple:
    """Design identity modulo PE-array relabelling symmetries.

    Applies each of the 8 square-array symmetries to the space components of
    every reuse vector, re-orients, sorts each tensor's basis, and returns the
    lexicographically smallest variant.  Two specs with equal canonical
    signatures generate identical hardware up to mirroring/rotating the array.
    """
    variants = []
    for (a, b), (c, d) in _ARRAY_SYMMETRIES:
        per_tensor = []
        for fl in spec.flows:
            basis = sorted(
                orient((a * p1 + b * p2, c * p1 + d * p2, dt))
                for p1, p2, dt in fl.reuse.basis
            )
            per_tensor.append((fl.tensor_name, fl.kind.value, tuple(basis)))
        variants.append(tuple(per_tensor))
    return min(variants)


def check_limit(limit: object, name: str = "limit") -> None:
    """Refuse a design limit that is not ``None`` or an ``int`` of at least 1."""
    if limit is not None and (isinstance(limit, bool) or not isinstance(limit, int) or limit < 1):
        raise ValueError(f"{name} must be null or an integer >= 1, got {limit!r}")


def loop_selections(statement: Statement) -> Iterator[tuple[str, ...]]:
    """All ordered selections of three loops that cover every tensor.

    A selection is valid when every tensor of the statement reads at least one
    selected iterator — otherwise its restricted access matrix is all-zero and
    no dataflow exists for it (cf. :func:`repro.core.reuse.reuse_space`).
    """
    names = statement.space.names
    for combo in itertools.permutations(names, 3):
        cols = [statement.space.position(n) for n in combo]
        ok = all(
            any(row[c] != 0 for row in acc.matrix for c in cols)
            for acc in statement.accesses
        )
        if ok:
            yield combo


@dataclass
class EnumerationStats:
    """Mutable tally of what the enumeration stream did with each candidate.

    ``candidates`` counts STT matrices tried; the remaining fields partition
    the rejected ones by reason, so nothing is dropped silently.
    """

    candidates: int = 0
    invalid: int = 0  # no dataflow exists (DataflowSpec raised ValueError)
    type_filtered: int = 0  # outside ``allowed_types``
    unrealizable: int = 0  # fails the nearest-neighbour interconnect filter
    predicate_filtered: int = 0  # dropped by a user predicate
    duplicates: int = 0  # hardware-identical to an earlier design
    yielded: int = 0

    def merge(self, other: "EnumerationStats") -> None:
        for name in (
            "candidates",
            "invalid",
            "type_filtered",
            "unrealizable",
            "predicate_filtered",
            "duplicates",
            "yielded",
        ):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def summary(self) -> str:
        return (
            f"{self.yielded} designs from {self.candidates} candidates "
            f"(invalid {self.invalid}, type-filtered {self.type_filtered}, "
            f"unrealizable {self.unrealizable}, predicate-filtered "
            f"{self.predicate_filtered}, duplicates {self.duplicates})"
        )


#: Block sizes, in classified candidates.  The first block is small so
#: that enumeration bounded by a ``limit`` stays cheap; later blocks double
#: to amortize the fixed per-block cost.
_FIRST_BLOCK = 128
_MAX_BLOCK = 4096

#: Dataflow types by the small-int code the block arrays carry.
_KINDS = tuple(DataflowType)
_CODE = {kind: code for code, kind in enumerate(_KINDS)}

#: A block candidate's fate, in filter order: it passed, or a built-in
#: filter, a user predicate or the dedupe rejected it.
_PASS, _WRONG_TYPE, _UNREALIZABLE, _PREDICATE, _DUPLICATE = range(5)


@lru_cache(maxsize=None, typed=True)
def _orbit_index(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """The candidate table's array-symmetry orbits, as two read-only arrays:
    for each table position, the position of its orbit's first member
    (int32), and the ascending positions of those first members.

    An orbit is a candidate ``T`` with its images ``S @ T`` for ``S =
    diag(sigma, 1)``, ``sigma`` one of the 8 signed 2x2 permutations in
    :data:`_ARRAY_SYMMETRIES`: ``S`` permutes and negates ``T``'s two space
    rows.  Each image is looked up by its base-``(2 * bound + 1)`` code, which
    a direct index maps to its table position.  The lookup checks the two
    facts :func:`iter_specs` relies on: every image is in the table, and no
    symmetry but the identity fixes a candidate, so every orbit has 8
    members.  Cached for the life of the process, like the table.
    """
    table = _candidate_matrices(bound)
    radix = 2 * bound + 1
    cube = radix**3
    # a row's code is the base-radix number of its entries plus bound, and
    # the negated row's code is cube - 1 minus it; space_row[a, b] is the
    # code of a * row0 + b * row1, for each row (a, b) a symmetry can have.
    # Each row's first entry is cast to int32 before any arithmetic (a
    # matrix code reaches cube**3 - 1), so no step depends on how NumPy
    # promotes the int8 table with a Python int.
    offset = bound * (radix * radix + radix + 1)  # bound added to each entry
    r0, r1, r2 = (
        (table[:, k, 0].astype(np.int32) * radix + table[:, k, 1]) * radix
        + table[:, k, 2]
        + offset
        for k in range(3)
    )
    space_row = {(1, 0): r0, (-1, 0): cube - 1 - r0, (0, 1): r1, (0, -1): cube - 1 - r1}
    where = np.full(cube**3, -1, dtype=np.int32)
    own = np.arange(len(table), dtype=np.int32)
    where[(r0 * cube + r1) * cube + r2] = own
    first = own.copy()
    for row0, row1 in _ARRAY_SYMMETRIES[1:]:
        image = where[(space_row[row0] * cube + space_row[row1]) * cube + r2]
        if (image < 0).any() or (image == own).any():
            raise AssertionError(f"array symmetry {(row0, row1)} does not permute the table freely")
        np.minimum(first, image, out=first)
    leaders = np.flatnonzero(first == own)
    first.flags.writeable = leaders.flags.writeable = False
    return first, leaders


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row."""
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(order[first])


class _SelectionBlocks:
    """Batched classification of candidate STTs for one loop selection.

    Each tensor's reuse directions under ``T`` are ``T @ d`` for the fixed
    nullspace vectors ``d`` of its restricted access matrix; they are
    stacked as the ``K`` columns of ``self.directions``, tensor after tensor.
    A reuse vector ``(p1, p2, dt)`` is encoded as the balanced-radix integer
    ``(p1 * R + p2) * R + dt``, which orders codes as the vectors order
    lexicographically, so dedupe keys are rows of ``K`` int64 codes.
    """

    def __init__(self, statement: Statement, selected: tuple[str, ...], bound: int):
        self.statement = statement
        self.selected = selected
        self.names = statement.tensor_names
        dirs = [reuse_directions(acc.restrict(selected)) for acc in statement.accesses]
        starts = itertools.accumulate((len(d) for d in dirs), initial=0)
        self.groups = [(s, len(d)) for s, d in zip(starts, dirs)]  # (first column, reuse dim)
        self.iter_dirs = [v for d in dirs for v in d]
        self.directions = np.array(self.iter_dirs, dtype=np.int32).reshape(-1, 3).T
        # every component of T @ d is at most bound * sum|d| in magnitude
        self.radix = 2 * bound * max((sum(map(abs, v)) for v in self.iter_dirs), default=0) + 1
        if self.radix**3 > np.iinfo(np.int64).max:
            raise ValueError(f"access coefficients of {statement.name} are too large to enumerate")

    def reuse(self, block: np.ndarray) -> np.ndarray:
        """``(B, 3, K)``: every candidate's unoriented reuse vectors."""
        flat = block.reshape(-1, 3).astype(np.int32) @ self.directions
        return flat.reshape(len(block), 3, self.directions.shape[1])

    def classify(self, vecs: np.ndarray) -> np.ndarray:
        """``(B, tensors)`` dataflow-type codes, by the rules of :func:`classify`."""
        p1, p2, dt = vecs[:, 0], vecs[:, 1], vecs[:, 2]
        kinds = np.empty((len(vecs), len(self.groups)), dtype=np.int8)
        for t, (s, dim) in enumerate(self.groups):
            if dim in (0, 3):
                kinds[:, t] = _CODE[DataflowType.UNICAST if dim == 0 else DataflowType.FULL_REUSE]
                continue
            if dim == 1:
                conds = [(p1[:, s] == 0) & (p2[:, s] == 0), dt[:, s] == 0]
                types = (DataflowType.STATIONARY, DataflowType.MULTICAST, DataflowType.SYSTOLIC)
            else:
                # the space cross product is zero when the reuse plane holds the t-axis
                cross = p1[:, s] * p2[:, s + 1] - p2[:, s] * p1[:, s + 1]
                conds = [(dt[:, s] == 0) & (dt[:, s + 1] == 0), cross == 0]
                types = (
                    DataflowType.BROADCAST,
                    DataflowType.MULTICAST_STATIONARY,
                    DataflowType.SYSTOLIC_MULTICAST,
                )
            kinds[:, t] = np.select(conds, [_CODE[k] for k in types[:2]], _CODE[types[2]])
        return kinds

    def _codes(self, p1: np.ndarray, p2: np.ndarray, dt: np.ndarray) -> np.ndarray:
        """Codes of the oriented vectors.  :func:`orient` picks the sign that
        makes ``(dt, p1, p2)`` lexicographically positive, which is the sign
        of that triple's own balanced-radix code."""
        r = self.radix
        return np.sign((dt * r + p1) * r + p2) * ((p1 * r + p2) * r + dt)

    def keys(self, vecs: np.ndarray, canonical: bool) -> np.ndarray:
        """``(B, K)`` dedupe keys: the oriented reuse vectors, or with
        ``canonical`` the least variant over the array symmetries, each
        tensor's vectors sorted (as :func:`canonical_signature` does).

        The 8 variants are one ``(8, B, K)`` array, and the least is taken
        column by column among the variants still tied.  A canonical key
        depends only on the oriented vectors, so :func:`iter_specs` keys
        only the first row of each distinct oriented code row.
        """
        vecs = vecs.astype(np.int64)
        p1, p2, dt = vecs[:, 0], vecs[:, 1], vecs[:, 2]
        if not canonical:
            return self._codes(p1, p2, dt)
        # each symmetry entry as an (8, 1, 1) column, to broadcast over (B, K)
        a, b, c, d = np.array(_ARRAY_SYMMETRIES, dtype=np.int64).reshape(8, 4).T[:, :, None, None]
        codes = self._codes(a * p1 + b * p2, c * p1 + d * p2, dt)
        for s, dim in self.groups:
            if dim > 1:
                codes[..., s : s + dim].sort(axis=-1)
        best = np.empty_like(codes[0])
        tied = np.ones(codes.shape[:2], dtype=bool)
        for col in range(codes.shape[2]):
            column = np.where(tied, codes[:, :, col], np.iinfo(np.int64).max)
            best[:, col] = column.min(axis=0)
            tied &= column == best[:, col]
        return best

    def signature(self, key: tuple[int, ...], kinds: Sequence[int]) -> tuple:
        """The :func:`canonical_signature` a canonical ``key`` encodes."""
        r, half = self.radix, self.radix // 2
        vecs = []
        for code in key:
            dt = (code + half) % r - half
            code = (code - dt) // r
            p2 = (code + half) % r - half
            vecs.append(((code - p2) // r, p2, dt))
        return tuple(
            (name, _KINDS[kind].value, tuple(vecs[s : s + dim]))
            for name, kind, (s, dim) in zip(self.names, kinds, self.groups)
        )

    def spec(self, matrix: np.ndarray, vecs: np.ndarray, kinds: np.ndarray) -> DataflowSpec:
        """One candidate's spec, carrying the flows its block row encodes.

        ``vecs`` is the candidate's ``(3, K)`` slice of :meth:`reuse` and
        ``kinds`` its :meth:`classify` codes.  Each ``T @ d`` column and its
        ``d`` are negated where :func:`orient` flips the column, which gives
        the same :class:`ReuseSpace`, in Python ints, as
        :func:`repro.core.reuse.reuse_space`.
        """
        spec = DataflowSpec(self.statement, self.selected, STT.trusted(matrix.tolist()))
        basis, iter_basis = [], []
        for (p1, p2, dt), d in zip(zip(*vecs.tolist()), self.iter_dirs):
            if (dt, p1, p2) < (0, 0, 0):  # orient's flip, as in _codes
                p1, p2, dt, d = -p1, -p2, -dt, tuple(-v for v in d)
            basis.append((p1, p2, dt))
            iter_basis.append(d)
        spec._flows = tuple(
            TensorDataflow(
                access=acc,
                reuse=ReuseSpace(tuple(basis[s : s + dim]), tuple(iter_basis[s : s + dim])),
                kind=_KINDS[kind],
            )
            for acc, kind, (s, dim) in zip(self.statement.accesses, kinds.tolist(), self.groups)
        )
        return spec


def _tally(stats: EnumerationStats, fates: np.ndarray) -> None:
    """Count a run of candidates and their rejections."""
    counts = np.bincount(fates, minlength=_DUPLICATE + 1).tolist()
    stats.candidates += len(fates)
    stats.type_filtered += counts[_WRONG_TYPE]
    stats.unrealizable += counts[_UNREALIZABLE]
    stats.predicate_filtered += counts[_PREDICATE]
    stats.duplicates += counts[_DUPLICATE]


def iter_specs(
    statement: Statement,
    selected: Sequence[str],
    *,
    bound: int = 1,
    limit: int | None = None,
    allowed_types: frozenset[DataflowType] | None = None,
    realizable_only: bool = False,
    canonical: bool = False,
    predicates: Sequence[Predicate] = (),
    stats: EnumerationStats | None = None,
) -> Iterator[DataflowSpec]:
    """Stream distinct dataflow designs for one loop selection.

    Deduplicates on :meth:`DataflowSpec.signature` (or
    :func:`canonical_signature` with ``canonical=True``) and keeps the
    simplest STT representative of each design (the candidate table is
    complexity-ordered); canonical survivors carry their signature as
    :attr:`DataflowSpec.canonical_key`.  ``realizable_only`` restricts to
    nearest-neighbour interconnect, matching the paper's synthesized sweeps.
    ``predicates`` are extra user filters applied after the built-in ones and
    before the dedupe; ``stats`` tallies every rejection reason.

    A canonical walk without predicates classifies only the first candidate
    of each array-symmetry orbit and gives its 7 mates that candidate's
    built-in filter fate, or ``duplicates`` when it passed; the stream and
    every ``stats`` field match classifying each candidate.
    """
    check_limit(limit)
    stats = stats if stats is not None else EnumerationStats()
    table = _candidate_matrices(bound)
    try:
        check_selection(statement, selected)
    except ValueError:
        stats.candidates += len(table)
        stats.invalid += len(table)
        return
    blocks = _SelectionBlocks(statement, tuple(selected), bound)
    allowed = None
    if allowed_types is not None:
        allowed = np.array([kind in allowed_types for kind in _KINDS])
    if canonical and not predicates:
        # The orbit walk: classify only each orbit's first candidate, and
        # give its mates its built-in fate, or _DUPLICATE when it passed.
        # This is exact:
        # - S = diag(sigma, 1) maps the table onto itself: entries keep
        #   their magnitudes and the determinant changes sign at most.
        # - (S @ T) @ d permutes and negates the two space components of
        #   T @ d.  That keeps |component| <= 1, the zero tests and the zero
        #   cross product that classify reads, and the set of 8 variants
        #   whose least sorted oriented code row is the canonical key.
        # - No S but the identity fixes a full-rank T: that would need a
        #   zero, equal or opposite pair of space rows.  So every orbit has
        #   exactly 8 members (_orbit_index checks both facts).
        # - The first candidate of a key in table order precedes its 7
        #   mates, so it is its orbit's first.
        # A predicate may reject an orbit's first and keep a later mate, so
        # sweeps with predicates keep the full walk.
        orbit_first, leaders = _orbit_index(bound)
        built = np.empty(len(table), dtype=np.int8)  # each orbit first's fate
    else:
        # every candidate is classified, as the first of an orbit of one
        orbit_first, leaders = None, np.arange(len(table), dtype=np.int32)
    seen: set[tuple] = set()
    count = 0
    lo, start, size = 0, 0, _FIRST_BLOCK
    while start < len(leaders):
        # a block classifies the next `size` orbit firsts and spans the
        # table positions [lo, hi) up to the following one
        picks = leaders[start : start + size]
        start, size = start + len(picks), min(2 * size, _MAX_BLOCK)
        hi = leaders[start] if start < len(leaders) else len(table)
        block = table[picks]
        vecs = blocks.reuse(block)
        kinds = blocks.classify(vecs)
        fates = np.full(len(block), _PASS, dtype=np.int8)
        if realizable_only:
            fates[(np.abs(vecs) > 1).any(axis=(1, 2))] = _UNREALIZABLE
        if allowed is not None:
            fates[~allowed[kinds].all(axis=1)] = _WRONG_TYPE
        rows = np.flatnonzero(fates == _PASS)
        if predicates:
            # a predicate sees every passing candidate, in order, and may
            # reject a key's first occurrence so that a later one survives
            keys = blocks.keys(vecs[rows], canonical)
        else:
            # equal oriented codes give equal keys: key only each code row's
            # first candidate, then keep each key's first candidate
            fates[rows] = _DUPLICATE
            rows = rows[_first_rows(blocks.keys(vecs[rows], False))]
            keys = blocks.keys(vecs[rows], canonical)
            first = _first_rows(keys)
            rows, keys = rows[first], keys[first]
            fates[rows] = _PASS
        at = picks - lo  # each block row's position in the span [lo, hi)
        span = fates  # the fate of each table position in the span
        if orbit_first is not None:
            built[picks] = fates
            # a mate is rejected as its orbit's first was, or duplicates it
            span = built[orbit_first[lo:hi]]
            span[span == _PASS] = _DUPLICATE
            span[at] = fates
        done = 0
        for i, j, key in zip(rows.tolist(), at[rows].tolist(), map(tuple, keys.tolist())):
            spec = None
            if predicates:
                spec = blocks.spec(block[i], vecs[i], kinds[i])
                if not all(pred(spec) for pred in predicates):
                    span[j] = _PREDICATE
                    continue
            if key in seen:
                span[j] = _DUPLICATE
                continue
            seen.add(key)
            if spec is None:
                spec = blocks.spec(block[i], vecs[i], kinds[i])
            if canonical:
                spec.canonical_key = blocks.signature(key, kinds[i].tolist())
            _tally(stats, span[done : j + 1])
            done = j + 1
            stats.yielded += 1
            yield spec
            count += 1
            if limit is not None and count >= limit:
                return
        _tally(stats, span[done:])
        lo = hi


def enumerate_specs(
    statement: Statement,
    selected: Sequence[str],
    *,
    bound: int = 1,
    limit: int | None = None,
    allowed_types: frozenset[DataflowType] | None = None,
    realizable_only: bool = False,
    canonical: bool = False,
) -> list[DataflowSpec]:
    """Eager wrapper around :func:`iter_specs` (same designs, same order)."""
    return list(
        iter_specs(
            statement,
            selected,
            bound=bound,
            limit=limit,
            allowed_types=allowed_types,
            realizable_only=realizable_only,
            canonical=canonical,
        )
    )


@dataclass
class DesignSpace:
    """Result of a full design-space sweep for one workload."""

    statement: Statement
    specs: list[DataflowSpec] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[DataflowSpec]:
        return iter(self.specs)

    def by_letters(self, letters: str) -> list[DataflowSpec]:
        return [s for s in self.specs if s.letters == letters.upper()]

    def letter_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for spec in self.specs:
            hist[spec.letters] = hist.get(spec.letters, 0) + 1
        return dict(sorted(hist.items()))


def iter_designs(
    statement: Statement,
    *,
    selections: Iterable[Sequence[str]] | None = None,
    bound: int = 1,
    per_selection_limit: int | None = None,
    allowed_types: frozenset[DataflowType] | None = None,
    realizable_only: bool = False,
    canonical: bool = False,
    predicates: Sequence[Predicate] = (),
    stats: EnumerationStats | None = None,
) -> Iterator[DataflowSpec]:
    """Stream loop selections x STT matrices into a deduplicated design space.

    Designs are yielded as soon as they survive pruning — the full space is
    never held in memory, so a consumer can evaluate, batch or stop early.
    With ``canonical=True``, unordered loop selections are also deduplicated:
    ``(m, n, k)`` and ``(n, m, k)`` relabel the same hardware, so only sorted
    selections are swept.
    """
    check_limit(per_selection_limit, "per_selection_limit")
    stats = stats if stats is not None else EnumerationStats()
    seen: set[tuple] = set()
    chosen = selections if selections is not None else loop_selections(statement)
    if canonical and selections is None:
        chosen = sorted({tuple(sorted(sel)) for sel in chosen})
    for sel in chosen:
        for spec in iter_specs(
            statement,
            tuple(sel),
            bound=bound,
            limit=per_selection_limit,
            allowed_types=allowed_types,
            realizable_only=realizable_only,
            canonical=canonical,
            predicates=predicates,
            stats=stats,
        ):
            sig = (
                (tuple(sorted(sel)), spec.canonical_key)
                if canonical
                else spec.signature()
            )
            if sig in seen:
                stats.yielded -= 1
                stats.duplicates += 1
                continue
            seen.add(sig)
            yield spec


def enumerate_designs(
    statement: Statement,
    *,
    selections: Iterable[Sequence[str]] | None = None,
    bound: int = 1,
    per_selection_limit: int | None = None,
    allowed_types: frozenset[DataflowType] | None = None,
    realizable_only: bool = False,
    canonical: bool = False,
) -> DesignSpace:
    """Eager wrapper around :func:`iter_designs` returning a :class:`DesignSpace`."""
    space = DesignSpace(statement)
    space.specs.extend(
        iter_designs(
            statement,
            selections=selections,
            bound=bound,
            per_selection_limit=per_selection_limit,
            allowed_types=allowed_types,
            realizable_only=realizable_only,
            canonical=canonical,
        )
    )
    return space
