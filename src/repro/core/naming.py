"""The paper's dataflow naming scheme (``MNK-SST``) and name-driven search.

A name has two parts separated by ``-``:

- the three *selected loops* (uppercased iterator names) mapped to space-time,
- one letter per tensor, **inputs in formula order, then the output**:
  ``S`` systolic, ``T`` stationary, ``M`` multicast (a reduction tree when the
  tensor is an output), ``U`` unicast, ``B`` 2-D reuse.

Examples from the paper (§VI):

- GEMM ``MNK-SST`` — A, B systolic; C stationary: the classic output-
  stationary systolic array.
- GEMM ``MNK-STS`` — B stationary: weight stationary (TPU-style).
- Conv2D ``XPQ-MMT`` — multicast A and B, stationary C.
- TTMc ``IJK-BBBU`` — all inputs 2-D reuse, output unicast.

Names do not pin down a unique STT matrix; :func:`spec_from_name` searches a
complexity-ordered stream of full-rank matrices and returns the simplest one
whose classification matches the letters.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from repro.core.dataflow import DataflowSpec
from repro.core.stt import STT
from repro.ir.einsum import Statement

__all__ = [
    "parse_name",
    "spec_from_name",
    "matching_specs",
    "best_spec_from_name",
    "stt_candidates",
    "check_bound",
    "MAX_BOUND",
    "letters_match",
    "KNOWN_GEMM_DATAFLOWS",
]

_VALID_LETTERS = frozenset("STMUB")

#: Lenient letter acceptance.  The paper's figure labels name compound (2-D)
#: reuse sometimes by the strict code ``B`` (e.g. TTMc ``IJK-BBBU``) and
#: sometimes by the dominant 1-D component (e.g. Conv2D ``XYP-STM``, whose
#: weight tensor is multicast+stationary yet labelled ``T``).  Name search
#: therefore accepts, for each requested letter, the dataflow types listed
#: here; :attr:`DataflowSpec.letters` always emits the strict code.
_LETTER_ACCEPTS: dict[str, frozenset] = {
    "U": frozenset({"unicast"}),
    "S": frozenset({"systolic", "systolic_multicast"}),
    "T": frozenset({"stationary", "multicast_stationary"}),
    "M": frozenset({"multicast", "broadcast"}),
    "B": frozenset(
        {
            "broadcast",
            "multicast_stationary",
            "systolic_multicast",
            "full_reuse",
        }
    ),
}


def letters_match(requested: str, spec: DataflowSpec) -> bool:
    """True when every tensor's dataflow is acceptable for its letter."""
    return all(
        fl.kind.value in _LETTER_ACCEPTS[letter]
        for letter, fl in zip(requested, spec.flows)
    )


def parse_name(name: str) -> tuple[tuple[str, ...], str]:
    """Split ``"MNK-SST"`` into selected loops ``("m","n","k")`` and letters.

    Loop names are single characters in this notation (all Table II iterators
    are single letters).
    """
    if "-" not in name:
        raise ValueError(f"dataflow name needs a '-': {name!r}")
    loops_part, letters = name.split("-", maxsplit=1)
    letters = letters.upper()
    selected = tuple(ch.lower() for ch in loops_part)
    if len(selected) != 3:
        raise ValueError(f"expected 3 selected loops in {name!r}, got {selected}")
    bad = set(letters) - _VALID_LETTERS
    if bad:
        raise ValueError(f"unknown dataflow letters {sorted(bad)} in {name!r}")
    return selected, letters


#: Largest supported candidate entry bound.  Bound 1 is 11,808 full-rank
#: matrices; bound 2 is 1.6M (about 1 s and 200 MB peak to build, then
#: cached for the life of the process); bound 3 would be about 40M.
MAX_BOUND = 2


def check_bound(bound: object) -> None:
    """Validate an STT entry bound, which arrives from request options."""
    if isinstance(bound, bool) or not isinstance(bound, int) or not 1 <= bound <= MAX_BOUND:
        raise ValueError(f"bound must be an integer in 1..{MAX_BOUND}, got {bound!r}")


# typed caches, so that True or 1.0 is checked rather than served bound 1
@lru_cache(maxsize=None, typed=True)
def _candidate_matrices(bound: int) -> np.ndarray:
    """All full-rank 3x3 matrices with entries in ``[-bound, bound]``, as a
    read-only ``(n, 3, 3)`` int8 array in complexity order.

    The order prefers simple, hardware-friendly STT matrices: smallest
    space-row weight first (permutation matrices, then single-skew variants
    like the paper's ``[[1,0,0],[0,1,0],[1,1,1]]``, then denser matrices),
    then smallest total weight, then fewest negative entries (negative steps
    mean reversed interconnect), then the flattened entries.  Cached: the
    bound-1 table is shared by every name lookup and by design-space
    enumeration.
    """
    check_bound(bound)
    values = np.arange(-bound, bound + 1, dtype=np.int8)
    flat = np.stack(np.meshgrid(*[values] * 9, indexing="ij"), axis=-1).reshape(-1, 9)
    a, b, c, d, e, f, g, h, i = flat.T.astype(np.int16)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    flat = flat[det != 0]
    mags = np.abs(flat)
    order = np.lexsort(
        (*flat.T[::-1], (flat < 0).sum(axis=1), mags.sum(axis=1), mags[:, :6].sum(axis=1))
    )
    table = flat[order].reshape(-1, 3, 3)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None, typed=True)
def _candidate_tuples(bound: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """:func:`_candidate_matrices` as nested tuples of ``int``, for name search.

    Built from the ``(2 * bound + 1) ** 3`` distinct rows, which the matrices
    share, without materializing the table as nested lists.
    """
    table = _candidate_matrices(bound)
    values = range(-bound, bound + 1)
    rows = list(itertools.product(values, repeat=3))  # indexed by the row's base-len(values) code
    codes = (table + bound) @ np.array([len(values) ** 2, len(values), 1])
    first, second, third = (map(rows.__getitem__, col) for col in codes.T.tolist())
    return tuple(zip(first, second, third))


def stt_candidates(bound: int = 1) -> Iterator[STT]:
    """Complexity-ordered stream of valid STT matrices."""
    for matrix in _candidate_tuples(bound):
        yield STT(matrix)


def spec_from_name(
    statement: Statement,
    name: str,
    *,
    bound: int = 1,
    candidates: Iterable[STT] | None = None,
) -> DataflowSpec:
    """Find the simplest STT realizing a named dataflow.

    Raises ``LookupError`` when no matrix within the search bound produces the
    requested letters — e.g. asking for a stationary ``A`` in Batched-GEMV,
    which the paper proves impossible.
    """
    selected, letters = parse_name(name)
    if len(letters) != len(statement.accesses):
        raise ValueError(
            f"{name!r} has {len(letters)} letters but {statement.name} has "
            f"{len(statement.accesses)} tensors {statement.tensor_names}"
        )
    stream = candidates if candidates is not None else stt_candidates(bound)
    fallback: DataflowSpec | None = None
    for stt in stream:
        try:
            spec = DataflowSpec(statement, selected, stt)
        except ValueError:
            continue
        if spec.letters == letters:
            return spec
        if fallback is None and letters_match(letters, spec):
            fallback = spec
    if fallback is not None:
        return fallback
    raise LookupError(
        f"no STT with |entries| <= {bound} realizes {name!r} for {statement.name}; "
        "the dataflow may be infeasible for this workload (cf. Batched-GEMV "
        "supporting only unicast A)"
    )


def matching_specs(
    statement: Statement,
    name: str,
    *,
    bound: int = 1,
    limit: int | None = None,
) -> Iterator[DataflowSpec]:
    """All distinct designs realizing a named dataflow, simplest STT first.

    A name rarely pins down a unique STT (e.g. ``MNK-MSM`` leaves open which
    loop becomes time), and the candidates can differ hugely in performance;
    benchmarks pick the best by model.  Deduplicates by hardware signature.
    """
    selected, letters = parse_name(name)
    if len(letters) != len(statement.accesses):
        raise ValueError(
            f"{name!r} has {len(letters)} letters but {statement.name} has "
            f"{len(statement.accesses)} tensors"
        )
    seen: set[tuple] = set()
    count = 0
    for stt in stt_candidates(bound):
        try:
            spec = DataflowSpec(statement, selected, stt)
        except ValueError:
            continue
        if spec.letters != letters and not letters_match(letters, spec):
            continue
        sig = spec.signature()
        if sig in seen:
            continue
        seen.add(sig)
        yield spec
        count += 1
        if limit is not None and count >= limit:
            return


def best_spec_from_name(statement: Statement, name: str, score, *, bound: int = 1, limit: int = 24) -> DataflowSpec:
    """The highest-``score(spec)`` design among the first ``limit`` matches."""
    best = None
    best_score = None
    for spec in matching_specs(statement, name, bound=bound, limit=limit):
        s = score(spec)
        if best_score is None or s > best_score:
            best, best_score = spec, s
    if best is None:
        raise LookupError(f"no STT with |entries| <= {bound} realizes {name!r}")
    return best


#: Well-known GEMM dataflows discussed in the paper, for convenience/tests.
KNOWN_GEMM_DATAFLOWS = {
    "output_stationary": "MNK-SST",
    "weight_stationary": "MNK-STS",
    "input_stationary": "MNK-TSS",
    "multicast_stationary": "MNK-MMT",
    "multicast_reduction_tree": "MNK-MTM",
}
