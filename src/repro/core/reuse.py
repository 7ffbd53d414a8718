"""Reuse subspace analysis (paper §IV, Eq. 2-3).

For a tensor with access matrix ``A`` (restricted to the three selected
loops), two iterations ``x`` and ``x'`` touch the same element iff
``A (x - x') = 0`` — the reuse directions form the nullspace of ``A``.  Under
the STT those directions map to space-time vectors ``(dp1, dp2, dt)`` whose
span is the *reuse subspace*: all space-time points that see the same tensor
element.  Its rank (0, 1 or 2) and its orientation relative to the time axis
determine the dataflow (paper Table I).

The paper computes this via the pseudo-inverse projector
``E - (A T^-1)^- (A T^-1)`` (Eq. 3); mapping the integer nullspace basis of
``A`` through ``T`` is algebraically identical (``null(A T^{-1}) = T null(A)``)
and stays in exact integer arithmetic.

A scale subtlety: reuse happens only at space-time points that are images of
*integer* loop points, so the hardware step along a reuse line is the exact
lattice vector ``T @ d`` for the primitive iteration direction ``d`` — e.g.
``(0, 2, 2)`` means "2 PEs away after 2 cycles" and must *not* be reduced to
``(0, 1, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core import linalg
from repro.core.linalg import IntVector
from repro.core.stt import STT

__all__ = ["ReuseSpace", "reuse_space", "reuse_directions", "orient", "TIME_AXIS"]

#: The time axis direction in space-time coordinates.
TIME_AXIS: IntVector = (0, 0, 1)


def orient(vec: Sequence[int]) -> IntVector:
    """Canonical sign for a reuse direction (no magnitude change).

    Reuse lines are undirected; hardware needs a direction.  We choose the
    representative with ``dt > 0`` (data flows forward in time), falling back
    to a positive first nonzero space component for ``dt = 0`` vectors.
    """
    v = tuple(int(x) for x in vec)
    if all(x == 0 for x in v):
        return v
    dt = v[-1]
    if dt < 0:
        return tuple(-x for x in v)
    if dt > 0:
        return v
    first = next(x for x in v if x != 0)
    if first < 0:
        return tuple(-x for x in v)
    return v


@dataclass(frozen=True)
class ReuseSpace:
    """A tensor's reuse subspace in space-time coordinates.

    ``basis`` holds the exact lattice steps ``T @ d`` (canonically oriented)
    for each primitive iteration-space reuse direction ``d``; ``iter_basis``
    holds the matching ``d`` themselves, sign-flipped so that one +1 step
    along ``iter_basis[i]`` moves by exactly ``basis[i]`` in space-time.
    """

    basis: tuple[IntVector, ...]
    iter_basis: tuple[IntVector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __post_init__(self) -> None:
        if len(self.basis) != len(self.iter_basis):
            raise ValueError("space-time and iteration bases must pair up")
        if self.dim > 3:
            raise ValueError(f"reuse subspace of dim {self.dim} is impossible in 3-D space-time")

    # Convenience splits used by classification -------------------------
    def space_part(self, idx: int) -> IntVector:
        return self.basis[idx][:-1]

    def time_part(self, idx: int) -> int:
        return self.basis[idx][-1]

    def contains_time_axis(self) -> bool:
        """True when the time axis lies inside the reuse subspace.

        For dim 2 this distinguishes the *parallel to t-axis* case of paper
        Table I (multicast + stationary).
        """
        if self.dim == 0:
            return False
        if self.dim == 1:
            return linalg.primitive(self.basis[0]) == TIME_AXIS
        if self.dim == 3:
            return True
        # dim 2: t-axis in span(b1, b2)  <=>  rank([b1; b2; t]) == 2
        stacked = (*self.basis, TIME_AXIS)
        return linalg.rank(stacked) == 2

    def is_time_invariant(self) -> bool:
        """True when every reuse direction has ``dt = 0`` (vertical case)."""
        return all(vec[-1] == 0 for vec in self.basis)


def reuse_directions(access_sub: Sequence[Sequence[int]], n: int = 3) -> tuple[IntVector, ...]:
    """Primitive iteration-space reuse directions: the nullspace of ``access_sub``.

    They depend only on the access and the loop selection, so a sweep over
    many STTs solves them once and maps them through each ``T``.
    """
    if not access_sub or len(access_sub[0]) != n:
        raise ValueError(
            f"restricted access matrix must have {n} columns, got {access_sub}"
        )
    return linalg.nullspace(access_sub)


def reuse_space(access_sub: Sequence[Sequence[int]], stt: STT) -> ReuseSpace:
    """Compute a tensor's reuse subspace under an STT.

    ``access_sub`` is the access matrix restricted to the three selected
    loops (rows for tensor dimensions, columns for selected iterators); rows
    that involve only non-selected loops are all-zero and simply do not
    constrain reuse.  A tensor indexed purely by non-selected loops (e.g. the
    Conv2D output under a ``CPQ`` selection) has an all-zero restricted access
    and therefore full 3-D reuse: one element is shared by the entire
    stage — an array-wide reduction for outputs, an array-wide broadcast of a
    held value for inputs.
    """
    basis: list[IntVector] = []
    iter_basis: list[IntVector] = []
    for it_dir in reuse_directions(access_sub, stt.n):
        mapped = linalg.mat_vec(stt.matrix, it_dir)
        oriented = orient(mapped)
        basis.append(oriented)
        iter_basis.append(it_dir if oriented == tuple(mapped) else tuple(-v for v in it_dir))
    return ReuseSpace(basis=tuple(basis), iter_basis=tuple(iter_basis))
