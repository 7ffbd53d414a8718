"""Space-Time Transformation matrices (paper §II).

An STT maps a point of the (selected, 3-D) iteration space to *where* and
*when* it executes::

    [p1, p2, t]^T  =  T @ [x1, x2, x3]^T

where ``(p1, p2)`` is the PE coordinate and ``t`` the cycle.  ``T`` must be
full rank so the mapping is a bijection — a PE performs at most one operation
per cycle (paper §II).

Paper Fig. 1(b) example for GEMM with ``T = [[1,0,0],[0,1,0],[1,1,1]]``:
iteration ``(i,j,k) = (1,2,3)`` executes at PE (1,2) on cycle 6.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.core import linalg
from repro.core.linalg import IntMatrix, IntVector

__all__ = ["STT", "SPACE_DIMS"]

#: The paper targets 2-D PE arrays: two space rows plus one time row.
SPACE_DIMS = 2


class STT:
    """A full-rank integer space-time transformation matrix.

    The first :data:`SPACE_DIMS` rows map iterations to PE coordinates; the
    last row maps them to the execution time step.
    """

    def __init__(self, matrix: Sequence[Sequence[int]]):
        mat = linalg.as_matrix(matrix)
        if len(mat) != len(mat[0]):
            raise ValueError(f"STT matrix must be square, got {len(mat)}x{len(mat[0])}")
        if len(mat) != SPACE_DIMS + 1:
            raise ValueError(
                f"STT for a {SPACE_DIMS}-D PE array must be {SPACE_DIMS + 1}x"
                f"{SPACE_DIMS + 1}, got {len(mat)}"
            )
        det = linalg.determinant(mat)
        if det == 0:
            raise ValueError(f"STT matrix must be full rank (paper §II): {matrix}")
        self.matrix: IntMatrix = mat
        self._det: int | None = det
        self._inverse_cache: tuple[tuple[Fraction, ...], ...] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, space1: Sequence[int], space2: Sequence[int], time: Sequence[int]) -> "STT":
        return cls([tuple(space1), tuple(space2), tuple(time)])

    @classmethod
    def trusted(cls, matrix: Sequence[Sequence[int]], det: int | None = None) -> "STT":
        """Adopt a matrix whose shape and rank are already known to hold.

        The wire decoders use this for rows echoed back by a server: the
        emitting side validated shape and rank when the design was built,
        so re-proving both per streamed row is pure fold-path overhead.
        ``det`` is derived on demand unless the caller, having checked the
        rank itself, passes it.
        """
        self = cls.__new__(cls)
        self.matrix = tuple([tuple(map(int, row)) for row in matrix])
        self._det = det
        self._inverse_cache = None
        return self

    @property
    def det(self) -> int:
        """Determinant; non-zero by construction (validated or trusted)."""
        det = self._det
        if det is None:
            det = self._det = linalg.determinant(self.matrix)
        return det

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def space_rows(self) -> IntMatrix:
        return self.matrix[:SPACE_DIMS]

    @property
    def time_row(self) -> IntVector:
        return self.matrix[SPACE_DIMS]

    @property
    def inverse(self) -> tuple[tuple[Fraction, ...], ...]:
        """Exact rational inverse ``T^{-1}`` (used in paper Eq. 2).

        Computed lazily: design-space sweeps construct thousands of STTs and
        only ever classify with the forward map.
        """
        if self._inverse_cache is None:
            self._inverse_cache = linalg.inverse(self.matrix)
        return self._inverse_cache

    # ------------------------------------------------------------------
    def apply(self, point: Sequence[int]) -> tuple[IntVector, int]:
        """Map an iteration point to ``((p1, p2), t)``."""
        vec = linalg.mat_vec(self.matrix, tuple(point))
        return tuple(vec[:SPACE_DIMS]), int(vec[SPACE_DIMS])

    def space_of(self, point: Sequence[int]) -> IntVector:
        return self.apply(point)[0]

    def time_of(self, point: Sequence[int]) -> int:
        return self.apply(point)[1]

    def unapply(self, space: Sequence[int], time: int) -> tuple[Fraction, ...]:
        """Inverse map from a space-time vector to the iteration point.

        The result is rational; a space-time point corresponds to an actual
        loop iteration only when every coordinate is integral.
        """
        return linalg.mat_vec(self.inverse, (*space, time))

    def iterates(self, space: Sequence[int], time: int) -> bool:
        """True when (space, time) is the image of an integer loop point."""
        return all(coord.denominator == 1 for coord in self.unapply(space, time))

    def to_spacetime_direction(self, direction: Sequence[int]) -> IntVector:
        """Image of an iteration-space direction, as a primitive vector."""
        return linalg.primitive(linalg.mat_vec(self.matrix, tuple(direction)))

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, STT):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        rows = ", ".join(str(list(row)) for row in self.matrix)
        return f"STT([{rows}])"
