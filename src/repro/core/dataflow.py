"""Dataflow classification — the paper's Table I taxonomy.

Given a tensor's reuse subspace the dataflow follows from rank + orientation:

====  ==============================  ==========================
dim   shape                           tensor dataflow
====  ==============================  ==========================
0     point                           Unicast
1     ``dp = 0, dt != 0``             Stationary
1     ``dp != 0, dt != 0``            Systolic
1     ``dp != 0, dt = 0``             Multicast (reduction tree
                                      when the tensor is output)
2     plane vertical to t-axis        Broadcast
2     plane parallel to t-axis        Multicast & Stationary
2     plane intersecting t-axis       Systolic & Multicast
====  ==============================  ==========================

:func:`analyze` classifies every tensor of a statement under one STT and
returns a :class:`DataflowSpec` — the input to hardware generation, the
performance model and the cost model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from repro.core.linalg import IntVector
from repro.core.reuse import ReuseSpace, orient, reuse_space
from repro.core.stt import STT
from repro.ir.einsum import Statement
from repro.ir.tensor import TensorAccess

__all__ = ["DataflowType", "TensorDataflow", "DataflowSpec", "analyze", "check_selection"]


class DataflowType(enum.Enum):
    """Per-tensor dataflow categories of paper Table I.

    ``FULL_REUSE`` extends the table for tensors indexed purely by
    non-selected loops (all-zero restricted access matrix, reuse subspace =
    all of space-time): one element is shared by the whole stage.  The paper's
    Conv2D ``CPQ-UUB`` dataflow needs it for the output tensor.
    """

    UNICAST = "unicast"
    STATIONARY = "stationary"
    SYSTOLIC = "systolic"
    MULTICAST = "multicast"
    BROADCAST = "broadcast"
    MULTICAST_STATIONARY = "multicast_stationary"
    SYSTOLIC_MULTICAST = "systolic_multicast"
    FULL_REUSE = "full_reuse"

    @property
    def letter(self) -> str:
        """The paper's single-letter code (§VI): S/T/M/U, B for >=2-D reuse."""
        return _LETTERS[self]

    @property
    def reuse_dim(self) -> int:
        return _DIMS[self]

    @property
    def has_stationary_component(self) -> bool:
        return self in (
            DataflowType.STATIONARY,
            DataflowType.MULTICAST_STATIONARY,
            DataflowType.FULL_REUSE,
        )

    @property
    def has_systolic_component(self) -> bool:
        return self in (DataflowType.SYSTOLIC, DataflowType.SYSTOLIC_MULTICAST)

    @property
    def has_multicast_component(self) -> bool:
        return self in (
            DataflowType.MULTICAST,
            DataflowType.BROADCAST,
            DataflowType.MULTICAST_STATIONARY,
            DataflowType.SYSTOLIC_MULTICAST,
            DataflowType.FULL_REUSE,
        )


_LETTERS = {
    DataflowType.UNICAST: "U",
    DataflowType.STATIONARY: "T",
    DataflowType.SYSTOLIC: "S",
    DataflowType.MULTICAST: "M",
    DataflowType.BROADCAST: "B",
    DataflowType.MULTICAST_STATIONARY: "B",
    DataflowType.SYSTOLIC_MULTICAST: "B",
    DataflowType.FULL_REUSE: "B",
}

_DIMS = {
    DataflowType.UNICAST: 0,
    DataflowType.STATIONARY: 1,
    DataflowType.SYSTOLIC: 1,
    DataflowType.MULTICAST: 1,
    DataflowType.BROADCAST: 2,
    DataflowType.MULTICAST_STATIONARY: 2,
    DataflowType.SYSTOLIC_MULTICAST: 2,
    DataflowType.FULL_REUSE: 3,
}


def classify(reuse: ReuseSpace) -> DataflowType:
    """Apply the Table I decision rules to a reuse subspace."""
    if reuse.dim == 0:
        return DataflowType.UNICAST
    if reuse.dim == 1:
        dp = reuse.space_part(0)
        dt = reuse.time_part(0)
        if all(v == 0 for v in dp):
            return DataflowType.STATIONARY
        if dt == 0:
            return DataflowType.MULTICAST
        return DataflowType.SYSTOLIC
    if reuse.dim == 3:
        return DataflowType.FULL_REUSE
    # dim == 2
    if reuse.is_time_invariant():
        return DataflowType.BROADCAST
    if reuse.contains_time_axis():
        return DataflowType.MULTICAST_STATIONARY
    return DataflowType.SYSTOLIC_MULTICAST


def _time_free_direction(reuse: ReuseSpace) -> IntVector:
    """The ``dt = 0`` lattice direction inside a dim-2 reuse subspace.

    Every 2-D plane in space-time meets the ``dt = 0`` hyperplane in at least
    a line; this is the multicast component of the 2-D dataflows.
    """
    (b1, b2) = reuse.basis
    dt1, dt2 = b1[-1], b2[-1]
    if dt1 == 0:
        return orient(b1)
    if dt2 == 0:
        return orient(b2)
    g = gcd(abs(dt1), abs(dt2))
    alpha, beta = dt2 // g, -dt1 // g
    combo = tuple(alpha * u + beta * v for u, v in zip(b1, b2))
    return orient(combo)


def _time_axis_step(reuse: ReuseSpace) -> IntVector:
    """The smallest lattice step along the time axis for the parallel case."""
    (b1, b2) = reuse.basis
    sp1, sp2 = b1[:-1], b2[:-1]
    # Find integer (alpha, beta) with alpha*sp1 + beta*sp2 = 0, not both 0.
    if all(v == 0 for v in sp1):
        return orient(b1)
    if all(v == 0 for v in sp2):
        return orient(b2)
    # sp1, sp2 are 2-D and linearly dependent here (the plane contains the
    # time axis, so its space projection is 1-D): use cross-ratio.
    cross = sp1[0] * sp2[1] - sp1[1] * sp2[0]
    if cross != 0:
        raise ValueError("reuse plane does not contain the time axis")
    pivot = next(i for i, v in enumerate(sp1) if v != 0)
    alpha, beta = sp2[pivot], -sp1[pivot]
    g = gcd(abs(alpha), abs(beta))
    alpha, beta = alpha // g, beta // g
    combo = tuple(alpha * u + beta * v for u, v in zip(b1, b2))
    return orient(combo)


@dataclass(frozen=True)
class TensorDataflow:
    """Dataflow classification of one tensor under one STT."""

    access: TensorAccess
    reuse: ReuseSpace
    kind: DataflowType

    @property
    def tensor_name(self) -> str:
        return self.access.tensor.name

    @property
    def is_output(self) -> bool:
        return self.access.tensor.is_output

    @property
    def is_reduction_tree(self) -> bool:
        """Output tensors with a multicast component need a reduction tree."""
        return self.is_output and self.kind.has_multicast_component

    # -- 1-D components ------------------------------------------------
    @property
    def direction(self) -> IntVector | None:
        """The single reuse step for dim-1 dataflows, ``None`` otherwise."""
        return self.reuse.basis[0] if self.reuse.dim == 1 else None

    @property
    def systolic_direction(self) -> IntVector | None:
        """Space-time step of the systolic component, if any.

        ``(dp1, dp2, dt)``: data moves from PE ``p`` to ``p + dp`` delayed by
        ``dt`` cycles (paper §V-B).
        """
        if self.kind is DataflowType.SYSTOLIC:
            return self.reuse.basis[0]
        if self.kind is DataflowType.SYSTOLIC_MULTICAST:
            b1, b2 = self.reuse.basis
            return b1 if b1[-1] != 0 else b2
        return None

    @property
    def multicast_direction(self) -> IntVector | None:
        """The ``dt = 0`` space direction of the multicast component.

        For broadcast/full-reuse tensors (2-D spatial sharing) this returns
        one of the two independent spatial directions; use
        :meth:`multicast_directions` for both.
        """
        dirs = self.multicast_directions
        return dirs[0] if dirs else None

    @property
    def multicast_directions(self) -> tuple[IntVector, ...]:
        """All independent ``dt = 0`` sharing directions (0, 1 or 2 of them)."""
        if self.kind is DataflowType.MULTICAST:
            return (self.reuse.basis[0],)
        if self.kind in (
            DataflowType.SYSTOLIC_MULTICAST,
            DataflowType.MULTICAST_STATIONARY,
        ):
            return (_time_free_direction(self.reuse),)
        if self.kind is DataflowType.BROADCAST:
            return self.reuse.basis
        if self.kind is DataflowType.FULL_REUSE:
            return ((1, 0, 0), (0, 1, 0))
        return ()

    @property
    def stationary_step(self) -> IntVector | None:
        """Time-axis lattice step for stationary(-containing) dataflows."""
        if self.kind is DataflowType.STATIONARY:
            return self.reuse.basis[0]
        if self.kind is DataflowType.MULTICAST_STATIONARY:
            return _time_axis_step(self.reuse)
        if self.kind is DataflowType.FULL_REUSE:
            return (0, 0, 1)
        return None

    @property
    def letter(self) -> str:
        return self.kind.letter

    def signature(self) -> tuple:
        """Hashable identity of the *hardware* this dataflow implies.

        Two STT matrices that give every tensor the same dataflow type and the
        same reuse directions generate identical accelerators; the signature
        is what the design-space enumeration dedupes on.
        """
        return (self.tensor_name, self.kind.value, self.reuse.basis)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dirs = ", ".join(str(b) for b in self.reuse.basis)
        return f"{self.tensor_name}:{self.kind.value}[{dirs}]"


def check_selection(statement: Statement, selected: Sequence[str], n: int = 3) -> None:
    """Raise ``ValueError`` unless ``selected`` names ``n`` distinct loops of ``statement``."""
    if len(selected) != n:
        raise ValueError(f"need exactly {n} selected loops, got {selected}")
    for name in selected:
        if name not in statement.space:
            raise ValueError(f"selected loop {name!r} not in {statement.space.names}")
    if len(set(selected)) != len(selected):
        raise ValueError(f"selected loops must be distinct: {selected}")


class DataflowSpec:
    """A complete dataflow choice: statement + loop selection + STT.

    This is the central object of the framework — everything downstream
    (hardware generation, simulation schedules, performance/area/power
    models) consumes a ``DataflowSpec``.
    """

    def __init__(self, statement: Statement, selected: Sequence[str], stt: STT):
        check_selection(statement, selected, stt.n)
        self._adopt(statement, tuple(selected), stt)

    @classmethod
    def trusted(cls, statement: Statement, selected: tuple[str, ...], stt: STT) -> "DataflowSpec":
        """A spec whose ``selected`` already passed :func:`check_selection`.

        The engine's space replay checks each distinct selection of an
        entry once instead of once per design.
        """
        self = cls.__new__(cls)
        self._adopt(statement, selected, stt)
        return self

    def _adopt(self, statement: Statement, selected: tuple[str, ...], stt: STT) -> None:
        self.statement = statement
        self.selected = selected
        self.stt = stt
        #: Set by :func:`repro.core.enumerate.iter_specs` from its block
        #: classifier; ``None`` until :attr:`flows` solves it otherwise.
        self._flows: tuple[TensorDataflow, ...] | None = None
        #: The design's :func:`repro.core.enumerate.canonical_signature`, set
        #: by canonical enumeration (which computes it in batch and dedupes
        #: on it); ``None`` for specs built any other way.  It names the
        #: hardware, not the mapping, so it is no memo key.
        self.canonical_key: tuple | None = None
        self._name: str | None = None
        self._directions: tuple | None = None

    @property
    def flows(self) -> tuple[TensorDataflow, ...]:
        """Per-tensor dataflows (type + reuse directions).

        Enumeration hands its specs the tuple its block classifier already
        encodes; every other spec (:func:`analyze`, name resolution, cache
        replay, wire rows) solves it here on first use.  The reuse-space
        solve is the expensive part of such a spec and nothing a consumer
        folding streamed rows by their scalar metrics ever touches —
        deferring it keeps wire reconstruction O(parse).  Two
        evaluation-service executor threads racing on one spec recompute an
        identical tuple; no lock needed.
        """
        flows = self._flows
        if flows is None:
            flows = self._flows = tuple(
                TensorDataflow(
                    access=acc,
                    reuse=(r := reuse_space(acc.restrict(self.selected), self.stt)),
                    kind=classify(r),
                )
                for acc in self.statement.accesses
            )
        return flows

    # ------------------------------------------------------------------
    @property
    def selected_space(self):
        """Iteration sub-space of the three selected loops (STT domain)."""
        return self.statement.space.select(self.selected)

    @property
    def sequential_space(self):
        """The remaining loops, executed sequentially outside the array."""
        return self.statement.space.complement(self.selected)

    @property
    def output_flow(self) -> TensorDataflow:
        return self.flows[-1]

    @property
    def input_flows(self) -> tuple[TensorDataflow, ...]:
        return self.flows[:-1]

    def flow(self, tensor_name: str) -> TensorDataflow:
        for fl in self.flows:
            if fl.tensor_name == tensor_name:
                return fl
        raise KeyError(f"no tensor {tensor_name!r} in spec")

    @property
    def letters(self) -> str:
        """Per-tensor letters, inputs in formula order then output."""
        return "".join(fl.letter for fl in self.flows)

    @property
    def name(self) -> str:
        """The paper's dataflow name, e.g. ``MNK-SST`` (built once per spec)."""
        name = self._name
        if name is None:
            name = self._name = "".join(n.upper() for n in self.selected) + "-" + self.letters
        return name

    @property
    def flow_directions(
        self,
    ) -> tuple[tuple[DataflowType, IntVector | None, IntVector | None], ...]:
        """``(kind, systolic_direction, multicast_direction)`` of each flow,
        inputs first and the output last.

        The performance and cost models read these per design; deriving them
        once per spec keeps each flow's directions from being re-derived by
        every pass that needs them.
        """
        directions = self._directions
        if directions is None:
            directions = self._directions = tuple(
                (fl.kind, fl.systolic_direction, fl.multicast_direction) for fl in self.flows
            )
        return directions

    def signature(self) -> tuple:
        """Hardware-identity key used for design-space deduplication."""
        return (self.selected, tuple(fl.signature() for fl in self.flows))

    def __repr__(self) -> str:
        return f"DataflowSpec({self.name}, stt={self.stt!r})"


def analyze(statement: Statement, selected: Sequence[str], stt: STT) -> DataflowSpec:
    """Classify every tensor of ``statement`` under ``stt``.

    This is step 1 of the paper's workflow (Fig. 2, "dataflow generation").
    """
    return DataflowSpec(statement, selected, stt)
