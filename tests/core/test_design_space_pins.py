"""Pinned full canonical design spaces, and the array-symmetry orbit index.

The reference-loop stream tests run full sweeps only for GEMM and
Batched-GEMV; the other four Table II workloads take 14–33 s there.  These
pins cover all six at default extents, for the full canonical realizable
sweep and the ``one_d_only`` sweep: the design count, a sha256 of the
``(selection, STT)`` list, and the final :class:`EnumerationStats`.  The
orbit tests check the index that lets a canonical walk classify one
candidate per orbit against the symmetries applied entry by entry.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.core import enumerate as enumeration
from repro.core import naming
from repro.core.enumerate import _ARRAY_SYMMETRIES, EnumerationStats, iter_designs
from repro.explore.engine import ONE_D_TYPES
from repro.ir import workloads

# (workload, one_d_only, designs, final EnumerationStats as (candidates,
#  invalid, type_filtered, unrealizable, predicate_filtered, duplicates,
#  yielded), sha256 of repr([(selection, matrix), ...])), computed with the
#  enumeration that classifies every candidate
_EMPTY = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
PINS = [
    ("gemm", False, 207, (11808, 0, 0, 0, 0, 11601, 207),
     "ab660d08d4314e8a54cdf9c17b2b48bbc7a6ab85fcbc9d89ca019f083e014d45"),
    ("batched_gemv", False, 32, (11808, 0, 0, 0, 0, 11776, 32),
     "e5983f053bec76062f515d8de19c00928c0bf57e6b1bca5795577bfa40119c9b"),
    ("conv2d", False, 2884, (224352, 0, 0, 55680, 0, 165788, 2884),
     "426edb4fb73e66edd8ca0f1d4f75102fb81cf62235c8a24caf3240902cfcf139"),
    ("depthwise_conv", False, 786, (118080, 0, 0, 41760, 0, 75534, 786),
     "c72a653cad6ec6a78c426f1617bc22e3158a9ed7aab9a5ae0c205e332e5488d2"),
    ("mttkrp", False, 828, (47232, 0, 0, 0, 0, 46404, 828),
     "8740ab38476878a28aed6f18f961eb85aa3060382952b1f527933d290f851334"),
    ("ttmc", False, 1656, (94464, 0, 0, 0, 0, 92808, 1656),
     "aaf6479b5a2f52e2f342e9852f24068032b68d6a3a46fe9dad89aeb6d603abb6"),
    ("gemm", True, 207, (11808, 0, 0, 0, 0, 11601, 207),
     "ab660d08d4314e8a54cdf9c17b2b48bbc7a6ab85fcbc9d89ca019f083e014d45"),
    ("batched_gemv", True, 32, (11808, 0, 0, 0, 0, 11776, 32),
     "e5983f053bec76062f515d8de19c00928c0bf57e6b1bca5795577bfa40119c9b"),
    ("conv2d", True, 828, (224352, 0, 177120, 0, 0, 46404, 828),
     "9f1aa7870d7517e9a772863856ee88462e62bbf63826a65f4c5ab6cf33f7599e"),
    ("depthwise_conv", True, 112, (118080, 0, 70848, 13920, 0, 33200, 112),
     "ffd0b71996360e5348784dc5b2e18a1eeda314c056ed0310a4d989e4f5b5e299"),
    ("mttkrp", True, 0, (47232, 0, 47232, 0, 0, 0, 0),
     _EMPTY),
    ("ttmc", True, 0, (94464, 0, 94464, 0, 0, 0, 0),
     _EMPTY),
]


@pytest.mark.parametrize(
    "name, one_d, designs, final, digest",
    [pytest.param(*pin, id=f"{pin[0]}-{'one_d' if pin[1] else 'full'}") for pin in PINS],
)
def test_full_canonical_space(name, one_d, designs, final, digest):
    stats = EnumerationStats()
    specs = list(
        iter_designs(
            workloads.by_name(name),
            realizable_only=True,
            canonical=True,
            allowed_types=ONE_D_TYPES if one_d else None,
            stats=stats,
        )
    )
    pairs = [(spec.selected, spec.stt.matrix) for spec in specs]
    assert len(specs) == designs
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest
    assert dataclasses.astuple(stats) == final


def _images(matrix):
    """The 8 images of ``matrix`` under the array symmetries, row by row."""
    (x0, x1, x2), (y0, y1, y2), last = matrix
    return [
        (
            (a * x0 + b * y0, a * x1 + b * y1, a * x2 + b * y2),
            (c * x0 + d * y0, c * x1 + d * y1, c * x2 + d * y2),
            tuple(last),
        )
        for (a, b), (c, d) in _ARRAY_SYMMETRIES
    ]


class TestOrbitIndex:
    def test_every_bound_1_orbit_has_8_members_and_its_first_is_least(self):
        table = naming._candidate_tuples(1)
        position = {matrix: p for p, matrix in enumerate(table)}
        first, leaders = enumeration._orbit_index(1)
        assert first.shape == (len(table),)
        for p, matrix in enumerate(table):
            members = {position[image] for image in _images(matrix)}  # KeyError: not in the table
            assert len(members) == 8
            assert first[p] == min(members)
        assert leaders.tolist() == [p for p in range(len(table)) if first[p] == p]
        assert len(leaders) == 1476 == len(table) // 8

    def test_a_bound_2_sample(self):
        table = naming._candidate_matrices(2)
        first, leaders = enumeration._orbit_index(2)
        assert first.shape == (len(table),) and len(leaders) == 205968 == len(table) // 8
        weights = 5 ** np.arange(9, dtype=np.int64)
        codes = (table.reshape(len(table), 9) + 2) @ weights
        order = np.argsort(codes)
        rng = np.random.default_rng(26)
        for p in rng.choice(len(table), 2000, replace=False).tolist():
            images = np.array(_images(table[p].tolist())).reshape(8, 9)
            wanted = (images + 2) @ weights
            members = order[np.searchsorted(codes, wanted, sorter=order) % len(table)]
            assert (codes[members] == wanted).all()  # every image is in the table
            assert len(set(members.tolist())) == 8
            assert first[p] == members.min()
        assert (first[leaders] == leaders).all()

    def test_arrays_are_read_only(self):
        first, leaders = enumeration._orbit_index(1)
        with pytest.raises(ValueError):
            first[0] = 5
        with pytest.raises(ValueError):
            leaders[0] = 5
