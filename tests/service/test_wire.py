"""Wire codec symmetry: every encode in ``wire.py`` has a decode round-trip.

The service's NDJSON rows, statement payloads, and error envelopes are the
only things that cross process boundaries — if any encode/decode pair drifts
apart, the failure shows up as subtly-wrong sweep results on a remote
machine.  These tests pin the symmetry locally: encode, decode, compare
against the original object field by field.
"""

import dataclasses
import math

import pytest

from repro.api import LocalSession
from repro.api.types import SchemaVersionError
from repro.core.enumerate import EnumerationStats
from repro.explore.engine import DesignFailure, DesignPoint, EvaluationStats
from repro.ir import workloads as workload_lib
from repro.perf.model import ArrayConfig
from repro.service import wire

EXTENTS = {"m": 4, "n": 4, "k": 4}


@pytest.fixture(scope="module")
def explored():
    """One tiny real sweep: points with genuine metrics and specs."""
    session = LocalSession(ArrayConfig(rows=2, cols=2))
    return session.explore("batched_gemv", extents=EXTENTS, one_d_only=True)


@pytest.fixture(scope="module")
def statement():
    return workload_lib.by_name("batched_gemv", **EXTENTS)


class TestPointRows:
    def test_ok_points_round_trip(self, explored, statement):
        assert explored.points, "fixture sweep produced no points"
        for point in explored.points:
            row = wire.point_to_row(point)
            assert row["row"] == "point"
            back = wire.row_to_point(row, statement)
            assert back.ok
            assert back.spec.selected == point.spec.selected
            assert back.spec.stt.matrix == point.spec.stt.matrix
            assert back.normalized_perf == point.normalized_perf
            assert back.cycles == point.cycles
            assert back.area_mm2 == point.area_mm2
            assert back.power_mw == point.power_mw
            assert back.seq == point.seq

    def test_failure_points_round_trip(self, explored, statement):
        spec = explored.points[0].spec
        failed = DesignPoint(
            spec=spec,
            failure=DesignFailure(
                spec_name=spec.name,
                letters=spec.letters,
                stage="perf",
                reason="ValueError: seeded",
            ),
            seq=7,
        )
        row = wire.point_to_row(failed)
        assert row["row"] == "failure"
        assert row["stage"] == "perf" and row["reason"] == "ValueError: seeded"
        back = wire.row_to_point(row, statement)
        assert not back.ok
        assert back.failure == failed.failure
        assert back.seq == 7
        assert math.isnan(back.normalized_perf)

    def test_seq_omitted_when_unassigned(self, explored, statement):
        bare = DesignPoint(spec=explored.points[0].spec, normalized_perf=1.0)
        row = wire.point_to_row(bare)
        assert "seq" not in row
        assert wire.row_to_point(row, statement).seq is None


class TestStatsRows:
    def test_stats_round_trip(self, explored):
        stats = explored.stats
        row = wire.stats_to_row(stats)
        assert wire.row_to_stats(row) == stats

    def test_nested_enum_stats_rebuilt_as_dataclass(self):
        stats = EvaluationStats(
            enumerated=3,
            evaluated=2,
            skipped=1,
            cache_hits=5,
            enum=EnumerationStats(candidates=9, invalid=4, yielded=3),
        )
        back = wire.row_to_stats(wire.stats_to_row(stats))
        assert isinstance(back.enum, EnumerationStats)
        assert back == stats


class TestStatementPayloads:
    def test_name_form_round_trip(self, statement):
        payload = wire.statement_payload("batched_gemv", EXTENTS)
        back = wire.instantiate_statement(payload)
        assert back.name == statement.name
        assert back.space.names == statement.space.names
        assert back.space.extents == statement.space.extents

    def test_statement_form_round_trip(self, statement):
        payload = wire.statement_payload(statement)
        assert payload["workload"] == "batched_gemv"
        back = wire.instantiate_statement(payload)
        assert back.space.extents == statement.space.extents

    def test_unknown_workload_and_extents_rejected(self):
        with pytest.raises(KeyError, match="unknown workload"):
            wire.statement_payload("nope")
        with pytest.raises(TypeError, match="does not accept"):
            wire.instantiate_statement(
                {"workload": "batched_gemv", "extents": {"zz": 3}}
            )


class TestJobItems:
    def test_bare_names_inherit_job_extents(self):
        items = wire.job_items(
            {"workloads": ["gemm", "batched_gemv"], "extents": EXTENTS}
        )
        assert [i["workload"] for i in items] == ["gemm", "batched_gemv"]
        assert all(i["extents"] == EXTENTS for i in items)
        # every item decodes into a real statement (the round trip)
        for item in items:
            wire.instantiate_statement(item)

    def test_per_item_extents_override(self):
        items = wire.job_items(
            {
                "workloads": [
                    {"workload": "gemm", "extents": {"m": 8, "n": 8, "k": 8}},
                    "gemm",
                ],
                "extents": EXTENTS,
            }
        )
        assert items[0]["extents"] == {"m": 8, "n": 8, "k": 8}
        assert items[1]["extents"] == EXTENTS

    def test_malformed_job_payloads_rejected(self):
        with pytest.raises(ValueError, match="workloads"):
            wire.job_items({"workloads": []})
        with pytest.raises(ValueError, match="workloads"):
            wire.job_items({"workloads": [{"extents": {}}]})
        with pytest.raises(ValueError, match="extents"):
            wire.job_items({"workloads": ["gemm"], "extents": [1]})


class TestArrayConfig:
    def test_round_trip_all_fields(self):
        array = ArrayConfig(rows=3, cols=5)
        back = wire.array_from_dict(wire.array_to_dict(array))
        assert dataclasses.asdict(back) == dataclasses.asdict(array)


class TestErrorEnvelopes:
    @pytest.mark.parametrize("exc_type", sorted(wire._ERROR_TYPES, key=str))
    def test_each_named_type_round_trips(self, exc_type):
        exc = wire._ERROR_TYPES[exc_type]("seeded failure")
        payload = wire.error_payload(exc)
        assert payload["error_type"] == exc_type
        with pytest.raises(wire._ERROR_TYPES[exc_type], match="seeded failure"):
            wire.raise_remote_error(payload, status=400)

    def test_keyerror_message_unwrapped(self):
        payload = wire.error_payload(KeyError("missing thing"))
        assert payload["error"] == "missing thing"  # not "'missing thing'"

    def test_schema_mismatch_survives_the_wire(self):
        payload = wire.error_payload(SchemaVersionError("v1 != v2"))
        with pytest.raises(SchemaVersionError, match="v1 != v2"):
            wire.raise_remote_error(payload, status=409)

    def test_503_maps_to_busy_regardless_of_type(self):
        payload = wire.error_payload(RuntimeError("queue full"))
        with pytest.raises(wire.ServiceBusyError, match="queue full"):
            wire.raise_remote_error(payload, status=503)

    def test_unknown_type_degrades_to_runtime_error(self):
        with pytest.raises(RuntimeError, match="exploded"):
            wire.raise_remote_error(
                {"error": "exploded", "error_type": "WeirdServerThing"}, status=500
            )


class TestEngineOptions:
    def test_known_options_pass_and_normalize(self):
        out = wire.engine_options(
            {"options": {"one_d_only": True, "selections": [["i", "j"]]}}
        )
        assert out["one_d_only"] is True
        assert out["selections"] == [("i", "j")]

    def test_unknown_option_named_in_error(self):
        with pytest.raises(ValueError, match="predicates"):
            wire.engine_options({"options": {"predicates": []}})

    def test_absent_options_block_is_empty(self):
        assert wire.engine_options({}) == {}
