"""Tests for tiling and stage planning."""

import pytest

from repro.core import naming
from repro.core.dataflow import analyze
from repro.core.stt import STT
from repro.hw.plan import StagePlan, choose_tile
from repro.ir import workloads


@pytest.fixture(scope="module")
def gemm_big():
    return workloads.gemm(16, 16, 32)


class TestChooseTile:
    def test_exact_fit(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-SST")
        tile = choose_tile(spec, 4, 4)
        # space rows are unit vectors on two loops: those tile to 4; the time
        # loop runs in full.
        sizes = sorted(tile.values())
        assert sizes[:2] == [4, 4]
        assert sizes[2] == 32

    def test_small_loops_not_overgrown(self):
        conv = workloads.conv2d(k=8, c=8, y=8, x=8, p=3, q=3)
        spec = naming.spec_from_name(conv, "XPQ-MMT")
        tile = choose_tile(spec, 16, 16)
        for name, t in tile.items():
            assert t <= spec.statement.space[name].extent

    def test_skewed_space_row_respects_footprint(self, gemm_big):
        # space row (1,0,1): footprint of (m,k) tiles adds up
        spec = analyze(gemm_big, ("m", "n", "k"), STT([[1, 0, 1], [0, 1, 0], [0, 0, 1]]))
        tile = choose_tile(spec, 8, 8)
        m_t, n_t, k_t = (tile[n] for n in ("m", "n", "k"))
        assert (m_t - 1) + (k_t - 1) + 1 <= 8
        assert n_t <= 8


class TestStagePlan:
    def test_stage_count(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-SST")
        plan = StagePlan(spec, 4, 4, tile={"m": 4, "n": 4, "k": 32})
        # 4x4 tiles over 16x16 -> 16 stages, no sequential loops
        assert plan.n_stages() == 16
        assert len(list(plan.stages())) == 16

    def test_sequential_loops_multiply_stages(self):
        conv = workloads.conv2d(k=4, c=4, y=4, x=4, p=3, q=3)
        spec = naming.spec_from_name(conv, "KCX-SST")
        plan = StagePlan(spec, 4, 4)
        assert plan.n_stages() % (4 * 3 * 3) == 0  # y, p, q sequential

    def test_place_bijective_within_stage(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-SST")
        plan = StagePlan(spec, 4, 4, tile={"m": 4, "n": 4, "k": 8})
        seen = set()
        for local in plan.local_points():
            p, cyc = plan.place(local)
            assert 0 <= p[0] < 4 and 0 <= p[1] < 4
            assert (p, cyc) not in seen
            seen.add((p, cyc))

    def test_place_cycles_inside_exec_phase(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-SST")
        plan = StagePlan(spec, 4, 4, tile={"m": 4, "n": 4, "k": 8})
        t = plan.timing
        for local in plan.local_points():
            _, cyc = plan.place(local)
            assert t.exec_start <= cyc < t.exec_end

    def test_footprint_too_big_rejected(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-SST")
        with pytest.raises(ValueError):
            StagePlan(spec, 4, 4, tile={"m": 8, "n": 4, "k": 4})

    def test_invalid_tile_extent_rejected(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-SST")
        with pytest.raises(ValueError):
            StagePlan(spec, 4, 4, tile={"m": 0, "n": 4, "k": 4})

    def test_lead_zero_without_systolic_inputs(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-MTM")
        plan = StagePlan(spec, 4, 4)
        assert plan.lead == 0

    def test_lead_for_systolic(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-SST")
        plan = StagePlan(spec, 4, 4)
        assert plan.lead == 3  # worst boundary-to-PE distance on a 4x4 array

    def test_out_lag_for_systolic_output(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-STS")
        plan = StagePlan(spec, 4, 4)
        assert plan.out_lag > 0

    def test_timing_load_and_drain(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-STS")  # B stationary
        plan = StagePlan(spec, 4, 4)
        assert plan.timing.load_len == 4  # chain load = rows
        assert plan.timing.drain_len == 0  # C is systolic
        spec2 = naming.spec_from_name(gemm_big, "MNK-SST")  # C stationary
        plan2 = StagePlan(spec2, 4, 4)
        assert plan2.timing.drain_len == 4

    def test_total_cycles(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-SST")
        plan = StagePlan(spec, 4, 4, tile={"m": 4, "n": 4, "k": 32})
        assert plan.total_cycles() == plan.n_stages() * plan.timing.total

    def test_stage_global_points_cover_space(self, gemm_big):
        """Every iteration point is visited exactly once across all stages."""
        small = workloads.gemm(4, 4, 4)
        spec = naming.spec_from_name(small, "MNK-SST")
        plan = StagePlan(spec, 2, 2)
        visited = set()
        extents = {n: small.space[n].extent for n in small.space.names}
        for stage in plan.stages():
            for local in plan.local_points():
                ok = all(
                    stage.tile_origin[nm] + off < extents[nm]
                    for nm, off in zip(spec.selected, local)
                )
                if not ok:
                    continue
                pt = stage.global_point(spec, local)
                assert pt not in visited
                visited.add(pt)
        assert len(visited) == small.space.volume()


class TestChooseTileMemo:
    def test_returned_dict_is_a_fresh_copy(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-SST")
        first = choose_tile(spec, 4, 4)
        expected = dict(first)
        first["m"] = 999
        first.clear()
        assert choose_tile(spec, 4, 4) == expected

    def test_transposed_arrays_do_not_alias(self, gemm_big):
        spec = naming.spec_from_name(gemm_big, "MNK-SST")
        wide, tall = choose_tile(spec, 4, 8), choose_tile(spec, 8, 4)
        assert wide != tall
        assert choose_tile(spec, 4, 8) == wide
        assert sorted(wide.values()) == sorted(tall.values())
