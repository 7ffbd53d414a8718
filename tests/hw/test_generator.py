"""Tests for the top-level accelerator generator."""

import pytest

from repro.core import naming
from repro.hw.generator import AcceleratorGenerator
from repro.ir import workloads


@pytest.fixture(scope="module")
def design():
    gemm = workloads.gemm(8, 8, 8)
    spec = naming.spec_from_name(gemm, "MNK-SST")
    return AcceleratorGenerator(spec, 4, 4).generate()


class TestGenerate:
    def test_top_has_controller_and_array(self, design):
        names = {inst.module.name for inst in design.top.instances}
        assert design.controller.name in names
        assert design.array.name in names

    def test_control_ports_internal(self, design):
        """Control signals come from the controller, not from outside."""
        for ctl in design.info.controls:
            assert ctl not in design.top.inputs

    def test_data_ports_forwarded(self, design):
        for name in design.array.inputs:
            if name not in design.info.controls:
                assert name in design.top.inputs
        for name in design.array.outputs:
            assert name in design.top.outputs

    def test_observability_ports(self, design):
        assert "cycle" in design.top.outputs
        assert "stage_done" in design.top.outputs

    def test_bundle_consistency(self, design):
        assert design.timing is design.plan.timing
        assert design.rows == design.cols == 4
        assert design.memory.bank("A").n_banks > 0

    def test_cell_counts_scale_with_array(self):
        gemm = workloads.gemm(8, 8, 8)
        spec = naming.spec_from_name(gemm, "MNK-SST")
        small = AcceleratorGenerator(spec, 2, 2).generate()
        large = AcceleratorGenerator(spec, 4, 4).generate()
        # one multiplier per PE
        assert small.top.cell_count()["mul"] == 2 * 2
        assert large.top.cell_count()["mul"] == 4 * 4

    def test_name_mentions_workload_and_dataflow(self, design):
        assert "gemm" in design.name
        assert "mnk_sst" in design.name

    def test_width_override(self):
        gemm = workloads.gemm(8, 8, 8)
        spec = naming.spec_from_name(gemm, "MNK-SST")
        d = AcceleratorGenerator(spec, 2, 2, width=16).generate()
        a_port = next(n for n in d.top.inputs if n.startswith("a_in_"))
        assert d.top.inputs[a_port].width == 16
