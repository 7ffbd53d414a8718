"""Paper Fig. 6: power-vs-area scatter of the dataflow design space.

16x16 array, INT16, 320 MHz ASIC target.  The paper reports 148 GEMM points
and 33 Depthwise-Conv2D points with energy varying 1.8x while area varies
only 1.16x; multicast-input designs (MM?) burn the most power, reduction-tree
outputs stay cheap, stationary designs pay for control.
"""

from bench_util import bench_session, print_table

from repro.ir import workloads
from repro.perf.model import ArrayConfig


def compute():
    session = bench_session()
    assert session.array == ArrayConfig(rows=16, cols=16)  # paper §VI-A platform
    gemm_result, dw_result = session.sweep(
        [workloads.gemm(1024, 1024, 1024)]
    ) + session.sweep(
        [workloads.depthwise_conv(k=64, y=56, x=56, p=3, q=3)], one_d_only=True
    )
    assert not gemm_result.failures and not dw_result.failures
    return (
        [(pt.spec, pt) for pt in gemm_result.points],
        [(pt.spec, pt) for pt in dw_result.points],
    )


def _scatter_summary(label, points):
    areas = sorted(r.area_mm2 for _, r in points)
    powers = sorted(r.power_mw for _, r in points)
    hottest = max(points, key=lambda sr: sr[1].power_mw)
    coolest = min(points, key=lambda sr: sr[1].power_mw)
    print_table(
        f"Fig. 6 {label}: {len(points)} design points (paper: GEMM 148 / DW 33)",
        ["metric", "min", "max", "ratio"],
        [
            ["area (mm^2)", f"{areas[0]:.3f}", f"{areas[-1]:.3f}", f"{areas[-1]/areas[0]:.2f}x"],
            ["power (mW)", f"{powers[0]:.1f}", f"{powers[-1]:.1f}", f"{powers[-1]/powers[0]:.2f}x"],
        ],
    )
    print(f"  hottest: {hottest[0].name} @ {hottest[1].power_mw:.1f} mW")
    print(f"  coolest: {coolest[0].name} @ {coolest[1].power_mw:.1f} mW")
    return areas, powers


def test_fig6_power_area(benchmark):
    gemm_points, dw_points = benchmark.pedantic(compute, rounds=1, iterations=1)
    g_areas, g_powers = _scatter_summary("(a) GEMM", gemm_points)
    _scatter_summary("(b) Depthwise-Conv2D", dw_points)

    # Paper claims:
    # the measured design counts, pinned exactly: a change to the design set
    # must update them on purpose (docs/architecture.md explains the gaps)
    assert len(gemm_points) == 207, f"{len(gemm_points)} GEMM designs (paper: 148)"
    assert len(dw_points) == 112, f"{len(dw_points)} one-D depthwise designs (paper: 33)"
    # dataflow moves power much more than area
    area_ratio = g_areas[-1] / g_areas[0]
    power_ratio = g_powers[-1] / g_powers[0]
    assert power_ratio > area_ratio
    assert area_ratio < 1.35
    assert power_ratio > 1.4
    # double-multicast-input designs are the hottest GEMM designs
    hottest = max(gemm_points, key=lambda sr: sr[1].power_mw)
    assert hottest[0].letters.startswith("MM")
