"""DSE, co-design, published baselines and the evaluation harness (smoke scale)."""

import pytest

from repro.baselines.models import FlexiPairModel, IkedaAsicModel
from repro.baselines.published import FLEXIPAIR_FPGA, IKEDA_ASIC, all_baselines
from repro.dse.codesign import alu_family_codesign, best_depth
from repro.dse.engine import ParallelExplorer
from repro.dse.explorer import evaluate_design_point
from repro.dse.space import (
    DesignPoint,
    design_points,
    figure2_variant_configs,
    named_variant_configs,
    variant_combinations,
)
from repro.errors import DSEError
from repro.evaluation import (
    fig2, fig6, fig8, fig9, fig11, fig12, runner, table2, table3, table5, table6, table7,
)
from repro.hw.presets import default_model, figure10_models


# ---------------------------------------------------------------------------
# Design space definitions
# ---------------------------------------------------------------------------

def test_variant_combinations_enumeration():
    combos = variant_combinations(degrees=(2, 6))
    assert len(combos) == 4
    names = {config.name for config in combos}
    assert len(names) == 4


def test_figure2_configs_cover_all_levels():
    configs = figure2_variant_configs(24)
    assert set(configs) >= {"all-karatsuba", "karat-wo-p2", "karat-wo-p24", "manual"}
    configs12 = figure2_variant_configs(12)
    assert "karat-wo-p4" not in configs12


def test_design_points_cross_product(toy_bn):
    points = design_points(list(named_variant_configs().values()),
                           figure10_models(toy_bn.params.p.bit_length())[:2])
    assert len(points) == 6
    assert all(isinstance(point, DesignPoint) for point in points)
    assert points[0].describe()["hw"]


# ---------------------------------------------------------------------------
# Explorer and co-design
# ---------------------------------------------------------------------------

def test_evaluate_design_point_metrics(toy_bn):
    hw = default_model(toy_bn.params.p.bit_length())
    point = DesignPoint(named_variant_configs()["all-karatsuba"], hw, label="ref")
    metrics = evaluate_design_point(toy_bn, point)
    assert metrics.cycles > 0
    assert metrics.latency_us > 0
    assert metrics.throughput_ops > 0
    assert metrics.area_mm2 > 0
    assert metrics.throughput_per_mm2 == pytest.approx(
        metrics.throughput_ops / metrics.area_mm2
    )
    assert "latency_us" in metrics.describe()


def test_explorer_ranks_points(toy_bn):
    hw = default_model(toy_bn.params.p.bit_length())
    configs = list(named_variant_configs().values())
    points = design_points(configs, [hw])
    explorer = ParallelExplorer(toy_bn, workers=1)
    ranked = explorer.explore(points, objective="throughput")
    assert len(ranked) == len(points)
    assert ranked[0].throughput_ops >= ranked[-1].throughput_ops
    best = explorer.best(points, objective="efficiency")
    assert best.throughput_per_mm2 == max(m.throughput_per_mm2 for m in explorer.evaluated)
    with pytest.raises(DSEError):
        explorer.explore(points, objective="nonsense")
    with pytest.raises(DSEError):
        explorer.best([], objective="throughput")


def test_codesign_sweep(toy_bn):
    records = alu_family_codesign(toy_bn, long_latencies=(14, 26, 38))
    assert len(records) == 3
    # Frequency rises with pipeline depth; IPC stays in a sane range (it tends to
    # fall with depth, but tiny kernels can be noisy, so only bound it loosely).
    assert records[-1].frequency_mhz >= records[0].frequency_mhz
    assert all(0.0 < record.ipc <= 1.0 for record in records)
    assert records[-1].ipc <= records[0].ipc + 0.05
    chosen = best_depth(records)
    assert chosen.throughput_kops == max(r.throughput_kops for r in records)
    assert "critical_path_ns" in records[0].describe()


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def test_published_baseline_data():
    assert FLEXIPAIR_FPGA.flexible and not IKEDA_ASIC.flexible
    assert FLEXIPAIR_FPGA.throughput_per_area == pytest.approx(0.028, rel=0.02)
    assert IKEDA_ASIC.throughput_per_area == pytest.approx(1390, rel=0.02)
    assert len(all_baselines()) == 2
    assert "platform" in FLEXIPAIR_FPGA.describe()


def test_baseline_cost_models_orders_of_magnitude(toy_bn):
    flexipair = FlexiPairModel().estimate(toy_bn)
    ikeda = IkedaAsicModel().estimate(toy_bn)
    ours_cycles = __import__("repro.compiler.pipeline", fromlist=["compile_pairing"]).compile_pairing(toy_bn).cycles
    # The single-ALU microcoded baseline is far slower than the pipelined design;
    # the fixed-function ASIC is faster per cycle count than our flexible core.
    assert flexipair.cycles > 5 * ours_cycles
    assert ikeda.cycles < ours_cycles
    assert flexipair.describe()["cycles"] == flexipair.cycles
    with pytest.raises(ValueError):
        IkedaAsicModel().estimate(__import__("repro.curves.catalog", fromlist=["get_curve"]).get_curve("TOY-BLS12-54"))


# ---------------------------------------------------------------------------
# Evaluation harness (smoke scale)
# ---------------------------------------------------------------------------

def test_static_tables():
    t3 = table3.run()
    assert any(row["variant"] == "karatsuba" and row["sub_mul"] == 3 for row in t3["rows"])
    assert table3.render(t3)
    t5 = table5.run()
    assert len(t5["rows"]) >= 6
    assert any(row["group"] == "G2" for row in t5["rows"])
    assert table5.render(t5)


def test_table2_smoke_scale():
    result = table2.run(scale="smoke")
    assert len(result["rows"]) == 3
    assert all(row["security_bits"] > 0 for row in result["rows"])
    assert table2.render(result)


def test_fig6_and_fig12_smoke_scale():
    f6 = fig6.run(scale="smoke")
    one, eight = f6["breakdowns"]["1-core"], f6["breakdowns"]["8-core"]
    assert eight["total_mm2"] > one["total_mm2"]
    # IMem dominates the single core and amortises across eight.
    assert one["imem"] > 0.3 and eight["imem"] < 0.25
    assert f6["area_scale_factor_8core"] < 8
    assert fig6.render(f6)
    f12 = fig12.run(scale="smoke")
    assert f12["summary"]["n_cores"] == 4
    assert f12["summary"]["pairing_throughput_kops"] > 0
    assert fig12.render(f12)


def test_table6_smoke_scale():
    result = table6.run(scale="smoke")
    assert len(result["rows"]) >= 6
    summary = result["summary"]
    # The headline claims' shape: a large factor over the flexible FPGA
    # framework, and ahead of the 65 nm-normalised ASIC in area efficiency.
    assert summary["throughput_gain_vs_flexipair"] > 5
    assert summary["slice_efficiency_gain_vs_flexipair"] > 1.5
    assert summary["area_efficiency_gain_vs_ikeda_65nm"] > 1.0
    assert table6.render(result)


def test_table7_and_fig9_smoke_scale():
    t7 = table7.run(scale="smoke")
    assert len(t7["rows"]) == 3
    for row in t7["rows"]:
        assert row["opt_instructions"] < row["init_instructions"]
        assert row["ipc_hw2"] >= row["ipc_hw1"] > row["ipc_init"]
    assert table7.render(t7)
    f9 = fig9.run(scale="smoke")
    for row in f9["rows"]:
        assert row["after_occupancy"] > row["before_occupancy"]
        assert row["after_cycles"] < row["before_cycles"]
    assert fig9.render(f9)


def test_fig2_smoke_scale():
    result = fig2.run(scale="smoke")
    labels = {entry["config"] for entry in result["series"]}
    assert "all-karatsuba" in labels and "manual" in labels
    by_name = {entry["config"]: entry for entry in result["series"]}
    assert by_name["all-karatsuba"]["normalized_cycles"] == 1.0
    # Dropping Karatsuba on the lowest level is no worse than all-Karatsuba on
    # the single-issue memory-bound pipeline (the paper's observation).
    assert by_name["karat-wo-p2"]["normalized_cycles"] <= 1.02
    assert by_name["manual"]["normalized_cycles"] <= 1.02
    assert fig2.render(result)


def test_fig11_smoke_scale():
    result = fig11.run(scale="smoke")
    assert len(result["rows"]) == 10
    rows = result["rows"]
    assert result["optimal_long_latency"] in [row["long_latency"] for row in rows]
    assert rows[0]["critical_path_ns"] > rows[-1]["critical_path_ns"] * 0.99
    assert rows[-1]["ipc"] <= rows[0]["ipc"] + 0.05
    assert fig11.render(result)


def test_fig8_smoke_scale():
    result = fig8.run(scale="smoke")
    rows = sorted(result["rows"], key=lambda row: row["k_log_p"])
    assert rows[-1]["delay_us"] > rows[0]["delay_us"]
    # Area grows clearly sub-quadratically in k * log p.
    assert result["area_growth_exponent_vs_klogp"] < 1.8
    assert fig8.render(result)


def test_runner_registry_and_subset():
    assert set(runner.EXPERIMENTS) >= {"table2", "table6", "table7", "fig2", "fig8", "fig11"}
    results = runner.run_all(scale="smoke", names=["table3", "table5"], verbose=False)
    assert set(results) == {"table3", "table5"}
    assert all("seconds" in value for value in results.values())
