"""explore_pareto end to end: determinism, guided search, errors, runner flags."""

import os
import random
import subprocess
import sys

import pytest

from repro.compiler.pipeline import clear_caches, compile_pairing
from repro.config import BUDGET_ENV, OBJECTIVES_ENV
from repro.dse.engine import EMPTY_SPACE_MESSAGE, ParallelExplorer
from repro.dse.explorer import FINAL_EXP_MODE
from repro.dse.objectives import list_objectives, resolve_objective
from repro.dse.search import proxy_design_metrics, validate_budget
from repro.dse.space import DesignPoint, design_points, named_variant_configs
from repro.errors import DSEError
from repro.evaluation import pareto_sweep
from repro.evaluation.runner import main as runner_main
from repro.hw.area import estimate_area
from repro.hw.presets import figure10_models


@pytest.fixture(scope="module")
def toy_points(toy_bn):
    configs = list(named_variant_configs().values())
    hw_models = figure10_models(toy_bn.params.p.bit_length())[:2]
    return design_points(configs, hw_models)


@pytest.fixture(scope="module")
def full_points(toy_bn):
    """The full Figure 10 toy space the guided-search contract is stated on."""
    configs = list(named_variant_configs().values())
    return design_points(configs, figure10_models(toy_bn.params.p.bit_length()))


# ---------------------------------------------------------------------------
# Determinism: worker count and input order must not matter
# ---------------------------------------------------------------------------

def test_frontier_identical_across_worker_counts(toy_bn, toy_points):
    sequential = ParallelExplorer(toy_bn, workers=1).explore_pareto(
        toy_points, objectives=("throughput", "area"))
    with ParallelExplorer(toy_bn, workers=2) as parallel:
        sharded = parallel.explore_pareto(toy_points, objectives=("throughput", "area"))
    assert sharded.frontier == sequential.frontier
    assert sharded.frontier_scores == sequential.frontier_scores
    assert sharded.labels() == sequential.labels()
    assert sharded.extremes == sequential.extremes


def test_frontier_invariant_under_input_permutation(toy_bn, toy_points):
    engine = ParallelExplorer(toy_bn, workers=1)
    reference = engine.explore_pareto(toy_points, objectives=("throughput", "area"))
    for seed in range(3):
        shuffled = list(toy_points)
        random.Random(seed).shuffle(shuffled)
        again = engine.explore_pareto(shuffled, objectives=("throughput", "area"))
        assert again.frontier == reference.frontier
        assert again.frontier_scores == reference.frontier_scores
    # Duplicated points collapse to their semantic identity: same frontier,
    # same dominated count over the distinct set.
    doubled = list(toy_points) + list(toy_points)
    dup = engine.explore_pareto(doubled, objectives=("throughput", "area"))
    assert dup.frontier == reference.frontier
    assert dup.total_points == reference.total_points


def test_explore_ranking_breaks_score_ties_by_label(toy_bn, toy_points):
    """Two labels carrying the same design score order deterministically."""
    point = toy_points[0]
    twin_a = DesignPoint(point.variant_config, point.hw, label="tie-b")
    twin_b = DesignPoint(point.variant_config, point.hw, label="tie-a")
    engine = ParallelExplorer(toy_bn, workers=1)
    ranked = engine.explore([twin_a, twin_b], objective="throughput")
    assert [m.label for m in ranked] == ["tie-a", "tie-b"]


# ---------------------------------------------------------------------------
# Guided search: budget and frontier-recovery contract
# ---------------------------------------------------------------------------

def test_half_the_space_recovers_the_frontier(toy_bn, full_points):
    engine = ParallelExplorer(toy_bn, workers=1)
    exhaustive = engine.explore_pareto(full_points, objectives=("throughput", "area"))
    assert exhaustive.evaluated == exhaustive.total_points == len(full_points)
    # A real trade-off, with power axes populated and varying along it, so
    # power / energy / throughput_per_watt are rankable.
    assert len(exhaustive.frontier) >= 2
    assert all(m.power_mw > 0 and m.energy_per_pairing_uj > 0 and m.throughput_per_watt > 0
               for m in exhaustive.frontier)
    assert len({m.power_mw for m in exhaustive.frontier}) > 1

    guided = engine.explore_pareto(full_points, objectives=("throughput", "area"),
                                   budget=len(full_points) // 2)
    assert guided.evaluated == len(full_points) // 2
    # The guided frontier contains every exhaustive-frontier point (it may
    # not contain more: its frontier is non-dominated within the evaluated
    # subset, and the exhaustive front dominates everything else).
    assert set(exhaustive.labels()) <= set(guided.labels())
    # A tight budget evaluates exactly that many points.
    tight = engine.explore_pareto(full_points, objectives=("throughput", "area"),
                                  budget=3)
    assert tight.evaluated == 3


def test_a_sweep_prices_the_binary_each_kernel_assembles_to(toy_bn, full_points):
    """The area a sweep ranks on is the area of the assembled kernel: its
    instruction memory holds the binary the assembler emits."""
    engine = ParallelExplorer(toy_bn, workers=1)
    engine.explore(full_points, objective="area")
    assert len(engine.evaluated) == len(full_points)
    for point, metrics in zip(full_points, engine.evaluated):
        kernel = compile_pairing(toy_bn, hw=point.hw, variant_config=point.variant_config,
                                 final_exp_mode=FINAL_EXP_MODE)
        area = estimate_area(point.hw, kernel.program.binary_size_bits(),
                             kernel.total_registers)
        assert metrics.area_mm2 == area.total_mm2, point.display_label


#: What the proxy-ranked top 7 of the TOY-BN42 Fig-10 space is on
#: (throughput, area): the points, their summed cycles and the frontier.
TOP7_EVALUATED = (
    "all-karatsuba/L8-S2-lin1", "all-karatsuba/L8-S2-lin6", "manual/L38-S8-lin1",
    "manual/L8-S2-lin1", "manual/L8-S2-lin2", "manual/L8-S2-lin4", "manual/L8-S2-lin6",
)
TOP7_CYCLES = 92581
TOP7_FRONTIER = (
    "all-karatsuba/L8-S2-lin6", "manual/L8-S2-lin6", "manual/L8-S2-lin4",
    "manual/L8-S2-lin2", "manual/L38-S8-lin1", "manual/L8-S2-lin1",
)


def test_budget_seven_evaluates_the_proxy_ranked_top_seven(toy_bn, full_points):
    engine = ParallelExplorer(toy_bn, workers=1)
    result = engine.explore_pareto(full_points, ("throughput", "area"), budget=7)
    assert tuple(sorted(m.label for m in engine.evaluated)) == TOP7_EVALUATED
    assert sum(m.cycles for m in engine.evaluated) == TOP7_CYCLES
    assert result.labels() == TOP7_FRONTIER
    assert (result.evaluated, result.total_points) == (7, 15)


def test_a_budget_above_half_the_space_is_not_capped(toy_bn, full_points):
    """``budget=k`` evaluates ``min(k, n)`` points: 10 of 15 is 10, and a
    budget past the space is the whole space."""
    engine = ParallelExplorer(toy_bn, workers=1)
    ten = engine.explore_pareto(full_points, ("throughput", "area"), budget=10)
    assert ten.evaluated == len(engine.evaluated) == 10
    assert set(TOP7_EVALUATED) <= {m.label for m in engine.evaluated}
    everything = engine.explore_pareto(full_points, ("throughput", "area"), budget=99)
    assert everything.evaluated == everything.total_points == 15


def test_local_search_ignores_what_the_process_compiled_earlier(toy_bn, full_points):
    """What a budget picks comes from the proxy, never the memory tier: an
    unrelated earlier sweep does not move the frontier."""
    engine = ParallelExplorer(toy_bn, workers=1)
    for budget in (None, 7):
        clear_caches()
        cold = engine.explore_pareto(full_points, ("throughput", "area"), budget=budget)
        clear_caches()
        engine.explore(full_points[-4:])
        after = engine.explore_pareto(full_points, ("throughput", "area"), budget=budget)
        assert after == cold, budget


def test_proxy_metrics_are_deterministic_and_populated(toy_bn, full_points):
    first = [proxy_design_metrics(toy_bn, point) for point in full_points]
    again = [proxy_design_metrics(toy_bn, point) for point in full_points]
    assert first == again
    for proxy in first:
        assert proxy.cycles > 0
        assert proxy.area_mm2 > 0
        assert proxy.power_mw > 0
        assert proxy.throughput_ops > 0


# ---------------------------------------------------------------------------
# Error handling: identical messages on the scalar and the Pareto path
# ---------------------------------------------------------------------------

def test_empty_space_raises_identical_dse_error(toy_bn):
    engine = ParallelExplorer(toy_bn, workers=1)
    with pytest.raises(DSEError) as err:
        engine.best([])
    assert str(err.value) == EMPTY_SPACE_MESSAGE
    # An explicitly empty pareto sweep reports an empty result, not a crash.
    result = engine.explore_pareto([], objectives=("throughput", "area"))
    assert result.frontier == ()
    assert result.total_points == 0


def test_unknown_objective_identical_in_both_explorers(toy_bn, toy_points):
    """"Both explorers" are the two sweeps: ``explore`` and ``explore_pareto``."""
    engine = ParallelExplorer(toy_bn, workers=1)
    with pytest.raises(DSEError) as pareto_err:
        engine.explore_pareto(toy_points, objectives=("throughput", "bogus"))
    with pytest.raises(DSEError) as scalar_err:
        engine.explore(toy_points, objective="bogus")
    assert str(pareto_err.value) == str(scalar_err.value)
    assert "unknown objective 'bogus'" in str(pareto_err.value)
    assert "list_objectives" in str(pareto_err.value)


def test_strategy_and_budget_validation(toy_bn, toy_points):
    """The budget is the one search knob: ``strategy=`` is no parameter."""
    engine = ParallelExplorer(toy_bn, workers=1)
    with pytest.raises(TypeError):
        engine.explore_pareto(toy_points, strategy="exhaustive")
    for bad in (0, -1, 1.5, True):
        with pytest.raises(DSEError):
            validate_budget(bad)
        with pytest.raises(DSEError):
            engine.explore_pareto(toy_points, budget=bad)
    assert validate_budget(7) == 7


# ---------------------------------------------------------------------------
# Registry and environment defaults
# ---------------------------------------------------------------------------

def test_list_objectives_registry():
    registry = list_objectives()
    assert list(registry) == [
        "throughput", "latency", "area", "efficiency", "power", "energy",
        "throughput_per_watt"]
    for name in registry:
        assert registry[name]                      # every entry documented
        assert resolve_objective(name).name == name


def test_env_defaults(toy_bn, toy_points, monkeypatch):
    """The engine reads no budget from the environment: FINESSE_DSE_BUDGET
    sizes only the pareto_sweep experiment's guided row (its env policy row
    lives in test_config.py), so an exported budget leaves an unbudgeted
    sweep exhaustive."""
    engine = ParallelExplorer(toy_bn, workers=1)
    monkeypatch.setenv(BUDGET_ENV, "1")
    result = engine.explore_pareto(toy_points)
    assert result.evaluated == result.total_points == len(toy_points)


# ---------------------------------------------------------------------------
# Runner flags
# ---------------------------------------------------------------------------

def test_runner_objectives_help(capsys, monkeypatch):
    monkeypatch.delenv(OBJECTIVES_ENV, raising=False)
    assert runner_main(["--objectives", "help"]) == 0
    out = capsys.readouterr().out
    for name in list_objectives():
        assert name in out


def test_runner_flag_validation(monkeypatch):
    monkeypatch.delenv(OBJECTIVES_ENV, raising=False)
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    with pytest.raises(DSEError, match="unknown objective"):
        runner_main(["--objectives", "throughput,bogus"])
    with pytest.raises(DSEError, match="--budget must be an integer"):
        runner_main(["--budget", "lots"])
    with pytest.raises(DSEError):
        runner_main(["--budget", "0"])
    with pytest.raises(DSEError, match="at least one objective"):
        runner_main(["--objectives", " , "])


def test_the_runner_runs_as_a_module_without_a_warning():
    """``repro.evaluation`` once imported the runner, so ``-m`` found it in
    ``sys.modules`` already and runpy warned on every call."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.evaluation.runner",
         "--objectives", "help"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# The pareto_sweep experiment
# ---------------------------------------------------------------------------

def test_each_pareto_sweep_row_compiles_what_it_evaluates(monkeypatch):
    """Without a disk tier no row is answered from a cache: the guided row
    once ran on the exhaustive row's memory tier (0.00 s at smoke scale)."""
    space = pareto_sweep.toy_design_points
    monkeypatch.setattr(pareto_sweep, "toy_design_points", lambda curve: space(curve)[:4])
    monkeypatch.delenv(OBJECTIVES_ENV, raising=False)
    monkeypatch.setenv(BUDGET_ENV, "2")
    rows = pareto_sweep.run("smoke")["rows"]
    assert [rows[row]["evaluated_points"] for row in rows] == [4, 2]
    for entry in rows.values():
        assert entry["cached_points"] == 0 and entry["wall_s"] > 0
