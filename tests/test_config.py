"""repro.config: the one environment policy, the shared value checks, the guard.

Every numeric ``FINESSE_*`` variable is read through its *real consumer* and
must follow one rule: unset, garbage or out of range means the built-in
default.  The three bug reproductions at the bottom fail on the commit before
``repro.config`` existed.
"""

from __future__ import annotations

import ast
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import config
from repro.compiler.store import DEFAULT_MAX_BYTES, ArtifactStore
from repro.dse.engine import (
    DEFAULT_MAX_RETRIES,
    ParallelExplorer,
    validate_eval_timeout,
)
from repro.dse.search import DEFAULT_OBJECTIVES
from repro.errors import DSEError, FieldError, ReliabilityError, ServiceError
from repro.evaluation import pareto_sweep, runner
from repro.reliability import faults
from repro.service import ServiceConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


# ---------------------------------------------------------------------------
# Consumers: how each variable is actually read
# ---------------------------------------------------------------------------

def _explorer_attr(name):
    def read(curve, tmp_path, monkeypatch):
        return getattr(ParallelExplorer(curve), name)
    return read


def _service_attr(name):
    def read(curve, tmp_path, monkeypatch):
        return getattr(ServiceConfig.from_env(), name)
    return read


def _sweep_reader(name):
    def read(curve, tmp_path, monkeypatch):
        return getattr(pareto_sweep, name)()
    return read


def _hang_seconds(curve, tmp_path, monkeypatch):
    slept = []
    monkeypatch.setattr(faults.time, "sleep", slept.append)
    faults.FaultInjector(faults.FaultPlan.parse("worker.evaluate:hang@1*1")).apply(
        "worker.evaluate")
    return slept[0]


#: (variable, consumer, default, valid raw, its value, raws that must mean "default")
POLICY = [
    (config.MAX_BYTES_ENV,
     lambda curve, tmp_path, monkeypatch: ArtifactStore(tmp_path).max_bytes,
     DEFAULT_MAX_BYTES, "4096", 4096, ["lots", "1.5", "0", "-7"]),
    (config.WORKERS_ENV, _explorer_attr("workers"), 1, "4", 4,
     ["bogus", "2.9", "0", "-1"]),
    (config.MAX_RETRIES_ENV, _explorer_attr("max_retries"), DEFAULT_MAX_RETRIES,
     "0", 0, ["many", "1.5", "-1"]),
    (config.EVAL_TIMEOUT_ENV, _explorer_attr("eval_timeout"), None, "2.5", 2.5,
     ["soon", "0", "-3", "nan", "inf"]),
    (config.OBJECTIVES_ENV, _sweep_reader("sweep_objectives"), DEFAULT_OBJECTIVES,
     " throughput , power", ("throughput", "power"),
     ["bogus", "throughput,bogus", " , "]),
    (config.BUDGET_ENV, _sweep_reader("sweep_budget"), None, "5", 5, ["lots", "0", "-2"]),
    (config.HANG_SECONDS_ENV, _hang_seconds, faults.DEFAULT_HANG_SECONDS,
     "0.25", 0.25, ["forever", "0", "-1", "nan", "inf"]),
    (config.MAX_BATCH_ENV, _service_attr("max_batch"), 8, "4", 4,
     ["lots", "0", "-1"]),
    (config.DEADLINE_ENV, _service_attr("deadline_ms"), 20.0, "0", 0.0,
     ["soon", "-5", "nan", "inf"]),
    (config.QUEUE_BOUND_ENV, _service_attr("queue_bound"), 256, "17", 17,
     ["deep", "0"]),
    (config.BREAKER_THRESHOLD_ENV, _service_attr("breaker_threshold"), 3, "7", 7,
     ["often", "0"]),
    (config.BREAKER_COOLDOWN_ENV, _service_attr("breaker_cooldown_ms"), 1000.0,
     "250", 250.0, ["long", "-1", "nan"]),
    (config.SHED_AFTER_ENV, _service_attr("shed_after_ms"), None, "40", 40.0,
     ["soon", "0", "-1", "nan"]),
    (config.FUSE_ENV, _service_attr("fuse"), "rlc", "none", "none", ["sometimes"]),
]


@pytest.mark.parametrize("name,read,default,raw,value,rejected", POLICY,
                         ids=[row[0] for row in POLICY])
def test_env_policy(toy_bn, tmp_path, monkeypatch, name, read, default, raw,
                    value, rejected):
    monkeypatch.delenv(name, raising=False)
    assert read(toy_bn, tmp_path, monkeypatch) == default
    monkeypatch.setenv(name, raw)
    assert read(toy_bn, tmp_path, monkeypatch) == value
    for bad in ["", "   ", *rejected]:
        monkeypatch.setenv(name, bad)
        assert read(toy_bn, tmp_path, monkeypatch) == default, (name, bad)


def test_policy_table_covers_every_numeric_and_choice_variable():
    free_form = {config.CACHE_DIR_ENV, config.BACKEND_ENV, config.FAULTS_ENV}
    assert {row[0] for row in POLICY} == set(config.ENV_VARS) - free_form


def test_only_the_name_valued_variables_raise(monkeypatch):
    from repro.fields.backends import resolve_backend

    monkeypatch.setenv(config.BACKEND_ENV, "fixnum")
    with pytest.raises(FieldError):
        resolve_backend()
    monkeypatch.setenv(config.FAULTS_ENV, "store.read:truncat")
    with pytest.raises(ReliabilityError):
        faults.configure_faults_from_env()
    monkeypatch.delenv(config.FAULTS_ENV)
    assert faults.configure_faults_from_env() is None
    # Free-form strings: stripped, empty when unset or blank.
    monkeypatch.setenv(config.OBJECTIVES_ENV, "  power ")
    assert config.env_str(config.OBJECTIVES_ENV) == "power"
    monkeypatch.setenv(config.OBJECTIVES_ENV, "  ")
    assert config.env_str(config.OBJECTIVES_ENV) == ""


def test_unregistered_names_cannot_be_read_or_exported():
    with pytest.raises(KeyError):
        config.env_int("FINESSE_NEW_KNOB", 1)
    with pytest.raises(KeyError):
        config.export("FINESSE_NEW_KNOB", 1)
    assert len(set(config.ENV_VARS)) == len(config.ENV_VARS)
    assert all(name.startswith("FINESSE_") for name in config.ENV_VARS)


def test_export_sets_and_unsets(monkeypatch):
    monkeypatch.setenv(config.WORKERS_ENV, "1")       # registers restoration
    config.export(config.WORKERS_ENV, 3)
    assert config.env_int(config.WORKERS_ENV, 1) == 3
    config.export(config.WORKERS_ENV, None)
    assert config.env_int(config.WORKERS_ENV, 1) == 1


# ---------------------------------------------------------------------------
# The four value checks
# ---------------------------------------------------------------------------

class Boom(Exception):
    pass


def test_value_checks_raise_the_callers_error_class():
    assert config.positive_int(3, "n", Boom) == 3
    assert config.non_negative_int(0, "n", Boom) == 0
    assert config.number(0, "x", Boom) == 0
    assert config.number(2.5, "x", Boom, exclusive=True) == 2.5
    assert config.number(None, "x", Boom, optional=True) is None
    assert config.member("b", ("a", "b"), "m", Boom) == "b"
    for check, bad in [
        (config.positive_int, (0, -1, True, 1.0, "1", None)),
        (config.non_negative_int, (-1, False, 0.0, "0", None)),
    ]:
        for value in bad:
            with pytest.raises(Boom, match="n must be a"):
                check(value, "n", Boom)
    for value in (-0.1, True, "1", None, math.nan, math.inf, -math.inf):
        with pytest.raises(Boom, match="x must be a finite number"):
            config.number(value, "x", Boom)
    with pytest.raises(Boom):
        config.number(0, "x", Boom, exclusive=True)
    with pytest.raises(Boom, match="m must be one of"):
        config.member("c", ("a", "b"), "m", Boom)
    with pytest.raises(ValueError):         # the default error class
        config.positive_int(0, "n")


# ---------------------------------------------------------------------------
# Bug reproductions (each failed before repro.config)
# ---------------------------------------------------------------------------

def test_out_of_range_service_env_is_ignored_but_arguments_still_raise(monkeypatch):
    """docs/serving.md: malformed environment values are ignored, never fatal."""
    monkeypatch.setenv(config.MAX_BATCH_ENV, "0")
    monkeypatch.setenv(config.QUEUE_BOUND_ENV, "0")
    monkeypatch.setenv(config.DEADLINE_ENV, "-5")
    monkeypatch.setenv(config.BREAKER_THRESHOLD_ENV, "0")
    assert ServiceConfig.from_env() == ServiceConfig()
    with pytest.raises(ServiceError):
        ServiceConfig.from_env(max_batch=0)
    with pytest.raises(ServiceError):
        ServiceConfig(queue_bound=0)


def test_non_finite_numbers_are_rejected_everywhere(monkeypatch):
    for bad in (math.nan, math.inf):
        with pytest.raises(DSEError):
            validate_eval_timeout(bad)
        with pytest.raises(ServiceError):
            ServiceConfig(deadline_ms=bad)
        with pytest.raises(ServiceError):
            ServiceConfig(shed_after_ms=bad)
    monkeypatch.setenv(config.DEADLINE_ENV, "nan")
    assert ServiceConfig.from_env().deadline_ms == ServiceConfig().deadline_ms


def test_workers_is_validated_like_every_other_knob(toy_bn, monkeypatch):
    monkeypatch.setenv(config.WORKERS_ENV, "1")       # registers restoration
    monkeypatch.setattr(runner, "run_all", lambda **kwargs: {})
    for bad in ("foo", "2.9", "0", "-2"):
        with pytest.raises(DSEError, match="--workers"):
            runner.main(["--workers", bad])
    assert config.env_int(config.WORKERS_ENV, 1) == 1      # nothing exported
    assert runner.main(["--workers", "3"]) == 0
    assert ParallelExplorer(toy_bn).workers == 3
    for bad in (2.9, True, 0, "2"):
        with pytest.raises(DSEError):
            ParallelExplorer(toy_bn, workers=bad)


@pytest.mark.parametrize("flag", runner._VALUE_FLAGS)
def test_runner_flag_without_a_value_names_the_flag(flag, monkeypatch):
    monkeypatch.setattr(runner, "run_all", lambda **kwargs: {})
    with pytest.raises(DSEError, match=f"{flag} needs a value"):
        runner.main(["table2", flag])


def test_runner_refuses_an_unknown_experiment_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setitem(runner.EXPERIMENTS, "table2", SimpleNamespace(
        run=lambda scale: ran.append(scale) or {}, render=repr))
    with pytest.raises(DSEError, match=r"unknown experiment 'fig99' \(known: table2, table3"):
        runner.main(["--scale", "smoke", "table2", "fig99"])
    assert ran == []
    assert runner.main(["--scale", "smoke", "table2"]) == 0 and ran == ["smoke"]


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_runner_help_prints_the_usage(flag, monkeypatch, capsys):
    monkeypatch.setattr(runner, "run_all", lambda **kwargs: pytest.fail("help ran experiments"))
    assert runner.main(["table2", flag]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("usage: python -m repro.evaluation.runner [-h]")
    assert " ".join(runner.EXPERIMENTS) in printed and "--no-disk-cache" in printed


def test_runner_flag_table_keeps_each_flags_error_class(monkeypatch):
    monkeypatch.setenv(config.BACKEND_ENV, "python")  # registers restoration
    monkeypatch.setattr(runner, "run_all", lambda **kwargs: {})
    with pytest.raises(FieldError):
        runner.main(["--fp-backend", "abacus"])
    with pytest.raises(DSEError, match="--eval-timeout must be a number"):
        runner.main(["--eval-timeout", "soon"])
    with pytest.raises(DSEError):
        runner.main(["--eval-timeout", "nan"])


# ---------------------------------------------------------------------------
# Guard: the environment is read in one module
# ---------------------------------------------------------------------------

def test_only_repro_config_touches_the_environment():
    pattern = re.compile(r"\bos\.(environ|getenv|putenv|unsetenv)\b|\bfrom os import\b.*\benviron\b")
    offenders = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "config.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not offenders, (
        f"read FINESSE_* variables through repro.config, not os.environ: {offenders}")
    assert (SRC / "config.py").exists()


def test_no_module_imports_a_private_name_from_the_compile_pipeline():
    """Stage products are public through ``stage_modules``; nothing in the
    package reaches into ``repro.compiler.pipeline``'s underscore names."""
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno} {alias.name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "repro.compiler.pipeline"
        for alias in node.names if alias.name.startswith("_")
    ]
    assert not offenders, f"use the public pipeline API: {offenders}"


def test_the_tower_recursion_is_written_once():
    """The variant formulas are applied down the tower by
    ``fields/scalarise.py`` alone: its step adapter and the cost counter are
    the only ``StepOps``, and nothing else calls ``Variant.apply`` (or reaches
    past it to ``Variant.func``) -- a third copy of the recursion cannot come
    back unnoticed."""
    step_ops, appliers = [], set()
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "StepOps" for base in node.bases):
                step_ops.append((name, node.name))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("apply", "func") \
                    and "ACTIVE" not in ast.unparse(node.func.value):   # the fault injector's apply
                appliers.add(name)
    assert step_ops == [("fields/scalarise.py", "_Step"), ("fields/variants.py", "CountingStepOps")]
    assert appliers == {"fields/scalarise.py", "fields/variants.py"}


def test_the_miller_loop_is_walked_in_one_module():
    """``pairing/miller.py`` alone reads ``loop_scalar`` (``loop_schedule`` turns
    it into the step list everything else follows); the context assigns it and
    ``pairing/reference.py`` derives its own from the family -- so a second
    digit walk cannot come back unnoticed."""
    readers, writers = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "loop_scalar":
                (readers if isinstance(node.ctx, ast.Load) else writers).add(
                    str(path.relative_to(SRC)))
    assert readers == {"pairing/miller.py"}
    assert writers == {"pairing/context.py"}


def test_one_ladder_walks_signed_window_digits():
    """Under ``curves/``, ``signed_windows`` recodes a scalar and
    ``ladder_kernels`` is fetched in one function each, the same one:
    ``scalar_mul`` is its one-term call, so a second ladder (a one-term loop
    kept "for speed") cannot come back unnoticed."""
    callers = {"signed_windows": [], "ladder_kernels": []}
    for path in sorted((SRC / "curves").rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                            and node.func.id in callers:
                        callers[node.func.id].append((path.name, function.name))
    assert callers == {"signed_windows": [("model.py", "multi_scalar_mul")],
                       "ladder_kernels": [("model.py", "multi_scalar_mul")]}


def test_one_cycle_record_and_no_depth_in_the_compile_layer():
    """``sim/cycle.py`` answers every walk with one record, and the pipeline
    depth is an argument of the simulation: under ``compiler/`` the identifier
    survives only as the literal that keeps the batched digests byte-identical
    (``hw/multiplier.py``'s field of that name is the multiplier's stage count)."""
    records = [
        node.name for node in ast.walk(ast.parse((SRC / "sim/cycle.py").read_text()))
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list)]
    assert records == ["CycleStats"]
    uses = []
    for path in sorted((SRC / "compiler").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if "pipeline_depth" in [getattr(node, field, None) for field in ("id", "attr", "arg")]:
                uses.append((path.name, ast.unparse(node)))
    assert uses == [("pipeline.py", "pipeline_depth=1")]
    digest, = [node for node in ast.walk(ast.parse((SRC / "compiler/pipeline.py").read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "digest"]
    assert "pipeline_depth=1" in ast.unparse(digest)


def test_no_depth_axis_in_the_evaluation_layer():
    """A design point is scored one batch at a time: the depth knob, its
    environment variable, flag and objective are gone from the layers that
    evaluate, rank and serve."""
    paths = [*sorted((SRC / "dse").rglob("*.py")), *sorted((SRC / "service").rglob("*.py")),
             SRC / "config.py", SRC / "evaluation" / "runner.py"]
    offenders = [
        f"{path.relative_to(SRC)}: {word}" for path in paths
        for word in ("pipeline_depth", "steady_throughput", "PIPELINE_DEPTH",
                     "pipeline-depth")
        if word in path.read_text()]
    assert not offenders
