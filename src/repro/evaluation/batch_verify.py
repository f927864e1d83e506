"""Batched-verify throughput: the compiled multi-pairing kernel across cores.

The Groth16-verifier shape ``Pi e(P_i, Q_i)`` is compiled as one fused kernel
per batch size (shared accumulator squaring, single final exponentiation) and
its per-pair line-evaluation lanes are dispatched across 1/2/4 replicated
cores by the deterministic multi-core list schedule
(:meth:`repro.sim.cycle.CycleAccurateSimulator.run_multicore`).  The table
shows three wins separately:

* down a column, the *batch* amortises the final exponentiation and the
  accumulator squarings (cycles per pairing fall with batch size);
* across a row, the *cores* overlap the independent per-pair line
  evaluations with the shared accumulator work;
* per cell, the *split-accumulator* kernel
  (``compile_multi_pairing(..., split_accumulators=True)``) removes the
  shared-chain serialisation entirely -- each core runs its own accumulator
  chain over its share of the pairs and the partial products are merged once
  before the final exponentiation -- at the price of one extra squaring chain
  per core.

Which kernel stands behind a cell is decided in one place,
:func:`_cell_kernels`: the shared kernel is compiled once per batch size and
re-simulated per core count; the split kernel is compiled once per (batch
size, core count > 1) pair, and on one core the shared numbers are reported.

The ``final_exp`` section additionally compiles the largest batch once per
final-exponentiation mode (``generic`` | ``cyclotomic`` | ``compressed``,
see :mod:`repro.fields.cyclotomic`) in both accumulator modes and records the
total cycles plus the final-exp phase share from the per-phase simulator
telemetry.

The ``pipeline`` section re-simulates the largest batch as a *continuously
fed* accelerator (:meth:`repro.sim.cycle.CycleAccurateSimulator.run_pipelined`):
for each accumulator mode x core count, ``depth`` batch instances are kept in
flight and the steady-state cycles per pairing recorded per depth.  Depth 1
is the one-shot kernel (bit-identical to ``run_multicore``); deeper pipelines
overlap one instance's serial final-exponentiation tail with the next
instance's Miller lanes, and the ``final_exp_busy_cores`` occupancy column
makes that overlap visible.

``tests/test_pipelined_sim.py`` pins the smoke-scale result by hash and
asserts the table's acceptance bars.
"""

from __future__ import annotations

from repro.compiler.pipeline import compile_multi_pairing
from repro.curves.catalog import get_curve
from repro.evaluation.common import DEFAULT_SCALE, codesign_curve_name
from repro.hw.presets import paper_hw1
from repro.pairing.final_exp import FINAL_EXP_MODES
from repro.sim.cycle import CycleAccurateSimulator

#: Core counts simulated for every batch size.
CORE_COUNTS = (1, 2, 4)

#: Accumulator modes recorded per (batch, core count) cell.
MODES = ("shared", "split")

#: Cross-batch pipeline depths simulated in the ``pipeline`` section.
PIPELINE_DEPTHS = (1, 2, 4)


def _batches(scale: str) -> tuple:
    if scale == "smoke":
        return (1, 2, 4)
    return (1, 2, 4, 8)


def _cell_kernels(curve, hw, batch: int, **knobs) -> dict:
    """``(accumulator mode, core count) -> compiled kernel`` for one table.

    The shared kernel is compiled once and re-walked per core count.  The
    split kernel's *trace* depends on its group count, so it is compiled per
    core count > 1; on one core it has a single accumulator group and the
    split cell *is* the shared one.  (The compile cache makes asking again
    for another table free.)
    """
    shared = compile_multi_pairing(curve, batch, hw=hw, do_assemble=False, **knobs)
    kernels = {}
    for n_cores in CORE_COUNTS:
        kernels["shared", n_cores] = shared
        kernels["split", n_cores] = shared if n_cores == 1 else compile_multi_pairing(
            curve, batch, hw=hw.with_cores(n_cores), do_assemble=False,
            split_accumulators=True, **knobs)
    return kernels


def _one_shot_stats(simulator, compiled, n_cores: int):
    """One-shot walk of a cell's kernel on ``n_cores``: the simulation the
    result already carries when it was compiled for that core count, else a
    fresh multi-core walk of its schedule."""
    if compiled.hw.n_cores == n_cores:
        return compiled.multicore_stats
    return simulator.run_multicore(compiled.schedule, n_cores)


def _cell(total_cycles: int, batch: int, base_cycles: int) -> dict:
    return {
        "cycles": total_cycles,
        "cycles_per_pairing": round(total_cycles / batch, 1),
        "speedup": round(base_cycles / total_cycles, 3) if total_cycles else 0.0,
    }


def _fe_cell(stats, batch: int) -> dict:
    """One final-exp-mode cell: batch cycles plus the final-exp phase share."""
    fe = stats.phase_stats.get("final_exp", {})
    fe_cycles = fe.get("cycles", 0)
    return {
        "cycles": stats.total_cycles,
        "cycles_per_pairing": round(stats.total_cycles / batch, 1),
        "final_exp_cycles": fe_cycles,
        "final_exp_share": round(fe_cycles / stats.total_cycles, 3)
        if stats.total_cycles else 0.0,
    }


def _final_exp_table(curve, hw, simulator, batch: int) -> dict:
    """Cycles and final-exp share per (fe mode, accumulator mode, core count)."""
    modes: dict = {}
    for fe_mode in FINAL_EXP_MODES:
        cells: dict = {mode: {} for mode in MODES}
        for (acc_mode, n_cores), compiled in _cell_kernels(
                curve, hw, batch, final_exp_mode=fe_mode).items():
            cells[acc_mode][f"c{n_cores}"] = _fe_cell(
                _one_shot_stats(simulator, compiled, n_cores), batch)
        modes[fe_mode] = cells
    return {"batch": batch, "modes": modes}


def _pipeline_cell(stats, batch: int) -> dict:
    """One pipelined cell: totals, fill/drain transients, steady-state rate."""
    fe = stats.phase_occupancy.get("final_exp", {})
    return {
        "cycles": stats.total_cycles,
        "fill_cycles": stats.fill_cycles,
        "drain_cycles": stats.drain_cycles,
        "steady_cycles_per_pairing": round(stats.steady_cycles_per_batch / batch, 1),
        "final_exp_busy_cores": fe.get("busy_cores", 0),
    }


def _pipeline_table(curve, hw, simulator, batch: int) -> dict:
    """Steady-state figures per (accumulator mode, core count, pipeline depth).

    The kernels are the same ones the main table compiled; only the pipelined
    *simulation* is new.
    """
    modes: dict = {mode: {} for mode in MODES}
    for (acc_mode, n_cores), compiled in _cell_kernels(curve, hw, batch).items():
        modes[acc_mode][f"c{n_cores}"] = {
            f"d{depth}": _pipeline_cell(
                simulator.run_pipelined(compiled.schedule, n_cores, depth), batch
            )
            for depth in PIPELINE_DEPTHS
        }
    return {"batch": batch, "depths": list(PIPELINE_DEPTHS), "modes": modes}


def run(scale: str | None = None) -> dict:
    scale = scale or DEFAULT_SCALE
    curve = get_curve(codesign_curve_name("smoke" if scale != "full" else scale))
    hw = paper_hw1(curve.params.p.bit_length())
    simulator = CycleAccurateSimulator()

    rows = []
    for batch in _batches(scale):
        kernels = _cell_kernels(curve, hw, batch)
        modes: dict = {mode: {} for mode in MODES}
        base_cycles = None
        for (acc_mode, n_cores), compiled in kernels.items():
            total_cycles = _one_shot_stats(simulator, compiled, n_cores).total_cycles
            if base_cycles is None:
                base_cycles = total_cycles          # shared kernel on one core
            modes[acc_mode][f"c{n_cores}"] = _cell(total_cycles, batch, base_cycles)
        rows.append({
            "batch": batch,
            "instructions": kernels["shared", 1].final_instructions,
            "modes": modes,
        })

    return {
        "experiment": "batch_verify",
        "curve": curve.name,
        "hw": hw.name,
        "core_counts": list(CORE_COUNTS),
        "modes": list(MODES),
        "rows": rows,
        "final_exp_modes": list(FINAL_EXP_MODES),
        "final_exp": _final_exp_table(curve, hw, simulator, _batches(scale)[-1]),
        "pipeline_depths": list(PIPELINE_DEPTHS),
        "pipeline": _pipeline_table(curve, hw, simulator, _batches(scale)[-1]),
        "paper_claim": (
            "batching amortises the final exponentiation and the shared accumulator "
            "squarings; replicated cores overlap the independent per-pair line "
            "evaluations with the shared accumulator work; split accumulators trade "
            "one extra squaring chain per core for near-linear Miller-loop scaling; "
            "Granger-Scott/Karabina cyclotomic arithmetic shrinks the remaining "
            "final-exponentiation tail; cross-batch pipelining overlaps that tail "
            "with the next batch's Miller lanes, cutting steady-state cycles per "
            "pairing below the one-shot figure"
        ),
    }


def render(result: dict) -> str:
    lines = [f"Batched verify -- {result['curve']} on {result['hw']} "
             f"(cycles [cycles/pairing] per core count)"]
    for row in result["rows"]:
        for mode in result["modes"]:
            cells = ", ".join(
                f"{label}={entry['cycles']} [{entry['cycles_per_pairing']:.0f}]"
                for label, entry in row["modes"][mode].items()
            )
            lines.append(f"  batch={row['batch']:<2} {mode:<6} {cells}")
    fe = result["final_exp"]
    lines.append(f"Final-exp modes at batch={fe['batch']} "
                 "(cycles [final-exp share]):")
    for fe_mode, cells in fe["modes"].items():
        for acc_mode in MODES:
            row = ", ".join(
                f"{label}={entry['cycles']} [{entry['final_exp_share']:.0%}]"
                for label, entry in cells[acc_mode].items()
            )
            lines.append(f"  {fe_mode:<11} {acc_mode:<6} {row}")
    pipe = result["pipeline"]
    lines.append(f"Pipelined execution at batch={pipe['batch']} "
                 "(steady cycles/pairing per depth [final-exp busy cores]):")
    for acc_mode, cells in pipe["modes"].items():
        for core_label, depths in cells.items():
            row = ", ".join(
                f"{depth_label}={entry['steady_cycles_per_pairing']:.0f} "
                f"[{entry['final_exp_busy_cores']}]"
                for depth_label, entry in depths.items()
            )
            lines.append(f"  {acc_mode:<6} {core_label:<3} {row}")
    return "\n".join(lines)
