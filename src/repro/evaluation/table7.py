"""Table 7: compilation-strategy evaluation.

Per curve: F_p instruction counts before/after IROpt, the IPC of the unscheduled
baseline versus the scheduled program on HW1 (no write-back FIFO) and HW2 (with
FIFO), and the wall-clock compile time.  The baseline is the lowered module
issued in program order, walked here rather than compiled: it is no kernel,
and its walk is not compile time.
"""

from __future__ import annotations

from repro.compiler.bankalloc import allocate_banks
from repro.compiler.pipeline import compile_pairing, stage_modules
from repro.compiler.schedule import program_order_schedule
from repro.curves.catalog import get_curve
from repro.evaluation.common import hw_for_curve, paper_curve_names
from repro.sim.cycle import CycleAccurateSimulator


def run(scale: str | None = None) -> dict:
    rows = []
    for name in paper_curve_names(scale):
        curve = get_curve(name)
        hw1 = hw_for_curve(curve, fifo=False)
        hw2 = hw_for_curve(curve, fifo=True)
        result1 = compile_pairing(curve, hw=hw1)
        result2 = compile_pairing(curve, hw=hw2)
        lowered = stage_modules(curve, hw=hw1)[1]
        baseline = CycleAccurateSimulator().run(
            program_order_schedule(lowered, hw1, allocate_banks(lowered, hw1)))
        rows.append(
            {
                "curve": name,
                "init_instructions": result1.initial_instructions,
                "opt_instructions": result1.final_instructions,
                "reduction_pct": round(
                    100.0 * (1 - result1.final_instructions / result1.initial_instructions), 2
                ),
                "ipc_init": round(baseline.ipc, 3),
                "ipc_hw1": round(result1.ipc, 3),
                "ipc_hw2": round(result2.ipc, 3),
                "cycles_hw1": result1.cycles,
                "cycles_hw2": result2.cycles,
                "compile_seconds": round(result1.compile_seconds, 2),
            }
        )
    return {"experiment": "table7", "rows": rows}


def render(result: dict) -> str:
    header = (
        f"{'Curve':<12}{'Init':>9}{'Opt':>9}{'Red.%':>8}"
        f"{'IPC init':>10}{'IPC HW1':>9}{'IPC HW2':>9}{'Compile(s)':>12}"
    )
    lines = [header]
    for row in result["rows"]:
        lines.append(
            f"{row['curve']:<12}{row['init_instructions']:>9}{row['opt_instructions']:>9}"
            f"{row['reduction_pct']:>8}{row['ipc_init']:>10}{row['ipc_hw1']:>9}"
            f"{row['ipc_hw2']:>9}{row['compile_seconds']:>12}"
        )
    return "\n".join(lines)
