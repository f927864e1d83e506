"""Figure 9: issue-queue waterfall before and after scheduling.

For each curve the kernel is simulated twice on the reference hardware model --
once in original program order ("before"), once with the affinity scheduler
("after") -- recording the per-cycle issue trace.  The reported window starts at
cycle 10 000, as in the paper, together with occupancy statistics.
"""

from __future__ import annotations

from repro.compiler.bankalloc import allocate_banks
from repro.compiler.pipeline import compile_pairing, stage_modules
from repro.compiler.schedule import program_order_schedule
from repro.curves.catalog import get_curve
from repro.evaluation.common import hw_for_curve, paper_curve_names
from repro.sim.cycle import CycleAccurateSimulator

WINDOW_START = 10_000
WINDOW_LENGTH = 128


def run(scale: str | None = None) -> dict:
    rows = []
    tracer = CycleAccurateSimulator(record_trace=True)
    for name in paper_curve_names(scale):
        curve = get_curve(name)
        hw = hw_for_curve(curve)

        # Before: optimised IR in program order (no scheduling).
        module = stage_modules(curve)[2]
        banks = allocate_banks(module, hw)
        before = tracer.run(program_order_schedule(module, hw, banks))

        # After: the affinity-scheduled program of the compiled kernel.
        result = compile_pairing(curve, hw=hw, do_assemble=False, use_cache=False)
        after = tracer.run(result.schedule)

        start = min(WINDOW_START, max(0, before.total_cycles - WINDOW_LENGTH))
        rows.append(
            {
                "curve": name,
                "before_cycles": before.total_cycles,
                "after_cycles": after.total_cycles,
                "before_occupancy": round(before.trace.occupancy(), 3),
                "after_occupancy": round(after.trace.occupancy(), 3),
                "before_window": before.trace.render(start, WINDOW_LENGTH),
                "after_window": after.trace.render(start, WINDOW_LENGTH),
                "before_histogram": before.trace.histogram(start, WINDOW_LENGTH),
                "after_histogram": after.trace.histogram(start, WINDOW_LENGTH),
            }
        )
    return {"experiment": "fig9", "window_start": WINDOW_START, "rows": rows}


def render(result: dict) -> str:
    lines = []
    for row in result["rows"]:
        lines.append(
            f"{row['curve']}: occupancy {row['before_occupancy']} -> {row['after_occupancy']}"
            f"  (cycles {row['before_cycles']} -> {row['after_cycles']})"
        )
        lines.append(f"  before @10k: {row['before_window'].splitlines()[0]}")
        lines.append(f"  after  @10k: {row['after_window'].splitlines()[0]}")
    return "\n".join(lines)
