"""Quickstart: compute a pairing, compile it to an accelerator, validate the binary.

Run with ``python examples/quickstart.py [curve-name]`` (default: TOY-BN42 so it
finishes in a couple of seconds; try BN254N for the paper's main test case).
"""

import random
import sys

from repro import compile_pairing, get_curve, optimal_ate_pairing
from repro.compiler.bankalloc import allocate_banks
from repro.compiler.pipeline import stage_modules
from repro.compiler.schedule import program_order_schedule
from repro.sim.cycle import CycleAccurateSimulator
from repro.sim.functional import FunctionalSimulator


def main() -> int:
    curve_name = sys.argv[1] if len(sys.argv) > 1 else "TOY-BN42"
    curve = get_curve(curve_name)
    print(f"Curve {curve.name}: {curve.describe()}")

    # 1. Golden pairing and its algebraic sanity checks.
    rng = random.Random(2024)
    P = curve.random_g1(rng)
    Q = curve.random_g2(rng)
    e = optimal_ate_pairing(curve, P, Q)
    a, b = rng.randrange(2, curve.r), rng.randrange(2, curve.r)
    assert optimal_ate_pairing(curve, P.scalar_mul(a), Q.scalar_mul(b)) == e ** (a * b % curve.r)
    print("bilinearity check passed; e(P, Q) lies in G_T:", curve.is_valid_gt(e))

    # 2. Compile the same computation into an accelerator kernel.
    result = compile_pairing(curve)
    print("compile report:", result.describe())
    lowered = stage_modules(curve)[1]
    baseline = CycleAccurateSimulator().run(
        program_order_schedule(lowered, result.hw, allocate_banks(lowered, result.hw)))
    print("  baseline (unscheduled) IPC:", round(baseline.ipc, 3))
    print("  first bundles of the binary:")
    print("\n".join("    " + line for line in result.program.disassemble(limit=5).splitlines()))

    # 3. Execute the binary on the functional simulator and compare with the golden value.
    inputs = {}
    for name, value in (("xP", P.x), ("yP", P.y), ("xQ", Q.x), ("yQ", Q.y)):
        for j, coeff in enumerate(value.to_base_coeffs()):
            inputs[(name, j)] = coeff
    outputs = FunctionalSimulator(result.program, curve.p).run(inputs).outputs
    simulated = [outputs[("result", j)] for j in range(curve.k)]
    assert simulated == e.to_base_coeffs()
    print("functional simulation of the compiled binary matches the golden pairing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
