"""Digest of one cold compile -- the determinism probe behind the golden tests.

Usage::

    python tools/kernel_digest.py CURVE [--hw NAME] [--variants NAME]

Prints ``CURVE HW VARIANTS <sha256>`` for one uncached compile of the
single-pairing kernel, then ``CURVE HW VARIANTS batch4-split-2core <sha256>``
for the batch-4 split-accumulator kernel on two cores of the same model: lane
-> core assignment, group partitioning and cross-lane GVN demotion are
dict/set-ordered code the single kernel never executes.  A third line,
``batch4-shared-2core-depth2``, scores the shared batch-4 kernel with two
instances in flight, so the instance-renaming walk (rotated banks, the strided
``ready`` array) is covered too.  The digest covers everything a compiled
kernel hands to hardware and to the evaluation: the encoded instruction words,
the constant table, the I/O maps, the per-bank register demand and the cycle
(multi-core, and at ``depth > 1`` pipelined) statistics.  A fourth line,
``CURVE VARIANTS lowered <sha256>``, hashes the lowered module of the single
kernel on its own (columns, I/O rows, compute-op count, kernel facts) -- the
digest ``tests/test_cold_compile.py`` pins per configuration -- so the lowering
templates and their dict-keyed table are covered without a back end in
between.  A fifth line, ``CURVE VARIANTS optimized <sha256>``, hashes the IROpt
module built from it the same way, plus every ``OptStats.per_pass`` count: GVN's
dict-keyed table and the second iteration's revisit bookkeeping, again without
a back end.  A last line,
``CURVE python-kernels <sha256>``, covers the *software* side's generated
code: the name-sorted source of every formula kernel the curve's pairing
(Miller steps, line products, cyclotomic and compressed squarings) and both
groups' scalar-multiplication ladders run -- node table, use counts, zero
folding and constant specialisation are list- and dict-ordered code too.  CI
runs the tool twice in fresh interpreters under different ``PYTHONHASHSEED``
values and fails if the lines differ; ``tests/test_golden_outputs.py`` pins
the compile digests per configuration.

``--hw`` names a preset (``default``, ``HW1``, ``HW2`` or a Figure 10 model
such as ``L8-S2-lin2``); ``--variants`` one of
``repro.dse.space.named_variant_configs()``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.compiler.opt import optimize  # noqa: E402
from repro.compiler.pipeline import KernelSpec, compile_kernel, stage_modules  # noqa: E402
from repro.curves.catalog import get_curve  # noqa: E402
from repro.curves.model import ladder_kernels  # noqa: E402
from repro.dse.space import named_variant_configs  # noqa: E402
from repro.hw.presets import default_model, figure10_models, paper_hw1, paper_hw2  # noqa: E402
from repro.pairing.batch import multi_pairing, precompute_g2  # noqa: E402
from repro.sim.cycle import CycleAccurateSimulator  # noqa: E402


def kernel_digest(result, depth: int = 1) -> str:
    """sha256 over the binary and the statistics of a compile result.

    Works for single and batched kernels; the multi-core statistics of a
    batched kernel are part of the digest, and with ``depth > 1`` so are those
    of its ``depth``-instance pipelined walk.
    """
    program = result.program
    parts = [
        program.encoded_words(),
        sorted(program.constant_table.items()),
        sorted(program.input_map.items()),
        sorted(program.output_map.items()),
        sorted(program.registers_per_bank.items()),
        result.cycle_stats.describe(),
    ]
    if result.multicore_stats is not None:
        parts.append(result.multicore_stats.describe())
    if depth > 1:
        parts.append(CycleAccurateSimulator().run_pipelined(
            result.schedule, result.hw.n_cores, depth).describe())
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def lowered_digest(module, *extra) -> str:
    """sha256 over everything a lowered module is: its seven columns, the
    input / output row lists, the compute-op count and the kernel facts
    (followed by ``extra``)."""
    parts = [module.ops, module.a, module.b, module.attrs, module.lanes, module.phases,
             module.degrees, module.inputs, module.outputs, module.compute_ops,
             sorted(module.meta.items()), *extra]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def python_kernels_digest(curve) -> str:
    """sha256 over the source of every formula kernel the software pairing and
    the two scalar-multiplication ladders of ``curve`` run."""
    g1, g2 = curve.g1_generator, curve.g2_generator
    for mode in ("cyclotomic", "compressed"):              # a live and a replayed pair
        multi_pairing(curve, [(g1, g2), (g1, precompute_g2(curve, g2))], final_exp_mode=mode)
    kernels = [*curve.formula_kernels.values(),
               *ladder_kernels(curve.curve), *ladder_kernels(curve.twist_curve)]
    sources = sorted((kernel.__name__, kernel.source) for kernel in kernels)
    return hashlib.sha256(repr(sources).encode()).hexdigest()


def hardware_presets(word_width: int) -> dict:
    models = [paper_hw1(word_width), paper_hw2(word_width)] + figure10_models(word_width)
    presets = {model.name: model for model in models}
    presets["default"] = default_model(word_width)
    return presets


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("curve")
    parser.add_argument("--hw", default="default")
    parser.add_argument("--variants", default="all-karatsuba")
    args = parser.parse_args(argv)

    curve = get_curve(args.curve)
    presets = hardware_presets(curve.params.p.bit_length())
    configs = named_variant_configs()
    if args.hw not in presets:
        parser.error(f"unknown hardware preset {args.hw!r}; choose from {sorted(presets)}")
    if args.variants not in configs:
        parser.error(f"unknown variant config {args.variants!r}; choose from {sorted(configs)}")
    single = KernelSpec(hw=presets[args.hw], variant_config=configs[args.variants])
    shared = replace(single, hw=single.hw.with_cores(2), n_pairs=4)
    split = replace(shared, split_accumulators=True)
    for label, spec, depth in (((), single, 1), (("batch4-split-2core",), split, 1),
                               (("batch4-shared-2core-depth2",), shared, 2)):
        result = compile_kernel(curve, spec, use_cache=False)
        print(args.curve, args.hw, args.variants, *label, kernel_digest(result, depth))
    lowered = stage_modules(curve, hw=single.hw, variant_config=single.variant_config)[1]
    print(args.curve, args.variants, "lowered", lowered_digest(lowered))
    optimized, stats = optimize(lowered, curve.params.p)
    print(args.curve, args.variants, "optimized",
          lowered_digest(optimized, list(stats.per_pass.items())))
    print(args.curve, "python-kernels", python_kernels_digest(curve))
    return 0


if __name__ == "__main__":
    sys.exit(main())
