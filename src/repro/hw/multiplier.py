"""Area/delay model of the hierarchical Karatsuba-Wallace modular multiplier.

The paper's mmul unit (Figure 5c) is built from W-bit basic multipliers (FPGA
DSP blocks or ASIC multiplier IP), combined by Wallace trees into 2W..5W blocks
and then recursively by integer Karatsuba up to the operand width, with deep
pipelining for throughput and Montgomery reduction folded into the pipeline.

We model the resulting cell area with three calibrated components:

* basic multiplier array -- grows with the Karatsuba exponent (limbs^log2(3)),
  which is what keeps the area growth "slightly above linear" in Figure 8;
* pipeline registers -- proportional to (pipeline depth x operand width);
* reduction/adder logic -- proportional to the operand width.

Constants are calibrated so that a 254-bit, 38-stage unit matches the paper's
reported ALU area breakdown (0.55 mm^2 in 40 nm).  See DESIGN.md substitution #1.

:func:`montgomery_cios` is the word-level datapath reference of the same unit:
the multiply/reduce loop over the limbs that :func:`estimate_multiplier` counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

from repro.errors import HardwareModelError

#: Effective area (um^2, 40 nm) of one W x W basic multiplier including its share
#: of the Wallace compressors and the Montgomery datapath.
BASIC_MULT_UM2 = 3300.0
#: Area per pipeline-register bit (um^2, 40 nm); roughly 3 operand-wide registers
#: per stage.
PIPELINE_REG_UM2_PER_BIT = 2.5
PIPELINE_REG_WIDTH_FACTOR = 3.0
#: Reduction adders / final correction, per operand bit.
ADDER_UM2_PER_BIT = 20.0


@dataclass(frozen=True)
class MultiplierEstimate:
    """Synthesis-model output for one mmul configuration."""

    word_width: int
    pipeline_depth: int
    dsp_width: int
    basic_multipliers: int
    karatsuba_levels: int
    area_um2: float
    naive_area_um2: float

    @property
    def area_mm2(self) -> float:
        return self.area_um2 / 1e6

    @property
    def karatsuba_saving(self) -> float:
        """Fractional area saved versus a schoolbook multiplier array."""
        return 1.0 - self.area_um2 / self.naive_area_um2


def karatsuba_multiplier_count(limbs: int) -> int:
    """Number of basic multipliers with recursive Karatsuba splitting.

    Base blocks cover 2..5 limbs directly (Wallace trees); wider operands are
    split recursively in halves, each level costing 3 sub-multiplications.
    """
    if limbs <= 1:
        return 1
    if limbs <= 5:
        # Wallace-tree block: schoolbook at this size (limbs^2 basic products).
        return limbs * limbs
    half = ceil(limbs / 2)
    return 3 * karatsuba_multiplier_count(half)


def schoolbook_multiplier_count(limbs: int) -> int:
    return max(1, limbs * limbs)


def limb_count(word_width: int, limb_bits: int) -> int:
    """Limbs of ``limb_bits`` bits that hold a ``word_width``-bit operand."""
    return max(1, ceil(word_width / limb_bits))


def montgomery_cios(a: int, b: int, p: int, limb_bits: int = 64) -> int:
    """CIOS Montgomery product ``a * b * R^-1 mod p`` over fixed limbs.

    ``R = 2^(limb_bits * limb_count(p.bit_length(), limb_bits))``; ``p`` is
    odd and ``0 <= a, b < p``.  Coarsely Integrated Operand Scanning
    interleaves one row of the schoolbook product with one reduction step per
    limb of ``b``, so no intermediate exceeds ``s + 2`` limbs -- the word loop
    a fixed-width mmul datapath executes.
    """
    if p < 3 or p % 2 == 0 or not (0 <= a < p and 0 <= b < p):
        raise HardwareModelError(
            "montgomery_cios needs an odd modulus p >= 3 and operands in [0, p)"
        )
    mask = (1 << limb_bits) - 1
    s = limb_count(p.bit_length(), limb_bits)
    p_limbs = [(p >> (limb_bits * j)) & mask for j in range(s)]
    a_limbs = [(a >> (limb_bits * j)) & mask for j in range(s)]
    n0 = (-pow(p, -1, 1 << limb_bits)) & mask         # n' = -p^{-1} mod 2^W
    t = [0] * (s + 2)
    for i in range(s):
        b_i = (b >> (limb_bits * i)) & mask
        carry = 0
        for j in range(s):
            acc = t[j] + a_limbs[j] * b_i + carry
            t[j] = acc & mask
            carry = acc >> limb_bits
        acc = t[s] + carry
        t[s] = acc & mask
        t[s + 1] = acc >> limb_bits
        m = (t[0] * n0) & mask
        acc = t[0] + m * p_limbs[0]
        carry = acc >> limb_bits
        for j in range(1, s):
            acc = t[j] + m * p_limbs[j] + carry
            t[j - 1] = acc & mask
            carry = acc >> limb_bits
        acc = t[s] + carry
        t[s - 1] = acc & mask
        t[s] = t[s + 1] + (acc >> limb_bits)
        t[s + 1] = 0
    result = t[s]
    for j in range(s - 1, -1, -1):
        result = (result << limb_bits) | t[j]
    if result >= p:
        result -= p
    return result


def estimate_multiplier(word_width: int, pipeline_depth: int, dsp_width: int = 16) -> MultiplierEstimate:
    """Area estimate of the modular multiplier for the given configuration."""
    limbs = limb_count(word_width, dsp_width)
    n_mults = karatsuba_multiplier_count(limbs)
    n_naive = schoolbook_multiplier_count(limbs)
    levels = max(0, ceil(log2(max(1.0, limbs / 5))))

    mult_area = n_mults * BASIC_MULT_UM2
    reg_area = pipeline_depth * word_width * PIPELINE_REG_WIDTH_FACTOR * PIPELINE_REG_UM2_PER_BIT
    adder_area = word_width * ADDER_UM2_PER_BIT
    naive_area = n_naive * BASIC_MULT_UM2 + reg_area + adder_area

    return MultiplierEstimate(
        word_width=word_width,
        pipeline_depth=pipeline_depth,
        dsp_width=dsp_width,
        basic_multipliers=n_mults,
        karatsuba_levels=levels,
        area_um2=mult_area + reg_area + adder_area,
        naive_area_um2=naive_area,
    )
