"""Shared helpers for the evaluation harness."""

from __future__ import annotations

from repro.curves.catalog import PAPER_CURVES
from repro.hw.presets import paper_hw1, paper_hw2
from repro.hw.timing import frequency_mhz

#: Experiment scale when none is given: "full", "reduced" or "smoke"
#: (``python -m repro.evaluation.runner --scale`` picks another).
DEFAULT_SCALE = "reduced"

#: Ratio between our 40 nm ASIC frequency model and the Virtex-7 implementation
#: (matches Table 6: 769 MHz ASIC vs 153.8 MHz FPGA for the same design).
FPGA_FREQUENCY_RATIO = 5.0
#: Virtex-7 slice count per mm^2 of 40 nm ASIC area (calibrated on Table 6's
#: 13 928 slices for the 1-core BN254N design).
FPGA_SLICES_PER_MM2 = 7_870.0


def paper_curve_names(scale: str | None = None) -> list:
    """The curves used for the multi-curve experiments at a given scale.

    ``full`` covers all seven Table 2 curves; ``reduced`` (the default) keeps the
    four that compile quickly in pure Python and drops the 638-bit curves and
    BLS24-509, whose kernels take minutes each to recompile; ``smoke`` uses the
    toy curves only.
    """
    scale = scale or DEFAULT_SCALE
    if scale == "smoke":
        return ["TOY-BN42", "TOY-BLS12-54", "TOY-BLS24-79"]
    if scale == "reduced":
        return ["BN254N", "BN462", "BLS12-381", "BLS12-446"]
    return list(PAPER_CURVES)


def dse_curve_name(scale: str | None = None) -> str:
    """Curve used for the BLS24 design-space studies (Figure 2 / Figure 10)."""
    scale = scale or DEFAULT_SCALE
    if scale == "full":
        return "BLS24-509"
    return "TOY-BLS24-79"


def codesign_curve_name(scale: str | None = None) -> str:
    scale = scale or DEFAULT_SCALE
    if scale == "smoke":
        return "TOY-BN42"
    return "BN254N"


def hw_for_curve(curve, fifo: bool = False):
    width = curve.params.p.bit_length()
    return paper_hw2(width) if fifo else paper_hw1(width)


def fpga_frequency_mhz(word_width: int) -> float:
    """The clock of the default 38-stage multiplier, scaled to the FPGA."""
    return frequency_mhz(word_width, 38) / FPGA_FREQUENCY_RATIO


def fpga_slices(area_mm2: float) -> int:
    return int(round(area_mm2 * FPGA_SLICES_PER_MM2))
