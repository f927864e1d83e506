"""Area, timing, memory, multiplier and technology models."""

import random

import pytest

from repro.hw.area import estimate_area
from repro.hw.memory import estimate_data_memory, estimate_instruction_memory
from repro.hw.multiplier import (
    estimate_multiplier,
    karatsuba_multiplier_count,
    limb_count,
    montgomery_cios,
    schoolbook_multiplier_count,
)
from repro.hw.power import estimate_power
from repro.hw.presets import default_model
from repro.hw.technology import TECH_40NM, TECH_65NM, get_node
from repro.hw.timing import critical_path_ns, frequency_mhz
from repro.errors import HardwareModelError


def test_multiplier_counts_and_saving():
    assert karatsuba_multiplier_count(1) == 1
    assert karatsuba_multiplier_count(4) == 16
    assert karatsuba_multiplier_count(16) == 9 * 16
    assert schoolbook_multiplier_count(16) == 256
    estimate = estimate_multiplier(254, 38)
    assert estimate.basic_multipliers < schoolbook_multiplier_count(16)
    assert 0.2 < estimate.karatsuba_saving < 0.8
    assert estimate.area_mm2 > 0


BLS12_381_P = int(
    "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab",
    16,
)


@pytest.mark.parametrize("limb_bits", [8, 16, 32, 64])
def test_montgomery_round_trip_and_cios(limb_bits):
    """The CIOS word loop is a * b * R^-1 mod p over the limbs the area model counts."""
    for p in (10007, BLS12_381_P):
        n_limbs = limb_count(p.bit_length(), limb_bits)
        assert n_limbs == -(-p.bit_length() // limb_bits)
        r = 1 << (limb_bits * n_limbs)
        r_inv = pow(r, -1, p)
        rng = random.Random(limb_bits)
        for _ in range(16):
            x, y = rng.randrange(p), rng.randrange(p)
            assert montgomery_cios(x, y, p, limb_bits) == (x * y * r_inv) % p
            # Into Montgomery form (multiply by R^2), multiply there, and back out.
            x_m = montgomery_cios(x, r * r % p, p, limb_bits)
            y_m = montgomery_cios(y, r * r % p, p, limb_bits)
            assert x_m == x * r % p
            assert montgomery_cios(x_m, 1, p, limb_bits) == x
            assert montgomery_cios(montgomery_cios(x_m, y_m, p, limb_bits), 1, p, limb_bits) == x * y % p
        assert montgomery_cios(p - 1, p - 1, p, limb_bits) == r_inv    # widest operands
    assert montgomery_cios(3, 4, BLS12_381_P) == montgomery_cios(3, 4, BLS12_381_P, 64)
    assert estimate_multiplier(381, 38, dsp_width=limb_bits).basic_multipliers == \
        karatsuba_multiplier_count(limb_count(381, limb_bits))


def test_montgomery_cios_rejects_bad_operands():
    for a, b, p in ((1, 1, 10008), (10007, 1, 10007), (1, -1, 10007), (0, 0, 1)):
        with pytest.raises(HardwareModelError):
            montgomery_cios(a, b, p)


def test_multiplier_area_grows_subquadratically():
    small = estimate_multiplier(254, 38).area_um2
    big = estimate_multiplier(508, 38).area_um2
    ratio = big / small
    assert 1.5 < ratio < 4.0           # well below the 4x of schoolbook doubling


def test_memory_models():
    imem = estimate_instruction_memory(2_000_000)
    assert imem.area_mm2 > 0.3
    assert imem.size_kib == pytest.approx(2_000_000 / 8 / 1024)
    dmem = estimate_data_memory(254, 512)
    dmem_ported = estimate_data_memory(254, 512, read_ports=4)
    assert dmem_ported.area_um2 > dmem.area_um2


def test_area_breakdown_matches_paper_shape():
    hw = default_model(254)
    # Program sized like the paper's BN254 kernel.
    imem_bits = 90_000 * 32
    registers = 440
    one = estimate_area(hw, imem_bits, registers, n_cores=1)
    eight = estimate_area(hw, imem_bits, registers, n_cores=8)
    fractions_1 = one.fractions()
    fractions_8 = eight.fractions()
    # Figure 6: IMem dominates the single core (~50%) and shrinks to ~11% at 8 cores.
    assert 0.35 < fractions_1["imem"] < 0.6
    assert fractions_8["imem"] < 0.2
    assert fractions_8["alu"] > fractions_1["alu"]
    assert 0.8 < fractions_1["mmul_share_of_alu"] < 0.99
    # Area grows far less than 8x while throughput grows 8x.
    assert eight.total_mm2 / one.total_mm2 < 6.0
    assert eight.sram_kib > one.sram_kib
    assert one.describe()["total_mm2"] > 0


def test_timing_model_calibration_points():
    assert frequency_mhz(254, 38) == pytest.approx(769, rel=0.02)
    assert critical_path_ns(254, 14) > critical_path_ns(254, 38)
    # Saturation: very deep pipelines stop improving.
    assert critical_path_ns(254, 60) == pytest.approx(critical_path_ns(254, 80), rel=0.05)
    # Wider operands are slower at the same depth.
    assert critical_path_ns(638, 38) > critical_path_ns(254, 38)


def test_technology_scaling():
    assert get_node(65) is TECH_65NM
    assert TECH_65NM.scale_area_mm2(8.0) == pytest.approx(12.0, rel=0.01)
    assert TECH_65NM.scale_frequency_mhz(769) == pytest.approx(423, rel=0.03)
    assert TECH_40NM.scale_delay(10) == 10
    with pytest.raises(HardwareModelError):
        get_node(90)


def test_area_scales_with_word_width():
    small = estimate_area(default_model(254), 1_000_000, 400, n_cores=1)
    large = estimate_area(default_model(509), 1_000_000, 400, n_cores=1)
    assert large.alu_mm2 > small.alu_mm2
    assert large.dmem_mm2 > small.dmem_mm2


def _power_fixture(technology=TECH_40NM, frequency_mhz=700.0, activity=0.8,
                   n_cores=1):
    hw = default_model(254)
    area = estimate_area(hw, 1_000_000, 400, n_cores=n_cores,
                         technology=technology)
    return estimate_power(hw, area, frequency_mhz, activity=activity)


def test_power_totals_and_breakdown():
    power = _power_fixture()
    assert power.total_mw > 0
    assert power.total_mw == pytest.approx(power.dynamic_mw + power.leakage_mw)
    assert power.dynamic_mw == pytest.approx(
        power.alu_mw + power.dmem_mw + power.imem_mw + power.clock_mw)
    # The clock tree is a fixed fraction of the dynamic subtotal.
    subtotal = power.alu_mw + power.dmem_mw + power.imem_mw
    assert power.clock_mw == pytest.approx(subtotal * 0.15 / 0.85)
    described = power.describe()
    assert described["total_mw"] == pytest.approx(power.total_mw, abs=0.01)


def test_power_monotonic_in_frequency_activity_and_cores():
    base = _power_fixture()
    assert _power_fixture(frequency_mhz=1400.0).dynamic_mw > base.dynamic_mw
    assert _power_fixture(activity=0.2).dynamic_mw < base.dynamic_mw
    assert _power_fixture(n_cores=4).total_mw > base.total_mw
    # Activity scales compute and data memory but never the leakage.
    assert _power_fixture(activity=0.2).leakage_mw == pytest.approx(base.leakage_mw)
    # Activity floors at MIN_ACTIVITY instead of reaching zero dynamic power.
    idle = _power_fixture(activity=0.0)
    assert idle.alu_mw > 0
    assert idle.activity == pytest.approx(0.05)


def test_power_technology_scaling():
    at_40 = _power_fixture(technology=TECH_40NM)
    at_65 = _power_fixture(technology=TECH_65NM)
    at_16 = _power_fixture(technology=get_node(16))
    # Older node burns more power for the same design at the same clock,
    # newer node less -- the ordering the TechnologyNode power factors encode.
    assert at_65.total_mw > at_40.total_mw
    assert at_16.total_mw < at_40.total_mw
    # The node is the one the area breakdown was scaled to.
    assert (at_40.technology, at_65.technology, at_16.technology) == (
        "40nm LP", "65nm", "16nm")
