"""Shared fixtures for the test-suite.

Tests use the small "toy" catalog curves so the full pipeline (fields, curves,
pairing, compiler, simulators) is exercised end-to-end in seconds; a handful of
tests marked ``slow`` additionally cover a full-size curve.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

# Allow running the tests from a source checkout even when the package has not
# been installed (e.g. documentation builds, quick hacking).
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)

from repro.curves.catalog import get_curve  # noqa: E402
from repro.hw.presets import paper_hw1, paper_hw2  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _hermetic_disk_cache():
    """Keep the suite hermetic w.r.t. the disk-backed compile artifact store.

    CI exports ``FINESSE_CACHE_DIR`` for the warm-path sweeps, but the tests
    assert *cold*-path behaviour (recompilation counts, cache misses); a warm
    store leaking in would flip those assertions.  Tests that exercise the
    store opt in explicitly via ``configure_store``/``monkeypatch``.
    """
    from repro.compiler.store import CACHE_DIR_ENV, reset_store_state

    os.environ.pop(CACHE_DIR_ENV, None)
    reset_store_state()


@pytest.fixture(autouse=True)
def _hermetic_store_state():
    """No test leaves its store configuration to the next one.

    An explicit ``configure_store(...)`` -- ``None`` included -- outranks
    ``FINESSE_CACHE_DIR`` until it is reset, so one forgotten reset silently
    moved the disk tier of every later test that set the variable.
    """
    yield
    from repro.compiler.store import reset_store_state

    reset_store_state()


@pytest.fixture(scope="session", autouse=True)
def _hermetic_faults():
    """Keep the suite hermetic w.r.t. fault injection.

    A leaked ``FINESSE_FAULTS`` (e.g. from a chaos run in the same shell)
    would corrupt unrelated tests; injection here is strictly opt-in via
    ``configure_faults``, and tests that opt in clean up after themselves.
    """
    from repro.reliability.faults import FAULTS_ENV, configure_faults

    os.environ.pop(FAULTS_ENV, None)
    configure_faults(None)


@pytest.fixture(scope="session")
def rng():
    return random.Random(0xF1E55E)


@pytest.fixture(scope="session")
def toy_bn():
    return get_curve("TOY-BN42")


@pytest.fixture(scope="session")
def toy_bls12():
    return get_curve("TOY-BLS12-54")


@pytest.fixture(scope="session")
def toy_bls24():
    return get_curve("TOY-BLS24-79")


@pytest.fixture(scope="session", params=["TOY-BN42", "TOY-BLS12-54", "TOY-BLS24-79"])
def toy_curve(request):
    """Parametrised fixture covering one toy curve per family."""
    return get_curve(request.param)


#: The twelve curve shapes the pairing code distinguishes -- family x twist
#: type x sign of u -- and the seed search that reaches each one:
#: (family, seed bits, prefer a negative seed) -> (twist type, sign of u).
#: The search returns the first valid seed of that width in its own order, so
#: each row re-derives one small curve of the shape.
CURVE_SHAPE_SEARCHES = {
    ("BN", 6, False): ("M", 1),
    ("BN", 6, True): ("D", -1),
    ("BN", 7, False): ("D", 1),
    ("BN", 7, True): ("M", -1),
    ("BLS12", 6, False): ("M", 1),
    ("BLS12", 6, True): ("M", -1),
    ("BLS12", 8, False): ("D", 1),
    ("BLS12", 9, True): ("D", -1),
    ("BLS24", 6, False): ("D", 1),
    ("BLS24", 6, True): ("D", -1),
    ("BLS24", 9, False): ("M", 1),
    ("BLS24", 14, True): ("M", -1),
}


@pytest.fixture(scope="session")
def curve_shapes():
    """``{"BN-D-neg": curve, ...}``: one curve of each of the twelve shapes,
    derived with :func:`repro.curves.search.find_seed` and built like a
    catalog entry.  Building all twelve takes about a second."""
    from repro.curves.catalog import CurveSpec, build_curve
    from repro.curves.families import get_family
    from repro.curves.search import find_seed

    shapes = {}
    for (family, bits, negative), (twist, sign) in CURVE_SHAPE_SEARCHES.items():
        u = find_seed(get_family(family), bits, prefer_negative=negative).u
        curve = build_curve(CurveSpec(f"SHAPE-{family}-{u}", family, u,
                                      "derived with repro.curves.search", toy=True))
        assert (curve.twist_type, 1 if u > 0 else -1) == (twist, sign), curve.name
        shapes[f"{family}-{twist}-{'pos' if sign > 0 else 'neg'}"] = curve
    return shapes


@pytest.fixture(scope="session")
def hw1_small(toy_bn):
    return paper_hw1(toy_bn.params.p.bit_length())


@pytest.fixture(scope="session")
def hw2_small(toy_bn):
    return paper_hw2(toy_bn.params.p.bit_length())


@pytest.fixture(scope="session")
def compiled_toy_bn(toy_bn):
    """One compiled toy-BN kernel shared by the backend tests."""
    from repro.compiler.pipeline import compile_pairing

    return compile_pairing(toy_bn, hw=paper_hw1(toy_bn.params.p.bit_length()))


@pytest.fixture(scope="session")
def baseline_toy_bn(compiled_toy_bn, toy_bn):
    """The program-order walk of the same kernel's lowered module (Table 7's
    "IPC init")."""
    from repro.compiler.bankalloc import allocate_banks
    from repro.compiler.pipeline import stage_modules
    from repro.compiler.schedule import program_order_schedule
    from repro.sim.cycle import CycleAccurateSimulator

    hw = compiled_toy_bn.hw
    lowered = stage_modules(toy_bn, hw=hw)[1]
    return CycleAccurateSimulator().run(
        program_order_schedule(lowered, hw, allocate_banks(lowered, hw)))
