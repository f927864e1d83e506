"""IROpt passes: folding, strength reduction, GVN, DCE -- and semantics preservation."""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compiler.opt import (
    OptStats,
    _key,
    constant_folding,
    dead_code_elimination,
    global_value_numbering,
    optimize,
    strength_reduction,
)
from repro.curves.catalog import get_curve
from repro.fields.variants import VariantConfig
from repro.hw.presets import default_model
from repro.ir.builder import IRBuilder
from repro.ir.interp import interpret_low_level
from repro.ir.lowering import lower_module
from repro.ir.module import IRModule
from repro.pairing.final_exp import FINAL_EXP_MODES

P = 10007


def _build(ops):
    """Helper building a small low-level module from (op, args, attr) triples."""
    module = IRModule(level="low")
    ids = []
    for op, args, attr in ops:
        ids.append(module.emit(op, tuple(ids[a] for a in args), attr=attr))
    return module, ids


def test_constant_folding_folds_chains():
    module, _ = _build([
        ("const", (), 3),
        ("const", (), 4),
        ("mul", (0, 1), None),
        ("add", (2, 2), None),
        ("output", (3,), "out"),
    ])
    folded = constant_folding(module, P)
    outputs = interpret_low_level(folded, P, {})
    assert outputs["out"] == 24
    assert folded.op_histogram().get("mul", 0) == 0


def test_strength_reduction_rules():
    module, _ = _build([
        ("input", (), "x"),
        ("const", (), 0),
        ("const", (), 1),
        ("const", (), 2),
        ("add", (0, 1), None),      # x + 0 -> x
        ("mul", (0, 2), None),      # x * 1 -> x
        ("mul", (0, 3), None),      # x * 2 -> dbl
        ("mul", (0, 0), None),      # x * x -> sqr
        ("sub", (0, 0), None),      # x - x -> 0
        ("output", (4,), "a"),
        ("output", (5,), "b"),
        ("output", (6,), "c"),
        ("output", (7,), "d"),
        ("output", (8,), "e"),
    ])
    reduced = strength_reduction(module, P)
    histogram = reduced.op_histogram()
    assert histogram.get("mul", 0) == 0
    assert histogram.get("dbl", 0) == 1
    assert histogram.get("sqr", 0) == 1
    outputs = interpret_low_level(reduced, P, {"x": 5})
    assert outputs == {"a": 5, "b": 5, "c": 10, "d": 25, "e": 0}


def test_gvn_merges_duplicates():
    module, _ = _build([
        ("input", (), "x"),
        ("input", (), "y"),
        ("mul", (0, 1), None),
        ("mul", (1, 0), None),      # commutative duplicate
        ("add", (2, 3), None),
        ("output", (4,), "out"),
    ])
    merged = global_value_numbering(module, P)
    assert merged.op_histogram()["mul"] == 1
    outputs = interpret_low_level(merged, P, {"x": 3, "y": 7})
    assert outputs["out"] == 42


def test_gvn_keys_are_equal_exactly_for_equal_rows():
    """A row without an attribute is keyed by one packed int: no two rows that
    differ share it, also at the edges of its fields (an absent operand, the
    largest packable ``a``, one past it, a ``b`` of any size), and a row with
    an attribute keeps its tuple."""
    edge = (1 << 32) - 2
    ids = (-1, 0, 1, 5, edge, edge + 1, 1 << 40)
    rows = [(op, a, b, None) for op in ("add", "sub", "mul", "neg", "dbl", "cvt", "adj")
            for a in ids for b in ids]
    rows += [("muli", a, -1, k) for a in ids for k in (None, 2, 3)]
    seen: dict = {}
    for op, a, b, attr in rows:
        row = (op, min(a, b), max(a, b), attr) if op in ("add", "mul") else (op, a, b, attr)
        assert seen.setdefault(_key(op, a, b, attr, P), row) == row
    assert type(_key("add", 3, edge, None, P)) is int
    assert type(_key("add", edge + 1, edge + 2, None, P)) is tuple
    assert _key("muli", 3, -1, 5, P) == ("muli", 3, -1, 5)


def test_dce_removes_unused():
    module, _ = _build([
        ("input", (), "x"),
        ("mul", (0, 0), None),
        ("add", (0, 0), None),      # dead
        ("output", (1,), "out"),
    ])
    cleaned = dead_code_elimination(module)
    assert cleaned.op_histogram().get("add", 0) == 0
    assert interpret_low_level(cleaned, P, {"x": 4})["out"] == 16


def test_optimize_reports_reduction(toy_bn, rng):
    tower = toy_bn.tower
    builder = IRBuilder()
    x = builder.input(tower.full_field, "x")
    zero = builder.constant(tower.twist_field.zero())
    c = builder.input(tower.twist_field, "c")
    sparse = builder.pack([c, zero, zero, c, zero, zero], tower.full_field)
    builder.output(x * sparse, "out")
    low = lower_module(builder.module, tower.levels, VariantConfig.all_karatsuba())
    optimized, stats = optimize(low, toy_bn.params.p)
    assert stats.final < stats.initial          # sparsity removed some work
    assert 0.0 < stats.reduction < 1.0

    a = tower.full_field.random(rng)
    b = tower.twist_field.random(rng)
    inputs = {}
    for j, coeff in enumerate(a.to_base_coeffs()):
        inputs[("x", j)] = coeff
    for j, coeff in enumerate(b.to_base_coeffs()):
        inputs[("c", j)] = coeff
    zero2 = tower.twist_field.zero()
    # Pack order is the w-power basis: full = (c0 + c2 v + c4 v^2) + (c1 + c3 v + c5 v^2) w,
    # so coefficients at positions 0 and 3 land in mid0[0] and mid1[1].
    expected_sparse = tower.full_field.element((
        tower.full_field.base.element((b, zero2, zero2)),
        tower.full_field.base.element((zero2, b, zero2)),
    ))
    expected = a * expected_sparse
    outputs = interpret_low_level(optimized, toy_bn.params.p, inputs)
    assert [outputs[("out", j)] for j in range(12)] == expected.to_base_coeffs()


def test_optimized_pairing_kernel_semantics(compiled_toy_bn, toy_bn, rng):
    """The IROpt pipeline must not change the kernel's input/output behaviour."""
    from repro.compiler.pipeline import stage_modules

    _, low, opt = stage_modules(toy_bn)
    P_point = toy_bn.random_g1(rng)
    Q_point = toy_bn.random_g2(rng)
    inputs = {}
    for name, value in (("xP", P_point.x), ("yP", P_point.y), ("xQ", Q_point.x), ("yQ", Q_point.y)):
        for j, coeff in enumerate(value.to_base_coeffs()):
            inputs[(name, j)] = coeff
    out_low = interpret_low_level(low, toy_bn.params.p, inputs)
    out_opt = interpret_low_level(opt, toy_bn.params.p, inputs)
    assert out_low == out_opt


# ---------------------------------------------------------------------------
# Differential: random low-level programs through every pass sequence
# ---------------------------------------------------------------------------

_PASSES = {
    "constfold": lambda module: constant_folding(module, P),
    "strength": lambda module: strength_reduction(module, P),
    "gvn": lambda module: global_value_numbering(module, P),
    "dce": dead_code_elimination,
}
#: Every ordered selection of the four passes (65 sequences, the empty one included).
_SEQUENCES = [seq for k in range(5) for seq in itertools.permutations(_PASSES, k)]
_UNARY = ("neg", "dbl", "tpl", "sqr", "inv", "cvt", "icv")
_BINARY = ("add", "sub", "mul")
_CONSTANTS = st.sampled_from([0, 1, 2, 3, P - 1, P - 2]) | st.integers(0, 3 * P)


@st.composite
def low_programs(draw):
    """A valid random F_p program: constants and inputs, tagged compute rows, outputs."""
    module = IRModule(level="low")
    # Constants come first: operand draws favour small ids, so the rewrite
    # rules keyed on special constants fire in most programs.
    for value in draw(st.lists(_CONSTANTS, max_size=4)):
        module.emit("const", (), attr=value)
    for i in range(draw(st.integers(1, 3))):
        module.emit("input", (), attr=f"x{i}")
    for _ in range(draw(st.integers(1, 24))):
        module.current_lane = draw(st.sampled_from([None, 0, 1]))
        module.current_phase = draw(st.sampled_from([None, "miller", "final_exp"]))
        earlier = st.integers(0, len(module) - 1)       # operands may repeat
        op = draw(st.sampled_from(_UNARY + _BINARY + ("const", "muli")))
        if op == "const":
            module.emit("const", (), attr=draw(_CONSTANTS))
        elif op == "muli":
            module.emit("muli", (draw(earlier),), attr=draw(st.integers(-2, 5)))
        elif op in _UNARY:
            module.emit(op, (draw(earlier),))
        else:
            module.emit(op, (draw(earlier), draw(earlier)))
    module.current_lane = module.current_phase = None
    values = len(module)
    for j in range(draw(st.integers(1, 3))):
        module.emit("output", (draw(st.integers(0, values - 1)),), attr=f"out{j}")
    return module


def _columns(module):
    return (module.ops, module.a, module.b, module.attrs, module.lanes, module.phases)


def _reference_outputs(module, inputs):
    try:
        return interpret_low_level(module, P, inputs)
    except ValueError:                   # an inv of zero somewhere: not a program
        assume(False)


@settings(max_examples=300, deadline=None)
@given(low_programs(), st.lists(st.integers(0, P - 1), min_size=3, max_size=3))
def test_every_pass_sequence_preserves_semantics(module, xs):
    inputs = {f"x{i}": x for i, x in enumerate(xs)}
    module.validate()
    expected = _reference_outputs(module, inputs)
    for sequence in _SEQUENCES:
        current = module
        for name in sequence:
            current = _PASSES[name](current)
            current.validate()
            assert current.count_compute_ops() == sum(
                op not in ("const", "input", "output") for op in current.ops)
        assert interpret_low_level(current, P, inputs) == expected, sequence


@settings(max_examples=60, deadline=None)
@given(low_programs())
def test_optimize_leaves_nothing_for_dce(module):
    optimized, stats = optimize(module, P)
    assert _columns(dead_code_elimination(optimized)) == _columns(optimized)
    assert stats.final == optimized.count_compute_ops() == stats.per_pass["iteration-2/dce"]
    assert list(stats.per_pass) == [
        f"iteration-{i}{suffix}" for i in (1, 2)
        for suffix in ("/constfold", "/strength", "/gvn", "/dce", "")]


@settings(max_examples=100, deadline=None)
@given(low_programs())
def test_gvn_demotes_values_shared_across_lanes_or_phases(module):
    # Independent value numbering by hash-consing expression keys: rows with
    # the same key are the ones GVN must merge, in order of first occurrence.
    number_of: dict = {}
    groups: dict = {}
    for vid, (op, a, b, attr) in enumerate(zip(module.ops, module.a, module.b, module.attrs)):
        operands = [number_of[arg] for arg in (a, b) if arg >= 0]
        if op in ("input", "output"):
            key = ("row", vid)
        elif op == "const":
            key = ("const", attr % P)
        else:
            key = (op, tuple(sorted(operands) if op in ("add", "mul") else operands), attr)
        number_of[vid] = groups.setdefault(key, (len(groups), []))[0]
        groups[key][1].append(vid)

    def shared(column, members):
        tags = {column[vid] for vid in members}
        return tags.pop() if len(tags) == 1 else None

    merged = global_value_numbering(module, P)
    members = [rows for _, rows in groups.values()]
    assert len(merged) == len(members)
    assert merged.lanes == [shared(module.lanes, rows) for rows in members]
    assert merged.phases == [shared(module.phases, rows) for rows in members]
    assert merged.ops == [module.ops[rows[0]] for rows in members]


# ---------------------------------------------------------------------------
# Differential oracle: optimize == (constfold -> strength -> gvn -> dce) x 2
# ---------------------------------------------------------------------------

def _composed(module, p):
    """The fixed IROpt schedule built from the four public passes."""
    stats = OptStats(initial=module.compute_ops)
    passes = (("constfold", constant_folding), ("strength", strength_reduction),
              ("gvn", global_value_numbering),
              ("dce", lambda m, p: dead_code_elimination(m)))
    for i in (1, 2):
        for name, run in passes:
            module = run(module, p)
            stats.per_pass[f"iteration-{i}/{name}"] = module.compute_ops
        stats.per_pass[f"iteration-{i}"] = module.compute_ops
    stats.final = module.compute_ops
    return module, stats


def _everything(module, stats):
    return (module.ops, module.a, module.b, module.attrs, module.lanes, module.phases,
            module.degrees, module.inputs, module.outputs, module.compute_ops,
            module.meta, module.name, module.level,
            stats.initial, stats.final, list(stats.per_pass.items()))


def _assert_matches_composed(module, p):
    got = optimize(module, p)
    assert _everything(*got) == _everything(*_composed(module, p))
    return got


@settings(max_examples=400, deadline=None)
@given(low_programs())
def test_optimize_equals_composed_passes(module):
    _assert_matches_composed(module, P)


_SHAPES = [
    *({"final_exp_mode": mode} for mode in FINAL_EXP_MODES),
    {"n_pairs": 4},
    {"n_pairs": 4, "split_accumulators": True, "cores": 2},
]


@pytest.mark.parametrize("shape", _SHAPES, ids=lambda shape: "-".join(map(str, shape.values())))
@pytest.mark.parametrize("name", ["TOY-BN42", "TOY-BLS12-54", "TOY-BLS24-79"])
def test_optimize_equals_composed_passes_on_kernels(name, shape):
    from repro.compiler.pipeline import stage_modules

    curve = get_curve(name)
    knobs = dict(shape)
    cores = knobs.pop("cores", 1)
    hw = default_model(curve.params.p.bit_length()).with_cores(cores)
    _, low, _ = stage_modules(curve, hw=hw, **knobs)
    _assert_matches_composed(low, curve.params.p)


def _program(rows):
    """A module from ``(name, op, operand names, attr, lane, phase)`` rows; the
    names index the rows emitted so far."""
    module, ids = IRModule(level="low"), {}
    for name, op, args, attr, lane, phase in rows:
        module.current_lane, module.current_phase = lane, phase
        ids[name] = module.emit(op, tuple(ids[arg] for arg in args), attr=attr)
    return module


def _equal_after_gvn(tail=()):
    """``t = sub(add(x, y), add(y, x))``: only iteration 1's GVN makes the
    operands equal, so only iteration 2 folds ``t`` to 0."""
    return [
        ("x", "input", (), "x", None, None),
        ("y", "input", (), "y", None, None),
        ("two", "const", (), 2, None, None),
        ("s", "add", ("x", "y"), None, 0, "miller"),
        ("r", "add", ("y", "x"), None, 0, "miller"),
        ("t", "sub", ("s", "r"), None, 0, "miller"),
        *tail,
    ]


def _zero_in_iteration_two(module):
    optimized, stats = _assert_matches_composed(module, P)
    assert stats.per_pass["iteration-2/strength"] < stats.per_pass["iteration-1"]
    return optimized, stats


def test_second_iteration_folds_operands_gvn_made_equal():
    module = _program(_equal_after_gvn([("out", "output", ("t",), "out", None, None)]))
    optimized, _ = _zero_in_iteration_two(module)
    assert interpret_low_level(optimized, P, {"x": 3, "y": 5}) == {"out": 0}
    assert optimized.compute_ops == 0


#: ``mul(x, t + 2)`` becomes ``dbl(x)`` in iteration 2, where an existing
#: ``dbl(x)`` on another lane and phase sits earlier, later or is dead.
_DBL = ("d", "dbl", ("x",), None, 1, "final_exp")
_MUL = [("u", "add", ("t", "two"), None, 0, "miller"),
        ("m", "mul", ("x", "u"), None, 0, "miller"),
        ("out", "output", ("m",), "out", None, None)]


@pytest.mark.parametrize("where", ["earlier", "later", "dead"])
def test_second_iteration_merges_a_new_dbl_with_an_existing_one(where):
    keep = [("out-d", "output", ("d",), "out-d", None, None)]
    tail = {"earlier": [_DBL, *_MUL, *keep], "later": [*_MUL, _DBL, *keep],
            "dead": [_DBL, *_MUL]}[where]
    rows = _equal_after_gvn(tail)
    optimized, _ = _zero_in_iteration_two(_program(rows))
    assert optimized.op_histogram().get("dbl") == 1
    assert optimized.op_histogram().get("mul") is None
    expected = {"out": 6} if where == "dead" else {"out": 6, "out-d": 6}
    assert interpret_low_level(optimized, P, {"x": 3, "y": 5}) == expected
    shared = where != "dead"
    dbl = optimized.ops.index("dbl")
    assert optimized.lanes[dbl] == (None if shared else 0)
    assert optimized.phases[dbl] == (None if shared else "miller")


@pytest.mark.parametrize("earlier_dbl", [False, True])
def test_mul_by_p_minus_two_becomes_neg_of_dbl(earlier_dbl):
    rows = [("x", "input", (), "x", None, None),
            ("c", "const", (), P - 2, None, None),
            *([_DBL, ("out-d", "output", ("d",), "out-d", None, None)] if earlier_dbl else []),
            ("m", "mul", ("x", "c"), None, 0, "miller"),
            ("out", "output", ("m",), "out", None, None)]
    optimized, stats = _assert_matches_composed(_program(rows), P)
    assert optimized.op_histogram().get("dbl") == 1
    assert optimized.op_histogram().get("neg") == 1
    assert stats.per_pass["iteration-1/strength"] == stats.initial + 1
    outputs = interpret_low_level(optimized, P, {"x": 3})
    assert outputs["out"] == -6 % P


def test_optimize_leaves_no_reference_cycle(toy_bn):
    """A compile runs with the collector paused: a cycle through optimize's
    working state would keep its column copies and GVN table alive."""
    import gc

    from repro.compiler.pipeline import stage_modules

    _, low, _ = stage_modules(toy_bn)
    gc.collect()
    gc.disable()
    try:
        optimize(low, toy_bn.params.p)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
