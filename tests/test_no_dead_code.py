"""Every definition in ``src/repro`` has a caller, and every default a setter.

A definition that nothing names is code that nothing runs and no test
exercises.  A name counts as used when it appears as a name token -- not inside
a string or a comment -- anywhere in the source, tests, examples, tools or
benchmarks, other than at its own definition or a package ``__init__.py``
re-export (a re-export only passes the name on).

A default that nothing but the tests overrides is a knob that nothing
measures: the value the program runs with is a constant, and the branch that
honours any other value is dead code.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "examples", "tools", "benchmarks")


def _re_export_lines(path: Path, source: str) -> set:
    if path.name != "__init__.py":
        return set()
    return {line for node in ast.parse(source).body if isinstance(node, ast.ImportFrom)
            for line in range(node.lineno, node.end_lineno + 1)}


def _name_tokens() -> Counter:
    counts = Counter()
    for directory in SEARCHED:
        for path in sorted((ROOT / directory).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            skipped = _re_export_lines(path, source)
            counts.update(token.string
                          for token in tokenize.generate_tokens(io.StringIO(source).readline)
                          if token.type == tokenize.NAME and token.start[0] not in skipped)
    return counts


def _module_level_definitions():
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield f"{path.relative_to(ROOT)}:{node.lineno} {node.name}", node.name


def test_every_module_level_definition_is_referenced():
    counts = _name_tokens()
    unreferenced = [where for where, name in _module_level_definitions() if counts[name] <= 1]
    assert not unreferenced, "defined but never referenced:\n" + "\n".join(unreferenced)


# ---------------------------------------------------------------------------
# Every default has a setter
# ---------------------------------------------------------------------------

#: Where a call that sets a default may stand: the program and its clients,
#: never the tests.
SETTING = ("src", "examples", "tools", "benchmarks")

#: Defaults that nothing in ``SETTING`` sets, each kept for a stated reason.
KEPT = {
    "compiler.store.configure_store(max_bytes)":
        "deployment setting: the disk tier's size budget",
    "compiler.store.ArtifactStore.gc(max_bytes)":
        "maintenance call: trim a store to a tighter budget than its own",
    "curves.catalog.get_curve(fp_backend)":
        "deployment setting: the F_p residue type, per call (FINESSE_FP_BACKEND per process)",
    "curves.catalog.list_curves(include_toy)":
        "catalogue query: include_toy=False lists the paper curves alone",
    "curves.orders.curve_order(n)":
        "the formula's variable: the order of E(F_{p^n}), n = 1 being the base field",
    "curves.search.find_seed(prefer_negative)":
        "the curve-shape fixture derives its negative-seed curves with it",
    "evaluation.runner.run_all(verbose)":
        "library form of the runner: verbose=False returns the results unprinted",
    "fields.kernels.build_kernel(variants)":
        "test seam: a kernel under a variant table other than the tower's own",
    "fields.variants.VariantCost.weighted(mul_weight)":
        "cost model: the price of a multiplication, 1 by default",
    "fields.variants.VariantCost.weighted(linear_weight)":
        "cost model: the price of a linear op, 1 by default",
    "hw.model.HardwareModel(bank_read_ports)":
        "modelled: PackSched limits a bundle's reads per bank by it, the area model prices it",
    "hw.multiplier.montgomery_cios(limb_bits)":
        "the multiplier model's limb width: tests check 16- to 64-bit limbs",
    "hw.multiplier.estimate_multiplier(dsp_width)":
        "the multiplier model's limb width: tests check 16- to 64-bit limbs",
    "isa.program.AssembledProgram.to_hex(limit)":
        "listing: the first words of a program",
    "pairing.ate.optimal_ate_pairing(final_exp_mode)":
        "the single pairing takes the final-exp modes multi_pairing does",
    "pairing.final_exp.hard_part(plan)":
        "test seam: a plan other than the curve's own",
    "reliability.breaker.CircuitBreaker(clock)":
        "test seam: a fake clock drives the cooldown",
    "reliability.retry.RetryPolicy(base_delay_s)":
        "deployment setting: the retry backoff",
    "reliability.retry.RetryPolicy(max_delay_s)":
        "deployment setting: the retry backoff",
    "service.batcher.DynamicBatcher.stop(drain)":
        "shutdown mode: drain=False settles queued work with an error",
    "service.service.VerificationService.stop(drain)":
        "shutdown mode: drain=False settles queued work with an error",
    "service.simulate.arrival_times(burst)":
        "traffic model: the size of a burst under the bursty distribution",
    "sim.cycle.CycleAccurateSimulator(hw)":
        "test seam: simulate a schedule on a model other than its own",
}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass(frozen=True)
class Default:
    """One default: ``key`` names it, ``callee`` is the name its callers use
    (the class for a constructor or a record field), ``slot`` its positional
    index at a call site (None for keyword-only), and ``is_method`` says the
    callee is reached as ``obj.callee``."""

    key: str
    callee: str
    slot: int | None
    param: str
    is_field: bool
    is_method: bool


def _is_record(node: ast.ClassDef) -> bool:
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return "dataclass" in map(_name, decorators) or "NamedTuple" in map(_name, node.bases)


def _label(module: str, scope: list) -> str:
    return ".".join([module] + [part for part in scope if part != "__init__"])


def _defaults_in(body, module: str, scope: list, cls):
    for node in body:
        if isinstance(node, ast.ClassDef):
            inner = scope + [node.name]
            if _is_record(node):
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)
                          and "ClassVar" not in ast.unparse(item.annotation)]
                for slot, item in enumerate(fields):
                    value = item.value
                    if isinstance(value, ast.Call) and _name(value.func) == "field":
                        # A default_factory builds fresh state, not a setting.
                        value = {k.arg: k.value for k in value.keywords}.get("default")
                    if value is not None:
                        yield Default(f"{_label(module, inner)}({item.target.id})",
                                      node.name, slot, item.target.id, True, False)
            yield from _defaults_in(node.body, module, inner, node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            method = cls is not None and "staticmethod" not in map(_name, node.decorator_list)
            constructor = method and node.name == "__init__"
            callee = cls.name if constructor else node.name
            by_attribute = cls is not None and not constructor
            label = _label(module, scope + [node.name])
            first = len(positional) - len(args.defaults)
            for slot, arg in enumerate(positional[first:], start=first - method):
                yield Default(f"{label}({arg.arg})", callee, slot, arg.arg, False, by_attribute)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield Default(f"{label}({arg.arg})", callee, None, arg.arg, False,
                                  by_attribute)
            yield from _defaults_in(node.body, module, scope + [node.name], None)


def _module_of(path: Path) -> str:
    return ".".join(path.relative_to(ROOT / "src" / "repro").with_suffix("").parts)


def _defaults() -> list:
    return [default for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
            for default in _defaults_in(ast.parse(path.read_text(encoding="utf-8")).body,
                                        _module_of(path), [], None)]


class _Settings(ast.NodeVisitor):
    """What the calls in one file set.

    A value passed to a call is recorded with its *source*: the key of the
    enclosing function's own defaulted parameter when the value merely
    forwards it, else None (a value of its own).  A forwarded default is set
    only if the forwarding parameter is.
    """

    def __init__(self, module, local, settings):
        self.module, self.local, self.s = module, local, settings
        self.scope, self.forwardable, self.annotations = [], [set()], set()

    def _source(self, value):
        if self.module is not None and isinstance(value, ast.Name) \
                and value.id in self.forwardable[-1]:
            return f"{_label(self.module, self.scope)}({value.id})"
        return None

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.forwardable.append(set())
        self.generic_visit(node)
        self.forwardable.pop()
        self.scope.pop()

    def visit_FunctionDef(self, node):
        args = node.args
        hints = [arg.annotation for arg in ast.walk(args) if isinstance(arg, ast.arg)]
        for hint in hints + [node.returns]:
            if hint is not None:
                self.annotations.update(map(id, ast.walk(hint)))
        positional = args.posonlyargs + args.args
        optional = positional[len(positional) - len(args.defaults):] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        self.scope.append(node.name)
        self.forwardable.append({arg.arg for arg in optional})
        self.generic_visit(node)
        self.forwardable.pop()
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        self.annotations.update(map(id, ast.walk(node.annotation)))
        self.generic_visit(node)

    def visit_Call(self, node):
        self.annotations.add(id(node.func))     # a callee is not a value
        name = _name(node.func)
        if name is not None:
            for slot, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break       # ``f(x, *rest)``: taken to fill operands, not options
                self.s["slots"][name, slot].append(self._source(arg))
            for keyword in node.keywords:
                if keyword.arg is None:
                    self.s["double"].add(name)
                else:
                    self.s["keywords"][name, keyword.arg].append(self._source(keyword.value))
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and id(node) not in self.annotations \
                and node.id not in self.local:
            self.s["name_values"].add(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store):     # ``obj.field = value`` sets a field
            self.s["stores"].add(node.attr)
        elif id(node) not in self.annotations:
            self.s["attribute_values"].add(node.attr)
        self.generic_visit(node)


def _settings() -> dict:
    settings = dict(slots=defaultdict(list), keywords=defaultdict(list), double=set(),
                    name_values=set(), attribute_values=set(), stores=set())
    for directory in SETTING:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            # A variable or an imported module that shares a function's name
            # is not that function.
            local = {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
            local |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.arg)}
            local |= {(alias.asname or alias.name).partition(".")[0]
                      for node in ast.walk(tree) if isinstance(node, ast.Import)
                      for alias in node.names}
            module = _module_of(path) if directory == "src" else None
            _Settings(module, local, settings).visit(tree)
    return settings


def unset_defaults(kept) -> list:
    """Keys of the defaults that nothing in ``SETTING`` sets, ``kept`` counted as set.

    A default is set when a call passes its parameter by keyword or position,
    when a call passes ``**`` to its callable, when the callable is used as a
    value (it is called somewhere we cannot see: ``ctx.run_formula(times_line,
    ..., *line)`` sets ``times_line``'s ``x_p`` / ``y_p``), or -- for a record
    field -- when ``replace(...)`` or an attribute store assigns it.  Callables
    are matched by name, so a name shared by two definitions is as set as its
    most-set namesake.
    """
    s = _settings()
    defaults = _defaults()
    live = set(kept)
    grown = True
    while grown:
        grown = False
        for default in defaults:
            if default.key in live:
                continue
            values = s["attribute_values"] if default.is_method else s["name_values"]
            sources = list(s["keywords"][default.callee, default.param])
            if default.slot is not None:
                sources += s["slots"][default.callee, default.slot]
            if default.is_field:
                sources += s["keywords"]["replace", default.param]
                sources += [None] if default.param in s["stores"] else []
            if default.callee in values or default.callee in s["double"] \
                    or any(source is None or source in live for source in sources):
                live.add(default.key)
                grown = True
    return [default.key for default in defaults if default.key not in live]


def test_every_default_has_a_setter():
    unset = unset_defaults(KEPT)
    assert not unset, (
        "defaults that only the tests set -- make each a constant, or add it to "
        "KEPT with its reason:\n" + "\n".join(unset))
    stale = sorted(set(KEPT) - set(unset_defaults(())))
    assert not stale, "KEPT entries whose default is gone or now set:\n" + "\n".join(stale)
    assert all(reason.strip() for reason in KEPT.values())
