"""IR interpreters: execute high-level or F_p-level modules on concrete data.

Used by the test-suite to prove that lowering and the optimisation passes are
semantics-preserving, and by the functional-simulation flow as the pre-assembly
oracle.
"""

from __future__ import annotations

from repro.errors import IRError, SimulationError
from repro.fields.tower import from_w_coeffs, w_coeffs


def interpret_low_level(module, p: int, inputs: dict) -> dict:
    """Execute an F_p-level module.

    ``inputs`` maps the attribute of each ``input`` instruction to an integer.
    Returns a dict mapping output attributes to integers.
    """
    values: list = []
    outputs: dict = {}
    for op, a, b, attr in zip(module.ops, module.a, module.b, module.attrs):
        x = values[a] if a >= 0 else None
        if op == "input":
            if attr not in inputs:
                raise SimulationError(f"missing input {attr!r}")
            value = inputs[attr] % p
        elif op == "const":
            value = attr % p
        elif op == "output":
            value = outputs[attr] = x
        elif op == "add":
            value = (x + values[b]) % p
        elif op == "sub":
            value = (x - values[b]) % p
        elif op == "neg":
            value = (-x) % p
        elif op == "dbl":
            value = (x * 2) % p
        elif op == "tpl":
            value = (x * 3) % p
        elif op == "muli":
            value = (x * attr) % p
        elif op == "mul":
            value = (x * values[b]) % p
        elif op == "sqr":
            value = (x * x) % p
        elif op == "inv":
            value = pow(x, -1, p)
        elif op in ("cvt", "icv"):
            value = x
        else:
            raise IRError(f"cannot interpret low-level op {op!r}")
        values.append(value)
    return outputs


def interpret_high_level(module, levels: dict, inputs: dict) -> dict:
    """Execute a high-level module on concrete field elements.

    ``inputs`` maps input attributes to concrete elements; outputs are returned
    as concrete elements keyed by output attribute.
    """
    values: list = []
    outputs: dict = {}

    def field_of(degree: int):
        try:
            return levels[degree]
        except KeyError as exc:
            raise IRError(f"no tower level of degree {degree}") from exc

    for vid, (op, a, b, attr) in enumerate(zip(module.ops, module.a, module.b, module.attrs)):
        x = values[a] if a >= 0 else None
        if op == "input":
            if attr not in inputs:
                raise SimulationError(f"missing input {attr!r}")
            value = inputs[attr]
        elif op == "const":
            value = attr
        elif op == "output":
            value = outputs[attr] = x
        elif op == "add":
            value = x + values[b]
        elif op == "sub":
            value = x - values[b]
        elif op == "neg":
            value = -x
        elif op == "muli":
            value = x.mul_small(attr)
        elif op == "mul":
            value = x * values[b]
        elif op == "sqr":
            value = x.square()
        elif op == "inv":
            value = x.inverse()
        elif op == "conj":
            value = x.conjugate()
        elif op == "frob":
            value = x.frobenius(attr)
        elif op == "exp":
            value = x ** attr
        elif op == "adj":
            value = x.mul_by_nonresidue()
        elif op == "pack":
            value = from_w_coeffs(field_of(module.degrees[vid]), [values[arg] for arg in attr])
        elif op == "ext":
            value = w_coeffs(x)[attr]
        else:
            raise IRError(f"cannot interpret high-level op {op!r}")
        values.append(value)
    return outputs
