"""Table 5: operator variants available for the key extension fields of BLS24-509."""

from __future__ import annotations

from repro.fields.variants import list_variants


#: The tower levels highlighted by the paper for BLS24-509 plus the G2 point ops.
_LEVELS = {
    "F_p6": 3,   # cubic step on top of F_p2
    "F_p12": 3,  # cubic step on top of F_p4 (BLS24 tower)
    "F_p24": 2,  # quadratic top step
}


def run(scale: str | None = None) -> dict:
    rows = []
    for group, step_degree in _LEVELS.items():
        for op in ("mul", "sqr"):
            names = [v.name for v in list_variants(op, step_degree)]
            rows.append({"group": group, "operation": op, "variants": names})
    # Transcribed from the paper's Table 5, not an inventory of this repo: the
    # point formulas here are Jacobian only (repro.curves.formulas).
    rows.append({"group": "G2", "operation": "PA/PD", "variants": ["jacobian", "projective"]})
    return {"experiment": "table5", "rows": rows}


def render(result: dict) -> str:
    lines = [f"{'Group':<8}{'Op':<8}Variants"]
    for row in result["rows"]:
        lines.append(f"{row['group']:<8}{row['operation']:<8}{', '.join(row['variants'])}")
    return "\n".join(lines)
