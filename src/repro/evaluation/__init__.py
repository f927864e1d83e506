"""Evaluation harness: one module per table/figure of the paper."""

from repro.evaluation import (  # noqa: F401
    batch_verify,
    pareto_sweep,
    table2,
    table3,
    table5,
    table6,
    table7,
    fig2,
    fig6,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
)

__all__ = [
    "batch_verify",
    "pareto_sweep",
    "table2",
    "table3",
    "table5",
    "table6",
    "table7",
    "fig2",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
]
