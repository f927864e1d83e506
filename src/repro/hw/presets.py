"""Named hardware configurations used throughout the paper's evaluation."""

from __future__ import annotations

from repro.hw.model import HardwareModel


def default_model(word_width: int = 256, name: str = "paper-default") -> HardwareModel:
    """The paper's reference model: Long = 38 cy, Short = 8 cy, 2R1W, single issue."""
    return HardwareModel(
        name=name,
        word_width=word_width,
        long_latency=38,
        short_latency=8,
        inv_latency=2 * word_width,
        issue_width=1,
        n_linear_units=1,
        n_banks=1,
        has_writeback_fifo=False,
    ).validate()


def paper_hw1(word_width: int = 256) -> HardwareModel:
    """HW1 of Table 7: no write-back FIFO."""
    return default_model(word_width, name="HW1")


def paper_hw2(word_width: int = 256) -> HardwareModel:
    """HW2 of Table 7: write-back FIFO alleviating write-back conflicts."""
    return default_model(word_width, name="HW2").with_fifo(True)


def figure10_models(word_width: int = 520) -> list:
    """The representative pipeline configurations of Figure 10 (BLS24-509 study)."""
    models = [
        HardwareModel(
            name="L38-S8-lin1", word_width=word_width, long_latency=38, short_latency=8,
            inv_latency=2 * word_width, issue_width=1, n_linear_units=1, n_banks=1,
        ).validate(),
        HardwareModel(
            name="L8-S2-lin1", word_width=word_width, long_latency=8, short_latency=2,
            inv_latency=2 * word_width, issue_width=1, n_linear_units=1, n_banks=1,
        ).validate(),
    ]
    for n_lin in (2, 4, 6):
        models.append(
            HardwareModel(
                name=f"L8-S2-lin{n_lin}", word_width=word_width, long_latency=8, short_latency=2,
                inv_latency=2 * word_width, issue_width=n_lin, n_linear_units=n_lin,
                n_banks=n_lin, has_writeback_fifo=True,
            ).validate()
        )
    return models
