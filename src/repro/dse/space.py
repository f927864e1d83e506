"""Design-space definition: operator-variant combinations x hardware models."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from repro.fields.variants import VariantConfig
from repro.hw.model import HardwareModel


@dataclass(frozen=True)
class DesignPoint:
    """One point of the co-design space."""

    variant_config: VariantConfig
    hw: HardwareModel
    label: str = ""

    @property
    def display_label(self) -> str:
        return self.label or f"{self.variant_config.name}/{self.hw.name}"

    def describe(self) -> dict:
        return {
            "label": self.display_label,
            "variants": self.variant_config.name,
            "hw": self.hw.name,
        }


def named_variant_configs() -> dict:
    """The named combinations used throughout the evaluation (Figure 10 legend)."""
    return {
        "manual": VariantConfig.manual(),
        "all-schoolbook": VariantConfig.all_schoolbook(),
        "all-karatsuba": VariantConfig.all_karatsuba(),
    }


def figure2_variant_configs(k: int = 24) -> dict:
    """Per-level Karatsuba ablations of Figure 2 (curve BLS24-509).

    ``karat-wo-pN`` keeps Karatsuba/fast-squaring everywhere except at the
    F_p^N tower level, where the schoolbook variants are used instead.
    """
    levels = [2, 4, 6, 12, 24] if k == 24 else [2, 6, 12]
    configs = {"all-karatsuba": VariantConfig.all_karatsuba()}
    for degree in levels:
        config = VariantConfig.all_karatsuba()
        config = config.with_override("mul", degree, "schoolbook")
        config = config.with_override("sqr", degree, "schoolbook")
        config.name = f"karat-wo-p{degree}"
        configs[config.name] = config
    configs["manual"] = VariantConfig.manual()
    return configs


def variant_combinations(degrees: tuple = (2, 4, 6, 12, 24)) -> list:
    """Exhaustive enumeration of Karatsuba/schoolbook choices per tower level.

    A schoolbook level uses schoolbook for both its multiplication and its
    squaring.  This spans the operator-variant axis of the paper's DSE; the
    cross product with a list of hardware models gives the full space explored
    in Figure 10.
    """
    choices = ("karatsuba", "schoolbook")
    configs = []
    for combo in product(choices, repeat=len(degrees)):
        config = VariantConfig.all_karatsuba()
        for degree, choice in zip(degrees, combo):
            if choice == "schoolbook":
                config = config.with_override("mul", degree, "schoolbook")
                config = config.with_override("sqr", degree, "schoolbook")
        config.name = "+".join(
            f"p{degree}:{choice[0]}" for degree, choice in zip(degrees, combo)
        )
        configs.append(config)
    return configs


def design_points(variant_configs, hw_models) -> list:
    """Cross product of variant configurations and hardware models."""
    points = []
    for config in variant_configs:
        for hw in hw_models:
            points.append(DesignPoint(variant_config=config, hw=hw,
                                      label=f"{config.name}/{hw.name}"))
    return points
