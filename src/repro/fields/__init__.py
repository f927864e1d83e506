"""Finite-field operator kit: F_p, extension towers, Frobenius and operator variants."""

from repro.fields.backends import (
    BACKEND_ENV,
    active_fp_backend,
    available_backends,
    gmpy2_available,
    resolve_backend,
)
from repro.fields.fp import PrimeField, FpElement
from repro.fields.extension import ExtensionField, ExtElement
from repro.fields.tower import (
    PairingTower,
    build_extension,
    build_pairing_tower,
    find_quadratic_nonresidue,
    is_square,
    is_cube,
)
from repro.fields.variants import (
    Variant,
    VariantConfig,
    VariantCost,
    get_variant,
    list_variants,
    VARIANT_REGISTRY,
)
from repro.fields.cyclotomic import (
    CompressedElement,
    batch_inverse,
    compress,
    compressed_square,
    cyclotomic_square,
    decompress_batch,
    power_signed,
)

__all__ = [
    "BACKEND_ENV",
    "active_fp_backend",
    "available_backends",
    "gmpy2_available",
    "resolve_backend",
    "CompressedElement",
    "batch_inverse",
    "compress",
    "compressed_square",
    "cyclotomic_square",
    "decompress_batch",
    "power_signed",
    "PrimeField",
    "FpElement",
    "ExtensionField",
    "ExtElement",
    "PairingTower",
    "build_extension",
    "build_pairing_tower",
    "find_quadratic_nonresidue",
    "is_square",
    "is_cube",
    "Variant",
    "VariantConfig",
    "VariantCost",
    "get_variant",
    "list_variants",
    "VARIANT_REGISTRY",
]
