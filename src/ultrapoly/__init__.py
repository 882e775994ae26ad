"""Exact non-Archimedean polyhedral expansions of finite ultrametric spaces.

The pipeline: ingest a finite ultrametric space (or make one from raw
dissimilarities via the subdominant closure), round its distances into
the value group {p^k} of a p-adic field, cover it by nested clopen
balls, span nerve complexes over the covers, assemble them into an
inverse system with non-stretching simplicial bonding maps, reconstruct
the space from threads of the system, and project everything through
the digit-reading quotient onto real interval shadows with the same
dimensions.  All arithmetic is exact: integers, fractions, and
exponent-encoded norms; no floats anywhere.

The public names load their submodule on first use (PEP 562), so a
command imports only the modules it runs.
"""

import importlib

_EXPORTS = {
    "padic": (
        "GAMMA_ZERO",
        "GammaValue",
        "NotPrimeError",
        "PAdic",
        "PrimeMismatchError",
        "round_to_gamma",
    ),
    "spaces": (
        "AsymmetricMatrixError",
        "BaireCodes",
        "C0Vector",
        "MatrixShapeError",
        "NegativeDistanceError",
        "NonzeroDiagonalError",
        "NotUltrametricError",
        "UltraSpace",
        "UnseparatedSpaceError",
        "baire_encode",
        "c0_embed",
        "quotient_zero",
        "round_space",
        "space_from_points",
        "subdominant_closure",
        "validate_ultrametric",
    ),
    "nerve": (
        "NerveComplex",
        "NestingError",
        "Realization",
        "ScaleCover",
        "ThresholdError",
        "build_nerve",
        "check_uniform",
        "cover_tower",
        "isolated_point_check",
        "nerve_to_dot",
        "realize",
        "scale_cover",
        "subdivide",
    ),
    "spectrum": (
        "BondingMap",
        "Expansion",
        "IncoherentThreadError",
        "Schedule",
        "ScheduleError",
        "SeparationError",
        "assemble_expansion",
        "bonding_map",
        "group_expansion",
        "limit_isometry_check",
        "residue_space",
        "verify_nondegenerate",
        "verify_nonstretching",
    ),
    "shadow": (
        "BoundaryPair",
        "shadow_bundle",
        "theta",
        "theta_boundary_pairs",
        "theta_nonstretch_check",
        "theta_table_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
