"""Exact-arithmetic toolkit for support systems and derived polygons.

A closed space polygon is *regular* when vectors u_1..u_n exist whose
consecutive cross products reproduce its edges; those vectors, read as points
from a common origin, form its *derived polygon*. This package decides
regularity from the corner determinants, constructs the support systems
(rational for even n, a square root times rational vectors for odd n), and
verifies the rigid geometry of the derivatives: planar zero-area quadrangles
and pentagons, and hexagons split across two parallel planes.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it. A name is imported from its
# module on first access (PEP 562), so ``import polyderive`` loads no module
# and the CLI loads only those its command runs.
_EXPORTS = {
    "derived": (
        "DerivedPolygon",
        "HexType",
        "PlanarityReport",
        "PlaneDecomposition",
        "SecondDerivativeResult",
        "derive",
        "derived_deltas",
        "hex_type",
        "is_planar",
        "planar_self_intersection",
        "second_derivative_type",
        "strongly_regular_check",
        "two_plane_decomposition",
    ),
    "generators": (
        "GenConfig",
        "GenerationBudgetError",
        "alternating_sign_hexagon",
        "random_generic_polygon",
        "random_regular_pentagon",
        "regular_hexagon_via_lift",
    ),
    "oracle": (
        "FloatValidation",
        "alternating_product_identity",
        "derived_relation_defects",
        "float_cross_validate",
        "row_sum_defect",
    ),
    "polygon": (
        "GenericityReport",
        "NonGenericPolygonError",
        "Polygon",
        "deltas",
        "derivability_defect",
        "edge_vectors",
        "ensure_generic",
        "is_generic",
        "mirror",
    ),
    "regularity": (
        "IrregularPolygonError",
        "RegularityVerdict",
        "SupportBasis",
        "SupportCheck",
        "SupportSystem",
        "build_support_system",
        "check_regularity",
        "nested_cross_identity",
        "support_basis",
        "support_system",
        "verify_support",
    ),
    "scalars": (
        "QuadExt",
        "RadicandMismatchError",
        "Scalar",
        "format_scalar",
        "parse_rational",
        "parse_scalar",
    ),
    "vectors": ("Vec3", "area_vector", "cross", "dot", "mixed"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    """Import a public name from its module on first access and keep it here."""
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
