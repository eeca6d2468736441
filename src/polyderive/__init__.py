"""Exact-arithmetic toolkit for support systems and derived polygons.

A closed space polygon is *regular* when vectors u_1..u_n exist whose
consecutive cross products reproduce its edges; those vectors, read as points
from a common origin, form its *derived polygon*. This package decides
regularity from the corner determinants, constructs the support systems
(rational for even n, a square root times rational vectors for odd n), and
verifies the rigid geometry of the derivatives: planar zero-area quadrangles
and pentagons, and hexagons split across two parallel planes.
"""

from .derived import (
    DerivedPolygon,
    HexType,
    PlanarityReport,
    PlaneDecomposition,
    SecondDerivativeResult,
    derive,
    derived_deltas,
    hex_type,
    is_planar,
    planar_self_intersection,
    second_derivative_type,
    strongly_regular_check,
    two_plane_decomposition,
)
from .generators import (
    GenConfig,
    GenerationBudgetError,
    alternating_sign_hexagon,
    random_generic_polygon,
    random_regular_pentagon,
    regular_hexagon_via_lift,
)
from .oracle import (
    FloatValidation,
    alternating_product_identity,
    derived_relation_defects,
    float_cross_validate,
    row_sum_defect,
)
from .polygon import (
    GenericityReport,
    NonGenericPolygonError,
    Polygon,
    deltas,
    derivability_defect,
    edge_vectors,
    ensure_generic,
    is_generic,
    mirror,
)
from .regularity import (
    IrregularPolygonError,
    RegularityVerdict,
    SupportBasis,
    SupportCheck,
    SupportSystem,
    build_support_system,
    check_regularity,
    nested_cross_identity,
    support_basis,
    support_system,
    verify_support,
)
from .scalars import (
    QuadExt,
    RadicandMismatchError,
    Scalar,
    format_scalar,
    parse_rational,
    parse_scalar,
)
from .vectors import Vec3, area_vector, cross, dot, mixed

__version__ = "0.1.0"

__all__ = [
    "DerivedPolygon",
    "FloatValidation",
    "GenConfig",
    "GenerationBudgetError",
    "GenericityReport",
    "HexType",
    "IrregularPolygonError",
    "NonGenericPolygonError",
    "PlanarityReport",
    "PlaneDecomposition",
    "Polygon",
    "QuadExt",
    "RadicandMismatchError",
    "RegularityVerdict",
    "Scalar",
    "SecondDerivativeResult",
    "SupportBasis",
    "SupportCheck",
    "SupportSystem",
    "Vec3",
    "alternating_product_identity",
    "alternating_sign_hexagon",
    "area_vector",
    "build_support_system",
    "check_regularity",
    "cross",
    "deltas",
    "derivability_defect",
    "derive",
    "derived_deltas",
    "derived_relation_defects",
    "dot",
    "edge_vectors",
    "ensure_generic",
    "float_cross_validate",
    "format_scalar",
    "hex_type",
    "is_generic",
    "is_planar",
    "mirror",
    "mixed",
    "nested_cross_identity",
    "parse_rational",
    "parse_scalar",
    "planar_self_intersection",
    "random_generic_polygon",
    "random_regular_pentagon",
    "regular_hexagon_via_lift",
    "row_sum_defect",
    "second_derivative_type",
    "strongly_regular_check",
    "support_basis",
    "support_system",
    "two_plane_decomposition",
    "verify_support",
]
