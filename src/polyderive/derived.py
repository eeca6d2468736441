"""Derived polygons: construction and geometric structure.

The derived polygon of a regular polygon has the support vectors as vertices,
read from a common origin. Its geometry is rigid in small cases: derived
quadrangles are planar with zero oriented area and self-intersect, derived
pentagons are planar with zero oriented area, and derived hexagons split
across two parallel planes with half-turn-symmetric corner determinants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .polygon import NonGenericPolygonError, Polygon, deltas, edge_vectors
from .regularity import (
    SupportSystem,
    build_support_system,
    check_regularity,
    support_basis,
    support_system,
)
from .scalars import Scalar, _scaled_values
from .vectors import (
    Vec3,
    _int_cross,
    _int_difference,
    _integer_coordinates,
    area_vector,
    cross,
    dot,
    mixed,
    scaled,
)

PolygonLike = Union["DerivedPolygon", Polygon]


class CollinearAnchorError(ValueError):
    """Vertices 1, 3, 5 of a hexagon are collinear, so no anchor plane exists."""


class DegenerateQuadrangleError(ValueError):
    """All four vertices of a quadrangle are collinear, so it spans no plane."""


@dataclass(frozen=True)
class DerivedPolygon:
    """Polygon whose vertices are support vectors read as points from one origin.

    The vertices are ``scale * unscaled[k]``. A derivative keeps its support
    system's split: rational ``unscaled`` points and the scale alpha for odd
    n, scale one for even n. Planarity witnesses, zero patterns and ratios of
    determinants do not change under a nonzero scale, so the exact tests run
    on ``unscaled``.
    """

    unscaled: tuple[Vec3, ...]
    scale: Scalar = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "unscaled", tuple(self.unscaled))
        if len(self.unscaled) < 3:
            raise ValueError("a derived polygon needs at least three vertices")
        if len(self.unscaled) % 2 == 0 and self.scale != 1:
            raise ValueError("an even derived polygon has scale one")

    @property
    def n(self) -> int:
        return len(self.unscaled)

    @cached_property
    def vertices(self) -> tuple[Vec3, ...]:
        return scaled(self.unscaled, self.scale)

    @property
    def edges(self) -> tuple[Vec3, ...]:
        return scaled(self.unscaled_edges, self.scale)

    @property
    def unscaled_edges(self) -> tuple[Vec3, ...]:
        """Edges of the unscaled points; the edges are ``scale`` times these."""
        return edge_vectors(Polygon(self.unscaled))


def derive(system: SupportSystem) -> DerivedPolygon:
    """Read the support vectors as vertices of the derived polygon."""
    return DerivedPolygon(system.unscaled, system.scale)


@dataclass(frozen=True)
class PlanarityReport:
    """``witness`` is the 1-based index of the first vertex off the plane."""

    planar: bool
    witness: int | None = None


def is_planar(polygon: PolygonLike) -> PlanarityReport:
    """Exact coplanarity of the vertices against the plane of the first three.

    Triangles are trivially planar. A derived polygon is tested on its
    unscaled points, which are coplanar exactly when the vertices are, so the
    check runs over the rationals for either parity. It runs on the points'
    int triples: each offset from the first point is an int triple over a
    positive denominator, a scale that keeps every witness nonzero.
    """
    points = polygon.unscaled if isinstance(polygon, DerivedPolygon) else polygon.vertices
    if len(points) < 4:
        return PlanarityReport(True)
    ints, dens = _integer_coordinates(points)
    base, low = ints[0], dens[0]
    span_a, _ = _int_difference(base, low, ints[1], dens[1])
    span_b, _ = _int_difference(base, low, ints[2], dens[2])
    normal = _int_cross(span_a, span_b)
    for k in range(3, len(ints)):
        (x, y, z), _ = _int_difference(base, low, ints[k], dens[k])
        if normal[0] * x + normal[1] * y + normal[2] * z:
            return PlanarityReport(False, k + 1)
    return PlanarityReport(True)


def derived_deltas(polygon: DerivedPolygon) -> tuple[Scalar, ...]:
    """Corner determinants of the derived polygon's edge list.

    They are ``scale**3`` times those of the unscaled edges.
    """
    return tuple(_scaled_values(deltas(polygon.unscaled_edges), polygon.scale, 3))


def strongly_regular_check(delta_values: Sequence[Scalar]) -> bool:
    """Half-turn symmetry of a hexagon's determinants: d_i = d_{i+3} for i=1..3."""
    values = tuple(delta_values)
    if len(values) != 6:
        raise ValueError("the half-turn determinant check applies to hexagons only")
    for i, value in enumerate(values):
        if not value:
            raise NonGenericPolygonError(f"corner determinant {i + 1} is zero")
    return values[0] == values[3] and values[1] == values[4] and values[2] == values[5]


@dataclass(frozen=True)
class HexType:
    """Canonical representative of the cyclic ratio d_1 : d_2 : d_3.

    Among the three cyclic rotations of the triple, each scaled so its first
    entry is one, the lexicographically smallest is the representative, which
    makes equality of types decidable.
    """

    ratio: tuple[Fraction, Fraction, Fraction]


def hex_type(delta_values: Sequence[Scalar]) -> HexType:
    """Type of a strongly regular hexagon as a canonical ratio triple."""
    if not strongly_regular_check(delta_values):
        raise ValueError("hexagon determinants lack the half-turn symmetry")
    return _hex_type(delta_values)


def _hex_type(delta_values: Sequence[Scalar]) -> HexType:
    """:func:`hex_type` for determinants the caller has checked to be half-turn symmetric."""
    base = tuple(delta_values[:3])
    candidates = []
    for r in range(3):
        first, second, third = base[r], base[(r + 1) % 3], base[(r + 2) % 3]
        candidates.append((Fraction(1), second / first, third / first))
    return HexType(min(candidates, key=lambda t: (t[1], t[2])))


@dataclass(frozen=True)
class PlaneDecomposition:
    """Two-plane structure of a derived hexagon.

    ``normal`` spans the plane through vertices 1, 3, 5; offsets are
    un-normalized signed heights against it. ``projections`` are the images
    of the even vertices in that plane, and ``projected_area_vector`` is the
    area vector of the flattened hexagon, which vanishes for genuine derived
    hexagons.
    """

    normal: Vec3
    odd_offsets: tuple[Scalar, Scalar, Scalar]
    even_offsets: tuple[Scalar, Scalar, Scalar]
    projections: tuple[Vec3, Vec3, Vec3]
    projected_area_vector: Vec3

    @property
    def parallel(self) -> bool:
        return self.even_offsets[0] == self.even_offsets[1] == self.even_offsets[2]


def two_plane_decomposition(polygon: PolygonLike) -> PlaneDecomposition:
    """Split a hexagon across the plane of its odd vertices.

    For the derivative of a regular hexagon the even vertices share one
    parallel plane and the projected hexagon has zero oriented area; both
    facts are returned as data rather than asserted. A derived hexagon has
    scale one, so it is split on its unscaled points.
    """
    points = polygon.unscaled if isinstance(polygon, DerivedPolygon) else polygon.vertices
    if len(points) != 6:
        raise ValueError("the two-plane decomposition applies to hexagons only")
    anchor = points[0]
    normal = cross(points[2] - anchor, points[4] - anchor)
    if normal.is_zero():
        raise CollinearAnchorError("vertices 1, 3, 5 are collinear; no anchor plane exists")
    norm_sq = dot(normal, normal)

    def offset(point: Vec3) -> Scalar:
        return dot(point - anchor, normal)

    odd = (offset(points[0]), offset(points[2]), offset(points[4]))
    even = (offset(points[1]), offset(points[3]), offset(points[5]))
    projections = tuple(
        points[k] - (offset(points[k]) / norm_sq) * normal for k in (1, 3, 5)
    )
    flattened = [
        points[0],
        projections[0],
        points[2],
        projections[1],
        points[4],
        projections[2],
    ]
    return PlaneDecomposition(normal, odd, even, projections, area_vector(flattened))


@dataclass(frozen=True)
class SecondDerivativeResult:
    """Types and determinants of the first and second derivatives."""

    first_type: HexType
    second_type: HexType
    first_deltas: tuple[Scalar, ...]
    second_deltas: tuple[Scalar, ...]


def second_derivative_type(
    edges: Sequence[Vec3], alpha1: Fraction | int, alpha2: Fraction | int
) -> SecondDerivativeResult:
    """Derive a regular hexagon twice and report both types.

    The first derivative of a regular hexagon is strongly regular, hence
    itself regular, so the second derivative exists for any nonzero scale.
    A non-regular intermediate therefore signals a bug or a degenerate input
    and raises. The intermediate's determinants serve its type and the next chain.
    """
    first_edges = derive(build_support_system(edges, alpha=alpha1)).edges
    first_values = deltas(first_edges)
    first_type = hex_type(first_values)
    basis = support_basis(first_edges, first_values)
    second = derive(support_system(basis, check_regularity(first_values), alpha2))
    second_values = deltas(second.edges)
    second_type = hex_type(second_values)
    return SecondDerivativeResult(first_type, second_type, first_values, second_values)


def planar_self_intersection(polygon: PolygonLike) -> bool:
    """Proper crossing test for the opposite edge pairs of a planar quadrangle.

    Orientation signs are evaluated exactly inside the quadrangle's plane, so
    the answer is a combinatorial fact, not a tolerance call.
    """
    points = polygon.vertices
    if len(points) != 4:
        raise ValueError("the self-intersection test applies to quadrangles only")
    if not is_planar(polygon).planar:
        raise ValueError("the self-intersection test needs a planar quadrangle")
    return _self_intersecting(points)


def _self_intersecting(points: Sequence[Vec3]) -> bool:
    """:func:`planar_self_intersection` for a quadrangle the caller has checked to be planar."""
    normal = cross(points[1] - points[0], points[2] - points[0])
    if normal.is_zero():
        normal = cross(points[1] - points[0], points[3] - points[0])
    if normal.is_zero():
        raise DegenerateQuadrangleError("degenerate quadrangle: all vertices are collinear")

    def orient(p: Vec3, q: Vec3, r: Vec3) -> int:
        value = mixed(normal, q - p, r - p)
        return (value > 0) - (value < 0)

    def proper_cross(p: Vec3, q: Vec3, r: Vec3, s: Vec3) -> bool:
        o1, o2 = orient(p, q, r), orient(p, q, s)
        o3, o4 = orient(r, s, p), orient(r, s, q)
        return o1 * o2 < 0 and o3 * o4 < 0

    return proper_cross(points[0], points[1], points[2], points[3]) or proper_cross(
        points[1], points[2], points[3], points[0]
    )
