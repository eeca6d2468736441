"""Derived polygons: construction and geometric structure.

The derived polygon of a regular polygon has the support vectors as vertices,
read from a common origin. Its geometry is rigid in small cases: derived
quadrangles are planar with zero oriented area and self-intersect, derived
pentagons are planar with zero oriented area, and derived hexagons split
across two parallel planes with half-turn-symmetric corner determinants.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

from .polygon import Polygon, _deltas, _edges, _nonzero
from .regularity import SupportSystem, _support_basis, check_regularity, support_system
from .scalars import Scalar, _scaled_values
from .vectors import (
    Vec3,
    _Form,
    _Points,
    _Value,
    _area_vector,
    _cleared,
    _int_cross,
    _int_det,
    _int_difference,
    _integer_coordinates,
    _over_lcm,
    _rational_vector,
    scaled,
)

PolygonLike = Union["DerivedPolygon", Polygon]


class CollinearAnchorError(ValueError):
    """Vertices 1, 3, 5 of a hexagon are collinear, so no anchor plane exists."""


class DegenerateQuadrangleError(ValueError):
    """All four vertices of a quadrangle are collinear, so it spans no plane."""


class DerivedPolygon(_Points):
    """Polygon whose vertices are support vectors read as points from one origin.

    The vertices are ``scale * unscaled[k]``. A derivative keeps its support
    system's split: rational ``unscaled`` points and the scale alpha for odd
    n, scale one for even n. Planarity witnesses, zero patterns and ratios of
    determinants do not change under a nonzero scale, so the exact tests run
    on ``unscaled``. A derivative holds ``unscaled`` in its system's int form.
    """

    unscaled: tuple[Vec3, ...]
    scale: Scalar

    def __init__(self, unscaled: Sequence[Vec3], scale: Scalar = Fraction(1)) -> None:
        self._set("unscaled", tuple(unscaled))
        self._set("scale", scale)
        self._check()

    unscaled = cached_property(_Points._vectors)

    def _check(self) -> None:
        if self.n < 3:
            raise ValueError("a derived polygon needs at least three vertices")
        if self.n % 2 == 0 and self.scale != 1:
            raise ValueError("an even derived polygon has scale one")

    @cached_property
    def vertices(self) -> tuple[Vec3, ...]:
        return scaled(self.unscaled, self.scale)

    @property
    def edges(self) -> tuple[Vec3, ...]:
        return scaled(self.unscaled_edges, self.scale)

    @property
    def unscaled_edges(self) -> tuple[Vec3, ...]:
        """Edges of the unscaled points; the edges are ``scale`` times these."""
        return tuple(map(_rational_vector, *_edges(self._form)))


def derive(system: SupportSystem) -> DerivedPolygon:
    """Read the support vectors as vertices of the derived polygon."""
    return DerivedPolygon._of(system._form, system.scale)


class PlanarityReport(_Value):
    """``witness`` is the 1-based index of the first vertex off the plane."""

    planar: bool
    witness: int | None

    def __init__(self, planar: bool, witness: int | None = None) -> None:
        self._set("planar", planar)
        self._set("witness", witness)


def is_planar(polygon: PolygonLike) -> PlanarityReport:
    """Exact coplanarity of the vertices against the plane of the first three.

    Triangles are trivially planar. A derived polygon is tested on its
    unscaled points, which are coplanar exactly when the vertices are, so the
    check runs over the rationals for either parity, on int triples: each
    offset from the first point is an int triple over a positive
    denominator, a scale that keeps every witness nonzero. A derived polygon
    is read in its int form; the vertices of a :class:`Polygon` are cleared
    one at a time, up to the witness only.
    """
    if polygon.n < 4:
        return PlanarityReport(True)
    if isinstance(polygon, DerivedPolygon):
        pairs = zip(*polygon._form)
    else:
        cleared = map(_integer_coordinates, zip(polygon.vertices))
        pairs = ((ints[0], dens[0]) for ints, dens in cleared)
    (base, low), first, second = next(pairs), next(pairs), next(pairs)
    span_a, _ = _int_difference(base, low, *first)
    span_b, _ = _int_difference(base, low, *second)
    normal = _int_cross(span_a, span_b)
    for k, (point, den) in enumerate(pairs, 4):
        (x, y, z), _ = _int_difference(base, low, point, den)
        if normal[0] * x + normal[1] * y + normal[2] * z:
            return PlanarityReport(False, k)
    return PlanarityReport(True)


def derived_deltas(polygon: DerivedPolygon) -> tuple[Scalar, ...]:
    """Corner determinants of the derived polygon's edge list.

    They are ``scale**3`` times those of the unscaled edges.
    """
    values = _deltas(_edges(polygon._form))
    return tuple(_scaled_values(values, polygon.scale, 3))


def strongly_regular_check(delta_values: Sequence[Scalar]) -> bool:
    """Half-turn symmetry of a hexagon's determinants: d_i = d_{i+3} for i=1..3."""
    values = tuple(delta_values)
    if len(values) != 6:
        raise ValueError("the half-turn determinant check applies to hexagons only")
    _nonzero(values, "corner determinant")
    return values[0] == values[3] and values[1] == values[4] and values[2] == values[5]


class HexType(_Value):
    """Canonical representative of the cyclic ratio d_1 : d_2 : d_3.

    Among the three cyclic rotations of the triple, each scaled so its first
    entry is one, the lexicographically smallest is the representative, which
    makes equality of types decidable.
    """

    ratio: tuple[Fraction, Fraction, Fraction]

    def __init__(self, ratio: tuple[Fraction, Fraction, Fraction]) -> None:
        self._set("ratio", ratio)


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


class PlaneDecomposition(_Value):
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

    def __init__(
        self,
        normal: Vec3,
        odd_offsets: tuple[Scalar, Scalar, Scalar],
        even_offsets: tuple[Scalar, Scalar, Scalar],
        projections: tuple[Vec3, Vec3, Vec3],
        projected_area_vector: Vec3,
    ) -> None:
        self._set("normal", normal)
        self._set("odd_offsets", odd_offsets)
        self._set("even_offsets", even_offsets)
        self._set("projections", projections)
        self._set("projected_area_vector", projected_area_vector)

    @property
    def parallel(self) -> bool:
        return self.even_offsets[0] == self.even_offsets[1] == self.even_offsets[2]


def two_plane_decomposition(polygon: PolygonLike) -> PlaneDecomposition:
    """Split a hexagon across the plane of its odd vertices.

    For the derivative of a regular hexagon the even vertices share one
    parallel plane and the projected hexagon has zero oriented area; both
    facts are returned as data rather than asserted. A derived hexagon has
    scale one, so it is split on its unscaled points. The split runs on the
    int form of the points, and each returned component is reduced once.
    """
    points, dens = polygon._form
    if len(dens) != 6:
        raise ValueError("the two-plane decomposition applies to hexagons only")
    # Offsets A_k / E_k from vertex 1, the normal N / L, and heights H_k = A_k . N,
    # so that offset k is H_k / (E_k L) and |normal|^2 is |N|^2 / L^2.
    spans = [_int_difference(points[0], dens[0], p, d) for p, d in zip(points, dens)]
    (a, da), (b, db) = spans[2], spans[4]
    normal, low = _cleared(_int_cross(a, b), da * db, 1)
    if not any(normal):
        raise CollinearAnchorError("vertices 1, 3, 5 are collinear; no anchor plane exists")
    heights = [sum(map(operator.mul, span, normal)) for span, _ in spans]
    offsets = [Fraction(h, e * low) for h, (_, e) in zip(heights, spans)]
    norm = sum(map(operator.mul, normal, normal))
    # An even vertex less offset / |normal|^2 times normal: P/D - H N / (E |N|^2).
    flat = [
        _cleared([c * e * norm - d * h * n for c, n in zip(p, normal)], d * e * norm, 1)
        if k % 2 else (p, d)
        for k, (p, d, h, (_, e)) in enumerate(zip(points, dens, heights, spans))
    ]
    return PlaneDecomposition(
        _rational_vector(normal, low),
        tuple(offsets[0::2]),
        tuple(offsets[1::2]),
        tuple(_rational_vector(*flat[k]) for k in (1, 3, 5)),
        _rational_vector(*_area_vector(tuple(zip(*flat)))),
    )


class SecondDerivativeResult(_Value):
    """Types and determinants of the first and second derivatives."""

    first_type: HexType
    second_type: HexType
    first_deltas: tuple[Scalar, ...]
    second_deltas: tuple[Scalar, ...]

    def __init__(
        self,
        first_type: HexType,
        second_type: HexType,
        first_deltas: tuple[Scalar, ...],
        second_deltas: tuple[Scalar, ...],
    ) -> None:
        self._set("first_type", first_type)
        self._set("second_type", second_type)
        self._set("first_deltas", first_deltas)
        self._set("second_deltas", second_deltas)


def second_derivative_type(
    edges: Sequence[Vec3], alpha1: Fraction | int, alpha2: Fraction | int
) -> SecondDerivativeResult:
    """Derive a regular hexagon twice and report both types.

    The first derivative of a regular hexagon is strongly regular, hence
    itself regular, so the second derivative exists for any nonzero scale.
    A non-regular intermediate therefore signals a bug or a degenerate input
    and raises. The intermediate's determinants, on its edges (scale one),
    serve its type and the next chain.
    """
    form = _integer_coordinates(tuple(edges))
    return _second_derivative_type(form, _deltas(form), alpha1, alpha2)


def _second_derivative_type(
    edges: _Form, values: Sequence[Fraction], alpha1: Fraction | int, alpha2: Fraction | int
) -> SecondDerivativeResult:
    """:func:`second_derivative_type` of edges in the int form, with their determinants."""
    first = support_system(_support_basis(edges, values), check_regularity(values), alpha1)
    first_edges = _edges(first._form)
    first_values = _deltas(first_edges)
    first_type = hex_type(first_values)
    basis = _support_basis(first_edges, first_values)
    second = derive(support_system(basis, check_regularity(first_values), alpha2))
    second_values = derived_deltas(second)
    second_type = hex_type(second_values)
    return SecondDerivativeResult(first_type, second_type, first_values, second_values)


def planar_self_intersection(polygon: PolygonLike) -> bool:
    """Proper crossing test for the opposite edge pairs of a planar quadrangle.

    Orientation signs are evaluated exactly inside the quadrangle's plane, so
    the answer is a combinatorial fact, not a tolerance call.
    """
    if polygon.n != 4:
        raise ValueError("the self-intersection test applies to quadrangles only")
    if not is_planar(polygon).planar:
        raise ValueError("the self-intersection test needs a planar quadrangle")
    return _self_intersecting(polygon._form)


def _self_intersecting(points: _Form) -> bool:
    """:func:`planar_self_intersection` for a quadrangle in the int form the caller has
    checked to be planar; over one positive denominator, int triples keep every sign."""
    ints, _ = _over_lcm(points)
    span = [[tuple(b - a for a, b in zip(p, q)) for q in ints] for p in ints]  # q - p
    normal = _int_cross(span[0][1], span[0][2])
    if not any(normal):
        normal = _int_cross(span[0][1], span[0][3])
    if not any(normal):
        raise DegenerateQuadrangleError("degenerate quadrangle: all vertices are collinear")

    def orient(p: int, q: int, r: int) -> int:
        value = _int_det(normal, span[p][q], span[p][r])
        return (value > 0) - (value < 0)

    def proper_cross(p: int, q: int, r: int, s: int) -> bool:
        o1, o2 = orient(p, q, r), orient(p, q, s)
        o3, o4 = orient(r, s, p), orient(r, s, q)
        return o1 * o2 < 0 and o3 * o4 < 0

    return proper_cross(0, 1, 2, 3) or proper_cross(1, 2, 3, 0)
