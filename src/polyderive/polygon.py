"""Closed space polygons: edge vectors, corner determinants, genericity, reflections.

A polygon is *generic* when no two consecutive edges are collinear and no
three consecutive edges are coplanar; equivalently, all corner determinants
are nonzero. Everything downstream (support systems, derived polygons)
assumes genericity, so violations are reported with the offending index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalars import Scalar, format_scalar
from .vectors import (
    ZERO_VEC,
    Vec3,
    _Form,
    _Value,
    _int_cross,
    _int_det,
    _int_difference,
    _integer_coordinates,
    _rational_vector,
    area_vector,
)


class NonGenericPolygonError(ValueError):
    """An operation required nonzero corner determinants and did not get them."""


class Polygon(_Value):
    """Closed polygon given by its cyclic vertex list (n >= 3)."""

    vertices: tuple[Vec3, ...]

    def __init__(self, vertices: Sequence[Vec3]) -> None:
        self._set("vertices", tuple(vertices))
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @classmethod
    def from_edges(cls, edges: Sequence[Vec3]) -> Polygon:
        """Rebuild vertices from the origin along edge vectors that sum to zero."""
        chain = tuple(edges)
        if len(chain) < 3:
            raise ValueError("a polygon needs at least three edges")
        points = [ZERO_VEC]
        for edge in chain:
            points.append(points[-1] + edge)
        total = points.pop()
        if not total.is_zero():
            residue = ", ".join(str(format_scalar(part)) for part in total)
            raise ValueError(f"edge vectors do not close up, residue ({residue})")
        return cls(tuple(points))


def edge_vectors(polygon: Polygon) -> tuple[Vec3, ...]:
    """Differences of consecutive vertices, cyclically; they sum to zero."""
    return tuple(map(_rational_vector, *_edges(_integer_coordinates(polygon.vertices))))


def _edges(points: _Form) -> _Form:
    """:func:`edge_vectors` in the int form."""
    ints, dens = points
    pairs = map(_int_difference, ints, dens, (*ints[1:], ints[0]), (*dens[1:], dens[0]))
    return tuple(zip(*pairs))


def deltas(edges: Sequence[Vec3]) -> tuple[Scalar, ...]:
    """Corner determinants: mixed(v_i, v_{i+1}, v_{i+2}) cyclically."""
    return _deltas(_integer_coordinates(tuple(edges)))


def _deltas(edges: _Form) -> tuple[Fraction, ...]:
    """:func:`deltas` of edges E_i / m_i in the int form.

    Each is ``Fraction(D_i, m_i m_{i+1} m_{i+2})`` for the integer
    determinant D_i of E_i, E_{i+1}, E_{i+2}.
    """
    ints, dens = edges
    count = len(ints)
    if count < 3:
        raise ValueError("corner determinants need at least three edges")
    result = []
    for i in range(count):
        j, k = (i + 1) % count, (i + 2) % count
        result.append(Fraction(_int_det(ints[i], ints[j], ints[k]), dens[i] * dens[j] * dens[k]))
    return tuple(result)


class GenericityReport(_Value):
    """Outcome of the genericity scan; ``index`` is 1-based like all reports."""

    ok: bool
    index: int | None
    kind: str | None  # "collinear_pair" or "coplanar_triple"

    def __init__(self, ok: bool, index: int | None = None, kind: str | None = None) -> None:
        self._set("ok", ok)
        self._set("index", index)
        self._set("kind", kind)


def is_generic(edges: Sequence[Vec3]) -> GenericityReport:
    """Read genericity off the corner determinants, scanning pairs only if one is zero."""
    form = _integer_coordinates(tuple(edges))
    return _genericity(form, _deltas(form))


def _genericity(edges: _Form, values: Sequence[Fraction]) -> GenericityReport:
    """:func:`is_generic` of edges in the int form, with their determinants ``values``.

    A collinear pair zeroes both determinants containing it; it is reported first.
    """
    if all(values):
        return GenericityReport(True)
    ints = edges[0]
    count = len(ints)
    for i in range(count):
        if not any(_int_cross(ints[i], ints[(i + 1) % count])):
            return GenericityReport(False, i + 1, "collinear_pair")
    return GenericityReport(False, values.index(0) + 1, "coplanar_triple")


def ensure_generic(edges: Sequence[Vec3]) -> None:
    _require_generic(is_generic(edges))


def _require_generic(report: GenericityReport) -> None:
    """Raise :class:`NonGenericPolygonError` naming the edge where ``report`` failed."""
    if not report.ok:
        labels = {
            "collinear_pair": "consecutive edges are collinear",
            "coplanar_triple": "consecutive edge triple is coplanar",
        }
        raise NonGenericPolygonError(
            f"polygon is not generic at edge {report.index}: {labels[report.kind]}"
        )


def _nonzero(values: Sequence[Scalar], what: str, tail: str = "") -> None:
    """Raise :class:`NonGenericPolygonError` at the first zero of ``values``, 1-based."""
    for i, value in enumerate(values):
        if not value:
            raise NonGenericPolygonError(f"{what} {i + 1} is zero{tail}")


def mirror(polygon: Polygon) -> Polygon:
    """Reflection across the xy-plane, (x, y, z) -> (x, y, -z).

    Every reflection flips the sign of each corner determinant; this one is
    fixed so outputs stay reproducible.
    """
    return Polygon(tuple(Vec3(v.x, v.y, -v.z) for v in polygon.vertices))


def derivability_defect(edges: Sequence[Vec3]) -> Vec3:
    """Obstruction for a closed edge list to be the derivative of some polygon.

    Defined as the sum of cross(v_i, v_j) over ordered pairs drawn from the
    first n-1 edges, it equals the area vector of the vertices rebuilt from
    the edges from any base point, and is computed that way in O(n). A zero
    value is exactly the condition that some support origin exists; the value
    does not depend on which edge is labeled last, although the pair formula
    appears to single it out.
    """
    try:
        polygon = Polygon.from_edges(edges)
    except ValueError as exc:
        raise ValueError(
            f"derivability defect is defined for closed edge lists only: {exc}"
        ) from exc
    return area_vector(polygon.vertices)
