"""Closed space polygons: edge vectors, corner determinants, genericity, reflections.

A polygon is *generic* when no two consecutive edges are collinear and no
three consecutive edges are coplanar; equivalently, all corner determinants
are nonzero. Everything downstream (support systems, derived polygons)
assumes genericity, so violations are reported with the offending index.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .scalars import Scalar, format_scalar
from .vectors import (
    Vec3,
    _Form,
    _Points,
    _Value,
    _area_vector,
    _cleared_all,
    _int_cross,
    _int_det,
    _int_difference,
    _integer_coordinates,
    _over_lcm,
    _rational_vector,
)


class NonGenericPolygonError(ValueError):
    """An operation required nonzero corner determinants and did not get them."""


class Polygon(_Points):
    """Closed polygon given by its cyclic vertex list (n >= 3).

    The int forms of the vertices and edges and the corner determinants are
    computed once, on first read; a generator's draw holds all three, and
    builds ``vertices`` on first read instead.
    """

    vertices: tuple[Vec3, ...]

    def __init__(self, vertices: Sequence[Vec3]) -> None:
        self._set("vertices", tuple(vertices))
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")

    vertices = cached_property(_Points._vectors)

    @cached_property
    def _edge_form(self) -> _Form:
        return _edges(self._form)

    @cached_property
    def _determinants(self) -> tuple[Fraction, ...]:
        return _deltas(self._edge_form)

    @classmethod
    def from_edges(cls, edges: Sequence[Vec3]) -> Polygon:
        """Rebuild vertices from the origin along edge vectors that sum to zero."""
        chain = tuple(edges)
        if len(chain) < 3:
            raise ValueError("a polygon needs at least three edges")
        return cls._of(_closed_path(*_over_lcm(_integer_coordinates(chain))))


def _closed_path(edges: Sequence[tuple[int, int, int]], den: int) -> _Form:
    """The int form of the vertices from the origin along edges ``E_k / den`` that sum to zero."""
    points = [(0, 0, 0)]
    for x, y, z in edges:
        points.append((points[-1][0] + x, points[-1][1] + y, points[-1][2] + z))
    total = points.pop()
    if any(total):
        residue = ", ".join(format_scalar(Fraction(part, den)) for part in total)
        raise ValueError(f"edge vectors do not close up, residue ({residue})")
    return _cleared_all(points, den)


def edge_vectors(polygon: Polygon) -> tuple[Vec3, ...]:
    """Differences of consecutive vertices, cyclically; they sum to zero."""
    return tuple(map(_rational_vector, *polygon._edge_form))


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
    fixed so outputs stay reproducible. It negates z in the int form, and a
    draw's determinants in sign.
    """
    points, dens = polygon._form
    flipped = Polygon._of((tuple((x, y, -z) for x, y, z in points), dens))
    if "_determinants" in polygon.__dict__:
        flipped._set("_determinants", tuple(-value for value in polygon._determinants))
    return flipped


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
    return _rational_vector(*_area_vector(polygon._form))
