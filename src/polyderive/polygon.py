"""Closed space polygons: edge vectors, corner determinants, genericity, reflections.

A polygon is *generic* when no two consecutive edges are collinear and no
three consecutive edges are coplanar; equivalently, all corner determinants
are nonzero. Everything downstream (support systems, derived polygons)
assumes genericity, so violations are reported with the offending index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .scalars import Scalar, format_scalar
from .vectors import ZERO_VEC, Vec3, area_vector, cross, mixed


class NonGenericPolygonError(ValueError):
    """An operation required nonzero corner determinants and did not get them."""


@dataclass(frozen=True)
class Polygon:
    """Closed polygon given by its cyclic vertex list (n >= 3)."""

    vertices: tuple[Vec3, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
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
        total = ZERO_VEC
        for edge in chain:
            total = total + edge
        if not total.is_zero():
            residue = ", ".join(str(format_scalar(part)) for part in total)
            raise ValueError(f"edge vectors do not close up, residue ({residue})")
        points = [ZERO_VEC]
        for edge in chain[:-1]:
            points.append(points[-1] + edge)
        return cls(tuple(points))


def edge_vectors(polygon: Polygon) -> tuple[Vec3, ...]:
    """Differences of consecutive vertices, cyclically; they sum to zero."""
    points = polygon.vertices
    count = len(points)
    return tuple(points[(i + 1) % count] - points[i] for i in range(count))


def deltas(edges: Sequence[Vec3]) -> tuple[Scalar, ...]:
    """Corner determinants: mixed(v_i, v_{i+1}, v_{i+2}) cyclically."""
    chain = tuple(edges)
    count = len(chain)
    if count < 3:
        raise ValueError("corner determinants need at least three edges")
    return tuple(
        mixed(chain[i], chain[(i + 1) % count], chain[(i + 2) % count])
        for i in range(count)
    )


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of the genericity scan; ``index`` is 1-based like all reports."""

    ok: bool
    index: int | None = None
    kind: str | None = None  # "collinear_pair" or "coplanar_triple"


def is_generic(edges: Sequence[Vec3]) -> GenericityReport:
    """Read genericity off the corner determinants, scanning pairs only if one is zero.

    A collinear pair zeroes both determinants containing it; it is reported first.
    """
    chain = tuple(edges)
    values = deltas(chain)
    if all(values):
        return GenericityReport(True)
    count = len(chain)
    for i in range(count):
        if cross(chain[i], chain[(i + 1) % count]).is_zero():
            return GenericityReport(False, i + 1, "collinear_pair")
    return GenericityReport(False, values.index(0) + 1, "coplanar_triple")


def ensure_generic(edges: Sequence[Vec3]) -> None:
    report = is_generic(edges)
    if not report.ok:
        labels = {
            "collinear_pair": "consecutive edges are collinear",
            "coplanar_triple": "consecutive edge triple is coplanar",
        }
        raise NonGenericPolygonError(
            f"polygon is not generic at edge {report.index}: {labels[report.kind]}"
        )


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
