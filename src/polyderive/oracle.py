"""Independent verification layer: identity checks and a float re-run.

The exact pipeline is cross-validated two ways. First, determinant
identities that hold unconditionally (or under closure alone) are evaluated
on arbitrary six-vector samples, independent of how support systems are
constructed. Second, whole analysis reports are re-derived in double
precision with numpy and every exact zero or equality claim is confirmed
within a relative tolerance; disagreement flags a pipeline bug, not a data
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .polygon import NonGenericPolygonError, deltas
from .scalars import Scalar
from .vectors import ZERO_VEC, Vec3, cross, mixed


@dataclass(frozen=True)
class SupportMatrix:
    """Rows are the consecutive cross products cross(u_{i-1}, u_i), cyclically.

    When the six vectors support a closed hexagon the rows are exactly its
    edge vectors, and they sum to zero.
    """

    rows: tuple[Vec3, Vec3, Vec3, Vec3, Vec3, Vec3]


def _six(vectors: Sequence[Vec3]) -> tuple[Vec3, ...]:
    chain = tuple(vectors)
    if len(chain) != 6:
        raise ValueError(f"expected six vectors, got {len(chain)}")
    return chain


def build_support_matrix(vectors: Sequence[Vec3]) -> SupportMatrix:
    """Matrix of consecutive cross products; no closure is required."""
    chain = _six(vectors)
    return SupportMatrix(tuple(cross(chain[i - 1], chain[i]) for i in range(6)))


def submatrix_delta(matrix: SupportMatrix, i: int, j: int, k: int) -> Scalar:
    """Determinant of rows i, j, k (1-based, strictly increasing).

    Consecutive row triples reproduce the cyclic corner determinants of the
    row list read as edges.
    """
    if not (1 <= i < j < k <= 6):
        raise ValueError(f"row indices must satisfy 1 <= i < j < k <= 6, got {(i, j, k)}")
    rows = matrix.rows
    return mixed(rows[i - 1], rows[j - 1], rows[k - 1])


def alternating_product_identity(vectors: Sequence[Vec3]) -> tuple[Scalar, Scalar]:
    """Odd- and even-position determinant products of the cross-product rows.

    The two products agree for any six vectors whatsoever, closed-up or not;
    both are returned so callers can assert the identity on random samples.
    A zero determinant means the sample was degenerate and should be redrawn.
    """
    rows = build_support_matrix(vectors).rows
    values = deltas(rows)
    for position, value in enumerate(values):
        if not value:
            raise NonGenericPolygonError(
                f"row determinant {position + 1} is zero; redraw the sample"
            )
    odd = math.prod(values[0::2], start=Fraction(1))
    even = math.prod(values[1::2], start=Fraction(1))
    return (odd, even)


def row_sum_defect(vectors: Sequence[Vec3]) -> Vec3:
    """Sum of the cross-product rows; zero iff the vectors support a closed hexagon."""
    total = ZERO_VEC
    for row in build_support_matrix(vectors).rows:
        total = total + row
    return total


def derived_relation_defects(vectors: Sequence[Vec3]) -> tuple[Scalar, Scalar]:
    """Two determinant combinations of the derived edges that vanish under closure.

    With d' the cyclic corner determinants of the derived edge list and
    D'_{ijk} the determinant of derived edges i, j, k, the pair is

        (d'_2 + d'_3 + D'_{235} + D'_{245},  2*d'_1 + D'_{124} + D'_{356})

    and both entries are zero whenever the six input vectors support a
    closed hexagon. Genericity of the derived edges is required.
    """
    chain = _six(vectors)
    if not row_sum_defect(chain).is_zero():
        raise ValueError("the six vectors do not support a closed hexagon")
    edges = tuple(chain[(i + 1) % 6] - chain[i] for i in range(6))
    values = deltas(edges)
    for position, value in enumerate(values):
        if not value:
            raise NonGenericPolygonError(
                f"derived corner determinant {position + 1} is zero"
            )

    def sub(i: int, j: int, k: int) -> Scalar:
        return mixed(edges[i - 1], edges[j - 1], edges[k - 1])

    first = values[1] + values[2] + sub(2, 3, 5) + sub(2, 4, 5)
    second = 2 * values[0] + sub(1, 2, 4) + sub(3, 5, 6)
    return (first, second)


@dataclass(frozen=True)
class FloatMismatch:
    field: str
    detail: str


@dataclass(frozen=True)
class FloatValidation:
    ok: bool
    checks: int
    mismatches: tuple[FloatMismatch, ...]


def _as_float(obj: object) -> float:
    if isinstance(obj, dict):
        return float(Fraction(obj["a"])) + float(Fraction(obj["b"])) * math.sqrt(
            float(Fraction(obj["d"]))
        )
    if isinstance(obj, str):
        return float(Fraction(obj))
    if isinstance(obj, (int, float)):
        return float(obj)
    raise TypeError(f"cannot convert {obj!r} to float")


def _float_rows(rows: Sequence[Sequence[object]]) -> np.ndarray:
    return np.array([[_as_float(entry) for entry in row] for row in rows], dtype=float)


def _float_deltas(edges: np.ndarray) -> np.ndarray:
    n = len(edges)
    return np.array(
        [
            np.linalg.det(np.stack([edges[i], edges[(i + 1) % n], edges[(i + 2) % n]]))
            for i in range(n)
        ]
    )


class _Recorder:
    def __init__(self, tolerance: float) -> None:
        self.tolerance = tolerance
        self.checks = 0
        self.mismatches: list[FloatMismatch] = []

    def _in_range(self, field: str, *values: float) -> bool:
        """Count one check; a non-finite value fails it as out of float range."""
        self.checks += 1
        if all(math.isfinite(value) for value in values):
            return True
        listed = ", ".join(repr(float(value)) for value in values)
        self.mismatches.append(FloatMismatch(field, f"out of float range: {listed}"))
        return False

    def close(self, field: str, exact: float, approx: float, scale: float = 1.0) -> None:
        bound = self.tolerance * max(1.0, scale, abs(exact), abs(approx))
        if self._in_range(field, exact, approx, scale) and abs(exact - approx) > bound:
            self.mismatches.append(
                FloatMismatch(field, f"exact {exact!r} vs float {approx!r}")
            )

    def small(self, field: str, value: float, scale: float) -> None:
        if self._in_range(field, value, scale) and abs(value) > self.tolerance * max(1.0, scale):
            self.mismatches.append(
                FloatMismatch(field, f"expected ~0, float path gives {value!r}")
            )


def _validate_polygon_block(
    rec: _Recorder, prefix: str, block: dict, verts: np.ndarray
) -> None:
    """Check the planarity / area / determinant claims of one analysis block."""
    n = len(verts)
    coord_scale = max(1.0, float(np.max(np.abs(verts))))
    edges = np.roll(verts, -1, axis=0) - verts

    if block.get("vertices") is not None:
        exact = _float_rows(block["vertices"])
        scale = max(coord_scale, float(np.max(np.abs(exact))))
        for i in range(n):
            for axis in range(3):
                rec.close(
                    f"{prefix}.vertices[{i + 1}][{axis}]",
                    exact[i][axis],
                    verts[i][axis],
                    scale,
                )

    planarity = block.get("planarity")
    if planarity and planarity.get("planar") and n >= 4:
        span_a = verts[1] - verts[0]
        span_b = verts[2] - verts[0]
        for k in range(3, n):
            residual = float(
                np.linalg.det(np.stack([span_a, span_b, verts[k] - verts[0]]))
            )
            rec.small(f"{prefix}.planarity[{k + 1}]", residual, coord_scale**3)

    if block.get("area_vector") is not None:
        area = np.zeros(3)
        for i in range(n):
            area += np.cross(verts[i], verts[(i + 1) % n])
        exact_area = np.array([_as_float(c) for c in block["area_vector"]])
        for axis in range(3):
            rec.close(
                f"{prefix}.area_vector[{axis}]",
                exact_area[axis],
                float(area[axis]),
                coord_scale**2,
            )

    if block.get("derivability_defect") is not None:
        defect = np.zeros(3)
        for i in range(n - 1):
            for j in range(i + 1, n - 1):
                defect += np.cross(edges[i], edges[j])
        exact_defect = np.array([_as_float(c) for c in block["derivability_defect"]])
        for axis in range(3):
            rec.close(
                f"{prefix}.derivability_defect[{axis}]",
                exact_defect[axis],
                float(defect[axis]),
                coord_scale**2,
            )

    fderived = _float_deltas(edges)
    delta_scale = max(1.0, float(np.max(np.abs(fderived))))
    key = "derived_deltas" if "derived_deltas" in block else "deltas"
    if block.get(key) is not None:
        exact_deltas = [_as_float(value) for value in block[key]]
        for i, value in enumerate(exact_deltas):
            rec.close(f"{prefix}.{key}[{i + 1}]", value, float(fderived[i]), delta_scale)

    if block.get("strongly_regular") and n == 6:
        for i in range(3):
            rec.small(
                f"{prefix}.strongly_regular[{i + 1}]",
                float(fderived[i] - fderived[i + 3]),
                delta_scale,
            )

    two_plane = block.get("two_plane")
    if isinstance(two_plane, dict) and "error" not in two_plane and n == 6:
        normal = np.cross(verts[2] - verts[0], verts[4] - verts[0])
        offsets = [float(np.dot(verts[k] - verts[0], normal)) for k in (1, 3, 5)]
        offset_scale = max(1.0, coord_scale**3)
        exact_offsets = [_as_float(value) for value in two_plane["even_offsets"]]
        for i in range(3):
            rec.close(
                f"{prefix}.two_plane.even_offsets[{i + 1}]",
                exact_offsets[i],
                offsets[i],
                offset_scale,
            )
        if two_plane.get("offsets_equal"):
            rec.small(
                f"{prefix}.two_plane.offsets[1-2]", offsets[0] - offsets[1], offset_scale
            )
            rec.small(
                f"{prefix}.two_plane.offsets[2-3]", offsets[1] - offsets[2], offset_scale
            )
        norm_sq = float(np.dot(normal, normal))
        flat = [
            verts[0],
            verts[1] - (offsets[0] / norm_sq) * normal,
            verts[2],
            verts[3] - (offsets[1] / norm_sq) * normal,
            verts[4],
            verts[5] - (offsets[2] / norm_sq) * normal,
        ]
        area = np.zeros(3)
        for i in range(6):
            area += np.cross(flat[i], flat[(i + 1) % 6])
        exact_area = [_as_float(value) for value in two_plane["projected_area_vector"]]
        for axis in range(3):
            rec.close(
                f"{prefix}.two_plane.projected_area_vector[{axis}]",
                exact_area[axis],
                float(area[axis]),
                coord_scale**2,
            )


@np.errstate(all="ignore")
def float_cross_validate(report: dict, tolerance: float = 1e-9) -> FloatValidation:
    """Re-run a report's pipeline in double precision and confirm its claims.

    Every exact zero or equality asserted by the report must reappear within
    ``tolerance``, taken relative to the magnitude of the largest value
    involved; coordinate growth through determinant products makes an
    absolute tolerance meaningless. Returns diagnostics naming each
    disagreeing field rather than raising; a value beyond double range,
    exact or re-run, is an "out of float range" mismatch.
    """
    rec = _Recorder(tolerance)
    try:
        _rerun(rec, report)
    except (OverflowError, ZeroDivisionError) as exc:
        rec.mismatches.append(FloatMismatch("float_rerun", f"out of float range: {exc}"))
    return FloatValidation(not rec.mismatches, rec.checks, tuple(rec.mismatches))


def _rerun(rec: _Recorder, report: dict) -> None:
    verts = _float_rows(report["input_summary"]["vertices"])
    n = len(verts)
    edges = np.roll(verts, -1, axis=0) - verts
    fdeltas = _float_deltas(edges)
    delta_scale = max(1.0, float(np.max(np.abs(fdeltas))))

    if report.get("deltas") is not None:
        exact_deltas = [_as_float(value) for value in report["deltas"]]
        for i, value in enumerate(exact_deltas):
            rec.close(f"deltas[{i + 1}]", value, float(fdeltas[i]), delta_scale)

    verdict = report.get("verdict")
    if verdict is not None:
        odd = float(np.prod(fdeltas[0::2]))
        even = float(np.prod(fdeltas[1::2]))
        product_scale = max(1.0, abs(odd), abs(even))
        rec.close("verdict.odd_product", _as_float(verdict["odd_product"]), odd, product_scale)
        rec.close("verdict.even_product", _as_float(verdict["even_product"]), even, product_scale)
        if verdict["parity"] == "even" and verdict["regular"]:
            rec.small("verdict.evidence", odd - even, product_scale)
        if verdict.get("alpha_squared") is not None:
            rec.close(
                "verdict.alpha_squared",
                _as_float(verdict["alpha_squared"]),
                odd / even,
            )

    system = report.get("support_system")
    system_verts: np.ndarray | None = None
    if system is not None:
        coefficients = [1.0]
        for k in range(n - 1):
            coefficients.append(1.0 / (coefficients[k] * float(fdeltas[k])))
        chain = np.array(
            [
                coefficients[k] * np.cross(edges[k], edges[(k + 1) % n])
                for k in range(n)
            ]
        )
        alpha = _as_float(system["alpha"])
        factors = np.array(
            [alpha if (k + 1) % 2 == 0 else 1.0 / alpha for k in range(n)]
        )
        system_verts = chain * factors[:, None]
        exact_vectors = _float_rows(system["vectors"])
        scale = max(
            1.0,
            float(np.max(np.abs(system_verts))),
            float(np.max(np.abs(exact_vectors))),
        )
        for i in range(n):
            for axis in range(3):
                rec.close(
                    f"support_system.vectors[{i + 1}][{axis}]",
                    exact_vectors[i][axis],
                    float(system_verts[i][axis]),
                    scale,
                )

    derived_block = report.get("derived_analysis")
    if derived_block is not None and system_verts is not None:
        _validate_polygon_block(rec, "derived_analysis", derived_block, system_verts)

    if "planarity" in report or "area_vector" in report:
        _validate_polygon_block(rec, "analysis", report, verts)
