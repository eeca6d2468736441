"""Independent verification layer: identity checks and a float re-run.

The exact pipeline is cross-validated two ways. First, determinant
identities that hold unconditionally (or under closure alone) are evaluated
on arbitrary six-vector samples, independent of how support systems are
constructed. Second, whole analysis reports are re-derived in double
precision, on plain Python floats kept apart from the exact vector code,
and every exact zero or equality claim is confirmed within a relative
tolerance; disagreement flags a pipeline bug, not a data error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .polygon import _nonzero, deltas
from .scalars import Scalar, _ratio
from .vectors import ZERO_VEC, Vec3, _Value, cross, mixed


class OpenSupportError(ValueError):
    """The six vectors do not support a closed hexagon: their row sum is not zero."""


def _six(vectors: Sequence[Vec3]) -> tuple[Vec3, ...]:
    chain = tuple(vectors)
    if len(chain) != 6:
        raise ValueError(f"expected six vectors, got {len(chain)}")
    return chain


def _rows(vectors: Sequence[Vec3]) -> tuple[Vec3, ...]:
    """The consecutive cross products cross(u_{i-1}, u_i) of six vectors, cyclically.

    When the vectors support a closed hexagon the rows are exactly its edge
    vectors, and they sum to zero.
    """
    chain = _six(vectors)
    return tuple(cross(chain[i - 1], chain[i]) for i in range(6))


def alternating_product_identity(vectors: Sequence[Vec3]) -> tuple[Scalar, Scalar]:
    """Odd- and even-position determinant products of the cross-product rows.

    The two products agree for any six vectors whatsoever, closed-up or not;
    both are returned so callers can assert the identity on random samples.
    A zero determinant means the sample was degenerate and should be redrawn.
    """
    values = deltas(_rows(vectors))
    _nonzero(values, "row determinant", "; redraw the sample")
    odd = math.prod(values[0::2], start=Fraction(1))
    even = math.prod(values[1::2], start=Fraction(1))
    return (odd, even)


def row_sum_defect(vectors: Sequence[Vec3]) -> Vec3:
    """Sum of the cross-product rows; zero iff the vectors support a closed hexagon."""
    total = ZERO_VEC
    for row in _rows(vectors):
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
        raise OpenSupportError("the six vectors do not support a closed hexagon")
    edges = tuple(chain[(i + 1) % 6] - chain[i] for i in range(6))
    values = deltas(edges)
    _nonzero(values, "derived corner determinant")

    def sub(i: int, j: int, k: int) -> Scalar:
        return mixed(edges[i - 1], edges[j - 1], edges[k - 1])

    first = values[1] + values[2] + sub(2, 3, 5) + sub(2, 4, 5)
    second = 2 * values[0] + sub(1, 2, 4) + sub(3, 5, 6)
    return (first, second)


# Relative tolerance of every comparison in the float re-run.
FLOAT_TOLERANCE = 1e-9

Floats = tuple[float, float, float]


class FloatMismatch(_Value):
    field: str
    detail: str

    def __init__(self, field: str, detail: str) -> None:
        self._set("field", field)
        self._set("detail", detail)


class FloatValidation(_Value):
    ok: bool
    checks: int
    mismatches: tuple[FloatMismatch, ...]

    def __init__(self, ok: bool, checks: int, mismatches: tuple[FloatMismatch, ...]) -> None:
        self._set("ok", ok)
        self._set("checks", checks)
        self._set("mismatches", mismatches)


def _as_float(obj: object) -> float:
    if isinstance(obj, dict):
        return _rational_float(obj["a"]) + _rational_float(obj["b"]) * math.sqrt(
            _rational_float(obj["d"])
        )
    if isinstance(obj, str):
        return _rational_float(obj)
    if isinstance(obj, (int, float)):
        return float(obj)
    raise TypeError(f"cannot convert {obj!r} to float")


def _rational_float(value: object) -> float:
    """``float(Fraction(value))``, bit for bit, with no ``Fraction`` for a plain ``"p/q"``.

    Int true division is correctly rounded, and it is what
    ``Fraction.__float__`` runs on the reduced pair, so ``p / q`` gives the
    same float and, past double range, the same ``OverflowError``.
    """
    ratio = _ratio(value) if type(value) is str else None
    if ratio is None:
        return float(Fraction(value))
    return ratio[0] / ratio[1]


def _float_rows(rows: Sequence[Sequence[object]]) -> list[Floats]:
    return [tuple(_as_float(entry) for entry in row) for row in rows]


def _magnitude(values: Iterable[float]) -> float:
    """The largest absolute value, at least 1."""
    return max([1.0, *map(abs, values)])


def _sub(a: Floats, b: Floats) -> Floats:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _scale(factor: float, a: Floats) -> Floats:
    return (factor * a[0], factor * a[1], factor * a[2])


def _dot(a: Floats, b: Floats) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: Floats, b: Floats) -> Floats:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _sum(vectors: Iterable[Floats]) -> Floats:
    x = y = z = 0.0
    for a, b, c in vectors:
        x, y, z = x + a, y + b, z + c
    return (x, y, z)


def _area(points: Sequence[Floats]) -> Floats:
    """Un-halved area vector: the sum of cross(p_i, p_(i+1)), cyclically."""
    n = len(points)
    return _sum(_cross(points[i], points[(i + 1) % n]) for i in range(n))


def _det(a: Floats, b: Floats, c: Floats) -> tuple[float, float]:
    """The determinant of rows a, b, c and the sum of its six terms' absolute values.

    The rounding error of the determinant grows with that sum, which can be
    far larger than the determinant when the terms cancel.
    """
    terms = abs(a[0]) * (abs(b[1] * c[2]) + abs(b[2] * c[1]))
    terms += abs(a[1]) * (abs(b[2] * c[0]) + abs(b[0] * c[2]))
    terms += abs(a[2]) * (abs(b[0] * c[1]) + abs(b[1] * c[0]))
    return _dot(a, _cross(b, c)), terms


def _corner_dets(edges: Sequence[Floats]) -> list[tuple[float, float]]:
    n = len(edges)
    return [_det(edges[i], edges[(i + 1) % n], edges[(i + 2) % n]) for i in range(n)]


def _edges(points: Sequence[Floats]) -> list[Floats]:
    n = len(points)
    return [_sub(points[(i + 1) % n], points[i]) for i in range(n)]


class _Recorder:
    def __init__(self) -> None:
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
        bound = FLOAT_TOLERANCE * max(1.0, scale, abs(exact), abs(approx))
        if self._in_range(field, exact, approx, scale) and abs(exact - approx) > bound:
            self.mismatches.append(
                FloatMismatch(field, f"exact {exact!r} vs float {approx!r}")
            )

    def close_vector(
        self, field: str, exact: Sequence[float], approx: Floats, scale: float
    ) -> None:
        """Compare the three axes, as ``field[0]`` to ``field[2]``, at one ``scale``."""
        for axis in range(3):
            self.close(f"{field}[{axis}]", exact[axis], approx[axis], scale)

    def small(self, field: str, value: float, scale: float) -> None:
        bound = FLOAT_TOLERANCE * max(1.0, scale)
        if self._in_range(field, value, scale) and abs(value) > bound:
            self.mismatches.append(
                FloatMismatch(field, f"expected ~0, float path gives {value!r}")
            )

    def corner_dets(
        self, field: str, exact: Sequence[object], dets: Sequence[tuple[float, float]]
    ) -> None:
        """Compare each determinant at the larger of the largest one and its own terms."""
        scale = _magnitude(value for value, _terms in dets)
        exact_values = [_as_float(value) for value in exact]
        for i, value in enumerate(exact_values):
            approx, terms = dets[i]
            self.close(f"{field}[{i + 1}]", value, approx, max(scale, terms))


def _validate_polygon_block(
    rec: _Recorder, prefix: str, block: dict, verts: Sequence[Floats]
) -> None:
    """Check the planarity / area / determinant claims of one analysis block."""
    n = len(verts)
    coord_scale = _magnitude(c for vertex in verts for c in vertex)
    edges = _edges(verts)

    if block.get("vertices") is not None:
        exact = _float_rows(block["vertices"])
        scale = max(coord_scale, _magnitude(c for vertex in exact for c in vertex))
        for i in range(n):
            rec.close_vector(f"{prefix}.vertices[{i + 1}]", exact[i], verts[i], scale)

    planarity = block.get("planarity")
    if planarity and planarity.get("planar") and n >= 4:
        span_a = _sub(verts[1], verts[0])
        span_b = _sub(verts[2], verts[0])
        for k in range(3, n):
            residual, _terms = _det(span_a, span_b, _sub(verts[k], verts[0]))
            rec.small(f"{prefix}.planarity[{k + 1}]", residual, coord_scale**3)

    if block.get("area_vector") is not None:
        area = _area(verts)
        exact_area = [_as_float(c) for c in block["area_vector"]]
        rec.close_vector(f"{prefix}.area_vector", exact_area, area, coord_scale**2)

    if block.get("derivability_defect") is not None:
        defect = _sum(
            _cross(edges[i], edges[j]) for i in range(n - 1) for j in range(i + 1, n - 1)
        )
        exact_defect = [_as_float(c) for c in block["derivability_defect"]]
        rec.close_vector(f"{prefix}.derivability_defect", exact_defect, defect, coord_scale**2)

    # An analyze report's own "deltas" are the top-level ones, which the
    # caller has already checked.
    fderived = _corner_dets(edges)
    if block.get("derived_deltas") is not None:
        rec.corner_dets(f"{prefix}.derived_deltas", block["derived_deltas"], fderived)

    if block.get("strongly_regular") and n == 6:
        delta_scale = _magnitude(value for value, _terms in fderived)
        for i in range(3):
            (first, first_terms), (opposite, opposite_terms) = fderived[i], fderived[i + 3]
            rec.small(
                f"{prefix}.strongly_regular[{i + 1}]",
                first - opposite,
                max(delta_scale, first_terms, opposite_terms),
            )

    two_plane = block.get("two_plane")
    if isinstance(two_plane, dict) and "error" not in two_plane and n == 6:
        normal = _cross(_sub(verts[2], verts[0]), _sub(verts[4], verts[0]))
        offsets = [_dot(_sub(verts[k], verts[0]), normal) for k in (1, 3, 5)]
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
            for i in (1, 2):
                difference = offsets[i - 1] - offsets[i]
                rec.small(f"{prefix}.two_plane.offsets[{i}-{i + 1}]", difference, offset_scale)
        norm_sq = _dot(normal, normal)
        flat = [
            _sub(vertex, _scale(offsets[k // 2] / norm_sq, normal)) if k % 2 else vertex
            for k, vertex in enumerate(verts)
        ]
        area = _area(flat)
        exact_area = [_as_float(value) for value in two_plane["projected_area_vector"]]
        rec.close_vector(
            f"{prefix}.two_plane.projected_area_vector", exact_area, area, coord_scale**2
        )


def float_cross_validate(report: dict) -> FloatValidation:
    """Re-run a report's pipeline in double precision and confirm its claims.

    Every exact zero or equality asserted by the report must reappear within
    ``FLOAT_TOLERANCE``, taken relative to the magnitude of the largest value
    involved; coordinate growth through determinant products makes an
    absolute tolerance meaningless. A corner determinant is compared
    relative to the sum of its six terms' absolute values when that is
    larger, since cancellation among the terms leaves the rounding error of
    the terms. Returns diagnostics naming each disagreeing field rather than
    raising; a value beyond double range, exact or re-run, is an "out of
    float range" mismatch.
    """
    rec = _Recorder()
    try:
        _rerun(rec, report)
    except (OverflowError, ZeroDivisionError) as exc:
        rec.mismatches.append(FloatMismatch("float_rerun", f"out of float range: {exc}"))
    return FloatValidation(not rec.mismatches, rec.checks, tuple(rec.mismatches))


def _rerun(rec: _Recorder, report: dict) -> None:
    verts = _float_rows(report["input_summary"]["vertices"])
    n = len(verts)
    edges = _edges(verts)
    fdeltas = _corner_dets(edges)
    values = [value for value, _terms in fdeltas]

    if report.get("deltas") is not None:
        rec.corner_dets("deltas", report["deltas"], fdeltas)

    verdict = report.get("verdict")
    if verdict is not None:
        odd = math.prod(values[0::2])
        even = math.prod(values[1::2])
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
    system_verts: list[Floats] | None = None
    if system is not None:
        coefficients = [1.0]
        for k in range(n - 1):
            coefficients.append(1.0 / (coefficients[k] * values[k]))
        alpha = _as_float(system["alpha"])
        system_verts = [
            _scale(
                alpha if k % 2 == 1 else 1.0 / alpha,
                _scale(coefficients[k], _cross(edges[k], edges[(k + 1) % n])),
            )
            for k in range(n)
        ]
        exact_vectors = _float_rows(system["vectors"])
        scale = _magnitude(
            c for rows in (system_verts, exact_vectors) for row in rows for c in row
        )
        for i in range(n):
            rec.close_vector(
                f"support_system.vectors[{i + 1}]", exact_vectors[i], system_verts[i], scale
            )

    derived_block = report.get("derived_analysis")
    if derived_block is not None and system_verts is not None:
        _validate_polygon_block(rec, "derived_analysis", derived_block, system_verts)

    if "planarity" in report or "area_vector" in report:
        _validate_polygon_block(rec, "analysis", report, verts)
