"""Independent verification layer: identity checks and an exact re-run.

The exact pipeline is cross-validated two ways. First, determinant
identities that hold unconditionally (or under closure alone) are evaluated
on arbitrary six-vector samples, independent of how support systems are
constructed. Second, whole analysis reports are re-derived modulo a 61-bit
prime on plain ints, apart from the exact vector code, and each written value
a claim rests on is compared with its re-run value by ``==``. No tolerance is
involved: a wrong value passes only when the prime divides the numerator of
its error. The re-run keeps its float names (``--float-check``,
:func:`float_cross_validate`, :class:`FloatValidation`) for compatibility.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .polygon import _nonzero, deltas
from .scalars import Scalar, parse_rational
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


# The primes of the re-run, in the order they are tried.
_PRIMES = tuple(2**61 - k for k in (1, 45, 229, 465, 829, 985, 1153, 1281))
_CHUNK = 600  # digits per int() call, below the lowest int-string digit limit (640)


class _NextPrime(Exception):
    """The prime divides a written denominator or a divisor of the re-run."""


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


def _digits(text: str, p: int) -> int:
    """A written integer modulo p; one longer than ``int`` reads is read in chunks."""
    try:
        return int(text) % p
    except ValueError:
        sign, digits = (text[0], text[1:]) if text[:1] in ("+", "-") else ("+", text)
        if not (digits.isdigit() and digits.isascii()):
            raise
    value = 0
    for k in range(0, len(digits), _CHUNK):
        chunk = digits[k : k + _CHUNK]
        value = (value * pow(10, len(chunk), p) + int(chunk)) % p
    return -value % p if sign == "-" else value


Ints = tuple[int, int, int]  # a vector of residues, reduced or not


def _diff(a: Ints, b: Ints) -> Ints:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a: Ints, b: Ints) -> Ints:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _dot(a: Ints, b: Ints) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sum(vectors: Iterable[Ints]) -> Ints:
    return tuple(map(sum, zip(*vectors)))


def _edges(points: list[Ints]) -> list[Ints]:
    return list(map(_diff, points[1:] + points[:1], points))


def _area(points: list[Ints]) -> Ints:
    """Un-halved area vector: the sum of cross(p_i, p_(i+1)), cyclically."""
    return _sum(map(_cross, points, points[1:] + points[:1]))


def _corner_dets(edges: list[Ints], p: int) -> list[int]:
    triples = zip(edges, edges[1:] + edges[:1], edges[2:] + edges[:2])
    return [_dot(a, _cross(b, c)) % p for a, b, c in triples]


class _Rerun:
    """The checks of one re-run modulo the prime ``p``, and the mismatches among them.

    When alpha is b*sqrt(d), ``radicand`` holds d as written and its two
    parts: the re-run runs on the support vectors over sqrt(d), so a quantity
    of degree k in them is d**(k // 2) * sqrt(d)**(k % 2) times its re-run
    value, and a written a + b*sqrt(d) is compared part by part.
    """

    def __init__(self, p: int) -> None:
        self.p = p
        self.checks = 0
        self.mismatches: list[FloatMismatch] = []
        self.radicand: tuple[object, int, int] | None = None

    def pair(self, value: object) -> tuple[int, int]:
        """A written rational as a numerator and a nonzero denominator modulo p: a plain
        ``"p/q"`` as two ints, anything else as :func:`parse_rational` reads it."""
        try:
            top, slash, bottom = value.partition("/")
            num, den = _digits(top, self.p), (_digits(bottom, self.p) if slash else 1)
        except (AttributeError, ValueError):  # an int, or a decimal or exponent form
            exact = parse_rational(value)
            num, den = exact.numerator % self.p, exact.denominator % self.p
        if not den:
            raise _NextPrime
        return num, den

    def parts(self, value: object) -> list[tuple[int, int]]:
        """The pairs of a and b of a written a + b*sqrt(d); b = 0 for a rational."""
        if isinstance(value, dict):
            return [self.pair(value["a"]), self.pair(value["b"])]
        return [self.pair(value), (0, 1)]

    def inverses(self, values: Sequence[int]) -> list[int]:
        """The inverses of ``values`` modulo p, with one pow over their prefix products."""
        p, prefix = self.p, [1]
        for value in values:
            prefix.append(prefix[-1] * value % p)
        if not prefix[-1]:
            raise _NextPrime
        inverse, result = pow(prefix[-1], -1, p), []
        for i in range(len(values) - 1, -1, -1):
            result.append(inverse * prefix[i] % p)
            inverse = inverse * values[i] % p
        return result[::-1]

    def points(self, rows: Sequence[Sequence[object]]) -> list[Ints]:
        pairs = [self.pair(value) for row in rows for value in row]
        inverses = self.inverses([den for _, den in pairs])
        flat = [num * inverse % self.p for (num, _), inverse in zip(pairs, inverses)]
        return [tuple(flat[k : k + 3]) for k in range(0, len(flat), 3)]

    def equal(self, value, rerun: int, field: str, index=None, scale=1, degree=0) -> None:
        """Count one check: the written ``value`` is sqrt(d)**degree * rerun / scale."""
        odd = foreign = 0
        if degree and self.radicand:
            written, d, m = self.radicand
            half, odd = divmod(degree, 2)
            rerun, scale = rerun * d**half, scale * m**half
            foreign = odd and isinstance(value, dict) and value["d"] != written
        parts = self.parts(value)
        (num, den), (other, _) = parts[odd], parts[1 - odd]
        self.checks += 1
        if (rerun * den - num * scale) % self.p or other or foreign:
            self._fail(field, index)

    def zero(self, defect: int, field: str, index=None) -> None:
        """Count one check: ``defect`` is zero modulo p."""
        self.checks += 1
        if defect % self.p:
            self._fail(field, index)

    def _fail(self, field: str, index: int | None) -> None:
        name = field if index is None else f"{field}[{index}]"
        detail = f"the report and the re-run differ modulo {self.p}"
        self.mismatches.append(FloatMismatch(name, detail))

    def values(self, written: list, rerun, field: str, degree=0, first=1, scale=1) -> None:
        """Compare each written value with its re-run value, named ``field[first]`` on."""
        for i, value in enumerate(rerun):
            self.equal(written[i], value, field, i + first, scale, degree)

    def rows(self, written: list, rerun: list[Ints], field: str, degree: int) -> None:
        for i, point in enumerate(rerun):
            self.values(written[i], point, f"{field}[{i + 1}]", degree, first=0)


def _validate_polygon_block(rec: _Rerun, prefix: str, block: dict, verts: list[Ints]) -> None:
    """Check the planarity / area / determinant claims of one analysis block."""
    p = rec.p
    n = len(verts)
    edges = _edges(verts)

    if block.get("vertices") is not None:
        rec.rows(block["vertices"], verts, f"{prefix}.vertices", 1)
    if block.get("edges") is not None:
        rec.rows(block["edges"], edges, f"{prefix}.edges", 1)

    planarity = block.get("planarity")
    if planarity and planarity.get("planar") and n >= 4:
        normal = _cross(_diff(verts[1], verts[0]), _diff(verts[2], verts[0]))
        for k in range(3, n):
            rec.zero(_dot(_diff(verts[k], verts[0]), normal), f"{prefix}.planarity", k + 1)

    if block.get("area_vector") is not None:
        rec.values(block["area_vector"], _area(verts), f"{prefix}.area_vector", 2, 0)

    if block.get("derivability_defect") is not None:
        # The sum of cross(e_i, e_j) over i < j < n, as that of cross(e_1 + ... + e_(j-1), e_j).
        heads = itertools.accumulate(edges[: n - 2], lambda a, b: _sum((a, b)))
        defect = _sum(map(_cross, heads, edges[1 : n - 1]))
        rec.values(block["derivability_defect"], defect, f"{prefix}.derivability_defect", 2, 0)

    # An analyze report's "deltas" are the top-level ones, which the caller checks.
    dets = _corner_dets(edges, p)
    if block.get("derived_deltas") is not None:
        rec.values(block["derived_deltas"], dets, f"{prefix}.derived_deltas", 3)

    if block.get("strongly_regular") and n == 6:
        for i in range(3):
            rec.zero(dets[i] - dets[i + 3], f"{prefix}.strongly_regular", i + 1)

    split = block.get("two_plane")
    if isinstance(split, dict) and "error" not in split and n == 6:
        field = f"{prefix}.two_plane."
        normal = [c % p for c in _cross(_diff(verts[2], verts[0]), _diff(verts[4], verts[0]))]
        offsets = [_dot(_diff(verts[k], verts[0]), normal) % p for k in (1, 3, 5)]
        rec.values(split["even_offsets"], offsets, f"{field}even_offsets", 3)
        if split.get("offsets_equal"):
            for i in (1, 2):
                rec.zero(offsets[i - 1] - offsets[i], f"{field}offsets[{i}-{i + 1}]")
        # The projections times the normal's squared length, so as not to divide.
        norm = _dot(normal, normal) % p
        if not norm:
            raise _NextPrime
        flat = [
            [norm * c - (offsets[k // 2] * m if k % 2 else 0) for c, m in zip(vertex, normal)]
            for k, vertex in enumerate(verts)
        ]
        written = split["projected_area_vector"]
        rec.values(written, _area(flat), f"{field}projected_area_vector", 2, 0, norm**2)


def float_cross_validate(report: dict) -> FloatValidation:
    """Re-run a report's pipeline modulo a prime and confirm its claims exactly.

    Each written value a claim rests on is read modulo p and compared with
    its value recomputed from the input vertices, by cross-multiplying. The
    prime is the first of ``_PRIMES`` that divides no written denominator
    and no divisor of the re-run. Returns diagnostics naming each
    disagreeing field rather than raising; when no listed prime will do, the
    one mismatch is ``float_rerun``.
    """
    for p in _PRIMES:
        rec = _Rerun(p)
        try:
            _rerun(rec, report)
        except _NextPrime:
            continue
        return FloatValidation(not rec.mismatches, rec.checks, tuple(rec.mismatches))
    detail = "each listed prime divides a denominator or a divisor of the re-run"
    return FloatValidation(False, 0, (FloatMismatch("float_rerun", detail),))


def _rerun(rec: _Rerun, report: dict) -> None:
    p = rec.p
    system = report.get("support_system")
    verts = rec.points(report["input_summary"]["vertices"])
    n = len(verts)
    edges = _edges(verts)
    dets = _corner_dets(edges, p)

    if report.get("deltas") is not None:
        rec.values(report["deltas"], dets, "deltas")

    verdict = report.get("verdict")
    if verdict is not None:
        odd = math.prod(dets[0::2]) % p
        even = math.prod(dets[1::2]) % p
        rec.equal(verdict["odd_product"], odd, "verdict.odd_product")
        rec.equal(verdict["even_product"], even, "verdict.even_product")
        if verdict["parity"] == "even" and verdict["regular"]:
            rec.zero(odd - even, "verdict.evidence")
        if verdict.get("alpha_squared") is not None:
            if not even:
                raise _NextPrime
            rec.equal(verdict["alpha_squared"], odd, "verdict.alpha_squared", scale=even)

    if system is not None:
        # Alpha is (x / y) * sqrt(d / m)**j, j = 1 for a radical. c_1 = 1 and
        # c_(k+1) = 1 / (c_k d_k), with 1 / c_(k+1) = c_k d_k; even positions
        # (1-based) carry x / y, odd ones y m / (x d), over sqrt(d / m)**j.
        alpha = system["alpha"]
        (a, a_den), (b, b_den) = rec.parts(alpha)
        x, y, d, m = (b, b_den, *rec.pair(alpha["d"])) if b else (a, a_den, 1, 1)
        rec.radicand = (alpha["d"], d, m) if b else None
        *inverse, over, under = rec.inverses([*dets[: n - 1], x * d, y])
        scales = (y * m * over, x * under)
        coefficient = reciprocal = 1
        support = []
        for k in range(n):
            factor = scales[k % 2] * coefficient % p
            support.append(tuple(factor * c % p for c in _cross(edges[k], edges[k + 1 - n])))
            if k < n - 1:
                coefficient, reciprocal = reciprocal * inverse[k] % p, coefficient * dets[k] % p
        rec.rows(system["vectors"], support, "support_system.vectors", 1)
        if report.get("derived_analysis") is not None:
            _validate_polygon_block(rec, "derived_analysis", report["derived_analysis"], support)

    if "planarity" in report or "area_vector" in report:
        _validate_polygon_block(rec, "analysis", report, verts)
