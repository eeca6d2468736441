"""Output checks for the benchmark, computed apart from polyderive.

Nothing here imports polyderive. Corner determinants are recomputed by
cofactor expansion over ``Fraction``, the regularity verdict by the
product test, and every support condition ``cross(u_i, u_{i+1}) = v_{i+1}``
in a pair arithmetic of its own: a value ``a + b*sqrt(d)`` is the tuple
``(a, b)``, and the radicand ``d`` of one report travels alongside.
Every check raises :class:`CheckError` naming the first claim that failed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

SUITE_IDS = ("thm31", "thm41", "thm51", "thm52", "sec6", "eq2", "auto-id", "eq4")

_RATIONAL = re.compile(r"-?\d+(/\d+)?\Z")


class CheckError(AssertionError):
    """A report contradicts the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- rational 3-vectors ---------------------------------------------------


def sub(p, q):
    return tuple(x - y for x, y in zip(p, q))


def cross(p, q):
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def det3(a, b, c):
    """Determinant with rows a, b, c by cofactor expansion along a."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def edges_of(points):
    n = len(points)
    return [sub(points[(i + 1) % n], points[i]) for i in range(n)]


def corner_dets(edges):
    n = len(edges)
    return [det3(edges[i], edges[(i + 1) % n], edges[(i + 2) % n]) for i in range(n)]


def is_generic(points) -> bool:
    """No two consecutive edges collinear and no corner determinant zero."""
    edges = edges_of(points)
    n = len(edges)
    if any(not any(cross(edges[i], edges[(i + 1) % n])) for i in range(n)):
        return False
    return all(corner_dets(edges))


def product_test(dets):
    """(regular, odd_product, even_product) by the alternating-product rule."""
    odd = math.prod(dets[0::2], start=Fraction(1))
    even = math.prod(dets[1::2], start=Fraction(1))
    regular = odd == even if len(dets) % 2 == 0 else odd * even > 0
    return regular, odd, even


# --- pair arithmetic a + b*sqrt(d) ------------------------------------------

ZERO = (Fraction(0), Fraction(0))


def p_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def p_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def p_mul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def p_sign(x, d) -> int:
    a, b = x
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    return sa if a * a > b * b * d else -sa


def pv_sub(p, q):
    return tuple(p_sub(x, y) for x, y in zip(p, q))


def pv_cross(p, q, d):
    def term(i, j):
        return p_sub(p_mul(p[i], q[j], d), p_mul(p[j], q[i], d))

    return (term(1, 2), term(2, 0), term(0, 1))


def pv_det(a, b, c, d):
    return pv_dot(a, pv_cross(b, c, d), d)


def pv_dot(p, q, d):
    total = ZERO
    for x, y in zip(p, q):
        total = p_add(total, p_mul(x, y, d))
    return total


def pv_area(points, d):
    """Cyclic sum of cross(p_i, p_{i+1}): twice the oriented-area vector."""
    n = len(points)
    total = (ZERO, ZERO, ZERO)
    for i in range(n):
        total = tuple(
            p_add(t, c) for t, c in zip(total, pv_cross(points[i], points[(i + 1) % n], d))
        )
    return total


def pv_planar(points, d) -> bool:
    if len(points) < 4:
        return True
    span_a = pv_sub(points[1], points[0])
    span_b = pv_sub(points[2], points[0])
    return all(
        pv_det(span_a, span_b, pv_sub(points[k], points[0]), d) == ZERO
        for k in range(3, len(points))
    )


def lift(vector):
    return tuple((Fraction(x), Fraction(0)) for x in vector)


# --- reading reports --------------------------------------------------------


def q(text) -> Fraction:
    require(isinstance(text, str) and _RATIONAL.match(text) is not None, f"not a rational: {text!r}")
    return Fraction(text)


class Radicand:
    """Collects the one radicand a report may use and parses pair values."""

    def __init__(self) -> None:
        self.d: Fraction | None = None

    def pair(self, obj):
        if isinstance(obj, dict):
            require(set(obj) == {"a", "b", "d"}, f"bad extension object {obj!r}")
            d = q(obj["d"])
            require(d > 0, f"radicand {d} is not positive")
            require(self.d is None or self.d == d, f"radicands differ: {self.d} vs {d}")
            self.d = d
            return (q(obj["a"]), q(obj["b"]))
        return (q(obj), Fraction(0))

    def vector(self, row):
        require(isinstance(row, list) and len(row) == 3, f"bad vector {row!r}")
        return tuple(self.pair(x) for x in row)

    def value(self) -> Fraction:
        return self.d if self.d is not None else Fraction(1)


def parse_polygon(text: str):
    """Vertices of a polygon file as Fraction triples."""
    return [tuple(Fraction(c) for c in row) for row in json.loads(text)["vertices"]]


def max_bits(node) -> int:
    """Largest numerator or denominator bit length of any rational in a report."""
    if isinstance(node, dict):
        return max((max_bits(v) for v in node.values()), default=0)
    if isinstance(node, list):
        return max((max_bits(v) for v in node), default=0)
    if isinstance(node, str) and _RATIONAL.match(node):
        value = Fraction(node)
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


# --- report checks ----------------------------------------------------------


def _check_input(report: dict, points, command: str) -> list:
    require(report.get("command") == command, f"command is {report.get('command')!r}")
    summary = report["input_summary"]
    require(summary["n"] == len(points), "input_summary.n differs from the input")
    require(
        [tuple(q(c) for c in row) for row in summary["vertices"]] == list(points),
        "input_summary.vertices differ from the input",
    )
    require(report["genericity"] == {"ok": is_generic(points)}, "genericity verdict is wrong")
    edges = edges_of(points)
    dets = corner_dets(edges)
    require(
        [q(x) for x in report["deltas"]] == dets,
        "corner determinants differ from the cofactor expansion",
    )
    return dets


def check_check(report: dict, points) -> None:
    """A ``check`` report: input echo, genericity, determinants, verdict."""
    dets = _check_input(report, points, "check")
    _check_verdict(report["verdict"], dets)


def _check_verdict(verdict: dict, dets) -> None:
    regular, odd, even = product_test(dets)
    parity = "even" if len(dets) % 2 == 0 else "odd"
    require(verdict["parity"] == parity, "verdict parity is wrong")
    require(verdict["regular"] is regular, "regularity verdict differs from the product test")
    require(q(verdict["odd_product"]) == odd, "odd_product is wrong")
    require(q(verdict["even_product"]) == even, "even_product is wrong")
    evidence = odd - even if parity == "even" else odd * even
    require(q(verdict["evidence"]) == evidence, "evidence is wrong")
    alpha_squared = odd / even if parity == "odd" and regular else None
    got = verdict["alpha_squared"]
    require((got is None and alpha_squared is None) or q(got) == alpha_squared,
            "alpha_squared is wrong")


def check_derive(
    report: dict,
    points,
    alpha: Fraction | None = None,
    negative_root: bool = False,
    float_check: bool = False,
) -> None:
    """A ``derive`` report: the check fields, every support condition, and
    the geometry the paper proves for the derived polygon."""
    dets = _check_input(report, points, "derive")
    _check_verdict(report["verdict"], dets)
    require(report["verdict"]["regular"] is True, "derive ran on an irregular polygon")
    n = len(points)
    edges = edges_of(points)
    system = report["support_system"]
    radicand = Radicand()
    vectors = [radicand.vector(row) for row in system["vectors"]]
    require(len(vectors) == n, "support system has the wrong size")
    got_alpha = radicand.pair(system["alpha"])
    d = radicand.value()
    if n % 2 == 0:
        require(got_alpha == (alpha, Fraction(0)), "support_system.alpha is not the given scale")
    else:
        _, odd, even = product_test(dets)
        require(p_mul(got_alpha, got_alpha, d) == (odd / even, Fraction(0)),
                "support_system.alpha does not square to odd/even product")
        require(p_sign(got_alpha, d) == (-1 if negative_root else 1),
                "support_system.alpha has the wrong root sign")
    for i in range(n):
        j = (i + 1) % n
        require(
            pv_cross(vectors[i], vectors[j], d) == lift(edges[j]),
            f"support condition cross(u_{i + 1}, u_{j + 1}) = v_{j + 1} fails",
        )
    require(system["verified"] is True, "support_system.verified is not true")

    block = report["derived_analysis"]
    derived = [radicand.vector(row) for row in block["vertices"]]
    require(derived == vectors, "derived vertices are not the support vectors")
    area = pv_area(derived, d)
    require([radicand.pair(x) for x in block["area_vector"]] == list(area),
            "derived area_vector differs from the recomputation")
    require([radicand.pair(x) for x in block["derivability_defect"]] == list(area),
            "derived derivability_defect differs from the area vector")
    planar = pv_planar(derived, d)
    require(block["planarity"]["planar"] is planar, "derived planarity claim is wrong")
    derived_edges = [pv_sub(derived[(i + 1) % n], derived[i]) for i in range(n)]
    derived_dets = [
        pv_det(derived_edges[i], derived_edges[(i + 1) % n], derived_edges[(i + 2) % n], d)
        for i in range(n)
    ]
    if block["derived_deltas"] is not None:
        require([radicand.pair(x) for x in block["derived_deltas"]] == derived_dets,
                "derived_deltas differ from the recomputation")
    if n in (4, 5):
        require(planar, f"derived {n}-gon is not coplanar")
        require(area == (ZERO, ZERO, ZERO), f"derived {n}-gon has a nonzero area vector")
    if n == 6:
        require(ZERO not in derived_dets, "derived hexagon is not generic")
        require(all(derived_dets[i] == derived_dets[i + 3] for i in range(3)),
                "derived hexagon determinants break d_i = d_(i+3)")
        require(block["strongly_regular"] is True, "derived hexagon not reported strongly regular")
    _check_oracle(report, float_check)


def check_analyze(report: dict, points) -> None:
    """An ``analyze`` report: determinants, planarity, area vector, defect."""
    _check_input(report, points, "analyze")
    rational = Radicand()
    pts = [lift(p) for p in points]
    area = pv_area(pts, Fraction(1))
    require([rational.pair(x) for x in report["area_vector"]] == list(area),
            "area_vector differs from the recomputation")
    require([rational.pair(x) for x in report["derivability_defect"]] == list(area),
            "derivability_defect differs from the area vector")
    require(rational.d is None, "rational input gave extension values")
    require(report["planarity"]["planar"] is pv_planar(pts, Fraction(1)),
            "planarity claim is wrong")
    if len(points) == 6:
        dets = corner_dets(edges_of(points))
        symmetric = all(dets[i] == dets[i + 3] for i in range(3))
        require(report["strongly_regular"] is symmetric, "strongly_regular claim is wrong")


def _check_oracle(report: dict, float_check: bool) -> None:
    if float_check:
        require(report["oracle_results"]["ok"] is True, "oracle_results.ok is not true")
    else:
        require("oracle_results" not in report, "unrequested oracle_results block")


def check_verify(report: dict, samples: int) -> None:
    """A ``verify --suite all`` report: every suite passed on exactly ``samples``."""
    require(report.get("command") == "verify", "not a verify report")
    suites = report["suites"]
    require(sorted(s["suite"] for s in suites) == sorted(SUITE_IDS), "suite list is wrong")
    for suite in suites:
        require(suite["samples"] == samples,
                f"suite {suite['suite']} ran {suite['samples']} samples, {samples} asked")
        require(suite["failures"] == 0 and suite["passed"] is True,
                f"suite {suite['suite']} did not pass")
    require(report["passed"] is True, "verify report did not pass")
