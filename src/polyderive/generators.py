"""Seeded fixture generators for every polygon class the test suites need.

All generators are deterministic functions of their configuration: the same
seed yields bit-identical output. Rejection sampling keeps only fixtures that
satisfy their class contract, and coordinates stay bounded so exact
arithmetic remains fast through two derivative levels.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterator

from .polygon import Polygon, _closed_path, mirror
from .regularity import SupportSystem
from .vectors import _Value, _cleared, _cleared_all, _int_cross, _int_det

# Draws a generator makes before it raises GenerationBudgetError.
MAX_REJECTIONS = 20000


class GenerationBudgetError(RuntimeError):
    """Rejection sampling ran out of attempts."""


class GenConfig(_Value):
    """Sampling knobs: numerators in [-bound, bound], denominators in [1, bound]."""

    seed: int
    coordinate_bound: int

    def __init__(self, seed: int, coordinate_bound: int = 9) -> None:
        self._set("seed", seed)
        self._set("coordinate_bound", coordinate_bound)
        if coordinate_bound < 2:
            raise ValueError("coordinate_bound must be at least 2")


def _budget_error(what: str) -> GenerationBudgetError:
    return GenerationBudgetError(
        f"could not generate {what} within {MAX_REJECTIONS} attempts; "
        "try a larger coordinate_bound"
    )


def _random_ratio(rng: random.Random, bound: int) -> tuple[int, int]:
    """A numerator in [-bound, bound] and a denominator in [1, bound], unreduced."""
    return rng.randint(-bound, bound), rng.randint(1, bound)


def _random_point(rng: random.Random, bound: int) -> tuple[tuple[int, int, int], int]:
    """A random vertex in the int form: three random ratios over the LCM of their denominators."""
    (a, p), (b, q), (c, r) = (_random_ratio(rng, bound) for _ in range(3))
    m = math.lcm(p, q, r)
    return _cleared((a * (m // p), b * (m // q), c * (m // r)), m, 1)


def _generic_draws(n: int, cfg: GenConfig) -> Iterator[Polygon]:
    """The generic ones among random n-gon draws, each holding its int edges and determinants."""
    rng = random.Random(cfg.seed)
    for _ in range(MAX_REJECTIONS):
        points = [_random_point(rng, cfg.coordinate_bound) for _ in range(n)]
        polygon = Polygon._of(tuple(zip(*points)))
        if all(polygon._determinants):
            yield polygon


def random_generic_polygon(n: int, cfg: GenConfig) -> Polygon:
    """Generic n-gon by rejection sampling on the corner determinants.

    Needs n >= 4: the three edges of a closed triangle always span at most a
    plane, so no triangle is generic.
    """
    if n < 4:
        raise ValueError("generic polygons need at least four vertices")
    for polygon in _generic_draws(n, cfg):
        return polygon
    raise _budget_error(f"a generic {n}-gon")


def random_regular_pentagon(cfg: GenConfig) -> Polygon:
    """Generic pentagon with positive determinant product.

    Mirroring flips the sign of every corner determinant, hence of the
    product of the five, so whichever of a sample and its mirror image has
    the positive product is the regular one.
    """
    for polygon in _generic_draws(5, cfg):
        if math.prod(polygon._determinants) < 0:
            return mirror(polygon)
        return polygon
    raise _budget_error("a regular pentagon")


def _zero_area_points(rng: random.Random, bound: int) -> tuple[list[tuple[int, int]], int] | None:
    """Five random base-plane points plus a sixth solving the zero-area condition, as int
    pairs over one positive denominator.

    The area of a hexagon in the base plane is affine in its last vertex, so
    one coordinate of the sixth point can be solved for exactly. Returns None
    when the linear condition degenerates for the sampled five.
    """
    ratios = [_random_ratio(rng, bound) for _ in range(10)]  # x_1, y_1, ..., x_5, y_5
    den = math.lcm(*(q for _, q in ratios))
    ints = [p * (den // q) for p, q in ratios]
    base = list(zip(ints[0::2], ints[1::2]))
    # The area of the five points, and the coefficients of the last, times den**2 and den.
    fixed = sum(base[i][0] * base[i + 1][1] - base[i][1] * base[i + 1][0] for i in range(4))
    coeff_x, coeff_y = base[0][1] - base[4][1], base[4][0] - base[0][0]
    if coeff_y:
        s, t = _random_ratio(rng, bound)  # x_6 = s / t
        k, last = t * coeff_y, (s * den * coeff_y, -(fixed * t + s * coeff_x * den))
    elif coeff_x:
        s, t = _random_ratio(rng, bound)  # y_6 = s / t
        k, last = t * coeff_x, (-fixed * t, s * den * coeff_x)
    else:
        return None
    if k < 0:
        k, last = -k, (-last[0], -last[1])
    return [(x * k, y * k) for x, y in base] + [last], den * k


def regular_hexagon_via_lift(cfg: GenConfig) -> tuple[Polygon, SupportSystem]:
    """Regular hexagon built by the two-plane lift construction.

    A zero-area hexagon is drawn in the base plane, its even-numbered
    vertices are raised to the parallel plane one unit up, and an apex is
    placed on the vertical axis. The support vectors run from the apex to
    the six points and the polygon's edges are their consecutive cross
    products. The edges close by construction, which is still checked per
    instance.

    With m_i = mixed(u_(i-1), u_i, u_(i+1)), cross(a×b, b×c) = mixed(a, b, c)·b
    makes edge i's corner determinant m_i·m_(i+1), so a zero m_i is resampled,
    and cross(v_1, v_2) = m_1·u_1 starts the canonical chain, so alpha is m_1.
    The construction runs on ints, and the polygon holds its int edges and
    determinants.
    """
    rng = random.Random(cfg.seed)
    bound = cfg.coordinate_bound
    for _ in range(MAX_REJECTIONS):
        drawn = _zero_area_points(rng, bound)
        if drawn is None:
            continue
        plane, den = drawn
        top, low = rng.randint(1, bound), rng.randint(1, bound)
        top *= rng.choice((1, -1))  # the apex height is top / low
        # Support vector i, from the apex to point i raised one unit at odd i, over d.
        d = den * low
        u = [(x * low, y * low, (i % 2 * low - top) * den) for i, (x, y) in enumerate(plane)]
        dets = [_int_det(u[i - 1], u[i], u[(i + 1) % 6]) for i in range(6)]  # m_i * d**3
        if not all(dets):
            continue
        edges = [_int_cross(u[i - 1], u[i]) for i in range(6)]  # edge i * d**2
        polygon = Polygon._of(_closed_path(edges, d * d))
        polygon._set("_edge_form", _cleared_all(edges, d * d))
        products = (dets[i] * dets[(i + 1) % 6] for i in range(6))
        polygon._set("_determinants", tuple(Fraction(p, d**6) for p in products))
        return polygon, SupportSystem._of(_cleared_all(u, d), Fraction(dets[0], d**3))
    raise _budget_error("a lifted regular hexagon")


def alternating_sign_hexagon(cfg: GenConfig) -> Polygon:
    """Generic hexagon whose determinant signs strictly alternate, starting positive.

    Such a hexagon always fails the regularity product test: the product over
    odd positions is positive while the product over even positions is
    negative.
    """
    # Generic draws have no zero determinant, so each sign is read off "> 0".
    target = (True, False, True, False, True, False)
    for polygon in _generic_draws(6, cfg):
        if tuple(value > 0 for value in polygon._determinants) == target:
            return polygon
    raise _budget_error("an alternating-sign hexagon")
