"""Seeded fixture generators for every polygon class the test suites need.

All generators are deterministic functions of their configuration: the same
seed yields bit-identical output. Rejection sampling keeps only fixtures that
satisfy their class contract, and coordinates stay bounded so exact
arithmetic remains fast through two derivative levels.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .polygon import Polygon, deltas, edge_vectors, mirror
from .regularity import SupportSystem
from .scalars import Scalar, scalar_sign
from .vectors import Vec3, cross


class GenerationBudgetError(RuntimeError):
    """Rejection sampling ran out of attempts."""


@dataclass(frozen=True)
class GenConfig:
    """Sampling knobs: numerators in [-bound, bound], denominators in [1, bound]."""

    seed: int
    coordinate_bound: int = 9
    max_rejections: int = 20000

    def __post_init__(self) -> None:
        if self.coordinate_bound < 2:
            raise ValueError("coordinate_bound must be at least 2")
        if self.max_rejections < 1:
            raise ValueError("max_rejections must be at least 1")


def _budget_error(what: str, cfg: GenConfig) -> GenerationBudgetError:
    return GenerationBudgetError(
        f"could not generate {what} within {cfg.max_rejections} attempts; "
        "try a larger coordinate_bound or max_rejections"
    )


def _random_fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _nonzero_fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound)) * rng.choice((1, -1))


def _random_vertex(rng: random.Random, bound: int) -> Vec3:
    return Vec3(
        _random_fraction(rng, bound),
        _random_fraction(rng, bound),
        _random_fraction(rng, bound),
    )


def _generic_draws(n: int, cfg: GenConfig) -> Iterator[tuple[Polygon, tuple[Scalar, ...]]]:
    """The generic ones among random n-gon draws, with their corner determinants."""
    rng = random.Random(cfg.seed)
    for _ in range(cfg.max_rejections):
        polygon = Polygon(tuple(_random_vertex(rng, cfg.coordinate_bound) for _ in range(n)))
        values = deltas(edge_vectors(polygon))
        if all(values):
            yield polygon, values


def random_generic_polygon(n: int, cfg: GenConfig) -> Polygon:
    """Generic n-gon by rejection sampling on the corner determinants.

    Needs n >= 4: the three edges of a closed triangle always span at most a
    plane, so no triangle is generic.
    """
    if n < 4:
        raise ValueError("generic polygons need at least four vertices")
    for polygon, _values in _generic_draws(n, cfg):
        return polygon
    raise _budget_error(f"a generic {n}-gon", cfg)


def random_regular_pentagon(cfg: GenConfig) -> Polygon:
    """Generic pentagon with positive determinant product.

    Mirroring flips the sign of every corner determinant, hence of the
    product of the five, so whichever of a sample and its mirror image has
    the positive product is the regular one.
    """
    for polygon, values in _generic_draws(5, cfg):
        if scalar_sign(math.prod(values, start=Fraction(1))) < 0:
            return mirror(polygon)
        return polygon
    raise _budget_error("a regular pentagon", cfg)


def _zero_area_points(rng: random.Random, bound: int) -> tuple[Vec3, ...] | None:
    """Five random base-plane points plus a sixth solving the zero-area condition.

    The area of a hexagon in the base plane is affine in its last vertex, so
    one coordinate of the sixth point can be solved for exactly. Returns None
    when the linear condition degenerates for the sampled five.
    """
    zero = Fraction(0)
    base = [(_random_fraction(rng, bound), _random_fraction(rng, bound)) for _ in range(5)]
    fixed = sum(
        base[i][0] * base[i + 1][1] - base[i][1] * base[i + 1][0] for i in range(4)
    )
    coeff_x = base[0][1] - base[4][1]
    coeff_y = base[4][0] - base[0][0]
    if coeff_y != 0:
        last_x = _random_fraction(rng, bound)
        last_y = -(fixed + last_x * coeff_x) / coeff_y
    elif coeff_x != 0:
        last_y = _random_fraction(rng, bound)
        last_x = -(fixed + last_y * coeff_y) / coeff_x
    else:
        return None
    points = base + [(last_x, last_y)]
    return tuple(Vec3(x, y, zero) for x, y in points)


def zero_area_planar_hexagon(cfg: GenConfig) -> tuple[Vec3, ...]:
    """Six points in the base plane whose oriented area is exactly zero."""
    rng = random.Random(cfg.seed)
    for _ in range(cfg.max_rejections):
        points = _zero_area_points(rng, cfg.coordinate_bound)
        if points is not None:
            return points
    raise _budget_error("a zero-area planar hexagon", cfg)


def regular_hexagon_via_lift(cfg: GenConfig) -> tuple[Polygon, SupportSystem]:
    """Regular hexagon built by the two-plane lift construction.

    A zero-area hexagon is drawn in the base plane, its even-numbered
    vertices are raised to the parallel plane one unit up, and an apex is
    placed on the vertical axis. The support vectors run from the apex to
    the six points and the polygon's edges are their consecutive cross
    products. The edges close by construction, which Polygon.from_edges still
    checks per instance; any non-generic outcome is resampled.

    The family parameter alpha is read off cross(v_1, v_2) alone, because the
    canonical support chain starts with that vector at coefficient one.
    """
    rng = random.Random(cfg.seed)
    one = Fraction(1)
    for _ in range(cfg.max_rejections):
        points = _zero_area_points(rng, cfg.coordinate_bound)
        if points is None:
            continue
        height = _nonzero_fraction(rng, cfg.coordinate_bound)
        apex = Vec3(Fraction(0), Fraction(0), height)
        lifted = tuple(
            Vec3(p.x, p.y, one) if index % 2 == 1 else p
            for index, p in enumerate(points)
        )
        support = tuple(p - apex for p in lifted)
        edges = tuple(cross(support[i - 1], support[i]) for i in range(6))
        if not all(deltas(edges)):
            continue
        alpha = _family_parameter(cross(edges[0], edges[1]), support[0])
        return Polygon.from_edges(edges), SupportSystem(support, alpha, "even")
    raise _budget_error("a lifted regular hexagon", cfg)


def _family_parameter(chain_start: Vec3, system_start: Vec3) -> Fraction:
    """Scale tying a support system to the canonical chain: u_1 = chain_1 / alpha."""
    for chain_part, system_part in zip(chain_start, system_start):
        if chain_part:
            return chain_part / system_part
    raise RuntimeError("canonical chain started with a zero vector; this is a bug")


def alternating_sign_hexagon(cfg: GenConfig) -> Polygon:
    """Generic hexagon whose determinant signs strictly alternate, starting positive.

    Such a hexagon always fails the regularity product test: the product over
    odd positions is positive while the product over even positions is
    negative.
    """
    target = (1, -1, 1, -1, 1, -1)
    for polygon, values in _generic_draws(6, cfg):
        if tuple(scalar_sign(value) for value in values) == target:
            return polygon
    raise _budget_error("an alternating-sign hexagon", cfg)
