"""Seeded polygon inputs, built apart from ``polyderive.generators``.

A change to the program's own generators therefore cannot change what the
benchmark measures. Coordinates are small rationals, numerators in
[-9, 9] and denominators in [1, 9], like the program's own fixtures.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

from checks import corner_dets, cross, det3, edges_of, is_generic, sub

BOUND = 9
# Largest cancellation ratio allowed in a derived hexagon's determinants; see
# ``well_conditioned``.
MAX_CANCELLATION = 10_000
ALPHAS = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(3, 4))


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))


def _point(rng: random.Random) -> tuple:
    return (_rational(rng), _rational(rng), _rational(rng))


def generic_polygon(rng: random.Random, n: int) -> list:
    """Generic n-gon by rejection; every generic quadrangle is regular."""
    while True:
        points = [_point(rng) for _ in range(n)]
        if is_generic(points):
            return points


def regular_odd_polygon(rng: random.Random, n: int) -> list:
    """Generic odd n-gon, mirrored in z when its determinant product is negative.

    Mirroring flips the sign of every corner determinant, hence of their
    product over an odd count, so one of the two is regular.
    """
    points = generic_polygon(rng, n)
    if math.prod(corner_dets(edges_of(points))) < 0:
        points = [(x, y, -z) for x, y, z in points]
    return points


def lifted_hexagon(rng: random.Random) -> list:
    """Regular hexagon from the two-plane lift.

    Six base-plane points with zero oriented area, the even ones raised to
    z = 1, and an apex on the z-axis: the support vectors run from the apex
    to the points and the edges are their consecutive cross products.
    """
    while True:
        base = [(_rational(rng), _rational(rng)) for _ in range(5)]
        fixed = sum(base[i][0] * base[i + 1][1] - base[i][1] * base[i + 1][0] for i in range(4))
        # The area is affine in the sixth point: fixed + x*cy - y*cx = 0.
        cx = base[0][0] - base[4][0]
        cy = base[0][1] - base[4][1]
        if cx == 0:
            continue
        x6 = _rational(rng)
        base.append((x6, (fixed + x6 * cy) / cx))
        height = _rational(rng)
        if height == 0:
            continue
        support = [
            (x, y, Fraction(i % 2) - height) for i, (x, y) in enumerate(base)
        ]
        edges = [cross(support[i - 1], support[i]) for i in range(6)]
        if any(sum(e[k] for e in edges) for k in range(3)):
            raise RuntimeError("lifted hexagon does not close")
        points = [(Fraction(0),) * 3]
        for edge in edges[:-1]:
            points.append(tuple(p + e for p, e in zip(points[-1], edge)))
        if is_generic(points):
            return points


def support_vectors(points, alpha: Fraction) -> list:
    """Support system of an even regular polygon at scale ``alpha``.

    The chain u_k = c_k * cross(v_k, v_(k+1)) with c_1 = 1 and
    c_(k+1) = 1 / (c_k * d_k); even positions are scaled by alpha and odd
    ones by its inverse.
    """
    edges = edges_of(points)
    dets = corner_dets(edges)
    n = len(edges)
    coefficient = Fraction(1)
    vectors = []
    for k in range(n):
        scale = coefficient * (alpha if k % 2 == 1 else 1 / alpha)
        vectors.append(tuple(scale * c for c in cross(edges[k], edges[(k + 1) % n])))
        coefficient = 1 / (coefficient * dets[k])
    return vectors


def derivable_at(points, alpha: Fraction) -> bool:
    """Whether ``derive`` at this scale stays inside the cases the paper treats.

    A derived quadrangle needs three non-collinear vertices for its
    self-intersection test, and a derived hexagon must be generic for its
    determinants to be compared.
    """
    derived = support_vectors(points, alpha)
    if len(derived) == 4:
        p0, p1, p2, p3 = derived
        return any(cross(sub(p1, p0), sub(p, p0)) != (0, 0, 0) for p in (p2, p3))
    return is_generic(derived) and well_conditioned(derived)


def well_conditioned(points) -> bool:
    """Whether double precision can reproduce the polygon's corner determinants.

    The cancellation ratio is the largest sum of absolute cofactor-expansion
    terms over the largest absolute determinant. The program's float oracle
    compares determinants at a relative tolerance of 1e-9 and flags correct
    derived hexagons whose ratio is about 1e7 (one lifted hexagon and scale
    in about 3000); such inputs are left out, with a margin of 1000.
    """
    edges = edges_of(points)
    n = len(edges)
    terms = dets = 0
    for i in range(n):
        a, b, c = edges[i], edges[(i + 1) % n], edges[(i + 2) % n]
        terms = max(terms, sum(
            abs(a[p] * b[q] * c[r])
            for p, q, r in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
        ))
        dets = max(dets, abs(det3(a, b, c)))
    return terms <= MAX_CANCELLATION * dets


def scales(points) -> list:
    """The scales of ``ALPHAS`` at which the polygon derives without degeneracy."""
    return [alpha for alpha in ALPHAS if derivable_at(points, alpha)]


def polygon_json(points) -> str:
    return json.dumps({"vertices": [[str(c) for c in p] for p in points]}) + "\n"
