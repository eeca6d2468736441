"""Deciding regularity and building support systems.

A generic polygon is *regular* when vectors u_1..u_n exist whose consecutive
cross products reproduce the edges: cross(u_i, u_{i+1}) = v_{i+1} cyclically.
For even n that happens exactly when the two alternating corner-determinant
products agree, and the systems then form a one-parameter scaling family.
For odd n it happens exactly when the full determinant product is positive;
the system is then unique up to sign, with a scale factor living in a
quadratic extension of the rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .polygon import NonGenericPolygonError, deltas, ensure_generic
from .scalars import QuadExt, Scalar, _power, format_scalar
from .vectors import (
    Vec3,
    _int_cross,
    _integer_coordinates,
    _rational_vector,
    _times,
    cross,
    mixed,
    scaled,
)

_ONE = Fraction(1)


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of the alternating-product test on the corner determinants.

    ``evidence`` is the quantity whose zero (even n) or positive sign (odd n)
    certifies regularity: the difference of the alternating products, or the
    full product. ``alpha_squared`` is filled for regular odd polygons only.
    """

    regular: bool
    parity: str
    evidence: Scalar
    odd_product: Scalar
    even_product: Scalar
    alpha_squared: Scalar | None = None


class IrregularPolygonError(ValueError):
    """No support system exists; carries the verdict for diagnostics."""

    def __init__(self, verdict: RegularityVerdict) -> None:
        if verdict.parity == "even":
            message = (
                "no support system: alternating determinant products differ "
                f"(odd positions {format_scalar(verdict.odd_product)}, "
                f"even positions {format_scalar(verdict.even_product)})"
            )
        else:
            message = (
                "no support system: the determinant product "
                f"{format_scalar(verdict.evidence)} is not positive"
            )
        super().__init__(message)
        self.verdict = verdict


def _product(values: Sequence[Fraction]) -> tuple[int, int]:
    """Unreduced int numerator and denominator of a product of rationals."""
    return (
        math.prod(value.numerator for value in values),
        math.prod(value.denominator for value in values),
    )


def check_regularity(delta_values: Sequence[Scalar]) -> RegularityVerdict:
    """Product test deciding whether a support system exists.

    Even n: regular iff the products over odd and even positions agree.
    Odd n: regular iff the product of all determinants is positive; the
    squared scale factor (odd product over even product) is reported too.
    Positions are 1-based. The products run on ints, and each reported
    value is reduced once.
    """
    values = tuple(delta_values)
    for i, value in enumerate(values):
        if not value:
            raise NonGenericPolygonError(f"corner determinant {i + 1} is zero")
    odd_num, odd_den = _product(values[0::2])
    even_num, even_den = _product(values[1::2])
    odd_product = Fraction(odd_num, odd_den)
    even_product = Fraction(even_num, even_den)
    if len(values) % 2 == 0:
        evidence = Fraction(odd_num * even_den - even_num * odd_den, odd_den * even_den)
        return RegularityVerdict(
            regular=not evidence,
            parity="even",
            evidence=evidence,
            odd_product=odd_product,
            even_product=even_product,
        )
    evidence = Fraction(odd_num * even_num, odd_den * even_den)
    regular = evidence > 0
    return RegularityVerdict(
        regular=regular,
        parity="odd",
        evidence=evidence,
        odd_product=odd_product,
        even_product=even_product,
        alpha_squared=Fraction(odd_num * even_den, odd_den * even_num) if regular else None,
    )


@dataclass(frozen=True)
class SupportBasis:
    """Unscaled support chain: vectors[k] = coefficients[k] * cross(v_k, v_{k+1}).

    The chain starts at cross(v_1, v_2) with coefficient one and is then
    forced link by link by the adjacent cross-product conditions.
    """

    vectors: tuple[Vec3, ...]
    coefficients: tuple[Scalar, ...]


def support_basis(
    edges: Sequence[Vec3], delta_values: Sequence[Scalar] | None = None
) -> SupportBasis:
    """Build the support chain for a generic polygon, fraction-free.

    The coefficients are the alternating determinant products
    c_k = (delta_{k-2} delta_{k-4} ...) / (delta_{k-1} delta_{k-3} ...), 1-based,
    held as an int numerator N_k and denominator M_k in lowest terms: prefix
    products of the determinants' numerators p_j and denominators q_j, with
    N_{k+1} = M_k q_k and M_{k+1} = N_k p_k after cancelling gcd(M_k, p_k)
    and gcd(q_k, N_k) crosswise, as a Fraction product does; unreduced, they
    would grow to about twice the bits on input with coprime denominators.
    With the edges as int triples E_k over their own denominators m_k and
    W_k = cross(E_k, E_{k+1}), the chain vector is
    N_k W_k / (M_k m_k m_{k+1}). The adjacent conditions
    cross(u_k, u_{k+1}) = v_{k+1} for k < n hold by construction and are
    re-checked as the int equality
    N_k N_{k+1} cross(W_k, W_{k+1}) = M_k M_{k+1} m_k m_{k+1} m_{k+2} E_{k+1};
    a failure would mean a bug or determinants of other edges, not bad
    input. Each returned value is reduced once.
    """
    chain = tuple(edges)
    values = tuple(delta_values) if delta_values is not None else deltas(chain)
    if not all(values):
        ensure_generic(chain)
    count = len(chain)
    ints, dens = _integer_coordinates(chain)
    crosses = [_int_cross(ints[k], ints[(k + 1) % count]) for k in range(count)]
    tops, bottoms = [1], [1]
    for k in range(count - 1):
        p, q = values[k].numerator, values[k].denominator
        g, h = math.gcd(bottoms[k], p), math.gcd(q, tops[k])
        top, bottom = (bottoms[k] // g) * (q // h), (tops[k] // h) * (p // g)
        tops.append(top if bottom > 0 else -top)
        bottoms.append(abs(bottom))
    coefficients = tuple(map(Fraction, tops, bottoms))
    for k in range(count - 1):
        c, d = coefficients[k], coefficients[k + 1]
        left = c.numerator * d.numerator
        right = c.denominator * d.denominator * dens[k] * dens[k + 1] * dens[(k + 2) % count]
        link = _int_cross(crosses[k], crosses[k + 1])
        if any(left * a != right * b for a, b in zip(link, ints[k + 1])):
            raise RuntimeError(
                f"support chain violated its defining condition at link {k + 1}"
            )
    vectors = tuple(
        _rational_vector(
            [c.numerator * part for part in w], c.denominator * dens[k] * dens[(k + 1) % count]
        )
        for k, (c, w) in enumerate(zip(coefficients, crosses))
    )
    return SupportBasis(vectors, coefficients)


@dataclass(frozen=True)
class SupportSystem:
    """Support vectors ``scale * unscaled[k]`` satisfying all n cyclic conditions.

    For odd n the scale is alpha itself, a square root of the rational
    alpha_squared r, and ``unscaled`` is rational: the chain vector b_k at
    even positions and b_k / r at odd ones (1-based), since 1/alpha = alpha/r.
    For even n alpha is rational and already folded into ``unscaled``, so the
    scale is one. Exact checks run on ``unscaled``; the scale enters only
    where a value is written out.
    """

    unscaled: tuple[Vec3, ...]
    alpha: Scalar

    @property
    def n(self) -> int:
        return len(self.unscaled)

    @property
    def parity(self) -> str:
        return "odd" if self.n % 2 else "even"

    @property
    def scale(self) -> Scalar:
        return self.alpha if self.n % 2 else _ONE

    @cached_property
    def vectors(self) -> tuple[Vec3, ...]:
        """The support vectors themselves, ``scale * unscaled``."""
        return scaled(self.unscaled, self.scale)


def support_system(
    basis: SupportBasis,
    verdict: RegularityVerdict,
    alpha: Scalar | int | None = None,
    negative_root: bool = False,
) -> SupportSystem:
    """Pick the scale factor and scale the chain into a closed support system.

    Even-position vectors are multiplied by alpha, odd-position vectors by
    its inverse (positions 1-based). Even n needs an explicit nonzero
    rational alpha. Odd n defaults to the canonical root sqrt(alpha_squared),
    or its negative with ``negative_root``; an explicit alpha must square
    exactly to the verdict's alpha_squared, so it is rational only when
    alpha_squared is a perfect square. Odd systems keep alpha as their scale
    and divide the odd positions by alpha_squared instead.
    """
    if not verdict.regular:
        raise IrregularPolygonError(verdict)
    if isinstance(alpha, int):
        alpha = Fraction(alpha)
    if verdict.parity == "even":
        if negative_root:
            raise ValueError("negative_root applies to odd polygons only")
        if alpha is None:
            raise ValueError("even polygons need an explicit rational scale (try --alpha 1)")
        if not isinstance(alpha, Fraction):
            raise ValueError("even polygons take a nonzero rational scale factor")
        if alpha == 0:
            raise ValueError("scale factor must be nonzero")
        even, odd = alpha, 1 / alpha
    else:
        if alpha is None:
            alpha = QuadExt(0, -1 if negative_root else 1, verdict.alpha_squared)
        elif negative_root:
            raise ValueError("pass either an explicit scale factor or negative_root")
        elif not isinstance(alpha, (Fraction, QuadExt)):
            raise ValueError("odd polygons need a scale factor squaring to alpha_squared")
        elif not alpha:
            raise ValueError("scale factor must be nonzero")
        # A rational alpha is legitimate exactly when alpha_squared is a
        # perfect square; the square test decides that without any
        # square-root detection.
        else:
            try:
                square = _power(alpha, 2)[0]
            except ValueError:  # both parts of a + b*sqrt(d) nonzero: an irrational square
                square = alpha * alpha
            if square != verdict.alpha_squared:
                expected = verdict.alpha_squared
                raise ValueError(f"scale factor squared is {square}, expected {expected}")
        even, odd = _ONE, 1 / verdict.alpha_squared
    unscaled = tuple(
        _times(vector, even if k % 2 else odd) for k, vector in enumerate(basis.vectors)
    )
    return SupportSystem(unscaled, alpha)


@dataclass(frozen=True)
class SupportCheck:
    """Result of checking all cyclic conditions; index is the first failure."""

    ok: bool
    failed_index: int | None = None


def verify_support(system: SupportSystem, edges: Sequence[Vec3]) -> SupportCheck:
    """Exact check of cross(u_i, u_{i+1}) = v_{i+1} for every i, wrap included.

    A support system is checked on its unscaled vectors: with u = scale * q,
    the condition reads scale**2 * cross(q_i, q_{i+1}) = v_{i+1}, and
    scale**2 = s/t is rational (alpha_squared for odd n, one for even n).
    With q_i = Q_i / L_i and v_i = E_i / m_i as int triples over their own
    denominators, every condition is the int equality
    s m_{i+1} cross(Q_i, Q_{i+1}) = t L_i L_{i+1} E_{i+1}. A scale whose
    square is not rational raises ``ValueError``.
    """
    vectors, square = system.unscaled, _power(system.scale, 2)[0]
    chain = tuple(edges)
    if len(vectors) != len(chain):
        raise ValueError("support system and edge list sizes differ")
    count = len(chain)
    points, lows = _integer_coordinates(vectors)
    ints, dens = _integer_coordinates(chain)
    s, t = square.numerator, square.denominator
    for i in range(count):
        j = (i + 1) % count
        product = _int_cross(points[i], points[j])
        left = s * dens[j]
        right = t * lows[i] * lows[j]
        if any(left * a != right * b for a, b in zip(product, ints[j])):
            return SupportCheck(False, i + 1)
    return SupportCheck(True)


def nested_cross_identity(a: Vec3, b: Vec3, c: Vec3) -> tuple[Vec3, Vec3]:
    """Both sides of cross(cross(a,b), cross(b,c)) = mixed(a,b,c) * b.

    The identity is what forces each support vector to be a multiple of the
    neighbouring edge cross product; returning both sides lets callers check
    it on arbitrary samples.
    """
    return (cross(cross(a, b), cross(b, c)), mixed(a, b, c) * b)


def build_support_system(
    edges: Sequence[Vec3],
    alpha: Scalar | int | None = None,
    negative_root: bool = False,
) -> SupportSystem:
    """One-call pipeline: determinants, regularity test, chain, scaling.

    The scale options are those of :func:`support_system`.
    """
    chain = tuple(edges)
    values = deltas(chain)
    if not all(values):
        ensure_generic(chain)
    verdict = check_regularity(values)
    return support_system(support_basis(chain, values), verdict, alpha, negative_root)
