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
from .scalars import QuadExt, Scalar, rational_square, scalar_sign
from .vectors import Vec3, cross, mixed, scaled

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
                f"(odd positions {verdict.odd_product}, even positions {verdict.even_product})"
            )
        else:
            message = (
                "no support system: the determinant product "
                f"{verdict.evidence} is not positive"
            )
        super().__init__(message)
        self.verdict = verdict


def _product(values: Sequence[Scalar]) -> Scalar:
    return math.prod(values, start=Fraction(1))


def check_regularity(delta_values: Sequence[Scalar]) -> RegularityVerdict:
    """Product test deciding whether a support system exists.

    Even n: regular iff the products over odd and even positions agree.
    Odd n: regular iff the product of all determinants is positive; the
    squared scale factor (odd product over even product) is reported too.
    Positions are 1-based.
    """
    values = tuple(delta_values)
    for i, value in enumerate(values):
        if not value:
            raise NonGenericPolygonError(f"corner determinant {i + 1} is zero")
    odd_product = _product(values[0::2])
    even_product = _product(values[1::2])
    if len(values) % 2 == 0:
        evidence = odd_product - even_product
        return RegularityVerdict(
            regular=not evidence,
            parity="even",
            evidence=evidence,
            odd_product=odd_product,
            even_product=even_product,
        )
    evidence = odd_product * even_product
    regular = scalar_sign(evidence) > 0
    return RegularityVerdict(
        regular=regular,
        parity="odd",
        evidence=evidence,
        odd_product=odd_product,
        even_product=even_product,
        alpha_squared=odd_product / even_product if regular else None,
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
    """Build the support chain for a generic polygon.

    The coefficient recurrence c_{k+1} = 1 / (c_k * delta_k) reproduces the
    alternating determinant-product formulas by induction while avoiding the
    large intermediate products. The adjacent conditions
    cross(u_k, u_{k+1}) = v_{k+1} for k < n hold by construction and are
    re-checked; a failure would mean a bug, not bad input.
    """
    chain = tuple(edges)
    values = tuple(delta_values) if delta_values is not None else deltas(chain)
    if not all(values):
        ensure_generic(chain)
    count = len(chain)
    coefficients = [Fraction(1)]
    for k in range(count - 1):
        coefficients.append(1 / (coefficients[k] * values[k]))
    vectors = tuple(
        coefficients[k] * cross(chain[k], chain[(k + 1) % count])
        for k in range(count)
    )
    for k in range(count - 1):
        if cross(vectors[k], vectors[k + 1]) != chain[k + 1]:
            raise RuntimeError(
                f"support chain violated its defining condition at link {k + 1}"
            )
    return SupportBasis(vectors, tuple(coefficients))


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
    parity: str

    @property
    def scale(self) -> Scalar:
        return self.alpha if self.parity == "odd" else _ONE

    @cached_property
    def vectors(self) -> tuple[Vec3, ...]:
        """The support vectors themselves, ``scale * unscaled``."""
        return scaled(self.unscaled, self.scale)

    @property
    def n(self) -> int:
        return len(self.unscaled)


def canonical_alpha(verdict: RegularityVerdict, negative_root: bool = False) -> QuadExt:
    """Scale factor for a regular odd polygon: the square root of alpha_squared.

    The positive root is the canonical pick; the sign flag yields its twin.
    """
    if verdict.parity != "odd":
        raise ValueError("canonical scale roots apply to odd polygons only")
    if not verdict.regular or verdict.alpha_squared is None:
        raise IrregularPolygonError(verdict)
    return QuadExt(0, -1 if negative_root else 1, verdict.alpha_squared)


def support_system(
    basis: SupportBasis, verdict: RegularityVerdict, alpha: Scalar | int
) -> SupportSystem:
    """Scale the chain into a closed support system.

    Even-position vectors are multiplied by alpha, odd-position vectors by
    its inverse (positions 1-based). For even n any nonzero rational alpha
    works; for odd n alpha must square exactly to the verdict's
    alpha_squared, so it is usually an extension-field root and rational only
    when alpha_squared happens to be a perfect square. Odd systems keep alpha
    as their scale and divide the odd positions by alpha_squared instead.
    """
    if not verdict.regular:
        raise IrregularPolygonError(verdict)
    if isinstance(alpha, int):
        alpha = Fraction(alpha)
    if verdict.parity == "even":
        if not isinstance(alpha, Fraction):
            raise ValueError("even polygons take a nonzero rational scale factor")
        if alpha == 0:
            raise ValueError("scale factor must be nonzero")
        even, odd = alpha, 1 / alpha
    else:
        # A rational alpha is legitimate exactly when alpha_squared is a
        # perfect square; the square test below decides that without any
        # square-root detection.
        if not isinstance(alpha, (Fraction, QuadExt)):
            raise ValueError(
                "odd polygons need a scale factor squaring to alpha_squared; "
                "use canonical_alpha()"
            )
        if not alpha:
            raise ValueError("scale factor must be nonzero")
        if rational_square(alpha) != verdict.alpha_squared:
            raise ValueError(
                f"scale factor squared is {alpha * alpha}, "
                f"expected {verdict.alpha_squared}"
            )
        even, odd = _ONE, 1 / verdict.alpha_squared
    unscaled = tuple(
        vector * (even if k % 2 else odd) for k, vector in enumerate(basis.vectors)
    )
    return SupportSystem(unscaled, alpha, verdict.parity)


@dataclass(frozen=True)
class SupportCheck:
    """Result of checking all cyclic conditions; index is the first failure."""

    ok: bool
    failed_index: int | None = None


def verify_support(
    system: SupportSystem | Sequence[Vec3], edges: Sequence[Vec3]
) -> SupportCheck:
    """Exact check of cross(u_i, u_{i+1}) = v_{i+1} for every i, wrap included.

    A support system is checked on its unscaled vectors: with u = scale * q,
    the condition reads scale**2 * cross(q_i, q_{i+1}) = v_{i+1}, and
    scale**2 is rational (alpha_squared for odd n, one for even n), so the
    check stays over the rationals.
    """
    if isinstance(system, SupportSystem):
        vectors, square = system.unscaled, rational_square(system.scale)
    else:
        vectors, square = tuple(system), _ONE
    chain = tuple(edges)
    if len(vectors) != len(chain):
        raise ValueError("support system and edge list sizes differ")
    count = len(chain)
    for i in range(count):
        product = cross(vectors[i], vectors[(i + 1) % count])
        if square != 1:
            product = product * square
        if product != chain[(i + 1) % count]:
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

    Even n requires an explicit nonzero rational ``alpha``. Odd n defaults to
    the canonical positive root of alpha_squared; ``negative_root`` picks the
    twin system instead.
    """
    chain = tuple(edges)
    values = deltas(chain)
    if not all(values):
        ensure_generic(chain)
    verdict = check_regularity(values)
    if not verdict.regular:
        raise IrregularPolygonError(verdict)
    basis = support_basis(chain, values)
    if verdict.parity == "odd":
        if alpha is not None and negative_root:
            raise ValueError("pass either an explicit scale factor or negative_root")
        if alpha is None:
            alpha = canonical_alpha(verdict, negative_root)
    else:
        if negative_root:
            raise ValueError("negative_root applies to odd polygons only")
        if alpha is None:
            raise ValueError(
                "even polygons need an explicit rational scale factor (try 1)"
            )
    return support_system(basis, verdict, alpha)
