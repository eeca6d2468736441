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

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .polygon import _deltas, _genericity, _nonzero, _require_generic
from .scalars import QuadExt, Scalar, _power, format_scalar
from .vectors import (
    Vec3,
    _Form,
    _Points,
    _Value,
    _cleared,
    _int_cross,
    _integer_coordinates,
    _rational_vector,
    cross,
    mixed,
    scaled,
)

_ONE = Fraction(1)


class RegularityVerdict(_Value):
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
    alpha_squared: Scalar | None

    def __init__(
        self,
        regular: bool,
        parity: str,
        evidence: Scalar,
        odd_product: Scalar,
        even_product: Scalar,
        alpha_squared: Scalar | None = None,
    ) -> None:
        self._set("regular", regular)
        self._set("parity", parity)
        self._set("evidence", evidence)
        self._set("odd_product", odd_product)
        self._set("even_product", even_product)
        self._set("alpha_squared", alpha_squared)


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


def _rationals(values: Sequence[Scalar]) -> tuple[Fraction, ...]:
    """``values`` as a tuple; an extension value, or any other not rational, raises TypeError."""
    values = tuple(values)
    for value in values:
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"support systems take rational determinants, got {value!r}")
    return values


def _product(values: Sequence[Fraction]) -> tuple[int, int]:
    """Unreduced int numerator and denominator of a product of rationals."""
    return math.prod(v.numerator for v in values), math.prod(v.denominator for v in values)


def check_regularity(delta_values: Sequence[Scalar]) -> RegularityVerdict:
    """Product test deciding whether a support system exists.

    Even n: regular iff the products over odd and even positions agree.
    Odd n: regular iff the product of all determinants is positive; the
    squared scale factor (odd product over even product) is reported too.
    Positions are 1-based. The products run on ints, and each reported
    value is reduced once. The determinants must be rational: an extension
    value raises ``TypeError``.
    """
    values = _rationals(delta_values)
    _nonzero(values, "corner determinant")
    odd_num, odd_den = _product(values[0::2])
    even_num, even_den = _product(values[1::2])
    products = Fraction(odd_num, odd_den), Fraction(even_num, even_den)
    if len(values) % 2 == 0:
        evidence = Fraction(odd_num * even_den - even_num * odd_den, odd_den * even_den)
        return RegularityVerdict(not evidence, "even", evidence, *products)
    evidence = Fraction(odd_num * even_num, odd_den * even_den)
    regular = evidence > 0
    alpha_squared = Fraction(odd_num * even_den, odd_den * even_num) if regular else None
    return RegularityVerdict(regular, "odd", evidence, *products, alpha_squared)


class SupportBasis(_Value):
    """Unscaled support chain: vectors[k] = coefficients[k] * cross(v_k, v_{k+1}).

    The chain starts at cross(v_1, v_2) with coefficient one and is then
    forced link by link by the adjacent cross-product conditions. The chain
    and the edges v_k it was built from are held in the int form, against
    which :func:`support_system` scales and checks the system.
    """

    coefficients: tuple[Scalar, ...]
    _chain: _Form
    _edges: _Form

    def __init__(self, coefficients: tuple[Scalar, ...], _chain: _Form, _edges: _Form) -> None:
        self._set("coefficients", coefficients)
        self._set("_chain", _chain)
        self._set("_edges", _edges)

    @cached_property
    def vectors(self) -> tuple[Vec3, ...]:
        """The chain vectors b_k themselves."""
        return tuple(map(_rational_vector, *self._chain))


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
    cross(u_k, u_{k+1}) = v_{k+1} for k < n hold by construction;
    :func:`support_system` checks them, with the wrap, on the scaled
    system. Each returned value is reduced once. Given determinants must be
    rational: an extension value raises ``TypeError``.
    """
    form = _integer_coordinates(tuple(edges))
    values = _deltas(form) if delta_values is None else _rationals(delta_values)
    return _support_basis(form, values)


def _support_basis(edges: _Form, values: Sequence[Fraction]) -> SupportBasis:
    """:func:`support_basis` of edges in the int form; a zero determinant raises."""
    _require_generic(_genericity(edges, values))
    ints, dens = edges
    count = len(ints)
    crosses = [_int_cross(ints[k], ints[(k + 1) % count]) for k in range(count)]
    tops, bottoms = [1], [1]
    for k in range(count - 1):
        p, q = values[k].numerator, values[k].denominator
        g, h = math.gcd(bottoms[k], p), math.gcd(q, tops[k])
        top, bottom = (bottoms[k] // g) * (q // h), (tops[k] // h) * (p // g)
        tops.append(top if bottom > 0 else -top)
        bottoms.append(abs(bottom))
    chain = [
        _cleared(w, bottom * dens[k] * dens[(k + 1) % count], top)
        for k, (top, bottom, w) in enumerate(zip(tops, bottoms, crosses))
    ]
    coefficients = tuple(map(Fraction, tops, bottoms))
    return SupportBasis(coefficients, tuple(zip(*chain)), tuple(map(tuple, edges)))  # hashable


class SupportSystem(_Points):
    """Support vectors ``scale * unscaled[k]`` satisfying all n cyclic conditions.

    For odd n the scale is alpha itself, a square root of the rational
    alpha_squared r, and ``unscaled`` is rational: the chain vector b_k at
    even positions and b_k / r at odd ones (1-based), since 1/alpha = alpha/r.
    For even n alpha is rational and already folded into ``unscaled``, so the
    scale is one. Exact checks run on ``unscaled``; the scale enters only
    where a value is written out. A system that :func:`support_system` built
    holds ``unscaled`` in the int form it was checked in.
    """

    unscaled: tuple[Vec3, ...]
    alpha: Scalar

    def __init__(self, unscaled: tuple[Vec3, ...], alpha: Scalar) -> None:
        self._set("unscaled", unscaled)
        self._set("alpha", alpha)

    unscaled = cached_property(_Points._vectors)

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
    and divide the odd positions by alpha_squared instead. The system is
    checked against the basis edges on all n conditions, the wrap included,
    before it is returned; a failure is a bug and raises ``RuntimeError``.
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
        even, odd, squared = alpha, 1 / alpha, _ONE
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
                a, b, d = alpha.a, alpha.b, alpha.d
                square = QuadExt(a * a + b * b * d, 2 * a * b, d)
            if square != verdict.alpha_squared:
                expected = verdict.alpha_squared
                raise ValueError(f"scale factor squared is {square}, expected {expected}")
        even, odd, squared = _ONE, 1 / verdict.alpha_squared, verdict.alpha_squared
    unscaled = _scale(basis._chain, even, odd)
    checked = _verify_support(unscaled, squared, basis._edges)
    if not checked.ok:
        raise RuntimeError(
            f"support system failed verification at condition {checked.failed_index}; "
            "this is a bug"
        )
    return SupportSystem._of(unscaled, alpha)


def _scale(chain: _Form, even: Fraction, odd: Fraction) -> _Form:
    """The scaling step of :func:`support_system`: ``even`` times the vectors at
    even positions (1-based), ``odd`` times the others, in the int form.

    Each vector V / L of the chain has gcd(V, L) = 1, and a factor p / q has
    gcd(p, q) = 1. So, as in a Fraction product, cancelling gcd(p, L) and
    gcd(q, V) apart, on the smaller ints, leaves the product in lowest terms.
    """
    gcd = math.gcd
    scaled = []
    for f, point, den in zip(itertools.cycle((odd, even)), *chain):
        if f == 1:
            scaled.append((point, den))
            continue
        p, q = f.numerator, f.denominator
        g, h = gcd(p, den), gcd(q, *point)
        t = p // g
        x, y, z = point
        scaled.append(((t * (x // h), t * (y // h), t * (z // h)), q // h * (den // g)))
    return tuple(zip(*scaled))


class SupportCheck(_Value):
    """Result of checking all cyclic conditions; index is the first failure."""

    ok: bool
    failed_index: int | None

    def __init__(self, ok: bool, failed_index: int | None = None) -> None:
        self._set("ok", ok)
        self._set("failed_index", failed_index)


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
    square = _power(system.scale, 2)[0]
    chain = tuple(edges)
    if system.n != len(chain):
        raise ValueError("support system and edge list sizes differ")
    return _verify_support(system._form, square, _integer_coordinates(chain))


def _verify_support(support: _Form, square: Fraction, edges: _Form) -> SupportCheck:
    """:func:`verify_support` of unscaled vectors and edges in the int form, with ``scale**2``."""
    (points, lows), (ints, dens) = support, edges
    s, t = square.numerator, square.denominator
    count = len(ints)
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
    form = _integer_coordinates(tuple(edges))
    values = _deltas(form)
    basis = _support_basis(form, values)
    return support_system(basis, check_regularity(values), alpha, negative_root)
