"""Exact scalars: arbitrary-precision rationals plus their written-out radicals.

Rational values are plain ``fractions.Fraction`` objects, which are always
stored in lowest terms with a positive denominator; every exact computation
of the library runs on them. A power ``scale**k`` of an odd polygon's scale
is a rational factor times one or ``sqrt(d)`` (:func:`_power`): reports
write ``scale**k * x`` straight into its JSON form, and :class:`QuadExt` is
the form ``a + b*sqrt(d)`` in which the library's views hold such values and
in which ``plot`` reads them back. No floating point enters any computation
in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[Fraction, "QuadExt"]


class RadicandMismatchError(ValueError):
    """Two extension values with different radicands were combined."""


# Python's default limit on the digits of an integer string, which already
# bounds a decimal mantissa; the same bound on the exponent keeps "1e999999999"
# from building a power of ten that size.
_MAX_DECIMAL_EXPONENT = 4300


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, a ``"p/q"`` string, or a decimal string.

    Decimal strings convert exactly (power-of-ten denominators); their
    exponent may not exceed 4300 in absolute value. Binary floats are
    rejected: accepting them would smuggle rounding error into an exact
    pipeline.
    """
    if isinstance(value, bool):
        raise TypeError(f"not a rational value: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            exponent = int(text.upper().partition("E")[2] or 0)
        except ValueError:
            exponent = 0  # no integer exponent; Fraction judges the string below
        if abs(exponent) > _MAX_DECIMAL_EXPONENT:
            raise ValueError(f"decimal exponent of {value!r} is beyond ±{_MAX_DECIMAL_EXPONENT}")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise TypeError(f"cannot parse rational from {type(value).__name__} value {value!r}")


class QuadExt:
    """Value ``a + b*sqrt(d)`` over the rationals, for one fixed radicand ``d > 0``.

    The radicand is kept exactly as given, with no square-free reduction:
    each odd polygon has one scale ``sqrt(alpha_squared)``, so identifying
    ``sqrt(8/5)`` with ``(2/5)*sqrt(10)`` would buy nothing. Multiplying
    values that carry different radicands raises
    :class:`RadicandMismatchError`.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: int | str | Fraction, b: int | str | Fraction, d: int | str | Fraction) -> None:
        radicand = parse_rational(d)
        if radicand <= 0:
            raise ValueError(f"radicand must be positive, got {radicand}")
        self._a = parse_rational(a)
        self._b = parse_rational(b)
        self._d = radicand

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def d(self) -> Fraction:
        return self._d

    @classmethod
    def sqrt(cls, d: int | Fraction) -> QuadExt:
        """The positive square root of ``d`` as an extension element."""
        return cls(Fraction(0), Fraction(1), d)

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    def _lift(self, other: object) -> QuadExt | None:
        if isinstance(other, QuadExt):
            if other._d != self._d:
                raise RadicandMismatchError(
                    f"radicands differ: {self._d} vs {other._d}"
                )
            return other
        if isinstance(other, bool):
            return None
        if isinstance(other, (int, Fraction)):
            return _quad(Fraction(other), _ZERO, self._d)
        return None

    def __mul__(self, other: object) -> QuadExt:
        """``(a + b*sqrt(d))(c + e*sqrt(d)) = (ac + bed) + (ae + bc)*sqrt(d)``, skipping zeros."""
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e = rhs._a, rhs._b
        if not (a or c):
            return _quad(b * e * d, _ZERO, d)
        if not (b or e):
            return _quad(a * c, _ZERO, d)
        if not (a or e):
            return _quad(_ZERO, b * c, d)
        if not (b or c):
            return _quad(_ZERO, a * e, d)
        return _quad(a * c + b * e * d, a * e + b * c, d)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            if other._d != self._d:
                if self._b == 0 and other._b == 0:
                    return self._a == other._a
                raise RadicandMismatchError(
                    f"cannot compare values over sqrt({self._d}) and sqrt({other._d})"
                )
            return self._a == other._a and self._b == other._b
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def __float__(self) -> float:
        return float(self._a) + float(self._b) * math.sqrt(float(self._d))

    def __repr__(self) -> str:
        return f"QuadExt({self._a}, {self._b}, d={self._d})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        radical = f"sqrt({self._d})"
        if self._b == 1:
            tail = radical
        elif self._b == -1:
            tail = f"-{radical}"
        else:
            tail = f"{self._b}*{radical}"
        if self._a == 0:
            return tail
        joiner = "+" if self._b > 0 else ""
        return f"{self._a}{joiner}{tail}"


_ZERO = Fraction(0)


def _quad(a: Fraction, b: Fraction, d: Fraction) -> QuadExt:
    """Build an arithmetic result from parts already validated by its operands."""
    value = object.__new__(QuadExt)
    value._a = a
    value._b = b
    value._d = d
    return value


def _power(scale: Scalar, power: int) -> tuple[Fraction, Fraction | None, bool]:
    """``scale**power`` as ``(factor, radicand, radical)``, computed on ints.

    The power is ``factor * sqrt(radicand)`` when ``radical`` holds and
    ``factor`` otherwise; ``radicand`` is None for a rational scale. A scale
    ``a + b*sqrt(d)`` needs a zero part, so that its square is rational: for
    ``b = 0`` the factor is ``a**power``, and for ``a = 0`` it is
    ``(b*b*d)**(power // 2)`` times ``b`` for an odd power, with ``sqrt(d)``
    kept. This is the one place that decides how a power of a scale is held.
    """
    if not isinstance(scale, QuadExt):
        return Fraction(scale) ** power, None, False
    a, b, d = scale._a, scale._b, scale._d
    if a and b:
        raise ValueError(f"scale {scale} has no rational square")
    if not b:
        return a**power, d, False
    half, odd = divmod(power, 2)
    p, q = b.numerator, b.denominator
    top = (p * p * d.numerator) ** half
    bottom = (q * q * d.denominator) ** half
    if odd:
        top, bottom = top * p, bottom * q
    return Fraction(top, bottom), d, bool(odd)


def _products(values: Iterable[Fraction], factor: Fraction) -> list[Fraction]:
    """``factor * x`` for each value, with no product for a factor of one or minus one."""
    if factor == 1:
        return list(values)
    if factor == -1:
        return [-x for x in values]
    return [factor * x for x in values]


def _scaled_values(values: Iterable[Fraction], scale: Scalar, power: int) -> list[Scalar]:
    """``scale**power * x`` for each rational value, as the library's views hold it."""
    factor, radicand, radical = _power(scale, power)
    products = _products(values, factor)
    if radicand is None:
        return products
    if radical:
        return [_quad(_ZERO, x, radicand) for x in products]
    return [_quad(x, _ZERO, radicand) for x in products]


def _format_scaled(values: Iterable[Fraction], scale: Scalar, power: int) -> list:
    """The :func:`format_scalar` forms of ``scale**power * x``, built with no :class:`QuadExt`.

    An ``{"a", "b", "d"}`` object is written with its radicand formatted once for all.
    """
    factor, radicand, radical = _power(scale, power)
    texts = [_rational_text(x) for x in _products(values, factor)]
    if radicand is None:
        return texts
    d = _rational_text(radicand)
    if radical:
        return [{"a": "0", "b": text, "d": d} for text in texts]
    return [{"a": text, "b": "0", "d": d} for text in texts]


def _decimal(value: int) -> str:
    """Decimal digits of an int of any size.

    ``str`` refuses ints beyond the interpreter's digit limit (4300 digits by
    default), so a longer value is split at a power of ten near half its
    digits, and each half is written the same way.
    """
    try:
        return str(value)
    except ValueError:
        pass
    size = abs(value)
    half = size.bit_length() * 3 // 20  # about half of its log10(2) * bits digits
    high, low = divmod(size, 10**half)
    digits = _decimal(high) + _decimal(low).zfill(half)
    return "-" + digits if value < 0 else digits


def _rational_text(value: Fraction) -> str:
    """``str(value)``, written through :func:`_decimal` when a part is too long for ``str``."""
    try:
        return str(value)
    except ValueError:
        numerator = _decimal(value.numerator)
        if value.denominator == 1:
            return numerator
        return f"{numerator}/{_decimal(value.denominator)}"


def format_scalar(value: Scalar | int) -> str | dict[str, str]:
    """JSON form: rationals as ``"p/q"`` strings, extension values as objects.

    Values of any size are written in full; see :func:`_decimal`.
    """
    if isinstance(value, QuadExt):
        return {
            "a": _rational_text(value.a),
            "b": _rational_text(value.b),
            "d": _rational_text(value.d),
        }
    return _rational_text(Fraction(value))


def parse_scalar(obj: object) -> Scalar:
    """Inverse of :func:`format_scalar`."""
    if isinstance(obj, dict):
        missing = {"a", "b", "d"} - set(obj)
        if missing:
            raise ValueError(f"extension scalar object lacks keys {sorted(missing)}")
        return QuadExt(parse_rational(obj["a"]), parse_rational(obj["b"]), parse_rational(obj["d"]))
    if isinstance(obj, (int, str, Fraction)):
        return parse_rational(obj)
    raise TypeError(f"cannot parse scalar from {type(obj).__name__} value {obj!r}")
