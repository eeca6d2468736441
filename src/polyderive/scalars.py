"""Exact scalars: arbitrary-precision rationals plus their written-out radicals.

Rational values are plain ``fractions.Fraction`` objects, which are always
stored in lowest terms with a positive denominator; every exact computation
of the library runs on them. :class:`QuadExt` is the form ``a + b*sqrt(d)``
in which a report writes a power ``scale**k * x`` of an odd polygon's
irrational scale, and in which ``plot`` reads such values back. Its one
arithmetic operation is the product, which squares a scale. No floating
point enters any computation in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Union

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


def _sign_of_fraction(value: Fraction) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


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
        """``(a + b*sqrt(d))(c + e*sqrt(d)) = (ac + bed) + (ae + bc)*sqrt(d)``.

        Products with a zero factor are skipped: two pure radicals (a = c = 0),
        the common case for odd polygons, cost the single product ``bed``.
        """
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

    def sign(self) -> int:
        """Exact sign of ``a`` or of ``b*sqrt(d)``, whichever part is nonzero.

        Written-out values have at most one nonzero part; a value with both
        is refused rather than compared against its conjugate.
        """
        if self._a and self._b:
            raise ValueError(f"sign of {self!r} needs a zero part")
        return _sign_of_fraction(self._a or self._b)

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
_ONE = Fraction(1)


def _quad(a: Fraction, b: Fraction, d: Fraction) -> QuadExt:
    """Build an arithmetic result from parts already validated by its operands."""
    value = object.__new__(QuadExt)
    value._a = a
    value._b = b
    value._d = d
    return value


def rational_square(value: Scalar) -> Fraction | None:
    """``value**2`` read off the parts when it is rational, else None.

    A rational squares to a rational, and so does ``a + b*sqrt(d)`` exactly
    when ``a = 0`` or ``b = 0``; with both nonzero the square keeps the term
    ``2ab*sqrt(d)``. The square is built on ints and reduced once.
    """
    if not isinstance(value, QuadExt):
        part, radicand = Fraction(value), _ONE
    elif not value._b:
        part, radicand = value._a, _ONE
    elif not value._a:
        part, radicand = value._b, value._d
    else:
        return None
    return Fraction(
        part.numerator**2 * radicand.numerator, part.denominator**2 * radicand.denominator
    )


def power_scaler(scale: Scalar, power: int) -> Callable[[Fraction], Scalar]:
    """The map ``x -> scale**power * x`` on rationals, built from parts.

    ``scale`` is a rational or a :class:`QuadExt` with a zero part, so its
    square is rational and each power is a rational multiple of one or of
    ``sqrt(d)``. The results equal the products :class:`QuadExt` arithmetic
    gives, value for value and in :func:`format_scalar` form, without any
    extension multiplication.
    """
    if not isinstance(scale, QuadExt):
        if scale == 1:
            return lambda x: x
        factor = scale**power
        return lambda x: factor * x
    d = scale._d
    if scale._a and scale._b:
        raise ValueError(f"scale {scale} has no rational square")
    if not scale._b:
        factor = scale._a**power
        return lambda x: _quad(factor * x, _ZERO, d)
    half, odd = divmod(power, 2)
    factor = (scale._b * scale._b * d) ** half
    if odd:
        factor *= scale._b
        return lambda x: _quad(_ZERO, factor * x, d)
    return lambda x: _quad(factor * x, _ZERO, d)


def scalar_sign(value: Scalar | int) -> int:
    """Exact sign (-1, 0, +1) for any scalar of the tower."""
    if isinstance(value, QuadExt):
        return value.sign()
    return _sign_of_fraction(Fraction(value))


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
