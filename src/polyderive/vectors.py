"""3-vector algebra over the rationals: dot, cross, mixed, area vector.

Vectors with :class:`~polyderive.scalars.QuadExt` components exist only as
written-out values (:func:`scaled`); the products take rational vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .scalars import QuadExt, Scalar, parse_rational, power_scaler


@dataclass(frozen=True)
class Vec3:
    """Immutable 3-vector with exact components (rational or one fixed extension)."""

    x: Scalar
    y: Scalar
    z: Scalar

    @classmethod
    def of(cls, x: object, y: object, z: object) -> Vec3:
        """Convenience constructor coercing ints and rational strings."""
        return cls(_component(x), _component(y), _component(z))

    def __add__(self, other: Vec3) -> Vec3:
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: Vec3) -> Vec3:
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> Vec3:
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, factor: object) -> Vec3:
        if isinstance(factor, Vec3):
            return NotImplemented
        return Vec3(self.x * factor, self.y * factor, self.z * factor)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not (self.x or self.y or self.z)

    def __iter__(self) -> Iterator[Scalar]:
        return iter((self.x, self.y, self.z))

    def to_floats(self) -> tuple[float, float, float]:
        return (float(self.x), float(self.y), float(self.z))


def _component(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return parse_rational(value)
    raise TypeError(f"cannot build a vector component from {value!r}")


ZERO_VEC = Vec3(Fraction(0), Fraction(0), Fraction(0))


def scaled(vectors: Sequence[Vec3], scale: Scalar, power: int = 1) -> tuple[Vec3, ...]:
    """Each rational vector times ``scale**power``; see :func:`scalars.power_scaler`."""
    if not isinstance(scale, QuadExt) and scale == 1:
        return tuple(vectors)
    times = power_scaler(scale, power)
    return tuple(Vec3(times(v.x), times(v.y), times(v.z)) for v in vectors)


def dot(a: Vec3, b: Vec3) -> Scalar:
    return a.x * b.x + a.y * b.y + a.z * b.z


def _integer_coordinates(v: Vec3) -> tuple[int, int, int, int]:
    """``(x, y, z, m)`` with ``v = (x, y, z) / m`` on ints.

    ``m`` is the LCM of the component denominators. Cross and mixed products
    are homogeneous, so they run on the integers and divide once at the end;
    ``Fraction(num, den)`` reduces to the same lowest terms as componentwise
    Fraction arithmetic. A component that is not a ``Fraction`` raises
    ``TypeError``.
    """
    x, y, z = v.x, v.y, v.z
    if type(x) is not Fraction or type(y) is not Fraction or type(z) is not Fraction:
        raise TypeError(f"cross and mixed products take rational vectors, got {v!r}")
    dx, dy, dz = x.denominator, y.denominator, z.denominator
    if dx == dy == dz:
        return x.numerator, y.numerator, z.numerator, dx
    m = math.lcm(dx, dy, dz)
    return x.numerator * (m // dx), y.numerator * (m // dy), z.numerator * (m // dz), m


def cross(a: Vec3, b: Vec3) -> Vec3:
    """Right-handed cross product; orthogonal to both arguments."""
    ax, ay, az, ma = _integer_coordinates(a)
    bx, by, bz, mb = _integer_coordinates(b)
    m = ma * mb
    return Vec3(
        Fraction(ay * bz - az * by, m),
        Fraction(az * bx - ax * bz, m),
        Fraction(ax * by - ay * bx, m),
    )


def mixed(a: Vec3, b: Vec3, c: Vec3) -> Fraction:
    """Determinant with rows a, b, c, evaluated as dot(a, cross(b, c)).

    The rows run as one integer cofactor expansion over the product of their
    denominators.
    """
    ax, ay, az, ma = _integer_coordinates(a)
    bx, by, bz, mb = _integer_coordinates(b)
    cx, cy, cz, mc = _integer_coordinates(c)
    return Fraction(
        ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz) + az * (bx * cy - by * cx),
        ma * mb * mc,
    )


def area_vector(points: Sequence[Vec3]) -> Vec3:
    """Cyclic sum of cross(p_i, p_{i+1}): twice the oriented-area vector.

    Left un-halved so the result stays in the same field as the inputs;
    callers only ever compare it against zero. Translation-invariant, and for
    a planar polygon it vanishes exactly when the oriented area does.
    """
    count = len(points)
    if count < 3:
        raise ValueError(f"area vector needs at least 3 points, got {count}")
    total = ZERO_VEC
    for i, point in enumerate(points):
        total = total + cross(point, points[(i + 1) % count])
    return total
