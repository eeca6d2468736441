"""3-vector algebra over the rationals: dot, cross, mixed, area vector.

Vectors with :class:`~polyderive.scalars.QuadExt` components exist only as
the views of a scaled polygon (:func:`scaled`); the products take rational
vectors. They clear denominators once (:func:`_integer_coordinates`, each
vector over its own denominator) and run on Python ints; the private int
helpers let the polygon stages run a whole vector list on ints and reduce
only the values they return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .scalars import QuadExt, Scalar, _scaled_values, parse_rational


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


def scaled(vectors: Sequence[Vec3], scale: Scalar) -> tuple[Vec3, ...]:
    """Each rational vector times ``scale``; see :func:`scalars._power`."""
    if not isinstance(scale, QuadExt) and scale == 1:
        return tuple(vectors)
    flat = _scaled_values([c for v in vectors for c in v], scale, 1)
    return tuple(Vec3(*flat[k : k + 3]) for k in range(0, len(flat), 3))


def dot(a: Vec3, b: Vec3) -> Scalar:
    return a.x * b.x + a.y * b.y + a.z * b.z


def _integer_coordinates(vectors: Sequence[Vec3]) -> tuple[list[tuple[int, int, int]], list[int]]:
    """``(points, dens)`` with ``vectors[k] = points[k] / dens[k]``: int triples.

    Each vector is cleared over the LCM of its own three denominators, so the
    ints stay as small as the vector's own entries whatever the other vectors
    of a list hold. Cross and mixed products are homogeneous, so they run on
    the int triples and divide once by the product of the denominators;
    ``Fraction(num, den)`` reduces to the same lowest terms as componentwise
    Fraction arithmetic. A component that is not a ``Fraction`` raises
    ``TypeError``.
    """
    points, dens = [], []
    for v in vectors:
        x, y, z = v.x, v.y, v.z
        if type(x) is not Fraction or type(y) is not Fraction or type(z) is not Fraction:
            raise TypeError(f"cross and mixed products take rational vectors, got {v!r}")
        dx, dy, dz = x.denominator, y.denominator, z.denominator
        if dx == dy == dz:
            points.append((x.numerator, y.numerator, z.numerator))
            dens.append(dx)
        else:
            m = math.lcm(dx, dy, dz)
            points.append(
                (x.numerator * (m // dx), y.numerator * (m // dy), z.numerator * (m // dz))
            )
            dens.append(m)
    return points, dens


def _int_sub(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _int_difference(
    a: tuple[int, int, int], da: int, b: tuple[int, int, int], db: int
) -> tuple[tuple[int, int, int], int]:
    """``b / db - a / da`` as an int triple over the LCM of the two denominators."""
    if da == db:
        return _int_sub(b, a), da
    g = math.gcd(da, db)
    sa, sb = db // g, da // g
    return (b[0] * sb - a[0] * sa, b[1] * sb - a[1] * sa, b[2] * sb - a[2] * sa), sb * db


def _int_cross(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    ax, ay, az = a
    bx, by, bz = b
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


def _int_det(a: tuple[int, int, int], b: tuple[int, int, int], c: tuple[int, int, int]) -> int:
    """Determinant with rows a, b, c, as dot(a, cross(b, c))."""
    bx, by, bz = b
    cx, cy, cz = c
    return a[0] * (by * cz - bz * cy) + a[1] * (bz * cx - bx * cz) + a[2] * (bx * cy - by * cx)


def _rational_vector(v: tuple[int, int, int], den: int) -> Vec3:
    """The public form of ``v / den``: each component reduced once to lowest terms."""
    return Vec3(Fraction(v[0], den), Fraction(v[1], den), Fraction(v[2], den))


def _times(v: Vec3, factor: Fraction) -> Vec3:
    """``factor * v`` for a rational vector, one reduction per component.

    Common factors are cancelled crosswise first, as in a Fraction product,
    so that the reduction runs on the smallest ints.
    """
    if factor == 1:
        return v
    num, den = factor.numerator, factor.denominator
    parts = []
    for c in v:
        top, bottom = c.numerator, c.denominator
        g, h = math.gcd(top, den), math.gcd(num, bottom)
        parts.append(Fraction((top // g) * (num // h), (bottom // h) * (den // g)))
    return Vec3(*parts)


def cross(a: Vec3, b: Vec3) -> Vec3:
    """Right-handed cross product; orthogonal to both arguments."""
    (pa, pb), (ma, mb) = _integer_coordinates((a, b))
    return _rational_vector(_int_cross(pa, pb), ma * mb)


def mixed(a: Vec3, b: Vec3, c: Vec3) -> Fraction:
    """Determinant with rows a, b, c, evaluated as dot(a, cross(b, c)).

    The rows run as one integer cofactor expansion over the product of their
    denominators.
    """
    (pa, pb, pc), (ma, mb, mc) = _integer_coordinates((a, b, c))
    return Fraction(_int_det(pa, pb, pc), ma * mb * mc)


def area_vector(points: Sequence[Vec3]) -> Vec3:
    """Cyclic sum of cross(p_i, p_{i+1}): twice the oriented-area vector.

    Left un-halved so the result stays in the same field as the inputs;
    callers only ever compare it against zero. Translation-invariant, and for
    a planar polygon it vanishes exactly when the oriented area does.
    """
    count = len(points)
    if count < 3:
        raise ValueError(f"area vector needs at least 3 points, got {count}")
    # The sum needs one denominator for every term: the LCM m of the
    # points' own denominators.
    ints, dens = _integer_coordinates(points)
    m = math.lcm(*dens)
    ints = [
        p if d == m else (p[0] * (m // d), p[1] * (m // d), p[2] * (m // d))
        for p, d in zip(ints, dens)
    ]
    crosses = [_int_cross(ints[i], ints[(i + 1) % count]) for i in range(count)]
    return _rational_vector(tuple(map(sum, zip(*crosses))), m * m)
