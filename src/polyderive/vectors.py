"""3-vector algebra over the rationals: dot, cross, mixed, area vector.

Vectors with :class:`~polyderive.scalars.QuadExt` components exist only as
the views of a scaled polygon (:func:`scaled`); the products take rational
vectors. The exact stages hand each other vector lists in one int form,
``(points, dens)``: vector k is ``points[k] / dens[k]``, with ``dens[k] > 0``
and ``gcd(x, y, z, dens[k]) = 1``. They compute on these ints and reduce only
the values they return.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .scalars import QuadExt, Scalar, _scaled_values, parse_rational


class _Value:
    """Immutable value object: equality, hash and repr over the class's ``_fields``.

    A subclass declares its fields as class annotations, in order; ``_fields``
    is read off them. It stores them in its own ``__init__`` through ``_set``,
    the ``object.__setattr__`` that assignment otherwise bypasses. Instances
    compare equal only within one class, hash as the tuple of their fields,
    and raise ``AttributeError`` on assignment and deletion.
    ``cached_property`` writes to the instance dictionary directly, so it
    still works on them.
    """

    _fields: tuple[str, ...] = ()
    _set = object.__setattr__

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Vec3(_Value):
    """Immutable 3-vector with exact components (rational or one fixed extension)."""

    x: Scalar
    y: Scalar
    z: Scalar

    def __init__(self, x: Scalar, y: Scalar, z: Scalar) -> None:
        self._set("x", x)
        self._set("y", y)
        self._set("z", z)

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
_Form = tuple[Sequence[tuple[int, int, int]], Sequence[int]]


def scaled(vectors: Sequence[Vec3], scale: Scalar) -> tuple[Vec3, ...]:
    """Each rational vector times ``scale``; see :func:`scalars._power`."""
    if not isinstance(scale, QuadExt) and scale == 1:
        return tuple(vectors)
    flat = _scaled_values([c for v in vectors for c in v], scale, 1)
    return tuple(Vec3(*flat[k : k + 3]) for k in range(0, len(flat), 3))


def dot(a: Vec3, b: Vec3) -> Scalar:
    return a.x * b.x + a.y * b.y + a.z * b.z


def _integer_coordinates(vectors: Sequence[Vec3]) -> _Form:
    """The int form of rational vectors, each over the LCM of its own three denominators.

    The ints stay as small as the vector's own entries whatever the other
    vectors of a list hold. A component that is not a ``Fraction`` raises
    ``TypeError``.
    """
    points, dens = [], []
    for v in vectors:
        x, y, z = v.x, v.y, v.z
        if type(x) is not Fraction or type(y) is not Fraction or type(z) is not Fraction:
            raise TypeError(f"cross and mixed products take rational vectors, got {v!r}")
        dx, dy, dz = x.denominator, y.denominator, z.denominator
        m = math.lcm(dx, dy, dz)
        points.append((x.numerator * (m // dx), y.numerator * (m // dy), z.numerator * (m // dz)))
        dens.append(m)
    return points, dens


def _cleared(v: Sequence[int], den: int, top: int) -> tuple[tuple[int, int, int], int]:
    """``top * v / den`` in the int form, for ``den > 0``, cancelled crosswise.

    As in a Fraction product, ``v`` and ``den`` are cancelled first, then
    ``top`` and what is left of ``den``, so that each gcd runs on the
    smallest ints.
    """
    c = math.gcd(den, *v)
    h = math.gcd(top, den // c)
    t = top // h
    return (t * (v[0] // c), t * (v[1] // c), t * (v[2] // c)), den // c // h


def _cleared_all(points: Sequence[Sequence[int]], den: int) -> _Form:
    """The int form of the vectors ``points[k] / den``, for ``den > 0``."""
    return tuple(zip(*(_cleared(point, den, 1) for point in points)))


def _int_difference(
    a: tuple[int, int, int], da: int, b: tuple[int, int, int], db: int
) -> tuple[tuple[int, int, int], int]:
    """``b / db - a / da`` in the int form, for two vectors in it, over the LCM.

    A prime dividing one denominator more often than the other cannot divide
    all three numerators, so only a factor of gcd(da, db) can cancel.
    """
    g = math.gcd(da, db)
    sa, sb = db // g, da // g
    v = (b[0] * sb - a[0] * sa, b[1] * sb - a[1] * sa, b[2] * sb - a[2] * sa)
    c = math.gcd(g, *v)
    return (v[0] // c, v[1] // c, v[2] // c), sb * db // c


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


class _Points(_Value):
    """A value over rational vectors, its first field, that may hold them in the int form.

    The public constructor stores the vectors; a pipeline stage stores the int
    form ``_form`` it computed on instead (:meth:`_of`). Each is built from the
    other on first read, so a stage that only writes or re-checks the vectors
    builds no ``Fraction``. A subclass binds its vector field to
    ``cached_property(_Points._vectors)``.
    """

    @classmethod
    def _of(cls, form: _Form, *values: object) -> _Points:
        """The value of vectors in the int form, with its other fields ``values``."""
        obj = cls.__new__(cls)
        obj.__dict__.update(zip(cls._fields[1:], values), _form=form)
        obj._check()
        return obj

    def _check(self) -> None:
        """Raise ``ValueError`` if the fields make no valid value of the class."""

    def _vectors(self) -> tuple[Vec3, ...]:
        return tuple(map(_rational_vector, *self._form))

    @cached_property
    def _form(self) -> _Form:
        return _integer_coordinates(getattr(self, self._fields[0]))

    @property
    def n(self) -> int:
        return len(self._form[1] if "_form" in self.__dict__ else getattr(self, self._fields[0]))


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
    return _rational_vector(*_area_vector(_integer_coordinates(points)))


def _over_lcm(points: _Form) -> tuple[list[tuple[int, int, int]], int]:
    """The int triples of ``points`` over one denominator: the LCM m of their own."""
    ints, dens = points
    m = math.lcm(*dens)
    ints = [
        p if d == m else (p[0] * (m // d), p[1] * (m // d), p[2] * (m // d))
        for p, d in zip(ints, dens)
    ]
    return ints, m


def _area_vector(points: _Form) -> tuple[tuple[int, int, int], int]:
    """:func:`area_vector` of at least three points in the int form, as an int triple
    over a positive denominator, not reduced."""
    ints, m = _over_lcm(points)
    count = len(ints)
    crosses = [_int_cross(ints[i], ints[(i + 1) % count]) for i in range(count)]
    return tuple(map(sum, zip(*crosses))), m * m
