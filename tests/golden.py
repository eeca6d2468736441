"""Golden polygons shared across the test suite, with frozen expected values.

Expected values were computed with independent exact arithmetic (cofactor
determinant expansion over fractions) before being frozen here; the tests
re-derive several of them through :func:`det3` to keep the oracle separate
from the library's own evaluation path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from polyderive import Polygon, Vec3
from polyderive.reports import polygon_from_json

FIXTURES_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> dict:
    with open(FIXTURES_DIR / name, encoding="utf-8") as handle:
        return json.load(handle)


def fixture_polygon(name: str) -> Polygon:
    return polygon_from_json(load_fixture(name))


def vecs(*rows) -> tuple[Vec3, ...]:
    return tuple(Vec3.of(*row) for row in rows)


def fracs(*values) -> tuple[Fraction, ...]:
    return tuple(Fraction(value) for value in values)


def det3(a, b, c) -> Fraction:
    """Cofactor expansion of the 3x3 determinant; the independent test oracle."""
    a1, a2, a3 = tuple(a)
    b1, b2, b3 = tuple(b)
    c1, c2, c3 = tuple(c)
    return a1 * (b2 * c3 - b3 * c2) - a2 * (b1 * c3 - b3 * c1) + a3 * (b1 * c2 - b2 * c1)


def read_long(text: str) -> int:
    """The int written as ``text``, read in chunks.

    ``int`` refuses decimal strings beyond the interpreter's digit limit
    (4300 digits by default), so this is how a test reads such a value back.
    """
    digits = text.lstrip("-")
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


class Pair:
    """Reference ``a + b*sqrt(d)`` with the textbook sum and product.

    Independent of :class:`polyderive.QuadExt`, whose written-out values the
    tests compare against it; :meth:`json` is the report form of the value.
    """

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), Fraction(d)

    @classmethod
    def of(cls, value, d):
        """A written-out ``QuadExt`` or a rational, over the radicand ``d``."""
        if isinstance(value, Fraction):
            return cls(value, 0, d)
        return cls(value.a, value.b, value.d)

    def __add__(self, other):
        return Pair(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other):
        return Pair(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self):
        return Pair(-self.a, -self.b, self.d)

    def __mul__(self, other):
        return Pair(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    def __eq__(self, other):
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __repr__(self):
        return f"Pair({self.a}, {self.b}, d={self.d})"

    def json(self):
        return {"a": str(self.a), "b": str(self.b), "d": str(self.d)}


def pairs(vector, d) -> tuple[Pair, ...]:
    return tuple(Pair.of(component, d) for component in vector)


# Generic quadrangle: vertices, edges, support chain, all exact.
QUADRANGLE_VERTICES = vecs((0, 0, 0), (1, 1, 2), (2, 3, 1), (-1, 2, -2))
QUADRANGLE_EDGES = vecs((1, 1, 2), (1, 2, -1), (-3, -1, -3), (1, -2, 2))
QUADRANGLE_DELTAS = fracs(9, -9, 9, -9)
QUADRANGLE_BASIS = vecs(
    (-5, 3, 1), ("-7/9", "2/3", "5/9"), (8, -3, -7), ("2/3", "0", "-1/3")
)

# Pentagon whose scale factor is the square root of 8/5.
PENTAGON_EDGES = vecs((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -2, 3), (-3, 1, -4))
PENTAGON_DELTAS = fracs(1, 2, -4, 5, -4)
PENTAGON_BASIS = vecs(
    (0, 0, 1), (1, 0, 0), (1, 1, 0), ("-5/2", "1/2", 2), (0, "8/5", "2/5")
)
PENTAGON_ALPHA_SQUARED = Fraction(8, 5)

# Pentagon defined through five support vectors in a horizontal plane; the
# round trip recovers them with a rational scale factor of magnitude 12.
FLAT_SUPPORT_VECTORS = vecs((2, 2, 1), (3, -1, 1), (-3, 1, 1), (-4, 0, 1), (-1, -1, 1))
FLAT_SUPPORT_EDGES = vecs((-3, 3, 0), (3, 1, -8), (-2, -6, 0), (1, -1, 4), (1, 3, 4))
FLAT_SUPPORT_DELTAS = fracs(192, -128, 32, 48, -144)

# Regular (not strongly regular) hexagon and its exact derivative.
REGULAR_HEXAGON_EDGES = vecs(
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3), (-1, 5, 2), (-2, -5, -6)
)
REGULAR_HEXAGON_DELTAS = fracs(1, 2, 9, 15, -20, -6)
REGULAR_HEXAGON_SUPPORT = vecs(
    (0, 0, 1),
    (1, 0, 0),
    ("1/2", 1, 0),
    ("-34/9", "-14/9", 2),
    (-6, -3, "9/2"),
    (0, 1, "-5/6"),
)
REGULAR_HEXAGON_DERIVED_EDGES = vecs(
    (1, 0, -1),
    ("-1/2", 1, 0),
    ("-77/18", "-23/9", 2),
    ("-20/9", "-13/9", "5/2"),
    (6, 4, "-16/3"),
    (0, -1, "11/6"),
)
REGULAR_HEXAGON_DERIVED_DELTAS = fracs("-32/9", 8, "4/3", "-32/9", 8, "4/3")

# Strongly regular hexagon whose derivative has a different type.
STRONGLY_REGULAR_HEXAGON_EDGES = vecs(
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (2, -1, 3),
    ("-3/2", "-1/2", "-3/2"),
    ("-3/2", "1/2", "-5/2"),
)
STRONGLY_REGULAR_HEXAGON_DELTAS = fracs(1, 2, "-5/2", 1, 2, "-5/2")
STRONGLY_REGULAR_HEXAGON_SUPPORT = vecs(
    (0, 0, 1),
    (1, 0, 0),
    ("1/2", 1, 0),
    ("-12/5", "6/5", 2),
    ("-5/2", "15/8", "15/8"),
    (0, 1, "1/5"),
)
STRONGLY_REGULAR_DERIVED_EDGES = vecs(
    (1, 0, -1),
    ("-1/2", 1, 0),
    ("-29/10", "1/5", 2),
    ("-1/10", "27/40", "-1/8"),
    ("5/2", "-7/8", "-67/40"),
    (0, -1, "4/5"),
)
STRONGLY_REGULAR_DERIVED_DELTAS = fracs("-4/5", "1/8", "3/10", "-4/5", "1/8", "3/10")
