"""Exact scalars: rationals and the written-out extension values."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from golden import read_long
from polyderive import (
    QuadExt,
    RadicandMismatchError,
    format_scalar,
    parse_rational,
    parse_scalar,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
nonzero_rationals = rationals.filter(bool)


def quad(a, b, d=Fraction(2)) -> QuadExt:
    return QuadExt(Fraction(a), Fraction(b), d)


quads = st.builds(quad, rationals, rationals)


class TestRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", Fraction(3)),
            ("-7/2", Fraction(-7, 2)),
            ("0.25", Fraction(1, 4)),
            ("  1/3 ", Fraction(1, 3)),
            ("2e-3", Fraction(1, 500)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    def test_parse_rejects_floats(self):
        with pytest.raises(TypeError):
            parse_rational(0.25)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    def test_parse_bounds_the_decimal_exponent(self):
        assert parse_rational("1e4300") == Fraction(10**4300)
        assert parse_rational("1e-4300") == Fraction(1, 10**4300)
        for text in ("1e4301", "-2.5E-4301", "1e+99999"):
            with pytest.raises(ValueError, match="exponent"):
                parse_rational(text)

    def test_string_round_trip(self):
        for value in (Fraction(1, 2), Fraction(-3), Fraction(0)):
            assert parse_rational(format_scalar(value)) == value


class TestQuadExtArithmetic:
    def test_sqrt_squares_to_radicand(self):
        root = QuadExt.sqrt(2)
        assert root * root == Fraction(2)

    def test_multiplicative_identity(self):
        x = quad("1/3", "-5/2")
        assert QuadExt(1, 0, 2) * x == x

    def test_scale_root_squares_exactly(self):
        root = QuadExt.sqrt(Fraction(8, 5))
        assert root * root == Fraction(8, 5)

    def test_mixed_arithmetic_with_rationals(self):
        x = quad(1, 1)
        assert Fraction(2) * x == quad(2, 2)
        assert x * Fraction(1, 2) == quad("1/2", "1/2")
        assert 3 * x == quad(3, 3)

    def test_radicand_must_be_positive(self):
        with pytest.raises(ValueError):
            QuadExt(1, 1, -2)
        with pytest.raises(ValueError):
            QuadExt(1, 1, 0)


class TestQuadExtComparisons:
    def test_equality_needs_matching_radicand(self):
        with pytest.raises(RadicandMismatchError):
            QuadExt(1, 1, 2) == QuadExt(1, 1, 3)

    def test_rational_values_compare_across_radicands(self):
        assert QuadExt(3, 0, 2) == QuadExt(3, 0, 5)

    def test_arithmetic_rejects_mismatched_radicands(self):
        with pytest.raises(RadicandMismatchError):
            QuadExt(1, 1, 2) * QuadExt(0, 1, 5)

    def test_equality_with_rationals(self):
        assert QuadExt(Fraction(3, 4), 0, 2) == Fraction(3, 4)
        assert QuadExt(Fraction(3, 4), 1, 2) != Fraction(3, 4)
        assert QuadExt(5, 0, 7) == 5

    def test_hash_agrees_with_rational_equality(self):
        assert hash(QuadExt(Fraction(3, 4), 0, 2)) == hash(Fraction(3, 4))

    def test_float_conversion(self):
        assert float(quad(1, 1)) == pytest.approx(1 + math.sqrt(2))

    def test_str_forms(self):
        assert str(quad(0, 1)) == "sqrt(2)"
        assert str(quad("1/2", -1)) == "1/2-sqrt(2)"
        assert str(quad(3, 0)) == "3"
        assert str(QuadExt(0, Fraction(5, 8), Fraction(8, 5))) == "5/8*sqrt(8/5)"


class TestScalarHelpers:
    def test_format_and_parse_quadext(self):
        value = QuadExt(Fraction(1, 2), Fraction(-3), Fraction(8, 5))
        encoded = format_scalar(value)
        assert encoded == {"a": "1/2", "b": "-3", "d": "8/5"}
        assert parse_scalar(encoded) == value

    def test_values_beyond_the_digit_limit_are_written_in_full(self):
        numerator, denominator = -(7**9001) - 3, 3**12000
        assert math.gcd(numerator, denominator) == 1
        written = format_scalar(Fraction(numerator, denominator))
        top, bottom = written.split("/")
        assert len(top) > 4300 and len(bottom) > 4300
        assert (read_long(top), read_long(bottom)) == (numerator, denominator)
        assert read_long(format_scalar(10**9000)) == 10**9000
        radical = format_scalar(QuadExt(0, 1, Fraction(2**20000 + 1, 3)))
        assert radical["a"] == "0" and radical["b"] == "1"
        assert read_long(radical["d"].split("/")[0]) == 2**20000 + 1

    def test_parse_scalar_rejects_partial_objects(self):
        with pytest.raises(ValueError):
            parse_scalar({"a": "1", "b": "2"})


class TestFieldAxioms:
    @given(rationals, rationals, rationals)
    def test_rational_associativity_and_distributivity(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z

    @given(nonzero_rationals)
    def test_rational_inverse(self, x):
        assert x * (1 / x) == 1

    @given(quads, quads, quads)
    def test_quadext_associativity(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(rationals, rationals)
    def test_embedding_commutes_with_arithmetic(self, p, q):
        def embed(value):
            return QuadExt(value, 0, 2)

        assert embed(p) * embed(q) == embed(p * q)

    @given(quads)
    def test_reconstruction_is_stable(self, x):
        assert QuadExt(x.a, x.b, x.d) == x
