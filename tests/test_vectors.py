"""Vector algebra: dot, cross, mixed product, area vector."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from golden import det3, vecs
from polyderive import (
    QuadExt,
    RadicandMismatchError,
    Vec3,
    area_vector,
    cross,
    dot,
    mixed,
)

coords = st.fractions(min_value=-9, max_value=9, max_denominator=9)
vectors = st.builds(Vec3, coords, coords, coords)


class TestVecOps:
    def test_construction_coerces_strings_and_ints(self):
        v = Vec3.of("1/2", -3, "0.5")
        assert v == Vec3(Fraction(1, 2), Fraction(-3), Fraction(1, 2))

    def test_add_sub_neg_scale(self):
        a, b = Vec3.of(1, 2, 3), Vec3.of(4, 5, 6)
        assert a + b == Vec3.of(5, 7, 9)
        assert b - a == Vec3.of(3, 3, 3)
        assert -a == Vec3.of(-1, -2, -3)
        assert a * Fraction(1, 2) == Vec3.of("1/2", 1, "3/2")
        assert Fraction(2) * a == Vec3.of(2, 4, 6)

    def test_scaling_by_extension_element(self):
        root = QuadExt.sqrt(2)
        scaled = Vec3.of(1, 0, 2) * root
        assert scaled.x == root
        assert scaled.z == QuadExt(0, 2, 2)

    def test_is_zero_and_iter(self):
        assert Vec3.of(0, 0, 0).is_zero()
        assert not Vec3.of(0, 1, 0).is_zero()
        assert tuple(Vec3.of(1, 2, 3)) == (Fraction(1), Fraction(2), Fraction(3))

    def test_to_floats(self):
        assert Vec3.of("1/2", 0, -2).to_floats() == (0.5, 0.0, -2.0)


class TestDot:
    def test_orthogonal_axes(self):
        assert dot(Vec3.of(1, 0, 0), Vec3.of(0, 1, 0)) == 0

    def test_support_vector_is_orthogonal_to_edge(self):
        assert dot(Vec3.of(1, 1, 2), Vec3.of(-5, 3, 1)) == 0

    def test_direct_expansion(self):
        assert dot(Vec3.of(2, 2, 1), Vec3.of(3, -1, 1)) == 5

    def test_radicand_mismatch_raises(self):
        a = Vec3(QuadExt(1, 1, 2), QuadExt(0, 0, 2), QuadExt(0, 0, 2))
        b = Vec3(QuadExt(1, 1, 3), QuadExt(0, 0, 3), QuadExt(0, 0, 3))
        with pytest.raises(RadicandMismatchError):
            dot(a, b)


class TestCross:
    def test_basis(self):
        assert cross(Vec3.of(1, 0, 0), Vec3.of(0, 1, 0)) == Vec3.of(0, 0, 1)

    def test_edge_pair(self):
        assert cross(Vec3.of(1, 1, 2), Vec3.of(1, 2, -1)) == Vec3.of(-5, 3, 1)

    def test_support_pair(self):
        assert cross(Vec3.of(2, 2, 1), Vec3.of(3, -1, 1)) == Vec3.of(3, 1, -8)


class TestMixed:
    def test_identity_matrix(self):
        assert mixed(Vec3.of(1, 0, 0), Vec3.of(0, 1, 0), Vec3.of(0, 0, 1)) == 1

    def test_worked_determinant(self):
        assert mixed(Vec3.of(0, 0, 1), Vec3.of(2, -1, 3), Vec3.of(-1, 5, 2)) == 9

    def test_agrees_with_cofactor_expansion(self):
        rows = vecs((2, -7, 1), ("1/2", 3, -4), (5, 0, "2/3"))
        assert mixed(*rows) == det3(*rows)


class TestAreaVector:
    def test_unit_right_triangle(self):
        assert area_vector(vecs((0, 0, 0), (1, 0, 0), (0, 1, 0))) == Vec3.of(0, 0, 1)

    def test_zero_area_pentagon_in_offset_plane(self):
        points = vecs((2, 2, 1), (3, -1, 1), (-3, 1, 1), (-4, 0, 1), (-1, -1, 1))
        assert area_vector(points).is_zero()

    def test_forward_backward_cancellation(self):
        points = vecs((1, 2, 3), (4, 5, 6), (7, -8, 9), (4, 5, 6))
        assert area_vector(points).is_zero()

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            area_vector(vecs((0, 0, 0), (1, 1, 1)))


class TestAlgebraicProperties:
    @given(vectors, vectors)
    def test_cross_antisymmetry(self, a, b):
        assert cross(a, b) == -cross(b, a)

    @given(vectors, vectors)
    def test_cross_is_orthogonal_to_factors(self, a, b):
        n = cross(a, b)
        assert dot(n, a) == 0
        assert dot(n, b) == 0

    @given(vectors, vectors, vectors)
    def test_mixed_is_alternating(self, a, b, c):
        value = mixed(a, b, c)
        assert mixed(b, a, c) == -value
        assert mixed(a, c, b) == -value
        assert mixed(a, a, c) == 0

    @given(vectors, vectors)
    def test_lagrange_identity(self, a, b):
        n = cross(a, b)
        assert dot(n, n) == dot(a, a) * dot(b, b) - dot(a, b) ** 2

    @given(st.lists(vectors, min_size=3, max_size=7), vectors)
    def test_area_vector_translation_invariance(self, points, shift):
        translated = [p + shift for p in points]
        assert area_vector(translated) == area_vector(points)
