"""Derived polygons: planarity, determinants, hexagon structure, crossings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from golden import vecs
from polyderive import (
    DerivedPolygon,
    GenConfig,
    HexType,
    NonGenericPolygonError,
    PlanarityReport,
    Polygon,
    SupportSystem,
    Vec3,
    area_vector,
    build_support_system,
    cross,
    deltas,
    derive,
    derived_deltas,
    dot,
    edge_vectors,
    hex_type,
    is_generic,
    is_planar,
    mixed,
    planar_self_intersection,
    random_generic_polygon,
    regular_hexagon_via_lift,
    second_derivative_type,
    strongly_regular_check,
    two_plane_decomposition,
)


def hexagon_derivative(edges, alpha=Fraction(1)) -> DerivedPolygon:
    return derive(build_support_system(edges, alpha=alpha))


# The two-plane split and the crossing test as they were written on Fraction
# vectors, before they ran on the int form: the references the int versions
# must equal.


def reference_split(points):
    anchor = points[0]
    normal = cross(points[2] - anchor, points[4] - anchor)
    if normal.is_zero():
        raise ValueError("collinear")
    norm_sq = dot(normal, normal)
    odd = tuple(dot(points[k] - anchor, normal) for k in (0, 2, 4))
    even = tuple(dot(points[k] - anchor, normal) for k in (1, 3, 5))
    projections = tuple(
        points[k] - (height / norm_sq) * normal for k, height in zip((1, 3, 5), even)
    )
    flat = [points[0], projections[0], points[2], projections[1], points[4], projections[2]]
    return normal, odd, even, projections, area_vector(flat)


def reference_crossing(points):
    normal = cross(points[1] - points[0], points[2] - points[0])
    if normal.is_zero():
        normal = cross(points[1] - points[0], points[3] - points[0])
    if normal.is_zero():
        raise ValueError("collinear")

    def orient(p, q, r):
        value = mixed(normal, q - p, r - p)
        return (value > 0) - (value < 0)

    def proper_cross(p, q, r, s):
        return orient(p, q, r) * orient(p, q, s) < 0 and orient(r, s, p) * orient(r, s, q) < 0

    return proper_cross(*points) or proper_cross(*points[1:], points[0])


def outcome(function, *args):
    """The value of the call, or that it raised for collinear points."""
    try:
        return function(*args)
    except ValueError as exc:
        return ("raised", "collinear" in str(exc))


ratios = st.fractions(min_value=-9, max_value=9, max_denominator=9)
points = st.builds(Vec3, ratios, ratios, ratios)


class TestDerive:
    def test_regular_hexagon_edge_table(self):
        derived = hexagon_derivative(golden.REGULAR_HEXAGON_EDGES)
        assert derived.vertices == golden.REGULAR_HEXAGON_SUPPORT
        assert derived.edges == golden.REGULAR_HEXAGON_DERIVED_EDGES

    def test_strongly_regular_hexagon_edge_table(self):
        derived = hexagon_derivative(golden.STRONGLY_REGULAR_HEXAGON_EDGES)
        assert derived.vertices == golden.STRONGLY_REGULAR_HEXAGON_SUPPORT
        assert derived.edges == golden.STRONGLY_REGULAR_DERIVED_EDGES

    def test_unit_scale_vertices_equal_chain(self):
        from polyderive import support_basis

        edges = golden.REGULAR_HEXAGON_EDGES
        derived = hexagon_derivative(edges, Fraction(1))
        assert derived.vertices == support_basis(edges).vectors

    def test_edges_sum_to_zero(self):
        derived = hexagon_derivative(golden.REGULAR_HEXAGON_EDGES, Fraction(2))
        total = Vec3.of(0, 0, 0)
        for edge in derived.edges:
            total = total + edge
        assert total.is_zero()


class TestPlanarity:
    def test_derived_quadrangle_is_planar(self):
        derived = derive(build_support_system(golden.QUADRANGLE_EDGES, alpha=Fraction(1)))
        assert is_planar(derived).planar

    def test_derived_pentagon_is_planar_in_the_extension(self):
        derived = derive(build_support_system(golden.PENTAGON_EDGES))
        report = is_planar(derived)
        assert report.planar
        assert report.witness is None

    def test_derived_hexagon_is_genuinely_three_dimensional(self):
        derived = hexagon_derivative(golden.REGULAR_HEXAGON_EDGES)
        report = is_planar(derived)
        assert not report.planar
        assert report.witness == 4

    def test_triangles_are_trivially_planar(self):
        assert is_planar(DerivedPolygon(vecs((0, 0, 0), (1, 0, 0), (0, 1, 5)))).planar

    def test_points_are_converted_only_up_to_the_witness(self, monkeypatch):
        import polyderive.derived

        original = polyderive.derived._integer_coordinates
        converted = []

        def counted(vectors):
            converted.extend(vectors)
            return original(vectors)

        monkeypatch.setattr(polyderive.derived, "_integer_coordinates", counted)
        # Points on the moment curve (k, k^2, k^3): no four are coplanar.
        moment = Polygon(vecs(*((k, k * k, k**3) for k in range(21))))
        assert is_planar(moment) == PlanarityReport(False, 4)
        assert len(converted) == 4


class TestDerivedDeltas:
    def test_regular_hexagon(self):
        derived = hexagon_derivative(golden.REGULAR_HEXAGON_EDGES)
        assert derived_deltas(derived) == golden.REGULAR_HEXAGON_DERIVED_DELTAS

    def test_strongly_regular_hexagon(self):
        derived = hexagon_derivative(golden.STRONGLY_REGULAR_HEXAGON_EDGES)
        assert derived_deltas(derived) == golden.STRONGLY_REGULAR_DERIVED_DELTAS

    def test_planar_derived_quadrangle_is_non_generic(self):
        derived = derive(build_support_system(golden.QUADRANGLE_EDGES, alpha=Fraction(1)))
        values = derived_deltas(derived)
        assert all(value == 0 for value in values)
        assert not is_generic(derived.edges).ok


class TestStronglyRegular:
    def test_golden_examples(self):
        assert strongly_regular_check(golden.REGULAR_HEXAGON_DERIVED_DELTAS)
        assert strongly_regular_check(golden.STRONGLY_REGULAR_DERIVED_DELTAS)
        assert strongly_regular_check(golden.STRONGLY_REGULAR_HEXAGON_DELTAS)

    def test_regular_but_not_strongly_regular(self):
        assert not strongly_regular_check(golden.REGULAR_HEXAGON_DELTAS)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="hexagons"):
            strongly_regular_check((1, 2, 3, 4, 5))

    def test_zero_delta_rejected(self):
        with pytest.raises(NonGenericPolygonError):
            strongly_regular_check((1, 2, 0, 1, 2, 0))


class TestHexType:
    def _canonical_oracle(self, triple):
        rotations = [
            (triple[r], triple[(r + 1) % 3], triple[(r + 2) % 3]) for r in range(3)
        ]
        scaled = [(Fraction(1), b / a, c / a) for a, b, c in rotations]
        return min(scaled)

    def test_regular_hexagon_derivative_type(self):
        value = hex_type(golden.REGULAR_HEXAGON_DERIVED_DELTAS)
        assert value.ratio == (Fraction(1), Fraction(-8, 3), Fraction(6))

    def test_strongly_regular_types(self):
        assert hex_type(golden.STRONGLY_REGULAR_HEXAGON_DELTAS).ratio == (
            Fraction(1),
            Fraction(-5, 4),
            Fraction(1, 2),
        )
        assert hex_type(golden.STRONGLY_REGULAR_DERIVED_DELTAS).ratio == (
            Fraction(1),
            Fraction(-8, 3),
            Fraction(5, 12),
        )

    def test_constant_triple_is_symmetric(self):
        assert hex_type((7, 7, 7, 7, 7, 7)).ratio == (1, 1, 1)

    def test_matches_independent_canonicalization(self):
        rng = random.Random(3)
        for _ in range(50):
            triple = tuple(
                Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 9))
                for _ in range(3)
            )
            values = triple + triple
            assert hex_type(values).ratio == self._canonical_oracle(triple)

    def test_type_is_rotation_invariant(self):
        triple = (Fraction(3), Fraction(-5, 2), Fraction(7, 3))
        rotated = (triple[1], triple[2], triple[0])
        assert hex_type(triple + triple) == hex_type(rotated + rotated)

    def test_requires_strong_regularity(self):
        with pytest.raises(ValueError, match="half-turn"):
            hex_type(golden.REGULAR_HEXAGON_DELTAS)


class TestTwoPlaneDecomposition:
    def test_golden_hexagon_split(self):
        derived = hexagon_derivative(golden.REGULAR_HEXAGON_EDGES)
        split = two_plane_decomposition(derived)
        assert split.normal == Vec3.of("1/2", "17/4", "9/2")
        assert split.odd_offsets == (0, 0, 0)
        assert split.even_offsets == (Fraction(-4), Fraction(-4), Fraction(-4))
        assert split.parallel
        assert split.projected_area_vector.is_zero()

    def test_lift_construction_satisfies_it_by_design(self):
        polygon, system = regular_hexagon_via_lift(GenConfig(seed=12))
        split = two_plane_decomposition(derive(system))
        assert split.parallel
        assert split.projected_area_vector.is_zero()

    def test_perturbed_even_vertex_is_detected(self):
        derived = hexagon_derivative(golden.REGULAR_HEXAGON_EDGES)
        vertices = list(derived.vertices)
        vertices[3] = vertices[3] + Vec3.of(0, 0, "1/7")
        split = two_plane_decomposition(DerivedPolygon(tuple(vertices)))
        assert not split.parallel

    @settings(max_examples=80, deadline=None)
    @given(st.lists(points, min_size=6, max_size=6), st.sampled_from([None, 2, 4]))
    def test_int_split_equals_the_fraction_reference(self, vertices, collinear):
        if collinear is not None:  # vertex 5 (or 3) on the line through the other two of 1, 3, 5
            vertices[collinear] = vertices[0] + 2 * (vertices[6 - collinear] - vertices[0])
        expected = outcome(reference_split, vertices)
        for polygon in (Polygon(vertices), DerivedPolygon(vertices)):
            split = outcome(two_plane_decomposition, polygon)
            if isinstance(split, tuple):
                assert split == expected == ("raised", True)
            else:
                fields = (split.normal, split.odd_offsets, split.even_offsets)
                assert (*fields, split.projections, split.projected_area_vector) == expected

    def test_collinear_anchor_vertices_rejected(self):
        points = vecs((0, 0, 0), (1, 5, 2), (1, 1, 1), (4, -1, 3), (2, 2, 2), (0, 3, 1))
        with pytest.raises(ValueError, match="collinear"):
            two_plane_decomposition(DerivedPolygon(points))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="hexagons"):
            two_plane_decomposition(DerivedPolygon(golden.QUADRANGLE_VERTICES))


class TestSecondDerivative:
    def test_golden_hexagon_types_match(self):
        result = second_derivative_type(golden.REGULAR_HEXAGON_EDGES, 1, 1)
        assert result.first_type == result.second_type
        assert result.first_deltas == golden.REGULAR_HEXAGON_DERIVED_DELTAS
        assert result.second_deltas == golden.fracs(
            "-11/2", "-11/12", "22/9", "-11/2", "-11/12", "22/9"
        )

    def test_shift_relations(self):
        result = second_derivative_type(golden.REGULAR_HEXAGON_EDGES, 2, Fraction(1, 3))
        first, second = result.first_deltas, result.second_deltas
        assert second[0] * first[2] == second[1] * first[1]
        assert second[1] * first[0] == second[2] * first[2]
        assert second[2] * first[1] == second[0] * first[0]

    def test_lift_fixture_types_match(self):
        polygon, _system = regular_hexagon_via_lift(GenConfig(seed=4))
        result = second_derivative_type(edge_vectors(polygon), 2, Fraction(1, 3))
        assert result.first_type == result.second_type

    def test_type_equality_is_reflexive(self):
        value = hex_type(golden.REGULAR_HEXAGON_DERIVED_DELTAS)
        assert value == HexType(value.ratio)


class TestSelfIntersection:
    def test_derived_quadrangle_self_intersects(self):
        derived = derive(build_support_system(golden.QUADRANGLE_EDGES, alpha=Fraction(1)))
        assert planar_self_intersection(derived)

    def test_convex_square_does_not(self):
        square = DerivedPolygon(vecs((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
        assert not planar_self_intersection(square)

    def test_non_planar_input_rejected(self):
        skew = DerivedPolygon(vecs((0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 3)))
        with pytest.raises(ValueError, match="planar"):
            planar_self_intersection(skew)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="quadrangles"):
            planar_self_intersection(DerivedPolygon(golden.REGULAR_HEXAGON_SUPPORT))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(points, min_size=4, max_size=4), st.integers(2, 4))
    def test_int_test_equals_the_fraction_reference(self, vertices, free):
        # Planar quadrangles, dropped into z = 0, with vertices free + 1 to 4
        # put on the line through vertices 1 and 2 (all four for free = 2).
        vertices = [Vec3(v.x, v.y, Fraction(0)) for v in vertices]
        for k in range(free, 4):
            vertices[k] = vertices[0] + (k + 1) * (vertices[1] - vertices[0])
        expected = outcome(reference_crossing, vertices)
        assert outcome(planar_self_intersection, Polygon(vertices)) == expected
        assert outcome(planar_self_intersection, DerivedPolygon(vertices)) == expected

    def test_random_derived_quadrangles_self_intersect(self):
        for seed in range(200):
            polygon = random_generic_polygon(4, GenConfig(seed=seed))
            derived = derive(
                build_support_system(edge_vectors(polygon), alpha=Fraction(1))
            )
            assert is_planar(derived).planar
            assert area_vector(derived.vertices).is_zero()
            assert planar_self_intersection(derived)


class TestFlatSupportAreaCancellation:
    def test_same_height_vectors_have_horizontal_area_zero(self):
        # For any five vectors sharing a z-coordinate, the cyclic cross-sum
        # has no component in the base plane.
        rng = random.Random(29)
        for _ in range(20):
            height = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            points = vecs(
                *(
                    (
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        height,
                    )
                    for _ in range(5)
                )
            )
            total = area_vector(points)
            assert total.x == 0
            assert total.y == 0


class TestReportsRunEachCheckOnce:
    """The report builders test symmetry and planarity once per polygon."""

    @staticmethod
    def _count_calls(monkeypatch, name: str) -> list:
        import polyderive.derived
        import polyderive.reports

        calls = []
        original = getattr(polyderive.derived, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (polyderive.derived, polyderive.reports):
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_symmetry_check_per_hexagon(self, monkeypatch):
        from polyderive.reports import derive_report

        calls = self._count_calls(monkeypatch, "strongly_regular_check")
        report = derive_report(golden.fixture_polygon("hexagon_regular.json"), alpha=Fraction(1))
        assert report["derived_analysis"]["hex_type"]
        assert len(calls) == 2  # the derived hexagon, then the input

    def test_one_planarity_check_per_quadrangle(self, monkeypatch):
        from polyderive.reports import analyze_report, derive_report

        import polyderive.derived

        calls = self._count_calls(monkeypatch, "is_planar")
        cleared = []
        real = polyderive.derived._integer_coordinates

        def counted(rows):
            cleared.append(rows)
            return real(rows)

        monkeypatch.setattr(polyderive.derived, "_integer_coordinates", counted)
        report = derive_report(golden.fixture_polygon("quadrangle.json"), alpha=Fraction(1))
        assert report["derived_analysis"]["self_intersecting"]
        assert len(calls) == 1
        assert cleared == []  # the derivative is tested in the int form its system holds
        square = Polygon(vecs((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)))
        assert analyze_report(square)["self_intersecting"] is False
        assert len(calls) == 2

    def test_public_guards_still_raise(self):
        with pytest.raises(ValueError, match="half-turn"):
            hex_type(golden.REGULAR_HEXAGON_DELTAS)
        skew = DerivedPolygon(vecs((0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 3)))
        with pytest.raises(ValueError, match="planar"):
            planar_self_intersection(skew)
