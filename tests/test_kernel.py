"""Differential tests of the exact kernel against reference arithmetic.

``cross`` and ``mixed`` run rational vectors on common-denominator integers;
``QuadExt.__mul__`` skips products with a zero factor. Each result must equal,
value for value and in its JSON form, what the plain formulas give: Fraction
arithmetic for rational vectors and the ``(a, b)`` product for
``a + b*sqrt(d)``.

Odd-n support systems and their derivatives are held as one scale times
rational vectors and written out through powers of the scale built from
parts. They must equal the componentwise scaling in the independent
:class:`golden.Pair` arithmetic: ``b_k * alpha`` and ``b_k * alpha**-1``,
which is ``Pair(0, s*b_k/r)`` for ``alpha = s*sqrt(r)``, with the derived
edges, area vector and determinants computed on those pairs.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from golden import Pair, pairs
from polyderive import (
    DerivedPolygon,
    Polygon,
    QuadExt,
    Vec3,
    check_regularity,
    cross,
    deltas,
    derive,
    derived_deltas,
    edge_vectors,
    mirror,
    mixed,
    support_basis,
    support_system,
    verify_support,
)
from polyderive import reports, vectors
from polyderive.reports import derive_report, vec3_to_json
from polyderive.scalars import format_scalar, power_scaler

# Zero, small, coprime and very large denominators, both signs.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
    st.builds(
        Fraction,
        st.integers(min_value=-60, max_value=60),
        st.sampled_from([1, 2, 3, 7, 11, 13, 2**61 - 1, 10**20 + 39]),
    ),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=1, max_value=10**40),
    ),
)
rational_vectors = st.builds(Vec3, rationals, rationals, rationals)

RADICAND = Fraction(7, 3)
# Pure radicals b*sqrt(d), general a + b*sqrt(d), and rational values with b = 0.
extension_values = st.one_of(
    st.builds(lambda b: QuadExt(0, b, RADICAND), rationals),
    st.builds(lambda a, b: QuadExt(a, b, RADICAND), rationals, rationals),
    st.builds(lambda a: QuadExt(a, 0, RADICAND), rationals),
)

SETTINGS = settings(max_examples=60, deadline=None)


def ref_cross(a, b):
    a1, a2, a3 = a
    b1, b2, b3 = b
    return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)


def ref_mixed(a, b, c):
    a1, a2, a3 = a
    b1, b2, b3 = b
    c1, c2, c3 = c
    return a1 * (b2 * c3 - b3 * c2) - a2 * (b1 * c3 - b3 * c1) + a3 * (b1 * c2 - b2 * c1)


class TestRationalKernel:
    @SETTINGS
    @given(rational_vectors, rational_vectors)
    def test_cross_matches_fraction_reference(self, a, b):
        result = cross(a, b)
        assert tuple(result) == ref_cross(tuple(a), tuple(b))
        assert all(type(component) is Fraction for component in result)

    @SETTINGS
    @given(rational_vectors, rational_vectors, rational_vectors)
    def test_mixed_matches_fraction_reference(self, a, b, c):
        result = mixed(a, b, c)
        assert type(result) is Fraction
        assert result == ref_mixed(tuple(a), tuple(b), tuple(c))
        assert format_scalar(result) == format_scalar(ref_mixed(tuple(a), tuple(b), tuple(c)))

    def test_common_denominators_cancel_to_lowest_terms(self):
        a = Vec3(Fraction(1, 6), Fraction(1, 10), Fraction(1, 15))
        b = Vec3(Fraction(5, 6), Fraction(-3, 10), Fraction(2, 15))
        assert cross(a, b) == Vec3(Fraction(1, 30), Fraction(1, 30), Fraction(-2, 15))
        assert str(mixed(a, b, Vec3.of(30, 0, 0))) == "1"

    def test_extension_components_are_refused(self):
        rational = Vec3.of(1, 2, 3)
        radical = Vec3(Fraction(1), QuadExt.sqrt(2), Fraction(0))
        with pytest.raises(TypeError, match="rational vectors"):
            cross(rational, radical)
        with pytest.raises(TypeError, match="rational vectors"):
            mixed(rational, rational, radical)


class TestExtensionKernel:
    @SETTINGS
    @given(extension_values, extension_values)
    def test_product_with_zero_parts_matches_general_formula(self, x, y):
        general = QuadExt(x.a * y.a + x.b * y.b * x.d, x.a * y.b + x.b * y.a, x.d)
        for product in (x * y, y * x):
            assert product == general
            assert format_scalar(product) == format_scalar(general)
        assert format_scalar(x * y.a) == format_scalar(QuadExt(x.a * y.a, x.b * y.a, x.d))


# Small generic-looking polygons: 4 to 7 vertices with bounded rational coordinates.
polygons = st.lists(
    st.builds(Vec3, *[st.fractions(min_value=-9, max_value=9, max_denominator=9)] * 3),
    min_size=4,
    max_size=7,
).map(lambda points: Polygon(tuple(points)))


class TestDeterminantProperties:
    @SETTINGS
    @given(polygons, rationals.filter(bool))
    def test_deltas_scale_by_the_cube(self, polygon, scale):
        scaled = Polygon(tuple(vertex * scale for vertex in polygon.vertices))
        expected = tuple(value * scale**3 for value in deltas(edge_vectors(polygon)))
        assert deltas(edge_vectors(scaled)) == expected

    @SETTINGS
    @given(polygons)
    def test_mirror_flips_every_sign(self, polygon):
        flipped = deltas(edge_vectors(mirror(polygon)))
        assert flipped == tuple(-value for value in deltas(edge_vectors(polygon)))


def regular_odd_polygon(rng: random.Random, n: int) -> Polygon:
    """Generic odd n-gon, mirrored in z when its determinant product is negative.

    Mirroring flips every corner determinant, hence the sign of their product
    over an odd count, so one of the two is regular.
    """

    def part() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    while True:
        polygon = Polygon(tuple(Vec3(part(), part(), part()) for _ in range(n)))
        values = deltas(edge_vectors(polygon))
        if all(values):
            break
    product = Fraction(1)
    for value in values:
        product *= value
    return mirror(polygon) if product < 0 else polygon


def reference_support(edges, negative_root):
    """Componentwise scaling in pair arithmetic, for ``alpha = s*sqrt(r)``.

    Even positions (1-based) get ``b_k * alpha = Pair(0, s*b_k)``, odd ones
    ``b_k * alpha**-1 = Pair(0, s*b_k/r)``.
    """
    verdict = check_regularity(deltas(edges))
    r, s = verdict.alpha_squared, -1 if negative_root else 1
    basis = support_basis(edges)
    vectors = tuple(
        tuple(Pair(0, s * c if k % 2 else s * c / r, r) for c in vector)
        for k, vector in enumerate(basis.vectors)
    )
    return basis, verdict, vectors


def pair_json(vectors):
    return [[component.json() for component in vector] for vector in vectors]


def as_json(vectors):
    return [vec3_to_json(vector) for vector in vectors]


odd_polygons = st.builds(
    regular_odd_polygon,
    st.integers(min_value=0, max_value=2**32).map(random.Random),
    st.sampled_from([5, 7]),
)
ODD_SETTINGS = settings(max_examples=15, deadline=None)


class TestScaledOddSystems:
    @ODD_SETTINGS
    @given(odd_polygons, st.booleans())
    def test_system_equals_componentwise_scaling(self, polygon, negative_root):
        edges = edge_vectors(polygon)
        basis, verdict, expected = reference_support(edges, negative_root)
        r = verdict.alpha_squared
        system = support_system(basis, verdict, negative_root=negative_root)
        assert verify_support(system, edges).ok
        count = len(edges)
        for i in range(count):
            product = ref_cross(expected[i], expected[(i + 1) % count])
            assert product == pairs(edges[(i + 1) % count], r)
        assert tuple(pairs(vector, r) for vector in system.vectors) == expected
        assert as_json(system.vectors) == pair_json(expected)

    @ODD_SETTINGS
    @given(odd_polygons, st.booleans())
    def test_derived_polygon_equals_componentwise_reference(self, polygon, negative_root):
        edges = edge_vectors(polygon)
        basis, verdict, expected = reference_support(edges, negative_root)
        r = verdict.alpha_squared
        derived = derive(support_system(basis, verdict, negative_root=negative_root))
        count = len(expected)
        expected_edges = tuple(
            tuple(q - p for p, q in zip(expected[k], expected[(k + 1) % count]))
            for k in range(count)
        )
        expected_area = tuple(Pair(0, 0, r) for _ in range(3))
        for k in range(count):
            step = ref_cross(expected[k], expected[(k + 1) % count])
            expected_area = tuple(total + part for total, part in zip(expected_area, step))
        expected_deltas = tuple(
            ref_mixed(*(expected_edges[(k + j) % count] for j in range(3)))
            for k in range(count)
        )
        assert tuple(pairs(vertex, r) for vertex in derived.vertices) == expected
        assert tuple(pairs(edge, r) for edge in derived.edges) == expected_edges
        assert tuple(Pair.of(v, r) for v in derived_deltas(derived)) == expected_deltas

        block = derive_report(polygon, negative_root=negative_root)["derived_analysis"]
        zero = Pair(0, 0, r)
        assert block["vertices"] == pair_json(expected)
        assert block["edges"] == pair_json(expected_edges)
        assert block["area_vector"] == pair_json([expected_area])[0]
        assert block["derivability_defect"] == pair_json([expected_area])[0]
        assert block["derived_generic"] == all(v != zero for v in expected_deltas)
        if block["derived_generic"]:
            assert block["derived_deltas"] == [v.json() for v in expected_deltas]

    @SETTINGS
    @given(
        st.one_of(
            rationals.filter(bool),
            st.builds(lambda b: QuadExt(0, b, RADICAND), rationals.filter(bool)),
            st.builds(lambda a: QuadExt(a, 0, RADICAND), rationals.filter(bool)),
        ),
        st.integers(min_value=1, max_value=4),
        rationals,
    )
    def test_power_scaler_matches_repeated_products(self, scale, power, x):
        expected = x
        for _ in range(power):
            expected = scale * expected
        value = power_scaler(scale, power)(x)
        assert value == expected
        assert format_scalar(value) == format_scalar(expected)


class TestDerivedAreaVector:
    def test_written_with_the_square_of_the_scale(self):
        # A derivative's area vector is zero, so it cannot show the power of
        # the scale it is written with; the pentagon's vertices have a nonzero
        # one. sigma = sqrt(8/5), and sigma**2 * area(Q) is summed in pairs.
        points = golden.fixture_polygon("pentagon.json").vertices
        r = golden.PENTAGON_ALPHA_SQUARED
        block = reports._analysis(
            {},
            DerivedPolygon(points, QuadExt(0, 1, r)),
            deltas(edge_vectors(Polygon(points))),
            "derived_deltas",
        )
        expected = tuple(tuple(Pair(0, c, r) for c in point) for point in points)
        area = tuple(Pair(0, 0, r) for _ in range(3))
        for k in range(len(expected)):
            step = ref_cross(expected[k], expected[(k + 1) % len(expected)])
            area = tuple(total + part for total, part in zip(area, step))
        assert any(part != Pair(0, 0, r) for part in area)
        assert block["area_vector"] == pair_json([area])[0]
        assert block["derivability_defect"] == pair_json([area])[0]


def count_scaled(monkeypatch) -> list:
    """Count ``vectors.scaled`` calls through every module that binds it."""
    calls = []
    real = vectors.scaled

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("polyderive") and getattr(module, "scaled", None) is real:
            monkeypatch.setattr(module, "scaled", counted)
    return calls


DERIVE_CASES = [("pentagon.json", None), ("hexagon_regular.json", Fraction(1))]


def objects_in(value) -> set:
    """Ids of every list and dict inside a JSON value, itself included."""
    if isinstance(value, list):
        return {id(value)}.union(*(objects_in(item) for item in value))
    if isinstance(value, dict):
        return {id(value)}.union(*(objects_in(item) for item in value.values()))
    return set()


class TestDeriveReportWritesSupportOnce:
    @pytest.mark.parametrize("name, alpha", DERIVE_CASES)
    def test_three_scaled_calls(self, monkeypatch, name, alpha):
        # Support vectors, derived edges and the area vector; the derived
        # vertices are the support vectors and are not scaled again.
        calls = count_scaled(monkeypatch)
        derive_report(golden.fixture_polygon(name), alpha=alpha)
        assert len(calls) == 3

    @pytest.mark.parametrize("name, alpha", DERIVE_CASES)
    def test_vertices_equal_support_vectors_in_objects_of_their_own(self, name, alpha):
        report = derive_report(golden.fixture_polygon(name), alpha=alpha)
        support = report["support_system"]["vectors"]
        vertices = report["derived_analysis"]["vertices"]
        assert vertices == support
        assert not objects_in(vertices) & objects_in(support)
