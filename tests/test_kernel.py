"""Differential tests of the exact kernel against reference arithmetic.

``cross`` and ``mixed`` run rational vectors on integers, each vector over
its own denominator;
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

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import golden
from golden import Pair, pairs
from polyderive import (
    DerivedPolygon,
    Polygon,
    QuadExt,
    SupportCheck,
    SupportSystem,
    Vec3,
    build_support_system,
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
from polyderive import regularity, reports, scalars, vectors
from polyderive.reports import derive_report, vec3_to_json
from polyderive.scalars import _format_scaled, _scaled_values, format_scalar

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

# Positive radicands, from the same zero-free draws.
radicands = rationals.filter(bool).map(abs)

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
            rationals,
            st.builds(lambda b, d: QuadExt(0, b, d), rationals, radicands),
            st.builds(lambda a, d: QuadExt(a, 0, d), rationals, radicands),
        ),
        st.lists(rationals, max_size=4),
    )
    def test_writer_matches_repeated_products(self, scale, values):
        for power in range(1, 5):
            expected = []
            for x in values:
                for _ in range(power):
                    x = scale * x
                expected.append(x)
            assert _format_scaled(values, scale, power) == list(map(format_scalar, expected))
            views = _scaled_values(values, scale, power)
            assert views == expected
            assert list(map(format_scalar, views)) == list(map(format_scalar, expected))

    @pytest.mark.parametrize("a,b", [(1, 1), (-1, -1), (1, -1), (-1, 1), (3, -2)])
    def test_writer_needs_a_zero_part(self, a, b):
        scale = QuadExt(a, b, 2)
        for power in range(1, 5):
            with pytest.raises(ValueError, match="has no rational square"):
                _format_scaled([Fraction(1)], scale, power)


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


def count_writes(monkeypatch) -> list:
    """Record the values and power of every ``_format_scaled`` call of ``reports``."""
    calls = []
    real = reports._format_scaled

    def counted(values, scale, power):
        calls.append((list(values), power))
        return real(values, scale, power)

    monkeypatch.setattr(reports, "_format_scaled", counted)
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
    def test_support_vectors_written_once(self, monkeypatch, name, alpha):
        # One write each for the support vectors, the derived edges and the
        # area vector, then the derived determinants if the derivative is
        # generic (a derived pentagon is planar, so it is not); the derived
        # vertices are the support vectors and are not written again.
        writes = count_writes(monkeypatch)
        polygon = golden.fixture_polygon(name)
        derive_report(polygon, alpha=alpha)
        support = build_support_system(edge_vectors(polygon), alpha).unscaled
        assert [power for _values, power in writes] == [1, 1, 2, 3][: max(3, len(writes))]
        assert [values for values, _power in writes].count([c for v in support for c in v]) == 1

    def test_pentagon_builds_alpha_and_no_other_extension_value(self, monkeypatch):
        # Every power of alpha is written from its parts.
        built, inits = [], []
        real_quad, real_init = scalars._quad, QuadExt.__init__

        def quad(*args):
            built.append(args)
            return real_quad(*args)

        def init(self, *args):
            inits.append(args)
            real_init(self, *args)

        monkeypatch.setattr(scalars, "_quad", quad)
        monkeypatch.setattr(QuadExt, "__init__", init)
        derive_report(golden.fixture_polygon("pentagon.json"))
        assert (len(built), len(inits)) == (0, 1)

    @pytest.mark.parametrize("name, alpha", DERIVE_CASES)
    def test_vertices_equal_support_vectors_in_objects_of_their_own(self, name, alpha):
        report = derive_report(golden.fixture_polygon(name), alpha=alpha)
        support = report["support_system"]["vectors"]
        vertices = report["derived_analysis"]["vertices"]
        assert vertices == support
        assert not objects_in(vertices) & objects_in(support)


# Coordinates for the integer path: coprime, huge and negative denominators;
# Fraction normalizes a negative denominator into the numerator's sign.
path_rationals = st.one_of(
    rationals,
    st.builds(
        Fraction,
        st.integers(min_value=-(10**30), max_value=10**30),
        st.sampled_from([-1, -3, -(2**61 - 1), -(10**25 + 13), 5**20, 2**64 * 3]),
    ),
)
path_vectors = st.builds(Vec3, path_rationals, path_rationals, path_rationals)


def zero_area_points(points, shift, tail):
    """Points u_1..u_n with zero area vector: the last two solved from the rest.

    With a = u_{n-2}, c = u_1 and S the area sum up to u_{n-2}, the remaining
    terms cross(a, x) + cross(x, y) + cross(y, c) must equal -S. For x, that
    is the linear condition dot(x, S - cross(c, a)) = dot(c, S), met by
    moving x along one axis (for n = 4 both sides vanish and x is free); then cross(x - c, y) = T, with T orthogonal to
    x - c, is solved by y = cross(T, x - c) / |x - c|**2 + tail * (x - c).
    Returns None where the condition cannot be met.
    """
    u = [tuple(point) for point in points]
    c, a = u[0], u[-1]
    total = (Fraction(0),) * 3
    for p, q in zip(u, u[1:]):
        total = tuple(s + t for s, t in zip(total, ref_cross(p, q)))
    g = tuple(s - t for s, t in zip(total, ref_cross(c, a)))
    target = sum(ci * si for ci, si in zip(c, total))
    x = list(shift)
    axis = next((i for i in range(3) if g[i]), None)
    if axis is not None:
        rest = sum(g[i] * x[i] for i in range(3) if i != axis)
        x[axis] = (target - rest) / g[axis]
    elif target:
        return None
    d = tuple(xi - ci for xi, ci in zip(x, c))
    norm = sum(part * part for part in d)
    if not norm:
        return None
    t = tuple(-s - r for s, r in zip(total, ref_cross(a, x)))
    y = tuple(part / norm + tail * di for part, di in zip(ref_cross(t, d), d))
    return u + [tuple(x), y]


@st.composite
def regular_polygons(draw, n):
    """A regular n-gon, built as the integral of a zero-area polygon.

    Edges cross(u_{i-1}, u_i) of points u with zero area vector close up, and
    u is a support system of the polygon they bound.
    """
    support = zero_area_points(
        draw(st.lists(path_vectors, min_size=n - 2, max_size=n - 2)),
        draw(st.tuples(path_rationals, path_rationals, path_rationals)),
        draw(path_rationals),
    )
    assume(support is not None)
    edges = [Vec3(*ref_cross(support[i - 1], support[i])) for i in range(n)]
    assume(all(ref_mixed(*(edges[(i + j) % n] for j in range(3))) for i in range(n)))
    return Polygon.from_edges(edges)


def reference_chain(edges):
    """The Fraction reference: determinants, then c_{k+1} = 1 / (c_k * delta_k)."""
    count = len(edges)
    values = tuple(ref_mixed(*(edges[(i + j) % count] for j in range(3))) for i in range(count))
    coefficients = [Fraction(1)]
    for k in range(count - 1):
        coefficients.append(1 / (coefficients[k] * values[k]))
    vectors = tuple(
        tuple(c * part for part in ref_cross(edges[k], edges[(k + 1) % count]))
        for k, c in enumerate(coefficients)
    )
    return values, tuple(coefficients), vectors


PATH_SETTINGS = settings(max_examples=8, deadline=None)


class TestIntegerPath:
    """The fraction-free core against plain Fraction arithmetic, value for value."""

    @pytest.mark.parametrize("n", range(4, 13))
    @PATH_SETTINGS
    @given(data=st.data(), alpha=path_rationals.filter(bool), negative_root=st.booleans())
    def test_every_stage_matches_the_fraction_reference(self, n, data, alpha, negative_root):
        polygon = data.draw(regular_polygons(n))
        edges = edge_vectors(polygon)
        ref_edges = tuple(
            tuple(q - p for p, q in zip(polygon.vertices[k], polygon.vertices[(k + 1) % polygon.n]))
            for k in range(polygon.n)
        )
        assert tuple(map(tuple, edges)) == ref_edges
        values, coefficients, vectors = reference_chain(ref_edges)
        assert deltas(edges) == values
        basis = support_basis(edges, deltas(edges))
        assert basis.coefficients == coefficients
        assert tuple(map(tuple, basis.vectors)) == vectors

        verdict = check_regularity(values)
        assert verdict.regular
        count = polygon.n
        if count % 2:
            r = verdict.alpha_squared
            odd, even = 1 / r, Fraction(1)
            system = support_system(basis, verdict, negative_root=negative_root)
        else:
            odd, even = 1 / alpha, alpha
            system = support_system(basis, verdict, alpha)
        unscaled = tuple(
            tuple((even if k % 2 else odd) * part for part in vector)
            for k, vector in enumerate(vectors)
        )
        assert tuple(map(tuple, system.unscaled)) == unscaled
        assert verify_support(system, edges).ok

        derived = derive(system)
        derived_edges = tuple(
            tuple(q - p for p, q in zip(unscaled[k], unscaled[(k + 1) % count]))
            for k in range(count)
        )
        assert tuple(map(tuple, derived.unscaled_edges)) == derived_edges
        derived_values = tuple(
            ref_mixed(*(derived_edges[(i + j) % count] for j in range(3))) for i in range(count)
        )
        if count % 2:
            sign = -1 if negative_root else 1
            expected = tuple(QuadExt(0, sign * r * value, r) for value in derived_values)
        else:
            expected = derived_values
        assert derived_deltas(derived) == expected
        for value in (*deltas(edges), *basis.coefficients, *derived.unscaled_edges[0]):
            assert type(value) is Fraction

    def test_each_vector_is_cleared_over_its_own_denominator(self):
        # Coprime denominators must not merge into one list-wide LCM, whose
        # size would grow with the number of vectors and slow every stage.
        primes = (1_000_003, 1_000_033, 1_000_037)
        rows = [Vec3(Fraction(1, p), Fraction(-2, p), Fraction(3, 2 * p)) for p in primes]
        points, dens = vectors._integer_coordinates(rows)
        assert points == [(2, -4, 3)] * 3
        assert dens == [2 * p for p in primes]

    def test_tampered_determinant_breaks_the_link_it_enters(self):
        edges = edge_vectors(golden.fixture_polygon("hexagon_regular.json"))
        values = deltas(edges)
        for j in range(len(edges) - 1):
            tampered = values[:j] + (values[j] * 2,) + values[j + 1 :]
            with pytest.raises(RuntimeError, match=f"at link {j + 1}$"):
                support_basis(edges, tampered)

    def test_tampered_chain_vector_breaks_its_first_link(self, monkeypatch):
        # The first n int cross products are the chain's W_k, in order; the
        # link re-check must catch a doubled W_j at the first link it enters.
        edges = edge_vectors(golden.fixture_polygon("pentagon.json"))
        values = deltas(edges)
        real = regularity._int_cross
        for j in range(len(edges)):
            calls = itertools.count()

            def tampered(a, b, j=j, calls=calls):
                product = real(a, b)
                return tuple(2 * part for part in product) if next(calls) == j else product

            monkeypatch.setattr(regularity, "_int_cross", tampered)
            with pytest.raises(RuntimeError, match=f"at link {max(j, 1)}$"):
                support_basis(edges, values)

    @pytest.mark.parametrize("name, alpha", DERIVE_CASES)
    def test_tampered_system_vector_fails_its_first_condition(self, name, alpha):
        edges = edge_vectors(golden.fixture_polygon(name))
        values = deltas(edges)
        system = support_system(support_basis(edges, values), check_regularity(values), alpha)
        count = len(edges)
        for j in range(count):
            unscaled = list(system.unscaled)
            unscaled[j] = unscaled[j] * 2
            check = verify_support(SupportSystem(tuple(unscaled), system.alpha), edges)
            assert check == SupportCheck(False, max(j, 1))

    def test_only_the_wrap_condition_fails(self):
        # Alternating rescaling keeps every link of an odd chain but the wrap,
        # where two even positions meet.
        edges = edge_vectors(golden.fixture_polygon("pentagon.json"))
        values = deltas(edges)
        system = support_system(support_basis(edges, values), check_regularity(values))
        rescaled = tuple(
            vector * (Fraction(1, 3) if k % 2 else Fraction(3))
            for k, vector in enumerate(system.unscaled)
        )
        check = verify_support(SupportSystem(rescaled, system.alpha), edges)
        assert check == SupportCheck(False, len(edges))

    def test_support_basis_and_verify_support_make_no_fraction_products(self, monkeypatch):
        edges = edge_vectors(golden.fixture_polygon("pentagon.json"))
        values = deltas(edges)
        verdict = check_regularity(values)
        calls = []
        real = Fraction.__mul__

        def counted(a, b):
            calls.append(None)
            return real(a, b)

        monkeypatch.setattr(Fraction, "__mul__", counted)
        basis = support_basis(edges, values)
        assert len(calls) == 0
        system = support_system(basis, verdict)
        calls.clear()
        assert verify_support(system, edges).ok
        assert len(calls) == 0
