"""Regularity verdicts, support chains, scaled systems, verification."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import golden
from golden import Pair, pairs, vecs
from polyderive import (
    GenConfig,
    IrregularPolygonError,
    NonGenericPolygonError,
    Polygon,
    QuadExt,
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
    nested_cross_identity,
    random_generic_polygon,
    random_regular_pentagon,
    regular_hexagon_via_lift,
    support_basis,
    support_system,
    verify_support,
)
from polyderive.scalars import format_scalar

coords = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def regular_heptagon_and_derived_deltas() -> tuple[Polygon, tuple]:
    """A regular 7-gon and its derivative's determinants, scale**3 times rationals."""
    polygon = random_generic_polygon(7, GenConfig(seed=7))
    if not check_regularity(deltas(edge_vectors(polygon))).regular:
        polygon = mirror(polygon)
    values = derived_deltas(derive(build_support_system(edge_vectors(polygon))))
    assert all(isinstance(value, QuadExt) for value in values)
    return polygon, values
vectors = st.builds(lambda x, y, z: Vec3.of(x, y, z), coords, coords, coords)


class TestCheckRegularity:
    def test_pentagon_verdict(self):
        verdict = check_regularity(golden.PENTAGON_DELTAS)
        assert verdict.regular
        assert verdict.parity == "odd"
        assert verdict.alpha_squared == golden.PENTAGON_ALPHA_SQUARED
        assert verdict.evidence == Fraction(160)

    def test_regular_hexagon_products_agree(self):
        verdict = check_regularity(golden.REGULAR_HEXAGON_DELTAS)
        assert verdict.regular
        assert verdict.parity == "even"
        assert verdict.odd_product == Fraction(-180)
        assert verdict.even_product == Fraction(-180)
        assert verdict.evidence == 0

    def test_alternating_signs_are_irregular(self):
        verdict = check_regularity((1, -2, 3, -4, 5, -6))
        assert not verdict.regular
        assert verdict.evidence != 0

    def test_irrational_alpha_squared_stays_unset_when_irregular(self):
        verdict = check_regularity((1, 1, 1, 1, -1))
        assert not verdict.regular
        assert verdict.alpha_squared is None

    def test_zero_delta_is_non_generic(self):
        with pytest.raises(NonGenericPolygonError):
            check_regularity((1, 0, 2, 3))

    def test_extension_determinants_are_a_type_error(self):
        _polygon, values = regular_heptagon_and_derived_deltas()
        message = r"^support systems take rational determinants, got QuadExt\("
        with pytest.raises(TypeError, match=message):
            check_regularity(values)


class TestSupportBasis:
    def test_extension_determinants_are_a_type_error(self):
        polygon, values = regular_heptagon_and_derived_deltas()
        message = r"^support systems take rational determinants, got QuadExt\("
        with pytest.raises(TypeError, match=message):
            support_basis(edge_vectors(polygon), values)

    def test_quadrangle_chain(self):
        basis = support_basis(golden.QUADRANGLE_EDGES)
        assert basis.vectors == golden.QUADRANGLE_BASIS
        assert basis.coefficients[0] == 1

    def test_pentagon_chain(self):
        basis = support_basis(golden.PENTAGON_EDGES)
        assert basis.vectors == golden.PENTAGON_BASIS

    def test_regular_hexagon_chain(self):
        basis = support_basis(golden.REGULAR_HEXAGON_EDGES)
        assert basis.vectors == golden.REGULAR_HEXAGON_SUPPORT
        assert basis.vectors[3] == Vec3.of("-34/9", "-14/9", 2)

    def test_coefficient_recurrence(self):
        values = golden.REGULAR_HEXAGON_DELTAS
        basis = support_basis(golden.REGULAR_HEXAGON_EDGES, values)
        for k in range(5):
            assert basis.coefficients[k + 1] * basis.coefficients[k] * values[k] == 1

    def test_adjacent_conditions_hold(self):
        edges = golden.PENTAGON_EDGES
        basis = support_basis(edges)
        for k in range(4):
            assert cross(basis.vectors[k], basis.vectors[k + 1]) == edges[k + 1]

    def test_rejects_non_generic_input(self):
        square = vecs((1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0))
        with pytest.raises(NonGenericPolygonError):
            support_basis(square)


class TestClosureDefect:
    """cross(u_n, u_1) - v_1 of the unscaled chain: zero exactly when it closes."""

    def test_quadrangle_chain_already_closes(self):
        edges = golden.QUADRANGLE_EDGES
        chain = support_basis(edges).vectors
        assert (cross(chain[-1], chain[0]) - edges[0]).is_zero()

    def test_pentagon_defect(self):
        edges = golden.PENTAGON_EDGES
        chain = support_basis(edges).vectors
        assert cross(chain[-1], chain[0]) - edges[0] == Vec3.of("3/5", 0, 0)

    def test_lifted_hexagons_close(self):
        for seed in range(5):
            polygon, _system = regular_hexagon_via_lift(GenConfig(seed=seed))
            edges = edge_vectors(polygon)
            chain = support_basis(edges).vectors
            assert (cross(chain[-1], chain[0]) - edges[0]).is_zero()


class TestSupportSystem:
    def test_pentagon_canonical_root(self):
        edges = golden.PENTAGON_EDGES
        system = build_support_system(edges)
        root = QuadExt.sqrt(golden.PENTAGON_ALPHA_SQUARED)
        assert system.alpha == root
        # first scaled vector is (0, 0, (5/8) * sqrt(8/5))
        assert system.vectors[0].z == QuadExt(0, Fraction(5, 8), Fraction(8, 5))
        assert system.vectors[0].x == QuadExt(0, 0, Fraction(8, 5))
        assert verify_support(system, edges).ok

    def test_pentagon_negative_root_also_verifies(self):
        edges = golden.PENTAGON_EDGES
        system = build_support_system(edges, negative_root=True)
        assert system.alpha == QuadExt(0, -1, golden.PENTAGON_ALPHA_SQUARED)
        assert verify_support(system, edges).ok

    def test_flat_support_round_trip(self):
        # The support vectors live in a horizontal plane; rebuilding the chain
        # from the polygon and rescaling must recover them. The verdict gives
        # alpha_squared = 144; the negative root returns the original vectors
        # exactly, the positive root their common negation (which is the twin
        # support system).
        edges = golden.FLAT_SUPPORT_EDGES
        assert deltas(edges) == golden.FLAT_SUPPORT_DELTAS
        verdict = check_regularity(deltas(edges))
        assert verdict.alpha_squared == 144
        basis = support_basis(edges)
        recovered = support_system(basis, verdict, Fraction(-12))
        assert recovered.vectors == golden.FLAT_SUPPORT_VECTORS
        negated = support_system(basis, verdict, Fraction(12))
        assert negated.vectors == tuple(-u for u in golden.FLAT_SUPPORT_VECTORS)
        assert verify_support(recovered, edges).ok
        assert verify_support(negated, edges).ok

    def test_even_scale_one_is_identity(self):
        edges = golden.REGULAR_HEXAGON_EDGES
        basis = support_basis(edges)
        system = support_system(basis, check_regularity(deltas(edges)), Fraction(1))
        assert system.vectors == basis.vectors

    def test_even_rejects_missing_alpha(self):
        with pytest.raises(ValueError, match="scale"):
            build_support_system(golden.REGULAR_HEXAGON_EDGES)

    def test_even_rejects_negative_root_flag(self):
        with pytest.raises(ValueError, match="odd"):
            build_support_system(golden.REGULAR_HEXAGON_EDGES, negative_root=True)

    def test_zero_alpha_rejected(self):
        edges = golden.REGULAR_HEXAGON_EDGES
        basis = support_basis(edges)
        with pytest.raises(ValueError, match="nonzero"):
            support_system(basis, check_regularity(deltas(edges)), Fraction(0))

    def test_odd_alpha_must_square_to_alpha_squared(self):
        edges = golden.PENTAGON_EDGES
        basis = support_basis(edges)
        verdict = check_regularity(deltas(edges))
        with pytest.raises(ValueError, match="squared"):
            support_system(basis, verdict, QuadExt.sqrt(2))
        with pytest.raises(ValueError, match="squared"):
            support_system(basis, verdict, Fraction(2))

    def test_odd_alpha_error_names_its_square(self):
        edges = golden.PENTAGON_EDGES
        basis = support_basis(edges)
        verdict = check_regularity(deltas(edges))
        with pytest.raises(ValueError, match=r"squared is 3\+2\*sqrt\(2\), expected 8/5"):
            support_system(basis, verdict, QuadExt(1, 1, 2))

    def test_odd_rational_alpha_when_alpha_squared_is_a_square(self):
        # Stretching x by 5/2 multiplies every determinant by 5/2, and so the
        # pentagon's alpha_squared 8/5 (three odd factors over two even) by 5/2.
        edges = tuple(Vec3(e.x * Fraction(5, 2), e.y, e.z) for e in golden.PENTAGON_EDGES)
        verdict = check_regularity(deltas(edges))
        assert verdict.alpha_squared == 4
        basis = support_basis(edges)
        # Each root as a + b*sqrt(d) with a zero part; alpha**-1 = alpha / 4.
        for alpha, (a, b, d) in (
            (2, (2, 0, 1)),
            (Fraction(-2), (-2, 0, 1)),
            (QuadExt(2, 0, 3), (2, 0, 3)),
            (QuadExt(0, 1, 4), (0, 1, 4)),
            (QuadExt(0, 4, Fraction(1, 4)), (0, 4, Fraction(1, 4))),
        ):
            system = support_system(basis, verdict, alpha)
            assert verify_support(system, edges).ok
            root, inverse = Pair(a, b, d), Pair(Fraction(a, 4), Fraction(b, 4), d)
            expected = tuple(
                tuple(Pair(c, 0, d) * (root if k % 2 else inverse) for c in vector)
                for k, vector in enumerate(basis.vectors)
            )
            assert tuple(pairs(vector, d) for vector in system.vectors) == expected
            extension = isinstance(alpha, QuadExt)
            assert [list(map(format_scalar, v)) for v in system.vectors] == [
                [c.json() if extension else str(c.a) for c in v] for v in expected
            ]

    def test_irregular_polygon_is_rejected(self):
        verdict = check_regularity((1, -2, 3, -4, 5, -6))
        basis = support_basis(golden.REGULAR_HEXAGON_EDGES)
        with pytest.raises(IrregularPolygonError, match="products differ"):
            support_system(basis, verdict, Fraction(1))

    def test_canonical_root_requires_odd_regular(self):
        even = check_regularity(golden.REGULAR_HEXAGON_DELTAS)
        with pytest.raises(ValueError, match="odd polygons only"):
            support_system(support_basis(golden.REGULAR_HEXAGON_EDGES), even, negative_root=True)
        irregular = check_regularity((1, 1, 1, 1, -1))
        with pytest.raises(IrregularPolygonError):
            support_system(support_basis(golden.PENTAGON_EDGES), irregular)

    def test_odd_default_is_the_canonical_root(self):
        edges = golden.PENTAGON_EDGES
        basis, verdict = support_basis(edges), check_regularity(deltas(edges))
        r = golden.PENTAGON_ALPHA_SQUARED
        assert support_system(basis, verdict).alpha == QuadExt(0, 1, r)
        assert support_system(basis, verdict, negative_root=True).alpha == QuadExt(0, -1, r)

    def test_odd_rejects_explicit_alpha_with_negative_root(self):
        edges = golden.PENTAGON_EDGES
        basis, verdict = support_basis(edges), check_regularity(deltas(edges))
        with pytest.raises(ValueError, match="either"):
            support_system(basis, verdict, QuadExt.sqrt(golden.PENTAGON_ALPHA_SQUARED), True)

    def test_parity_is_read_off_n(self):
        assert SupportSystem._fields == ("unscaled", "alpha")
        hexagon = SupportSystem(golden.REGULAR_HEXAGON_SUPPORT, Fraction(2))
        assert (hexagon.parity, hexagon.scale) == ("even", 1)
        pentagon = build_support_system(golden.PENTAGON_EDGES)
        assert (pentagon.parity, pentagon.scale) == ("odd", pentagon.alpha)


def even_system(vectors) -> SupportSystem:
    """A hand-made even support system: the vectors themselves at scale one."""
    return SupportSystem(tuple(vectors), Fraction(1))


class TestVerifySupport:
    def test_printed_hexagon_support_verifies(self):
        assert verify_support(
            even_system(golden.REGULAR_HEXAGON_SUPPORT), golden.REGULAR_HEXAGON_EDGES
        ).ok

    def test_negating_one_vector_breaks_adjacent_conditions(self):
        vectors = list(golden.REGULAR_HEXAGON_SUPPORT)
        vectors[2] = -vectors[2]
        result = verify_support(even_system(vectors), golden.REGULAR_HEXAGON_EDGES)
        assert not result.ok
        assert result.failed_index == 2  # cross(u_2, u_3) is the first to break

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            verify_support(
                even_system(golden.REGULAR_HEXAGON_SUPPORT[:5]), golden.REGULAR_HEXAGON_EDGES
            )

    def test_odd_system_is_checked_with_its_scale_squared(self):
        # u = -12 * q with q = u / -12; the check reads 144 * cross(q_i, q_{i+1}).
        unscaled = tuple(u * Fraction(-1, 12) for u in golden.FLAT_SUPPORT_VECTORS)
        system = SupportSystem(unscaled, Fraction(-12))
        assert verify_support(system, golden.FLAT_SUPPORT_EDGES).ok
        twin = SupportSystem(unscaled, Fraction(12))
        assert verify_support(twin, golden.FLAT_SUPPORT_EDGES).ok
        unit = SupportSystem(unscaled, Fraction(1))
        assert not verify_support(unit, golden.FLAT_SUPPORT_EDGES).ok

    def test_scale_without_rational_square_is_refused(self):
        # The views of such a system refuse it with the same message.
        edges = golden.PENTAGON_EDGES
        system = SupportSystem(build_support_system(edges).unscaled, QuadExt(1, 1, 2))
        for view in (
            lambda: verify_support(system, edges),
            lambda: system.vectors,
            lambda: derived_deltas(derive(system)),
        ):
            with pytest.raises(ValueError, match=r"scale 1\+sqrt\(2\) has no rational square"):
                view()


class TestNestedCrossIdentity:
    def test_basis_triple(self):
        left, right = nested_cross_identity(Vec3.of(1, 0, 0), Vec3.of(0, 1, 0), Vec3.of(0, 0, 1))
        assert left == right == Vec3.of(0, 1, 0)

    def test_quadrangle_edge_triple(self):
        left, right = nested_cross_identity(*golden.QUADRANGLE_EDGES[:3])
        assert left == right == Vec3.of(9, 18, -9)

    @given(vectors, vectors, vectors)
    def test_holds_on_random_triples(self, a, b, c):
        left, right = nested_cross_identity(a, b, c)
        assert left == right


class TestFamilyInvariants:
    def test_even_family_verifies_for_sampled_scales(self):
        for seed in range(5):
            polygon, _system = regular_hexagon_via_lift(GenConfig(seed=seed))
            edges = edge_vectors(polygon)
            for alpha in (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(7, 5)):
                system = build_support_system(edges, alpha=alpha)
                assert verify_support(system, edges).ok

    def test_exactly_one_of_pentagon_and_mirror_is_regular(self):
        rng = random.Random(17)
        found = 0
        while found < 20:
            polygon = Polygon(
                tuple(
                    Vec3.of(
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    )
                    for _ in range(5)
                )
            )
            edges = edge_vectors(polygon)
            from polyderive import is_generic

            if not is_generic(edges).ok:
                continue
            found += 1
            direct = check_regularity(deltas(edges)).regular
            flipped = check_regularity(deltas(edge_vectors(mirror(polygon)))).regular
            assert direct != flipped

    def test_quadrangles_are_always_regular(self):
        for seed in range(30):
            polygon = random_generic_polygon(4, GenConfig(seed=seed))
            values = deltas(edge_vectors(polygon))
            assert values[1] == -values[0]
            assert values[2] == values[0]
            assert values[3] == -values[0]
            assert check_regularity(values).regular

    def test_both_odd_roots_verify_and_are_negatives(self):
        for seed in range(5):
            polygon = random_regular_pentagon(GenConfig(seed=seed))
            edges = edge_vectors(polygon)
            plus = build_support_system(edges)
            minus = build_support_system(edges, negative_root=True)
            assert verify_support(plus, edges).ok
            assert verify_support(minus, edges).ok
            r = plus.alpha.d
            assert tuple(pairs(u, r) for u in minus.vectors) == tuple(
                tuple(-c for c in pairs(u, r)) for u in plus.vectors
            )
