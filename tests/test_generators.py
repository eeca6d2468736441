"""Seeded generators: determinism, class contracts, rejection budgets."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyderive import (
    GenConfig,
    GenerationBudgetError,
    Polygon,
    SupportSystem,
    Vec3,
    alternating_sign_hexagon,
    check_regularity,
    cross,
    deltas,
    derivability_defect,
    derive,
    edge_vectors,
    is_generic,
    random_generic_polygon,
    random_regular_pentagon,
    regular_hexagon_via_lift,
    support_basis,
    support_system,
    verify_support,
)
from polyderive import generators


class TestGenConfig:
    def test_defaults_are_valid(self):
        cfg = GenConfig(seed=1)
        assert cfg.coordinate_bound >= 2

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            GenConfig(seed=1, coordinate_bound=1)


class TestDeterminism:
    @pytest.mark.parametrize("seed", [0, 7, 123456789])
    def test_identical_configs_give_identical_fixtures(self, seed):
        cfg = GenConfig(seed=seed)
        assert random_generic_polygon(5, cfg) == random_generic_polygon(5, cfg)
        assert random_regular_pentagon(cfg) == random_regular_pentagon(cfg)
        assert alternating_sign_hexagon(cfg) == alternating_sign_hexagon(cfg)
        first_poly, first_system = regular_hexagon_via_lift(cfg)
        second_poly, second_system = regular_hexagon_via_lift(cfg)
        assert first_poly == second_poly
        assert first_system == second_system


class TestRandomGenericPolygon:
    def test_outputs_are_generic(self):
        for seed in range(20):
            polygon = random_generic_polygon(6, GenConfig(seed=seed))
            assert is_generic(edge_vectors(polygon)).ok

    def test_quadrangles_are_regular(self):
        for seed in range(20):
            polygon = random_generic_polygon(4, GenConfig(seed=seed))
            assert check_regularity(deltas(edge_vectors(polygon))).regular

    def test_triangles_are_rejected(self):
        with pytest.raises(ValueError, match="four"):
            random_generic_polygon(3, GenConfig(seed=0))

    def test_draws_build_no_rational_edges(self, monkeypatch):
        # The determinants of each draw come from the int form of its
        # vertices; Fraction edge vectors would be built and cleared again.
        from polyderive import polygon as polygon_module
        from polyderive import vectors

        calls = []
        real = vectors._rational_vector

        def counted(*args):
            calls.append(args)
            return real(*args)

        for module in (vectors, polygon_module, generators):
            monkeypatch.setattr(module, "_rational_vector", counted, raising=False)
        draws = generators._generic_draws(6, GenConfig(seed=3))
        drawn = [next(draws) for _ in range(5)]
        assert calls == []
        for polygon in drawn:
            assert polygon._determinants == deltas(edge_vectors(Polygon(polygon.vertices)))

    def test_generic_pentagon_or_its_mirror_is_regular(self):
        from polyderive import mirror

        for seed in range(10):
            polygon = random_generic_polygon(5, GenConfig(seed=seed))
            direct = check_regularity(deltas(edge_vectors(polygon))).regular
            flipped = check_regularity(deltas(edge_vectors(mirror(polygon)))).regular
            assert direct != flipped


class TestRandomRegularPentagon:
    def test_contract(self):
        for seed in range(20):
            polygon = random_regular_pentagon(GenConfig(seed=seed))
            edges = edge_vectors(polygon)
            assert is_generic(edges).ok
            values = deltas(edges)
            assert math.prod(values) > 0
            assert check_regularity(values).regular


class TestLiftedHexagon:
    def test_contract(self):
        for seed in range(20):
            polygon, system = regular_hexagon_via_lift(GenConfig(seed=seed))
            edges = edge_vectors(polygon)
            assert is_generic(edges).ok
            assert verify_support(system, edges).ok
            verdict = check_regularity(deltas(edges))
            assert verdict.regular
            assert verdict.evidence == 0

    def test_derived_polygon_passes_the_derivability_test(self):
        for seed in range(10):
            _polygon, system = regular_hexagon_via_lift(GenConfig(seed=seed))
            assert derivability_defect(derive(system).edges).is_zero()

    def test_system_is_the_scaled_canonical_chain(self):
        # The reported family parameter must reproduce the generated vectors
        # exactly when applied to the canonical chain.
        for seed in range(10):
            polygon, system = regular_hexagon_via_lift(GenConfig(seed=seed))
            edges = edge_vectors(polygon)
            values = deltas(edges)
            rebuilt = support_system(
                support_basis(edges, values), check_regularity(values), system.alpha
            )
            assert rebuilt.vectors == system.vectors

    def test_support_vectors_span_two_planes(self):
        polygon, system = regular_hexagon_via_lift(GenConfig(seed=3))
        heights = [vector.z for vector in system.vectors]
        assert heights[0] == heights[2] == heights[4]
        assert heights[1] == heights[3] == heights[5]
        assert heights[0] != heights[1]


class TestAlternatingSignHexagon:
    def test_contract(self):
        for seed in range(10):
            polygon = alternating_sign_hexagon(GenConfig(seed=seed))
            edges = edge_vectors(polygon)
            assert is_generic(edges).ok
            values = deltas(edges)
            assert [value > 0 for value in values] == [True, False] * 3
            assert not check_regularity(values).regular

    def test_budget_exhaustion_raises(self, monkeypatch):
        # One attempt is almost never enough to hit the alternating pattern;
        # seed 0 is known not to hit it first try.
        monkeypatch.setattr(generators, "MAX_REJECTIONS", 1)
        with pytest.raises(GenerationBudgetError, match="within 1 attempts"):
            alternating_sign_hexagon(GenConfig(seed=0))


# A reference copy of the generators as they were written on Fraction vectors,
# before they drew in the int form. The int-form generators must consume the
# same random stream and return equal values.


def reference_fraction(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def reference_vertex(rng: random.Random, bound: int) -> Vec3:
    return Vec3(*(reference_fraction(rng, bound) for _ in range(3)))


def reference_draws(n: int, cfg: GenConfig):
    rng = random.Random(cfg.seed)
    for _ in range(generators.MAX_REJECTIONS):
        polygon = Polygon(tuple(reference_vertex(rng, cfg.coordinate_bound) for _ in range(n)))
        values = deltas(edge_vectors(polygon))
        if all(values):
            yield polygon, values


def reference_generic_polygon(n: int, cfg: GenConfig) -> Polygon:
    for polygon, _values in reference_draws(n, cfg):
        return polygon
    raise GenerationBudgetError("budget")


def reference_regular_pentagon(cfg: GenConfig) -> Polygon:
    for polygon, values in reference_draws(5, cfg):
        if math.prod(values) < 0:
            return Polygon(tuple(Vec3(v.x, v.y, -v.z) for v in polygon.vertices))
        return polygon
    raise GenerationBudgetError("budget")


def reference_alternating_hexagon(cfg: GenConfig) -> Polygon:
    for polygon, values in reference_draws(6, cfg):
        if tuple(value > 0 for value in values) == (True, False) * 3:
            return polygon
    raise GenerationBudgetError("budget")


def reference_zero_area_points(rng: random.Random, bound: int):
    base = [(reference_fraction(rng, bound), reference_fraction(rng, bound)) for _ in range(5)]
    fixed = sum(base[i][0] * base[i + 1][1] - base[i][1] * base[i + 1][0] for i in range(4))
    coeff_x = base[0][1] - base[4][1]
    coeff_y = base[4][0] - base[0][0]
    if coeff_y != 0:
        last_x = reference_fraction(rng, bound)
        last_y = -(fixed + last_x * coeff_x) / coeff_y
    elif coeff_x != 0:
        last_y = reference_fraction(rng, bound)
        last_x = -(fixed + last_y * coeff_y) / coeff_x
    else:
        return None
    return tuple(Vec3(x, y, Fraction(0)) for x, y in base + [(last_x, last_y)])


def reference_lift(cfg: GenConfig) -> tuple[Polygon, SupportSystem]:
    rng = random.Random(cfg.seed)
    bound = cfg.coordinate_bound
    for _ in range(generators.MAX_REJECTIONS):
        points = reference_zero_area_points(rng, bound)
        if points is None:
            continue
        height = Fraction(rng.randint(1, bound), rng.randint(1, bound)) * rng.choice((1, -1))
        apex = Vec3(Fraction(0), Fraction(0), height)
        lifted = tuple(
            Vec3(p.x, p.y, Fraction(1)) if index % 2 == 1 else p for index, p in enumerate(points)
        )
        support = tuple(p - apex for p in lifted)
        m = deltas(support)
        if not all(m):
            continue
        edges = tuple(cross(support[i - 1], support[i]) for i in range(6))
        return Polygon.from_edges(edges), SupportSystem(support, m[-1])
    raise GenerationBudgetError("budget")


def outcome(generate, *args):
    """What a generator returns, or the type of error it raises."""
    try:
        return generate(*args)
    except GenerationBudgetError:
        return GenerationBudgetError


class TestReferenceStream:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**63 - 1), st.integers(2, 12))
    def test_generators_equal_the_fraction_reference(self, seed, bound):
        cfg = GenConfig(seed, bound)
        pairs = [
            (random_generic_polygon, reference_generic_polygon, (4, cfg)),
            (random_generic_polygon, reference_generic_polygon, (7, cfg)),
            (random_regular_pentagon, reference_regular_pentagon, (cfg,)),
            (regular_hexagon_via_lift, reference_lift, (cfg,)),
            (alternating_sign_hexagon, reference_alternating_hexagon, (cfg,)),
        ]
        for generate, reference, args in pairs:
            drawn, expected = outcome(generate, *args), outcome(reference, *args)
            assert drawn == expected
            if expected is GenerationBudgetError:
                continue
            polygon = drawn[0] if isinstance(drawn, tuple) else drawn
            # The exact data the draw hands on agrees with its vertices.
            rebuilt = Polygon(polygon.vertices)
            assert polygon._edge_form == tuple(map(tuple, rebuilt._edge_form))
            assert polygon._determinants == deltas(edge_vectors(rebuilt))
