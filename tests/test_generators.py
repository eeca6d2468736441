"""Seeded generators: determinism, class contracts, rejection budgets."""

from __future__ import annotations

import math

import pytest

from polyderive import (
    GenConfig,
    GenerationBudgetError,
    alternating_sign_hexagon,
    check_regularity,
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
