"""One support chain per drawn polygon, shared by the whole scale family.

Every support system of a regular even polygon is its one support chain,
scaled by alpha at even positions and by 1/alpha at odd ones. The verify
suites and the generators rely on that: they build the chain once per drawn
polygon and only rescale it. The properties check that the shared chain gives
what the one-call pipeline gives at every scale; the call counts check that
the chain, the determinants and the row-sum defect are computed once, and
that thm51 checks one support system per drawn hexagon.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyderive import derived, generators, oracle, polygon, regularity, suites
from polyderive.derived import (
    SecondDerivativeResult,
    derive,
    hex_type,
    second_derivative_type,
)
from polyderive.generators import (
    GenConfig,
    random_generic_polygon,
    regular_hexagon_via_lift,
)
from polyderive.polygon import NonGenericPolygonError, deltas, edge_vectors
from polyderive.regularity import (
    _scale,
    build_support_system,
    check_regularity,
    support_basis,
    support_system,
)
from polyderive.suites import SCALE_FACTORS, SCALE_PAIRS, run_suite
from polyderive.vectors import Vec3, _integer_coordinates, cross

SETTINGS = settings(max_examples=25, deadline=None)
seeds = st.integers(min_value=0, max_value=2**31)


def lifted_edges(seed: int):
    return edge_vectors(regular_hexagon_via_lift(GenConfig(seed=seed))[0])


def quadrangle_edges(seed: int):
    return edge_vectors(random_generic_polygon(4, GenConfig(seed=seed)))


even_edges = st.builds(
    lambda make, seed: make(seed), st.sampled_from((lifted_edges, quadrangle_edges)), seeds
)


def shared_family(edges):
    """Support systems at every scale factor, rescaled from one chain."""
    values = deltas(edges)
    verdict = check_regularity(values)
    basis = support_basis(edges, values)
    return [support_system(basis, verdict, alpha) for alpha in SCALE_FACTORS]


def _family_parameter(chain_start: Vec3, system_start: Vec3) -> Fraction:
    """Scale tying a support system to the canonical chain: u_1 = chain_1 / alpha."""
    for chain_part, system_part in zip(chain_start, system_start):
        if chain_part:
            return chain_part / system_part
    raise RuntimeError("canonical chain started with a zero vector; this is a bug")


def int_form(form):
    """An int form with its two lists as tuples, so that forms compare by value."""
    points, dens = form
    return tuple(map(tuple, points)), tuple(dens)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
vectors = st.builds(Vec3, rationals, rationals, rationals)
vector_lists = st.integers(min_value=4, max_value=9).flatmap(
    lambda n: st.lists(vectors, min_size=n, max_size=n)
)


def derived_type(system):
    """Type of the derivative, or the kind of degeneracy that keeps it from having one."""
    try:
        return hex_type(deltas(derive(system).edges))
    except NonGenericPolygonError:
        return "zero derived determinant"
    except ValueError:
        return "not strongly regular"


def outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


def two_call_second_derivative(edges, alpha1, alpha2):
    """second_derivative_type as two independent runs of the one-call pipeline."""
    first = derive(build_support_system(edges, alpha=alpha1))
    first_values = deltas(first.edges)
    first_type = hex_type(first_values)
    second = derive(build_support_system(first.edges, alpha=alpha2))
    second_values = deltas(second.edges)
    return SecondDerivativeResult(
        first_type, hex_type(second_values), first_values, second_values
    )


class TestSharedChainEquivalence:
    @SETTINGS
    @given(even_edges)
    def test_rescaled_chain_equals_the_one_call_pipeline(self, edges):
        for alpha, shared in zip(SCALE_FACTORS, shared_family(edges)):
            reference = build_support_system(edges, alpha=alpha)
            assert shared.unscaled == reference.unscaled
            assert shared.alpha == reference.alpha
            assert shared.parity == reference.parity

    @SETTINGS
    @given(seeds)
    def test_family_types_equal_the_per_scale_types(self, seed):
        edges = lifted_edges(seed)
        shared = [derived_type(system) for system in shared_family(edges)]
        per_scale = [
            derived_type(build_support_system(edges, alpha=alpha)) for alpha in SCALE_FACTORS
        ]
        assert shared == per_scale

    @SETTINGS
    @given(seeds, st.sampled_from(SCALE_PAIRS))
    def test_second_derivative_equals_two_pipeline_calls(self, seed, pair):
        edges = lifted_edges(seed)
        assert outcome(second_derivative_type, edges, *pair) == outcome(
            two_call_second_derivative, edges, *pair
        )

    @SETTINGS
    @given(seeds)
    def test_lift_alpha_is_the_canonical_family_parameter(self, seed):
        hexagon, system = regular_hexagon_via_lift(GenConfig(seed=seed))
        chain_start = support_basis(edge_vectors(hexagon)).vectors[0]
        assert system.alpha == _family_parameter(chain_start, system.unscaled[0])

    @SETTINGS
    @given(even_edges)
    def test_rescaled_chain_is_the_checked_systems_int_form(self, edges):
        # thm51 reads the family's derived determinants off these rescaled forms.
        values = deltas(edges)
        verdict = check_regularity(values)
        basis = support_basis(edges, values)
        for alpha in SCALE_FACTORS:
            system = support_system(basis, verdict, alpha)
            rescaled = _scale(basis._chain, alpha, 1 / alpha)
            assert int_form(rescaled) == int_form(_integer_coordinates(system.unscaled))


class TestSupportDeterminants:
    """Edges v_i = cross(u_(i-1), u_i) of any vectors u, with m_i = mixed(u_(i-1), u_i, u_(i+1)).

    By cross(a×b, b×c) = mixed(a, b, c)·b, edge i's corner determinant is
    m_i·m_(i+1) and cross(v_1, v_2) = m_1·u_1: the two facts the lift reads
    off its support vectors. ``deltas(u)[i]`` is centred on ``u[i + 1]``, so
    m_i is ``deltas(u)[i - 2]`` (0-based u, 1-based m).
    """

    @settings(max_examples=60, deadline=None)
    @given(vector_lists)
    def test_edge_determinants_are_products_of_support_determinants(self, u):
        edges = [cross(u[i - 1], u[i]) for i in range(len(u))]
        m = deltas(u)
        assert list(deltas(edges)) == [m[i - 1] * m[i] for i in range(len(u))]
        assert cross(edges[0], edges[1]) == m[-1] * u[0]


def count_calls(monkeypatch, name, owner, *modules):
    """Count calls of ``owner.name`` through every module that resolves the name."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (owner, *modules):
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


EXTRA_FACTORS = (Fraction(3, 4), Fraction(-5))


class TestEachStageRunsOncePerDraw:
    @pytest.mark.parametrize("count", [1, len(SCALE_FACTORS), len(SCALE_FACTORS) + 2])
    def test_thm51_builds_one_chain_per_drawn_hexagon(self, monkeypatch, count):
        monkeypatch.setattr(suites, "SCALE_FACTORS", (SCALE_FACTORS + EXTRA_FACTORS)[:count])
        chains = count_calls(monkeypatch, "_support_basis", regularity, suites)
        draws = count_calls(monkeypatch, "regular_hexagon_via_lift", generators, suites)
        result = run_suite("thm51", 4, seed=24)
        assert result.passed
        assert len(draws) == 4 + result.redraws
        assert len(chains) == len(draws)

    def test_thm51_checks_one_support_system_per_drawn_hexagon(self, monkeypatch):
        checks = count_calls(monkeypatch, "_verify_support", regularity)
        draws = count_calls(monkeypatch, "regular_hexagon_via_lift", generators, suites)
        result = run_suite("thm51", 4, seed=24)
        assert result.passed
        assert len(draws) == 4 + result.redraws
        assert len(checks) == len(draws)

    def test_lift_builds_no_chain(self, monkeypatch):
        chains = count_calls(monkeypatch, "_support_basis", regularity, generators)
        for seed in range(10):
            regular_hexagon_via_lift(GenConfig(seed=seed))
        assert chains == []

    def test_second_derivative_computes_each_polygons_determinants_once(self, monkeypatch):
        edges = lifted_edges(3)
        calls = count_calls(monkeypatch, "_deltas", polygon, regularity, derived)
        second_derivative_type(edges, Fraction(2), Fraction(1, 3))
        assert len(calls) == 3  # the hexagon, its derivative, its second derivative

    def test_eq4_sums_the_rows_once_per_drawn_hexagon(self, monkeypatch):
        sums = count_calls(monkeypatch, "row_sum_defect", oracle, suites)
        draws = count_calls(monkeypatch, "regular_hexagon_via_lift", generators, suites)
        result = run_suite("eq4", 4, seed=378)
        assert result.passed
        assert len(sums) == len(draws) == 4 + result.redraws
