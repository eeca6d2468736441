"""Acceptance criteria for the exact-arithmetic pipeline.

Each criterion runs at its stated tolerance (exact equality throughout) and
time budget, and prints one pass/fail line; run with ``pytest -v -s`` to see
them. Budgets are on the process's CPU time, so a pause in which the
scheduler runs other work does not count against a criterion. Golden inputs load from the fixture files shipped in ``fixtures/``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

import golden
from polyderive import (
    GenConfig,
    QuadExt,
    alternating_sign_hexagon,
    area_vector,
    build_support_system,
    check_regularity,
    cross,
    deltas,
    derivability_defect,
    derive,
    derived_deltas,
    edge_vectors,
    hex_type,
    is_planar,
    planar_self_intersection,
    strongly_regular_check,
    support_basis,
    support_system,
    verify_support,
)
from polyderive.suites import run_suite

SEED = 0


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.process_time()
    try:
        yield
    except BaseException:
        print(f"acceptance {number:02d}: FAIL  {description}")
        raise
    elapsed = time.process_time() - start
    within = elapsed < budget_seconds
    status = "PASS" if within else "FAIL"
    print(f"acceptance {number:02d}: {status}  {description}  [{elapsed * 1000:.1f} ms]")
    assert within, (
        f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.3f}s)"
    )


def test_criterion_01_quadrangle_reproduction():
    polygon = golden.fixture_polygon("quadrangle.json")
    with criterion(1, "quadrangle support chain and derived quadrangle", 0.01):
        edges = edge_vectors(polygon)
        basis = support_basis(edges)
        assert basis.vectors == golden.QUADRANGLE_BASIS
        assert (cross(basis.vectors[-1], basis.vectors[0]) - edges[0]).is_zero()
        derived = derive(build_support_system(edges, alpha=Fraction(1)))
        assert is_planar(derived).planar
        assert area_vector(derived.vertices).is_zero()
        assert planar_self_intersection(derived)


def test_criterion_02_pentagon_reproduction():
    polygon = golden.fixture_polygon("pentagon.json")
    with criterion(2, "pentagon verdict and extension-field support system", 0.01):
        edges = edge_vectors(polygon)
        values = deltas(edges)
        assert values == golden.PENTAGON_DELTAS
        verdict = check_regularity(values)
        assert verdict.regular
        assert verdict.alpha_squared == Fraction(8, 5)
        system = build_support_system(edges)
        assert system.alpha == QuadExt.sqrt(Fraction(8, 5))
        assert verify_support(system, edges).ok


def test_criterion_03_flat_support_round_trip():
    polygon = golden.fixture_polygon("pentagon_flat_support.json")
    with criterion(3, "horizontal-support pentagon round trip at scale 12", 0.01):
        edges = edge_vectors(polygon)
        assert edges == golden.FLAT_SUPPORT_EDGES
        values = deltas(edges)
        assert values == (192, -128, 32, 48, -144)
        verdict = check_regularity(values)
        assert verdict.regular
        assert verdict.alpha_squared == 144
        basis = support_basis(edges, values)
        # The scale has magnitude 12; exact recomputation shows the negative
        # root restores the original vectors and the positive root their
        # common negation (the twin system; systems are unique up to sign).
        restored = support_system(basis, verdict, Fraction(-12))
        assert restored.vectors == golden.FLAT_SUPPORT_VECTORS
        twin = support_system(basis, verdict, Fraction(12))
        assert twin.vectors == tuple(-u for u in golden.FLAT_SUPPORT_VECTORS)
        assert verify_support(restored, edges).ok
        assert verify_support(twin, edges).ok


def test_criterion_04_regular_hexagon_reproduction():
    polygon = golden.fixture_polygon("hexagon_regular.json")
    with criterion(4, "regular hexagon determinants and derived half-turn symmetry", 0.01):
        edges = edge_vectors(polygon)
        values = deltas(edges)
        assert values == (1, 2, 9, 15, -20, -6)
        verdict = check_regularity(values)
        assert verdict.regular
        assert verdict.odd_product == verdict.even_product == Fraction(-180)
        derived = derive(build_support_system(edges, alpha=Fraction(1)))
        assert derived_deltas(derived) == golden.fracs(
            "-32/9", 8, "4/3", "-32/9", 8, "4/3"
        )
        assert strongly_regular_check(derived_deltas(derived))


def test_criterion_05_strongly_regular_hexagon_reproduction():
    polygon = golden.fixture_polygon("hexagon_strongly_regular.json")
    with criterion(5, "strongly regular hexagon changes type under derivation", 0.01):
        edges = edge_vectors(polygon)
        values = deltas(edges)
        assert values == golden.fracs(1, 2, "-5/2", 1, 2, "-5/2")
        derived = derive(build_support_system(edges, alpha=Fraction(1)))
        derived_values = derived_deltas(derived)
        assert derived_values == golden.fracs(
            "-4/5", "1/8", "3/10", "-4/5", "1/8", "3/10"
        )
        assert hex_type(values) != hex_type(derived_values)
        assert not derivability_defect(edges).is_zero()


def test_criterion_06_quadrangle_suite():
    with criterion(6, "500 random quadrangles: recurrence, planarity, zero area", 5.0):
        result = run_suite("thm31", 500, SEED)
        assert result.failures == 0, result.first_counterexample


def test_criterion_07_pentagon_suite():
    with criterion(7, "200 regular pentagons: planar zero-area derivatives", 10.0):
        result = run_suite("thm41", 200, SEED)
        assert result.failures == 0, result.first_counterexample


def test_criterion_08_hexagon_suites():
    with criterion(
        8, "200 lifted hexagons: types, second derivatives, two planes", 30.0
    ):
        for name in ("thm51", "thm52", "sec6"):
            result = run_suite(name, 200, SEED)
            assert result.failures == 0, (name, result.first_counterexample)


def test_criterion_09_identity_suites():
    with criterion(9, "unconditional and closure-bound determinant identities", 10.0):
        for name, samples in (("auto-id", 1000), ("eq2", 1000), ("eq4", 200)):
            result = run_suite(name, samples, SEED)
            assert result.failures == 0, (name, result.first_counterexample)


def test_criterion_10_alternating_sign_hexagons():
    with criterion(10, "100 alternating-sign hexagons all fail the product test", 5.0):
        for index in range(100):
            polygon = alternating_sign_hexagon(GenConfig(seed=SEED + index))
            values = deltas(edge_vectors(polygon))
            assert not check_regularity(values).regular
