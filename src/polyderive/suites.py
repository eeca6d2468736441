"""Randomized verification suites behind the ``verify`` command.

Each suite draws seeded fixtures, asserts one family of exact claims, and
reports per-sample failures with the first counterexample serialized. Suite
ids are the stable tokens of the CLI contract.

Bounded rational sampling occasionally lands on configurations outside a
claim's preconditions, e.g. a perfectly valid regular hexagon whose
derivative has a zero corner determinant. Such draws are redrawn with a
fresh seed and counted in the result; only violations of a claim's
conclusion count as failures.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import Callable

from .derived import (
    CollinearAnchorError,
    DegenerateQuadrangleError,
    _hex_type,
    _second_derivative_type,
    _self_intersecting,
    derive,
    is_planar,
    strongly_regular_check,
    two_plane_decomposition,
)
from .generators import (
    GenConfig,
    _random_point,
    random_generic_polygon,
    random_regular_pentagon,
    regular_hexagon_via_lift,
)
from .oracle import OpenSupportError, alternating_product_identity, derived_relation_defects
from .polygon import NonGenericPolygonError, Polygon, _deltas, _edges
from .regularity import (
    _scale,
    _support_basis,
    _verify_support,
    check_regularity,
    nested_cross_identity,
    support_system,
)
from .reports import polygon_to_json, vec3_to_json
from .vectors import _Value, _area_vector, _rational_vector

SCALE_FACTORS = (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2))
SCALE_PAIRS = (
    (Fraction(1), Fraction(1)),
    (Fraction(2), Fraction(1, 3)),
    (Fraction(-3), Fraction(2)),
    (Fraction(1, 2), Fraction(-1)),
)

_ATTEMPTS_PER_SAMPLE = 100


class _DegenerateDraw(Exception):
    """The sampled fixture missed a claim's precondition; redraw it."""


class SuiteResult(_Value):
    suite: str
    samples: int
    failures: int
    first_counterexample: dict | None
    redraws: int

    def __init__(
        self,
        suite: str,
        samples: int,
        failures: int,
        first_counterexample: dict | None,
        redraws: int = 0,
    ) -> None:
        self._set("suite", suite)
        self._set("samples", samples)
        self._set("failures", failures)
        self._set("first_counterexample", first_counterexample)
        self._set("redraws", redraws)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "samples": self.samples,
            "failures": self.failures,
            "redraws": self.redraws,
            "passed": self.passed,
            "counterexample": self.first_counterexample,
        }


def _child_seed(seed: int, salt: int, index: int) -> int:
    return (seed * 1_000_003 + salt * 7_919 + index) & 0x7FFF_FFFF_FFFF_FFFF


def _run(
    name: str,
    samples: int,
    seed: int,
    salt: int,
    check_one: Callable[[int], dict | None],
) -> SuiteResult:
    failures = 0
    redraws = 0
    first: dict | None = None
    for index in range(samples):
        counterexample: dict | None = None
        for attempt in range(_ATTEMPTS_PER_SAMPLE):
            child = _child_seed(seed, salt, index * (_ATTEMPTS_PER_SAMPLE + 1) + attempt)
            try:
                counterexample = check_one(child)
            except _DegenerateDraw:
                redraws += 1
                continue
            break
        else:
            counterexample = {
                "failed": f"no draw met the preconditions within {_ATTEMPTS_PER_SAMPLE} attempts",
                "sample": index,
            }
        if counterexample is not None:
            failures += 1
            if first is None:
                first = counterexample
    return SuiteResult(name, samples, failures, first, redraws)


def _failure(polygon: Polygon, seed: int, reason: str) -> dict:
    """The counterexample of a failing draw: its polygon, its seed and the failed claim."""
    return {"polygon": polygon_to_json(polygon), "seed": seed, "failed": reason}


def _quadrangle_derivatives(child: int) -> dict | None:
    """Every generic quadrangle is regular with determinants (d, -d, d, -d);
    its derivative is planar, has zero area vector, and self-intersects."""
    cfg = GenConfig(seed=child)
    polygon = random_generic_polygon(4, cfg)
    values = polygon._determinants
    if not (
        values[1] == -values[0]
        and values[2] == values[0]
        and values[3] == -values[0]
    ):
        return _failure(polygon, cfg.seed, "determinant recurrence")
    verdict = check_regularity(values)
    if not verdict.regular:
        return _failure(polygon, cfg.seed, "regularity")
    basis = _support_basis(polygon._edge_form, values)
    derived = derive(support_system(basis, verdict, Fraction(1)))
    if not is_planar(derived).planar:
        return _failure(polygon, cfg.seed, "planarity")
    if any(_area_vector(derived._form)[0]):
        return _failure(polygon, cfg.seed, "zero area vector")
    try:
        crossing = _self_intersecting(derived._form)
    except DegenerateQuadrangleError as exc:
        raise _DegenerateDraw from exc  # collinear derived vertices
    if not crossing:
        return _failure(polygon, cfg.seed, "self-intersection")
    return None


def _pentagon_derivatives(child: int) -> dict | None:
    """Derivatives of regular pentagons are planar with zero area vector,
    exactly: the derivative is the scale root times a rational pentagon, so
    both claims are decided over the rationals."""
    cfg = GenConfig(seed=child)
    polygon = random_regular_pentagon(cfg)
    values = polygon._determinants
    basis = _support_basis(polygon._edge_form, values)
    derived = derive(support_system(basis, check_regularity(values)))
    if not is_planar(derived).planar:
        return _failure(polygon, cfg.seed, "planarity")
    # The area vector is scale**2 times that of the unscaled points.
    if any(_area_vector(derived._form)[0]):
        return _failure(polygon, cfg.seed, "zero area vector")
    return None


def _hexagon_types(child: int) -> dict | None:
    """Derivatives of a regular hexagon are strongly regular and share one
    type across the scaling family, built by rescaling one support chain."""
    cfg = GenConfig(seed=child)
    polygon, _system = regular_hexagon_via_lift(cfg)
    basis = _support_basis(polygon._edge_form, polygon._determinants)
    # Alpha and 1/alpha cancel in every even-n condition: one check covers the family.
    support_system(basis, check_regularity(polygon._determinants), SCALE_FACTORS[0])
    types = []
    for alpha in SCALE_FACTORS:
        values = _deltas(_edges(_scale(basis._chain, alpha, 1 / alpha)))
        try:
            symmetric = strongly_regular_check(values)
        except NonGenericPolygonError as exc:
            raise _DegenerateDraw from exc  # zero derived determinant
        if not symmetric:
            return _failure(polygon, cfg.seed, f"strong regularity at alpha {alpha}")
        types.append(_hex_type(values))
    if any(t != types[0] for t in types[1:]):
        return _failure(polygon, cfg.seed, "type depends on the scale factor")
    return None


def _second_derivatives(child: int) -> dict | None:
    """Second derivatives keep the type of the first, determinants shifting
    cyclically: d''_1/d''_2 = d'_2/d'_3 and its two rotations."""
    cfg = GenConfig(seed=child)
    polygon, _system = regular_hexagon_via_lift(cfg)
    alpha1, alpha2 = SCALE_PAIRS[child % len(SCALE_PAIRS)]
    try:
        result = _second_derivative_type(
            polygon._edge_form, polygon._determinants, alpha1, alpha2
        )
    except NonGenericPolygonError as exc:
        raise _DegenerateDraw from exc  # degenerate first or second derivative
    if result.first_type != result.second_type:
        return _failure(polygon, cfg.seed, "type changed between derivatives")
    first, second = result.first_deltas, result.second_deltas
    shifts = (
        second[0] * first[2] == second[1] * first[1],
        second[1] * first[0] == second[2] * first[2],
        second[2] * first[1] == second[0] * first[0],
    )
    if not all(shifts):
        return _failure(polygon, cfg.seed, "determinant shift relations")
    return None


def _two_planes(child: int) -> dict | None:
    """Derived hexagons split across two parallel planes and project to a
    zero-area hexagon in the anchor plane."""
    cfg = GenConfig(seed=child)
    polygon, _system = regular_hexagon_via_lift(cfg)
    alpha = SCALE_FACTORS[child % len(SCALE_FACTORS)]
    values = polygon._determinants
    basis = _support_basis(polygon._edge_form, values)
    derived = derive(support_system(basis, check_regularity(values), alpha))
    try:
        split = two_plane_decomposition(derived)
    except CollinearAnchorError as exc:
        raise _DegenerateDraw from exc  # no anchor plane
    if any(split.odd_offsets):
        return _failure(polygon, cfg.seed, "anchor-plane offsets not zero")
    if not split.parallel:
        return _failure(polygon, cfg.seed, "even offsets differ")
    if not split.projected_area_vector.is_zero():
        return _failure(polygon, cfg.seed, "projected area vector not zero")
    return None


def _nested_cross(child: int) -> dict | None:
    """cross(cross(a,b), cross(b,c)) equals mixed(a,b,c) * b on random triples."""
    rng = random.Random(child)
    a, b, c = (_rational_vector(*_random_point(rng, 9)) for _ in range(3))
    left, right = nested_cross_identity(a, b, c)
    if left != right:
        return {
            "vectors": [vec3_to_json(v) for v in (a, b, c)],
            "failed": "nested cross identity",
        }
    return None


def _alternating_products(child: int) -> dict | None:
    """The alternating determinant products of the cross-product rows agree
    for arbitrary six-vector samples, no closure imposed."""
    rng = random.Random(child)
    vectors = tuple(_rational_vector(*_random_point(rng, 9)) for _ in range(6))
    try:
        odd, even = alternating_product_identity(vectors)
    except NonGenericPolygonError as exc:
        raise _DegenerateDraw from exc  # zero row determinant
    if odd != even:
        return {
            "vectors": [vec3_to_json(v) for v in vectors],
            "failed": "alternating product identity",
        }
    return None


def _derived_relations(child: int) -> dict | None:
    """Both derived-edge determinant combinations vanish on closed fixtures,
    once the lift's support system is checked against its hexagon."""
    cfg = GenConfig(seed=child)
    polygon, system = regular_hexagon_via_lift(cfg)
    payload = {"seed": cfg.seed}
    if not _verify_support(system._form, Fraction(1), polygon._edge_form).ok:
        return {**payload, "failed": "support system"}
    try:
        first, second = derived_relation_defects(system.vectors)
    except OpenSupportError:
        return {**payload, "failed": "row sum defect not zero"}
    except NonGenericPolygonError as exc:
        raise _DegenerateDraw from exc  # degenerate derived hexagon
    if first or second:
        return {**payload, "failed": "derived determinant relations"}
    return None


SUITES: dict[str, Callable[[int, int], SuiteResult]] = {
    name: functools.partial(_run, name, salt=salt, check_one=check)
    for name, salt, check in (
        ("thm31", 31, _quadrangle_derivatives),
        ("thm41", 41, _pentagon_derivatives),
        ("thm51", 51, _hexagon_types),
        ("thm52", 52, _second_derivatives),
        ("sec6", 6, _two_planes),
        ("eq2", 2, _nested_cross),
        ("auto-id", 9, _alternating_products),
        ("eq4", 4, _derived_relations),
    )
}


def run_suite(name: str, samples: int, seed: int) -> SuiteResult:
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return suite(samples, seed)
