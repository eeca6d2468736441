"""Verification suites: pass/fail accounting, redraws, determinism."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from golden import vecs
from polyderive import (
    GenConfig,
    HexType,
    PlanarityReport,
    SupportSystem,
    Vec3,
    random_regular_pentagon,
    suites,
)
from polyderive.derived import DerivedPolygon, _self_intersecting, two_plane_decomposition
from polyderive.reports import polygon_to_json
from polyderive.suites import (
    SUITES,
    SuiteResult,
    _DegenerateDraw,
    _run,
    run_suite,
)
from polyderive.vectors import _integer_coordinates, scaled

COLLINEAR_QUADRANGLE = _integer_coordinates(vecs((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)))
COLLINEAR_ANCHOR_HEXAGON = DerivedPolygon(
    vecs((0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 0), (2, 2, 2), (0, 0, 1))
)


def degenerate_first(monkeypatch, name, degenerate_call):
    """Make the suite's first call of ``name`` hit its real degenerate case."""
    real = getattr(suites, name)
    calls = []

    def patched(argument):
        calls.append(argument)
        return degenerate_call(real) if len(calls) == 1 else real(argument)

    monkeypatch.setattr(suites, name, patched)
    return calls


class TestRunner:
    def test_all_suites_pass_a_small_run(self):
        for name in SUITES:
            result = run_suite(name, 5, seed=1)
            assert result.passed, (name, result.first_counterexample)
            assert result.samples == 5
            assert result.failures == 0

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope", 5, seed=1)

    def test_results_are_deterministic(self):
        first = run_suite("eq4", 10, seed=77)
        second = run_suite("eq4", 10, seed=77)
        assert first == second

    def test_json_shape(self):
        report = run_suite("eq2", 3, seed=0).to_json()
        assert report == {
            "suite": "eq2",
            "samples": 3,
            "failures": 0,
            "redraws": 0,
            "passed": True,
            "counterexample": None,
        }


class TestRedrawMechanics:
    def test_degenerate_draws_are_redrawn_not_failed(self):
        calls = []

        def check_one(child: int) -> dict | None:
            calls.append(child)
            if len(calls) == 1:
                raise _DegenerateDraw("first draw missed the precondition")
            return None

        result = _run("fake", 1, seed=5, salt=1, check_one=check_one)
        assert result == SuiteResult("fake", 1, 0, None, redraws=1)
        assert len(calls) == 2
        assert calls[0] != calls[1]  # the redraw uses a fresh child seed

    def test_conclusion_failures_are_not_redrawn(self):
        def check_one(child: int) -> dict | None:
            return {"failed": "conclusion violated"}

        result = _run("fake", 3, seed=5, salt=1, check_one=check_one)
        assert result.failures == 3
        assert result.redraws == 0
        assert result.first_counterexample == {"failed": "conclusion violated"}

    def test_exhausted_precondition_budget_is_a_failure(self):
        def check_one(child: int) -> dict | None:
            raise _DegenerateDraw("never generic")

        result = _run("fake", 1, seed=5, salt=1, check_one=check_one)
        assert result.failures == 1
        assert "preconditions" in result.first_counterexample["failed"]

    def test_degenerate_derived_hexagon_redraws_in_the_wild(self):
        # This lift seed produces a valid regular hexagon whose derivative
        # has a zero corner determinant at every scale; the closure-bound
        # relation suite must redraw it rather than fail.
        from polyderive import GenConfig, regular_hexagon_via_lift
        from polyderive.oracle import derived_relation_defects
        from polyderive.polygon import NonGenericPolygonError

        _polygon, system = regular_hexagon_via_lift(GenConfig(seed=99031993))
        with pytest.raises(NonGenericPolygonError):
            derived_relation_defects(system.vectors)

        hits = []

        def check_one(child: int) -> dict | None:
            if not hits:
                hits.append(child)
                _poly, sys_ = regular_hexagon_via_lift(GenConfig(seed=99031993))
                try:
                    derived_relation_defects(sys_.vectors)
                except NonGenericPolygonError as exc:
                    raise _DegenerateDraw from exc
            return None

        result = _run("fake", 1, seed=0, salt=0, check_one=check_one)
        assert result.passed
        assert result.redraws == 1


class TestTypedRedraws:
    def test_collinear_derived_quadrangle_is_redrawn(self, monkeypatch):
        calls = degenerate_first(
            monkeypatch, "_self_intersecting", lambda real: real(COLLINEAR_QUADRANGLE)
        )
        result = run_suite("thm31", 2, seed=3)
        assert result.passed and result.redraws == 1
        assert len(calls) == 3

    def test_collinear_anchor_is_redrawn(self, monkeypatch):
        calls = degenerate_first(
            monkeypatch,
            "two_plane_decomposition",
            lambda real: real(COLLINEAR_ANCHOR_HEXAGON),
        )
        result = run_suite("sec6", 2, seed=3)
        assert result.passed and result.redraws == 1
        assert len(calls) == 3

    @pytest.mark.parametrize(
        ("suite", "name"), [("thm31", "_self_intersecting"), ("sec6", "two_plane_decomposition")]
    )
    def test_other_value_errors_are_not_redraws(self, monkeypatch, suite, name):
        def raise_plain(real):
            raise ValueError("degenerate and collinear, but not a precondition miss")

        degenerate_first(monkeypatch, name, raise_plain)
        with pytest.raises(ValueError, match="not a precondition miss"):
            run_suite(suite, 1, seed=3)

    def test_degenerate_cases_stay_value_errors(self):
        with pytest.raises(ValueError, match="collinear"):
            _self_intersecting(COLLINEAR_QUADRANGLE)
        with pytest.raises(ValueError, match="collinear"):
            two_plane_decomposition(COLLINEAR_ANCHOR_HEXAGON)


POLYGON_SUITES = ["thm31", "thm41", "thm51", "thm52", "sec6"]


class TestCounterexamples:
    @pytest.mark.parametrize("suite", POLYGON_SUITES)
    def test_passing_draws_write_no_polygon(self, monkeypatch, suite):
        written = []
        monkeypatch.setattr(suites, "polygon_to_json", written.append)
        assert run_suite(suite, 2, seed=5).passed
        assert written == []

    def test_failing_draw_carries_its_polygon_and_seed(self, monkeypatch):
        monkeypatch.setattr(suites, "is_planar", lambda polygon: PlanarityReport(False, 4))
        result = run_suite("thm41", 1, seed=5)
        example = result.first_counterexample
        assert list(example) == ["polygon", "seed", "failed"]
        polygon = random_regular_pentagon(GenConfig(seed=example["seed"]))
        assert example["polygon"] == polygon_to_json(polygon)
        assert example["failed"] == "planarity"


def replaced(value, **changes):
    """A copy of a value object with some of its fields changed."""
    return type(value)(**{**dict(zip(value._fields, value._values())), **changes})


def distinct_types(real):
    """A hex type that differs at every call."""
    count = itertools.count(1)
    return lambda values: HexType((Fraction(1), Fraction(next(count)), Fraction(1)))


def doubled_first_second_delta(real):
    """The second derivative's first determinant doubled, both types kept."""

    def second(*args):
        result = real(*args)
        first, *rest = result.second_deltas
        return replaced(result, second_deltas=(2 * first, *rest))

    return second


def doubled_lift(real):
    """The lift with its support system doubled: the rows still close up."""

    def lift(cfg):
        polygon, system = real(cfg)
        return polygon, SupportSystem(scaled(system.unscaled, Fraction(2)), system.alpha)

    return lift


def split_with(**changes):
    """The two-plane split with some of its fields changed."""
    return lambda real: lambda polygon: replaced(real(polygon), **changes)


# Per claim a suite checks: the stage it reads, a replacement for that stage
# built from the real one, and the reason every sample then fails with.
BROKEN_STAGES = [
    (
        "thm31",
        "random_generic_polygon",
        lambda real: lambda n, cfg: real(n + 1, cfg),
        "determinant recurrence",
    ),
    ("thm31", "check_regularity", lambda real: lambda values: real((1, -2, 3, -4)), "regularity"),
    ("thm31", "is_planar", lambda real: lambda polygon: PlanarityReport(False, 4), "planarity"),
    ("thm31", "_area_vector", lambda real: lambda form: ((1, 0, 0), 1), "zero area vector"),
    ("thm31", "_self_intersecting", lambda real: lambda form: False, "self-intersection"),
    ("thm41", "is_planar", lambda real: lambda polygon: PlanarityReport(False, 4), "planarity"),
    ("thm41", "_area_vector", lambda real: lambda form: ((0, 0, 1), 1), "zero area vector"),
    (
        "thm51",
        "strongly_regular_check",
        lambda real: lambda values: False,
        "strong regularity at alpha 1",
    ),
    ("thm51", "_hex_type", distinct_types, "type depends on the scale factor"),
    (
        "thm52",
        "_second_derivative_type",
        lambda real: lambda *args: replaced(real(*args), second_type=HexType((1, 2, 3))),
        "type changed between derivatives",
    ),
    (
        "thm52",
        "_second_derivative_type",
        doubled_first_second_delta,
        "determinant shift relations",
    ),
    (
        "sec6",
        "two_plane_decomposition",
        split_with(odd_offsets=(1, 0, 0)),
        "anchor-plane offsets not zero",
    ),
    ("sec6", "two_plane_decomposition", split_with(even_offsets=(1, 2, 3)), "even offsets differ"),
    (
        "sec6",
        "two_plane_decomposition",
        split_with(projected_area_vector=Vec3.of(1, 0, 0)),
        "projected area vector not zero",
    ),
    (
        "eq2",
        "nested_cross_identity",
        lambda real: lambda a, b, c: (real(a, b, c)[0], real(b, a, c)[1]),
        "nested cross identity",
    ),
    (
        "auto-id",
        "alternating_product_identity",
        lambda real: lambda vectors: (real(vectors)[0] + 1, real(vectors)[1]),
        "alternating product identity",
    ),
    (
        "eq4",
        "derived_relation_defects",
        lambda real: lambda vectors: real((vectors[1], vectors[0], *vectors[2:])),
        "row sum defect not zero",
    ),
    (
        "eq4",
        "derived_relation_defects",
        lambda real: lambda vectors: (real(vectors)[0] + 1, real(vectors)[1]),
        "derived determinant relations",
    ),
    ("eq4", "regular_hexagon_via_lift", doubled_lift, "support system"),
]


class TestFailureReports:
    @pytest.mark.parametrize(
        ("suite", "stage", "breaking", "reason"),
        BROKEN_STAGES,
        ids=[f"{suite}-{reason}" for suite, _stage, _breaking, reason in BROKEN_STAGES],
    )
    def test_a_broken_stage_fails_every_sample(self, monkeypatch, suite, stage, breaking, reason):
        monkeypatch.setattr(suites, stage, breaking(getattr(suites, stage)))
        result = run_suite(suite, 3, seed=5)
        assert result.failures == result.samples == 3
        assert result.first_counterexample["failed"] == reason


def count_calls(monkeypatch, name: str, owner) -> list:
    """Record the arguments of every call of ``owner.name``, through every module binding it."""
    from polyderive import derived, generators, oracle, polygon, regularity, reports, vectors

    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (vectors, polygon, regularity, derived, generators, oracle, reports, suites):
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def form_key(form) -> tuple:
    """A hashable copy of an int form."""
    return tuple(map(tuple, form[0])), tuple(form[1])


# Per suite: the polygons whose corner determinants one sample reads, counted
# per random vertex list drawn (with its size), per lifted hexagon, or per
# sample attempt. A draw's own determinants come with it: a lifted hexagon's
# are the products m_i m_(i+1) of its support determinants, so only the
# derivatives of thm51 (one per scale factor), thm52 (first and second) and
# eq4 are computed. sec6 splits its derivative without its determinants; eq2
# reads none; auto-id reads those of its six cross-product rows.
DETERMINANT_READS = {
    "thm31": ("draw", 4, 1),
    "thm41": ("draw", 5, 1),
    "thm51": ("lift", None, len(suites.SCALE_FACTORS)),
    "thm52": ("lift", None, 2),
    "sec6": ("lift", None, 0),
    "eq2": ("attempt", None, 0),
    "auto-id": ("attempt", None, 1),
    "eq4": ("lift", None, 1),
}


class TestSuiteWork:
    def test_thm51_builds_no_support_vectors_it_does_not_read(self, monkeypatch):
        # thm51 reads the drawn hexagon's int edges and determinants and
        # checks one support system, which keeps the int form it was checked
        # in. The lift builds no Fraction vector either, so none is built.
        from polyderive import vectors

        calls = count_calls(monkeypatch, "_rational_vector", vectors)
        assert run_suite("thm51", 100, seed=0).passed
        assert calls == []

    @pytest.mark.parametrize("suite", ["thm31", "thm41", "thm52", "sec6"])
    def test_polygon_suites_build_only_the_vectors_they_return(self, monkeypatch, suite):
        # sec6 reads the two-plane split, whose normal, three projections and
        # projected area vector are Fraction vectors; nothing else is built.
        from polyderive import generators, vectors

        calls = count_calls(monkeypatch, "_rational_vector", vectors)
        lifts = count_calls(monkeypatch, "regular_hexagon_via_lift", generators)
        assert run_suite(suite, 20, seed=0).passed
        assert len(calls) == (5 * len(lifts) if suite == "sec6" else 0)

    @pytest.mark.parametrize("suite", list(DETERMINANT_READS))
    def test_each_polygons_determinants_are_computed_once(self, monkeypatch, suite):
        from polyderive import generators, polygon

        unit, size, per_unit = DETERMINANT_READS[suite]
        calls = count_calls(monkeypatch, "_deltas", polygon)
        points = count_calls(monkeypatch, "_random_point", generators)
        lifts = count_calls(monkeypatch, "regular_hexagon_via_lift", generators)
        result = run_suite(suite, 20, seed=0)
        assert result.passed
        units = {
            "draw": len(points) // (size or 1),
            "lift": len(lifts),
            "attempt": result.samples + result.redraws,
        }[unit]
        assert units >= 20
        assert len(calls) == per_unit * units
        forms = [form_key(args[0]) for args in calls]
        assert len(set(forms)) == len(forms)
