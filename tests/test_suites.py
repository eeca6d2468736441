"""Verification suites: pass/fail accounting, redraws, determinism."""

from __future__ import annotations

import pytest

from golden import vecs
from polyderive import GenConfig, PlanarityReport, random_regular_pentagon, suites
from polyderive.derived import DerivedPolygon, _self_intersecting, two_plane_decomposition
from polyderive.reports import polygon_to_json
from polyderive.suites import (
    SUITES,
    SuiteResult,
    _DegenerateDraw,
    _run,
    run_suite,
)

COLLINEAR_QUADRANGLE = vecs((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3))
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
