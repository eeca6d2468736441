"""Identity oracles and the float cross-validation path."""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from golden import vecs
from polyderive import (
    GenConfig,
    NonGenericPolygonError,
    Polygon,
    Vec3,
    alternating_product_identity,
    cross,
    deltas,
    derived_relation_defects,
    float_cross_validate,
    mixed,
    random_generic_polygon,
    random_regular_pentagon,
    regular_hexagon_via_lift,
    row_sum_defect,
)
from polyderive.oracle import _as_float
from polyderive.reports import analyze_report, check_report, derive_report, polygon_from_json

# Lifted hexagons whose derived determinants at scale 1/2 are up to 1e8 times
# smaller than the sum of their cofactor terms; a bound relative to the
# largest determinant alone misfires on the correct reports of each of them,
# depending on how the determinants are rounded.
CANCELLING_HEXAGONS = {
    "A": [
        ["0", "0", "0"],
        ["273279/322", "109/14", "-350501/2576"],
        ["131890/161", "275/7", "-51843/644"],
        ["264263/322", "20/21", "-84929/966"],
        ["264585/322", "235/14", "-81709/966"],
        ["265551/322", "410/63", "-258007/2898"],
    ],
    "B": [
        ["0", "0", "0"],
        ["11239/30", "-83/9", "8461/180"],
        ["11549/30", "-35", "34123/540"],
        ["3913/10", "-103/9", "38063/540"],
        ["11629/30", "-39", "3767/60"],
        ["2019/5", "-12", "1809/20"],
    ],
    "C": [
        ["0", "0", "0"],
        ["-14505/49", "11/3", "-7699/98"],
        ["-15849/49", "-36", "-12333/98"],
        ["-15975/49", "23/4", "-24771/196"],
        ["-17151/49", "6", "-25751/196"],
        ["-128045/392", "3/4", "-48023/392"],
    ],
    "D": [
        ["0", "0", "0"],
        ["-20008/21", "46/7", "3212/63"],
        ["-6016/7", "522/7", "1616/63"],
        ["-6520/7", "-94/7", "608/63"],
        ["-6835/7", "99/14", "-22/63"],
        ["-58904/63", "18/7", "-8/63"],
    ],
}


def generated_polygon(kind: str, seed: int) -> Polygon:
    cfg = GenConfig(seed=seed)
    if kind == "quad":
        return random_generic_polygon(4, cfg)
    if kind == "pentagon":
        return random_regular_pentagon(cfg)
    return regular_hexagon_via_lift(cfg)[0]


BASIS_REPEATED = vecs((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1))

# The support matrix of the regular hexagon: its rows are cross(u_{i-1}, u_i).
SUPPORT_ROWS = tuple(
    cross(golden.REGULAR_HEXAGON_SUPPORT[i - 1], golden.REGULAR_HEXAGON_SUPPORT[i])
    for i in range(6)
)


def random_six(rng: random.Random) -> tuple:
    def coord() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    return tuple(Vec3.of(coord(), coord(), coord()) for _ in range(6))


class TestSupportMatrix:
    def test_rows_of_repeated_basis(self):
        # The rows are e2, e3, e1, e2, e3, e1, so they sum to (2, 2, 2).
        assert row_sum_defect(BASIS_REPEATED) == Vec3.of(2, 2, 2)

    def test_rows_of_golden_support_are_the_edges(self):
        assert SUPPORT_ROWS == golden.REGULAR_HEXAGON_EDGES

    def test_needs_exactly_six(self):
        for identity in (alternating_product_identity, row_sum_defect):
            with pytest.raises(ValueError, match="six"):
                identity(BASIS_REPEATED[:5])


class TestSubmatrixDelta:
    """Consecutive row triples give the corner determinants of the rows read as edges."""

    def test_first_consecutive_triple(self):
        assert deltas(SUPPORT_ROWS)[0] == mixed(*SUPPORT_ROWS[0:3]) == 1

    def test_last_consecutive_triple(self):
        assert deltas(SUPPORT_ROWS)[3] == mixed(*SUPPORT_ROWS[3:6]) == 15


class TestAlternatingProductIdentity:
    def test_golden_support_products(self):
        assert alternating_product_identity(golden.REGULAR_HEXAGON_SUPPORT) == (
            Fraction(-180),
            Fraction(-180),
        )

    def test_strongly_regular_support_products(self):
        assert alternating_product_identity(golden.STRONGLY_REGULAR_HEXAGON_SUPPORT) == (
            Fraction(-5),
            Fraction(-5),
        )

    def test_holds_without_closure_on_random_samples(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 100:
            try:
                odd, even = alternating_product_identity(random_six(rng))
            except NonGenericPolygonError:
                continue
            assert odd == even
            checked += 1

    def test_degenerate_sample_is_flagged_for_redraw(self):
        vectors = list(BASIS_REPEATED)
        vectors[1] = vectors[0]  # zero row forces zero determinants
        with pytest.raises(NonGenericPolygonError, match="redraw"):
            alternating_product_identity(vectors)


class TestRowSumDefect:
    def test_golden_supports_are_closed(self):
        assert row_sum_defect(golden.REGULAR_HEXAGON_SUPPORT).is_zero()
        assert row_sum_defect(golden.STRONGLY_REGULAR_HEXAGON_SUPPORT).is_zero()

    def test_lift_fixtures_are_closed(self):
        for seed in range(5):
            _polygon, system = regular_hexagon_via_lift(GenConfig(seed=seed))
            assert row_sum_defect(system.vectors).is_zero()

    def test_random_vectors_are_generically_open(self):
        rng = random.Random(99)
        assert not row_sum_defect(random_six(rng)).is_zero()


class TestDerivedRelationDefects:
    def test_golden_support(self):
        assert derived_relation_defects(golden.REGULAR_HEXAGON_SUPPORT) == (0, 0)

    def test_lift_fixtures(self):
        for seed in range(10):
            _polygon, system = regular_hexagon_via_lift(GenConfig(seed=seed))
            assert derived_relation_defects(system.vectors) == (0, 0)

    def test_open_configurations_are_out_of_contract(self):
        rng = random.Random(1)
        with pytest.raises(ValueError, match="closed"):
            derived_relation_defects(random_six(rng))


class TestFloatCrossValidation:
    def test_quadrangle_derive_report(self):
        polygon = Polygon(golden.QUADRANGLE_VERTICES)
        report = derive_report(polygon, alpha=Fraction(1))
        validation = float_cross_validate(report)
        assert validation.ok, validation.mismatches
        assert validation.checks > 20

    def test_regular_hexagon_derive_report(self):
        polygon = Polygon.from_edges(golden.REGULAR_HEXAGON_EDGES)
        report = derive_report(polygon, alpha=Fraction(1))
        validation = float_cross_validate(report)
        assert validation.ok, validation.mismatches

    def test_pentagon_derive_report_with_extension_scale(self):
        polygon = Polygon.from_edges(golden.PENTAGON_EDGES)
        report = derive_report(polygon)
        validation = float_cross_validate(report)
        assert validation.ok, validation.mismatches

    def test_check_and_analyze_reports(self):
        polygon = Polygon.from_edges(golden.STRONGLY_REGULAR_HEXAGON_EDGES)
        assert float_cross_validate(check_report(polygon)).ok
        assert float_cross_validate(analyze_report(polygon)).ok

    def test_corrupted_report_names_the_field(self):
        polygon = Polygon.from_edges(golden.REGULAR_HEXAGON_EDGES)
        report = derive_report(polygon, alpha=Fraction(1))
        corrupted = copy.deepcopy(report)
        corrupted["deltas"][2] = "10"  # true value is 9
        validation = float_cross_validate(corrupted)
        assert not validation.ok
        assert any(m.field == "deltas[3]" for m in validation.mismatches)

    @pytest.mark.parametrize("name", sorted(CANCELLING_HEXAGONS))
    def test_cancelling_derived_determinants_pass(self, name):
        polygon = polygon_from_json({"vertices": CANCELLING_HEXAGONS[name]})
        report = derive_report(polygon, alpha=Fraction(1, 2))
        validation = float_cross_validate(report)
        assert validation.ok, validation.mismatches

    def test_derived_determinant_off_by_one_is_caught(self):
        # The third derived determinant, 4/3, has cofactor terms summing to
        # about 179, more than any derived determinant: the term-scaled
        # bound applies and must still catch an error of one.
        polygon = Polygon.from_edges(golden.REGULAR_HEXAGON_EDGES)
        report = derive_report(polygon, alpha=Fraction(1))
        corrupted = copy.deepcopy(report)
        derived = corrupted["derived_analysis"]["derived_deltas"]
        assert derived[2] == "4/3"
        derived[2] = "7/3"
        validation = float_cross_validate(corrupted)
        assert not validation.ok
        assert [m.field for m in validation.mismatches] == [
            "derived_analysis.derived_deltas[3]"
        ]

    def test_analyze_determinant_is_checked_once(self):
        polygon = golden.fixture_polygon("hexagon_regular.json")
        report = analyze_report(polygon)
        clean = float_cross_validate(report)
        assert clean.ok and clean.checks == 18
        corrupted = copy.deepcopy(report)
        corrupted["deltas"][0] = str(Fraction(corrupted["deltas"][0]) + 1)
        validation = float_cross_validate(corrupted)
        assert [m.field for m in validation.mismatches] == ["deltas[1]"]

    @pytest.mark.parametrize("kind", ["quad", "pentagon", "hexagon-lift"])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_generated_reports_pass(self, kind, seed):
        polygon = generated_polygon(kind, seed)
        alpha = Fraction(1) if polygon.n % 2 == 0 else None
        for report in (
            check_report(polygon),
            derive_report(polygon, alpha=alpha),
            analyze_report(polygon),
        ):
            validation = float_cross_validate(report)
            assert validation.ok, (report["command"], validation.mismatches)

    def test_corrupted_support_vector_is_caught(self):
        polygon = Polygon.from_edges(golden.REGULAR_HEXAGON_EDGES)
        report = derive_report(polygon, alpha=Fraction(1))
        corrupted = copy.deepcopy(report)
        corrupted["support_system"]["vectors"][3][0] = "-33/9"
        validation = float_cross_validate(corrupted)
        assert not validation.ok
        assert any(
            m.field.startswith("support_system.vectors[4]") for m in validation.mismatches
        )

    def test_tampered_vector_fields_are_named_by_index_and_axis(self):
        # The same number of checks, and each wrong coordinate named alone.
        report = derive_report(golden.fixture_polygon("hexagon_regular.json"), alpha=Fraction(1))
        assert float_cross_validate(report).checks == 68
        corrupted = copy.deepcopy(report)
        corrupted["support_system"]["vectors"][3][0] = "-33/9"  # true value is -34/9
        corrupted["derived_analysis"]["vertices"][1][2] = "1"  # true value is 0
        corrupted["derived_analysis"]["area_vector"][1] = "1"  # true value is 0
        validation = float_cross_validate(corrupted)
        assert validation.checks == 68
        assert [m.field for m in validation.mismatches] == [
            "support_system.vectors[4][0]",
            "derived_analysis.vertices[2][2]",
            "derived_analysis.area_vector[1]",
        ]

    def test_infinite_exact_and_float_values_do_not_pass(self):
        # Coordinates near 1e120 send the float determinants to infinity, and
        # b*sqrt(d) = 1e300 * 1e150 overflows the exact side's float form too;
        # two infinities must be reported, not compared.
        vertices = [
            ["0", "0", "0"],
            ["1e120", "0", "0"],
            ["1e120", "1e120", "0"],
            ["1e120", "1e120", "1e120"],
            ["3e120", "-1e120", "4e120"],
        ]
        report = {
            "input_summary": {"n": 5, "vertices": vertices},
            "deltas": [{"a": "0", "b": "1e300", "d": "1e300"}] * 5,
        }
        validation = float_cross_validate(report)
        assert not validation.ok
        assert validation.checks == 5
        assert all(m.detail.startswith("out of float range") for m in validation.mismatches)


# Ints up to and past double range, so that quotients overflow, land in the
# subnormals or round to zero.
_wide = st.one_of(
    st.integers(-(10**20), 10**20),
    st.integers(-(10**330), 10**330),
    st.sampled_from([2**1024, 2**1024 - 2**970, 2**1074, 3**700]),
)


def fraction_float(text: str) -> float:
    return float(Fraction(text))


class TestWrittenValuesAsFloats:
    """The oracle reads a plain ``"p/q"`` with the int reader, bit for bit as Fraction did."""

    @settings(max_examples=300, deadline=None)
    @given(_wide, _wide.filter(bool), st.sampled_from(["int", "ratio", "ratio"]))
    def test_bit_for_bit(self, p, q, shape):
        text = str(p) if shape == "int" else f"{p}/{abs(q)}"
        try:
            expected = fraction_float(text)
        except OverflowError as exc:
            with pytest.raises(OverflowError) as caught:
                _as_float(text)
            assert str(caught.value) == str(exc)
        else:
            assert _as_float(text).hex() == expected.hex()

    @given(_wide, _wide.filter(bool), st.integers(1, 10**6))
    def test_extension_objects(self, a, b, d):
        value = {"a": str(a), "b": f"{b}/7", "d": str(d)}
        try:
            expected = fraction_float(value["a"]) + fraction_float(value["b"]) * math.sqrt(d)
        except OverflowError:
            with pytest.raises(OverflowError):
                _as_float(value)
        else:
            assert _as_float(value).hex() == expected.hex()

    def test_overflow_keeps_its_text(self):
        text = "1" + "0" * 399  # 400 digits
        with pytest.raises(OverflowError) as caught:
            _as_float(text)
        assert str(caught.value) == "integer division result too large for a float"
        with pytest.raises(OverflowError, match=f"^{caught.value}$"):
            fraction_float(text)

    @pytest.mark.parametrize("text", [" 1/2", "0.5", "1e-3", "+7", "-0", "3/6"])
    def test_other_strings_read_as_fraction_reads_them(self, text):
        assert _as_float(text).hex() == fraction_float(text).hex()
