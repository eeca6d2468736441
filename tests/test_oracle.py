"""Identity oracles and the exact re-run behind ``--float-check``."""

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
from polyderive import oracle
from polyderive.oracle import _PRIMES, _NextPrime, _Rerun
from polyderive.scalars import _decimal
from polyderive.reports import analyze_report, check_report, derive_report, polygon_from_json

# Lifted hexagons whose derived determinants at scale 1/2 are up to 1e8 times
# smaller than the sum of their cofactor terms: in double precision their
# rounding error hid errors of several percent in the determinants.
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
        # about 179, more than any derived determinant.
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
        assert float_cross_validate(report).checks == 86
        corrupted = copy.deepcopy(report)
        corrupted["support_system"]["vectors"][3][0] = "-33/9"  # true value is -34/9
        corrupted["derived_analysis"]["vertices"][1][2] = "1"  # true value is 0
        corrupted["derived_analysis"]["area_vector"][1] = "1"  # true value is 0
        validation = float_cross_validate(corrupted)
        assert validation.checks == 86
        assert [m.field for m in validation.mismatches] == [
            "support_system.vectors[4][0]",
            "derived_analysis.vertices[2][2]",
            "derived_analysis.area_vector[1]",
        ]

    def test_each_checked_value_is_named_when_moved_by_one(self):
        # Every written value the re-run reads, moved by one in its numerator,
        # fails its own check and no other; alpha fails the values it scales.
        polygon = polygon_from_json({"vertices": CANCELLING_HEXAGONS["A"]})
        report = derive_report(polygon, alpha=Fraction(1, 2))
        fields = checked_values(report)
        assert len(fields) == 81
        for path, name in fields:
            corrupted = copy.deepcopy(report)
            *parents, last = path
            container = corrupted
            for key in parents:
                container = container[key]
            container[last] = one_more(container[last])
            validation = float_cross_validate(corrupted)
            assert validation.checks == 86
            names = [m.field for m in validation.mismatches]
            if name == "support_system.alpha":  # what alpha scales, first the vectors
                assert names[0].startswith("support_system.vectors["), names
            else:
                assert names == [name], path

    def test_first_prime_dividing_a_denominator_moves_to_the_next(self, monkeypatch):
        m = _PRIMES[0]
        # The quadrangle fixture with its last z moved by 1/m.
        z = f"{1 - 2 * m}/{m}"
        vertices = [["0", "0", "0"], ["1", "1", "2"], ["2", "3", "1"], ["-1", "2", z]]
        report = derive_report(polygon_from_json({"vertices": vertices}), alpha=Fraction(1))
        assert float_cross_validate(report) == oracle.FloatValidation(True, 50, ())
        monkeypatch.setattr(oracle, "_PRIMES", _PRIMES[:1])
        assert [m.field for m in float_cross_validate(report).mismatches] == ["float_rerun"]
        monkeypatch.setattr(oracle, "_PRIMES", _PRIMES[:2])
        assert float_cross_validate(report).ok

    @pytest.mark.parametrize("negative_root", [False, True])
    def test_radicand_without_a_root_modulo_any_prime_verifies(self, monkeypatch, negative_root):
        # Radical values are compared part by part, so no square root of
        # alpha squared is taken, and the first prime serves.
        polygon = polygon_from_json({"vertices": NON_RESIDUE_PENTAGON})
        report = derive_report(polygon, negative_root=negative_root)
        square = Fraction(report["verdict"]["alpha_squared"])
        for p in _PRIMES:  # Euler's criterion: no square modulo p
            assert pow(square.numerator * square.denominator, (p - 1) // 2, p) == p - 1
        monkeypatch.setattr(oracle, "_PRIMES", _PRIMES[:1])
        assert float_cross_validate(report) == oracle.FloatValidation(True, 61, ())

    def test_a_radical_over_another_radicand_is_named(self):
        report = derive_report(golden.fixture_polygon("pentagon.json"))
        corrupted = copy.deepcopy(report)
        corrupted["support_system"]["vectors"][1][0]["d"] = "2"  # true radicand 8/5
        corrupted["derived_analysis"]["area_vector"][2]["d"] = "2"  # rational: any radicand
        validation = float_cross_validate(corrupted)
        assert [m.field for m in validation.mismatches] == ["support_system.vectors[2][0]"]

    def test_a_denominator_every_prime_divides_is_one_mismatch(self):
        every = math.prod(_PRIMES)
        vertices = [["0", "0", "0"], ["1", "1", "2"], ["2", "3", "1"], ["-1", "2", f"1/{every}"]]
        validation = float_cross_validate(check_report(polygon_from_json({"vertices": vertices})))
        assert not validation.ok and validation.checks == 0
        assert [m.field for m in validation.mismatches] == ["float_rerun"]


# A regular pentagon whose alpha squared, 6004692163/6496143360, is a square
# modulo none of the primes of the re-run.
NON_RESIDUE_PENTAGON = [
    ["3/4", "1", "8/5"],
    ["9/8", "-2", "7/8"],
    ["-9/4", "5/4", "3/8"],
    ["-9/5", "-3/4", "-1/3"],
    ["-7/4", "-1/4", "1/4"],
]


def one_more(text: str) -> str:
    """A written rational moved by one in its numerator."""
    top, slash, bottom = text.partition("/")
    return f"{int(top) + 1}{slash}{bottom}"


def checked_values(report: dict) -> list:
    """(path, field name) of each written value of an even derive report the re-run reads."""
    n = report["input_summary"]["n"]
    fields = [(("verdict", key), f"verdict.{key}") for key in ("odd_product", "even_product")]
    fields.append((("support_system", "alpha"), "support_system.alpha"))
    for path, size, axes in (
        (("deltas",), n, False),
        (("support_system", "vectors"), n, True),
        (("derived_analysis", "vertices"), n, True),
        (("derived_analysis", "edges"), n, True),
        (("derived_analysis", "derived_deltas"), n, False),
        (("derived_analysis", "two_plane", "even_offsets"), 3, False),
    ):
        name = ".".join(path)
        for i in range(size):
            if axes:
                fields += [(path + (i, a), f"{name}[{i + 1}][{a}]") for a in range(3)]
            else:
                fields.append((path + (i,), f"{name}[{i + 1}]"))
    for key in ("area_vector", "derivability_defect", "two_plane.projected_area_vector"):
        path = ("derived_analysis", *key.split("."))
        fields += [(path + (a,), f"derived_analysis.{key}[{a}]") for a in range(3)]
    return fields


# Ints past double range and past the int-string digit limit, which
# ``scalars._decimal`` writes in full.
_wide = st.one_of(
    st.integers(-(10**20), 10**20),
    st.integers(-(10**330), 10**330),
    st.sampled_from([2**1024, 3**700, 10**5000 + 7, -(3**20000), 7 * _PRIMES[0] + 1]),
)
P = _PRIMES[0]


def residue(value: Fraction) -> int:
    return value.numerator * pow(value.denominator, -1, P) % P


def read(text: str) -> int:
    num, den = _Rerun(P).pair(text)
    return num * pow(den, -1, P) % P


class TestWrittenValuesAsFloats:
    """The re-run reads each written value exactly, as its residue modulo a prime.

    The class keeps the name it had when the values were read as floats.
    """

    @settings(max_examples=300, deadline=None)
    @given(_wide, _wide.filter(bool), st.sampled_from(["int", "ratio", "ratio"]))
    def test_bit_for_bit(self, p, q, shape):
        q = 1 if shape == "int" else abs(q)
        text = _decimal(p) if shape == "int" else f"{_decimal(p)}/{_decimal(q)}"
        if q % P == 0:
            with pytest.raises(_NextPrime):
                read(text)
        else:
            assert read(text) == residue(Fraction(p, q))

    @given(_wide, _wide.filter(bool), st.integers(1, 10**6))
    def test_extension_objects(self, a, b, d):
        # a + b*sqrt(d) is read part by part; the radicand is the report's to check.
        value = {"a": _decimal(a), "b": f"{_decimal(b)}/7", "d": str(d)}
        parts = [num * pow(den, -1, P) % P for num, den in _Rerun(P).parts(value)]
        assert parts == [residue(Fraction(a)), residue(Fraction(b, 7))]

    @pytest.mark.parametrize("text", [" 1/2", "0.5", "1e-3", "+7", "-0", "3/6"])
    def test_other_strings_read_as_fraction_reads_them(self, text):
        assert read(text) == residue(Fraction(text))

    def test_a_denominator_the_prime_divides_moves_to_the_next(self):
        with pytest.raises(_NextPrime):
            read(f"1/{5 * P}")
