"""Command-line interface: reports, exit codes, determinism, round trips."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import FIXTURES_DIR, det3, read_long
from polyderive import (
    Polygon,
    Vec3,
    check_regularity,
    cli,
    deltas,
    edge_vectors,
    mirror,
)
from polyderive.reports import derive_report
from polyderive.suites import SuiteResult

QUADRANGLE = str(FIXTURES_DIR / "quadrangle.json")
PENTAGON = str(FIXTURES_DIR / "pentagon.json")
HEXAGON = str(FIXTURES_DIR / "hexagon_regular.json")
STRONGLY_REGULAR = str(FIXTURES_DIR / "hexagon_strongly_regular.json")
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
# Coordinates near 1e120 give corner determinants near 1e360, beyond double range.
HUGE_PENTAGON = {
    "vertices": [
        ["0", "0", "0"],
        ["1e120", "0", "0"],
        ["1e120", "1e120", "0"],
        ["1e120", "1e120", "1e120"],
        ["3e120", "-1e120", "4e120"],
    ]
}



def _radical(x: str, d: str) -> dict:
    return {"a": "0", "b": x, "d": d}


# Extension objects in an input polygon: the pentagon fixture with x scaled by
# sqrt(2), the same with vertices over sqrt(2) and sqrt(3), and the quadrangle's
# edges with one rational-valued extension component.
EXTENSION_INPUTS = {
    "sqrt2-pentagon": {
        "vertices": [
            [_radical(x, "2"), y, z]
            for x, y, z in (("0", "0", "0"), ("1", "0", "0"), ("1", "1", "0"),
                            ("1", "1", "1"), ("3", "-1", "4"))
        ]
    },
    "mixed-radicands": {
        "vertices": [
            [_radical(x, d), y, z]
            for (x, y, z), d in zip(
                (("0", "0", "0"), ("1", "0", "0"), ("1", "1", "0"), ("1", "1", "1"),
                 ("3", "-1", "4")),
                ("2", "3", "2", "3", "2"),
            )
        ]
    },
    "extension-edge": {
        "edges": [
            [{"a": "1", "b": "0", "d": "5"}, "1", "2"],
            ["1", "2", "-1"],
            ["-3", "-1", "-3"],
            ["1", "-2", "2"],
        ]
    },
}

TRIANGLE = [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]
# Runs each argument list through cli.main with numpy unimportable and prints
# the exit code and oracle verdict of each.
NUMPY_FREE_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from polyderive import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, json.loads(out.getvalue())["oracle_results"]["ok"]])
print(json.dumps(results))
"""


def child_env() -> dict:
    paths = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, _err = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestCheck:
    def test_quadrangle_is_regular(self, capsys):
        code, report = run_json(capsys, "check", QUADRANGLE)
        assert code == 0
        assert report["genericity"]["ok"]
        assert report["deltas"] == ["9", "-9", "9", "-9"]
        assert report["verdict"]["regular"]
        assert report["verdict"]["parity"] == "even"

    def test_pentagon_reports_alpha_squared(self, capsys):
        code, report = run_json(capsys, "check", PENTAGON)
        assert code == 0
        assert report["deltas"] == ["1", "2", "-4", "5", "-4"]
        assert report["verdict"]["alpha_squared"] == "8/5"

    def test_planar_square_gets_a_structured_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(
            json.dumps(
                {"vertices": [["0", "0", "0"], ["1", "0", "0"], ["1", "1", "0"], ["0", "1", "0"]]}
            )
        )
        code, report = run_json(capsys, "check", str(path))
        assert code == 0
        assert report["genericity"] == {"ok": False, "index": 1, "kind": "coplanar_triple"}
        assert "deltas" not in report

    def test_malformed_json_is_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": [[1, 2')
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert "line" in err

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _out, err = run_cli(capsys, "check", "/nonexistent/poly.json")
        assert code == 2
        assert "no such file" in err

    def test_missing_keys_are_a_usage_error(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        code, _out, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert "vertices" in err

    def test_open_edge_list_writes_its_residue_as_scalars(self, capsys, tmp_path):
        path = tmp_path / "open.json"
        path.write_text(json.dumps({"edges": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert "residue (1, 1, 1)" in err
        assert "Vec3(" not in err and "Fraction(" not in err

    @pytest.mark.parametrize("text", ["1_0", "\u0661"])
    def test_underscore_and_non_ascii_digit_are_a_usage_error(self, capsys, tmp_path, text):
        # Fraction alone reads "1_0" as 10 and the Arabic-Indic digit one as 1.
        path = tmp_path / "digits.json"
        vertices = [[text, "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"]]
        path.write_text(json.dumps({"vertices": vertices}))
        code, out, err = run_cli(capsys, "check", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot parse rational from {text!r}\n"

    def test_float_check_attaches_oracle_block(self, capsys):
        code, report = run_json(capsys, "check", QUADRANGLE, "--float-check")
        assert code == 0
        assert report["oracle_results"]["ok"]

    def test_huge_decimal_exponent_is_a_usage_error(self, tmp_path):
        # Run in a child process with a timeout: parsing such an exponent
        # without a bound builds a power of ten with a billion digits.
        path = tmp_path / "huge.json"
        vertices = [["1e999999999", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        path.write_text(json.dumps({"vertices": vertices}))
        result = subprocess.run(
            [sys.executable, "-m", "polyderive.cli", "check", str(path)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=30,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert "exponent" in result.stderr

    @pytest.mark.parametrize("command", ["check", "derive", "analyze"])
    def test_float_check_reports_values_beyond_double_range(self, capsys, tmp_path, command):
        # The re-run is exact, so values beyond double range are confirmed too.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(HUGE_PENTAGON))
        code, report = run_json(capsys, command, str(path), "--float-check")
        assert code == 0
        checks = {"check": 8, "derive": 61, "analyze": 11}[command]
        assert report["oracle_results"] == {"ok": True, "checks": checks, "mismatches": []}

    def test_float_check_without_a_usable_prime_fails_its_block_only(self, capsys, tmp_path):
        # A denominator that every prime of the re-run divides.
        every = math.prod(2**61 - k for k in (1, 45, 229, 465, 829, 985, 1153, 1281))
        vertices = [["0", "0", "0"], ["1", "1", "2"], ["2", "3", "1"], ["-1", "2", f"1/{every}"]]
        path = tmp_path / "quadrangle.json"
        path.write_text(json.dumps({"vertices": vertices}))
        code, report = run_json(capsys, "check", str(path), "--float-check")
        assert code == 0
        oracle = report["oracle_results"]
        assert oracle["ok"] is False and oracle["checks"] == 0
        assert [m["field"] for m in oracle["mismatches"]] == ["float_rerun"]


def generic_301_gon() -> list:
    """A seeded random 301-gon with integer coordinates in ±10**6."""
    rng = random.Random(301)
    return [[rng.randint(-(10**6), 10**6) for _ in range(3)] for _ in range(301)]


class TestReportsOfAnySize:
    """A 301-gon's determinant products pass Python's 4300-digit limit for ``str``."""

    def test_check_writes_the_exact_evidence(self, capsys, tmp_path):
        rows = generic_301_gon()
        path = tmp_path / "polygon.json"
        path.write_text(json.dumps({"vertices": rows}), encoding="utf-8")
        code, report = run_json(capsys, "check", str(path))
        assert code == 0
        assert report["genericity"] == {"ok": True}
        count = len(rows)
        edges = [[q - p for p, q in zip(rows[k], rows[(k + 1) % count])] for k in range(count)]
        product = math.prod(
            det3(edges[k], edges[(k + 1) % count], edges[(k + 2) % count]) for k in range(count)
        )
        evidence = report["verdict"]["evidence"]
        assert len(evidence) > 4300
        assert read_long(evidence) == product
        assert report["verdict"]["regular"] == (product > 0)

    def test_float_check_reads_values_past_the_digit_limit(self, capsys, tmp_path):
        # Scaled by 10**1500 + 7, the pentagon's radicand and determinant
        # products are longer than int() reads; the re-run reads them in chunks.
        scale = 10**1500 + 7
        rows = json.loads(Path(PENTAGON).read_text())["vertices"]
        path = tmp_path / "pentagon.json"
        scaled = [[str(int(c) * scale) for c in row] for row in rows]
        path.write_text(json.dumps({"vertices": scaled}))
        code, report = run_json(capsys, "derive", str(path), "--float-check")
        assert code == 0
        assert len(report["support_system"]["alpha"]["d"]) > 4300
        assert len(report["verdict"]["odd_product"]) > 13000
        assert report["oracle_results"] == {"ok": True, "checks": 61, "mismatches": []}

    def test_derive_completes_on_the_regular_mirror(self):
        polygon = Polygon(tuple(Vec3.of(*row) for row in generic_301_gon()))
        if not check_regularity(deltas(edge_vectors(polygon))).regular:
            polygon = mirror(polygon)
        report = derive_report(polygon)
        assert report["support_system"]["verified"]
        assert len(report["derived_analysis"]["vertices"]) == 301


class TestWithoutNumpy:
    def test_float_check_runs_with_numpy_unimportable(self):
        runs = []
        for path in sorted(FIXTURES_DIR.glob("*.json")):
            even = len(json.loads(path.read_text())["vertices"]) % 2 == 0
            runs.append(["check", str(path), "--float-check"])
            scale = ["--alpha", "1"] if even else []
            runs.append(["derive", str(path), "--float-check", *scale])
            runs.append(["analyze", str(path), "--float-check"])
        assert len(runs) == 15
        result = subprocess.run(
            [sys.executable, "-c", NUMPY_FREE_CHILD, json.dumps(runs)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [[0, True]] * len(runs)


class TestExtensionInput:
    @pytest.mark.parametrize("name", sorted(EXTENSION_INPUTS))
    @pytest.mark.parametrize("command", ["check", "analyze", "derive"])
    def test_extension_coordinates_are_a_usage_error(self, capsys, tmp_path, name, command):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(EXTENSION_INPUTS[name]))
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot parse rational from dict value")
        assert "Traceback" not in err


class TestDerive:
    def test_hexagon_with_unit_scale(self, capsys):
        code, report = run_json(capsys, "derive", HEXAGON, "--alpha", "1")
        assert code == 0
        block = report["derived_analysis"]
        assert block["derived_deltas"][:3] == ["-32/9", "8", "4/3"]
        assert block["strongly_regular"]
        assert block["two_plane"]["offsets_equal"]

    def test_pentagon_uses_the_canonical_root(self, capsys):
        code, report = run_json(capsys, "derive", PENTAGON)
        assert code == 0
        system = report["support_system"]
        assert system["alpha"] == {"a": "0", "b": "1", "d": "8/5"}
        assert system["vectors"][0][2] == {"a": "0", "b": "5/8", "d": "8/5"}
        assert report["derived_analysis"]["planarity"]["planar"]

    def test_strongly_regular_hexagon_notes_the_type_change(self, capsys):
        code, report = run_json(capsys, "derive", STRONGLY_REGULAR, "--alpha", "1")
        assert code == 0
        block = report["derived_analysis"]
        assert block["derived_deltas"][:3] == ["-4/5", "1/8", "3/10"]
        assert block["input_strongly_regular"]
        assert block["type_matches_input"] is False

    def test_even_polygon_requires_alpha(self, capsys):
        code, report = run_json(capsys, "derive", HEXAGON)
        assert code == 1
        assert "--alpha" in report["error"]["message"]

    def test_odd_polygon_rejects_explicit_alpha(self, capsys):
        code, report = run_json(capsys, "derive", PENTAGON, "--alpha", "2")
        assert code == 1
        assert "negative-root" in report["error"]["message"]

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ("abc", "cannot parse rational from 'abc'"),
            ("1_0", "cannot parse rational from '1_0'"),
            ("\u0661", "cannot parse rational from '\u0661'"),
            ("1e5000", "decimal exponent of '1e5000' is beyond ±4300"),
            ("1/0", "cannot parse rational from '1/0'"),
            ("0", "must be nonzero"),
        ],
    )
    def test_bad_alpha_is_a_usage_error(self, capsys, alpha, message):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["derive", HEXAGON, f"--alpha={alpha}"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"argument --alpha: {message}\n")

    def test_irregular_polygon_cites_both_products(self, capsys, tmp_path):
        fixture_code, fixture = run_json(
            capsys, "generate", "--kind", "alt-sign", "--seed", "5"
        )
        assert fixture_code == 0
        path = tmp_path / "alt.json"
        path.write_text(json.dumps(fixture))
        code, report = run_json(capsys, "derive", str(path), "--alpha", "1")
        assert code == 1
        message = report["error"]["message"]
        assert "odd positions" in message and "even positions" in message

    @pytest.mark.parametrize(
        "last_vertex, flags",
        [
            # The pentagon fixture mirrored in z: its determinant product turns negative.
            (None, ["--alpha", "2"]),
            # The regular hexagon fixture with its last vertex moved: the products differ.
            (["2", "5", "7"], ["--negative-root"]),
        ],
    )
    def test_irregularity_is_reported_before_scale_flags(
        self, capsys, tmp_path, last_vertex, flags
    ):
        if last_vertex is None:
            vertices = json.loads(Path(PENTAGON).read_text())["vertices"]
            vertices = [[x, y, str(-Fraction(z))] for x, y, z in vertices]
        else:
            vertices = json.loads(Path(HEXAGON).read_text())["vertices"][:-1] + [last_vertex]
        path = tmp_path / "irregular.json"
        path.write_text(json.dumps({"vertices": vertices}))
        code, report = run_json(capsys, "derive", str(path), *flags)
        assert code == 1
        assert report["error"]["type"] == "IrregularPolygonError"

    def test_quadrangle_self_intersection_is_reported(self, capsys):
        code, report = run_json(capsys, "derive", QUADRANGLE, "--alpha", "1")
        assert code == 0
        block = report["derived_analysis"]
        assert block["planarity"]["planar"]
        assert block["area_vector"] == ["0", "0", "0"]
        assert block["self_intersecting"] is True


class TestAnalyze:
    def test_strongly_regular_hexagon_is_not_a_derivative(self, capsys):
        code, report = run_json(capsys, "analyze", STRONGLY_REGULAR)
        assert code == 0
        assert report["derivability_defect"] == ["7", "-7/2", "-7/2"]
        assert report["strongly_regular"] is True

    def test_triangle_gets_an_informational_note(self, capsys, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text(
            json.dumps({"vertices": [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]})
        )
        code, report = run_json(capsys, "analyze", str(path))
        assert code == 0
        assert report["planarity"]["planar"]
        assert "note" in report

    def test_edge_payloads_are_accepted(self, capsys, tmp_path):
        path = tmp_path / "edges.json"
        path.write_text(
            json.dumps(
                {
                    "edges": [
                        ["1", "0", "0"],
                        ["0", "1", "0"],
                        ["0", "0", "1"],
                        ["2", "-1", "3"],
                        ["-1", "5", "2"],
                        ["-2", "-5", "-6"],
                    ]
                }
            )
        )
        code, report = run_json(capsys, "analyze", str(path))
        assert code == 0
        assert report["deltas"] == ["1", "2", "9", "15", "-20", "-6"]


class TestGenerate:
    def test_repeated_invocations_are_identical(self, capsys):
        args = ("generate", "--kind", "hexagon-lift", "--seed", "7")
        _code, first, _ = run_cli(capsys, *args)
        _code, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_round_trip_through_check_and_derive(self, capsys, tmp_path):
        for kind in ("quad", "pentagon", "hexagon-lift", "alt-sign"):
            path = tmp_path / f"{kind}.json"
            code, _out, _err = run_cli(
                capsys, "generate", "--kind", kind, "--seed", "3", "--out", str(path)
            )
            assert code == 0
            check_code, report = run_json(capsys, "check", str(path))
            assert check_code == 0
            assert report["genericity"]["ok"]
        derive_code, report = run_json(capsys, "derive", str(tmp_path / "pentagon.json"))
        assert derive_code == 0
        assert report["derived_analysis"]["planarity"]["planar"]

    def test_lift_fixture_embeds_seed_and_system(self, capsys):
        code, fixture = run_json(capsys, "generate", "--kind", "hexagon-lift", "--seed", "9")
        assert code == 0
        assert fixture["seed"] == 9
        assert fixture["kind"] == "hexagon-lift"
        assert len(fixture["support_system"]["vectors"]) == 6

    def test_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYDERIVE_SEED", "21")
        code, fixture = run_json(capsys, "generate", "--kind", "quad")
        assert code == 0
        assert fixture["seed"] == 21

    @pytest.mark.parametrize(
        "argv", [["generate", "--kind", "quad"], ["verify", "--suite", "eq2", "--samples", "1"]]
    )
    def test_invalid_seed_env_is_a_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("POLYDERIVE_SEED", "abc")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: POLYDERIVE_SEED must be an integer, got 'abc'\n"
        code, _out, _err = run_cli(capsys, *argv, "--seed", "4")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--kind", "quad", "--seed", "1_0"],
            ["generate", "--kind", "quad", "--seed", "\u0661"],
            ["generate", "--kind", "quad", "--seed", "0", "--bound", "1_0"],
            ["verify", "--suite", "eq2", "--samples", "1", "--seed", "1_0"],
            ["verify", "--suite", "eq2", "--seed", "0", "--samples", "\u0663"],
        ],
    )
    def test_underscore_and_non_ascii_digit_options_are_a_usage_error(self, capsys, argv):
        # int() alone reads "1_0" as 10 and the Arabic-Indic digits as 1 and 3.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f": invalid int value: {argv[-1]!r}\n")

    @pytest.mark.parametrize("text", ["1_0", "\u0661"])
    def test_underscore_and_non_ascii_digit_seed_env_is_a_usage_error(
        self, capsys, monkeypatch, text
    ):
        monkeypatch.setenv("POLYDERIVE_SEED", text)
        code, out, err = run_cli(capsys, "generate", "--kind", "quad")
        assert code == 2
        assert out == ""
        assert err == f"error: POLYDERIVE_SEED must be an integer, got {text!r}\n"

    @pytest.mark.parametrize("bound", ["1", "0", "-5"])
    def test_bound_below_two_is_a_usage_error(self, capsys, bound):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["generate", "--kind", "quad", "--bound", bound, "--seed", "0"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 2" in captured.err
        assert "Traceback" not in captured.err

    def test_seed_env_is_read_when_the_command_runs(self, capsys, monkeypatch):
        # The parser is built once per process; the default seed must not be.
        monkeypatch.setenv("POLYDERIVE_SEED", "21")
        _code, first = run_json(capsys, "generate", "--kind", "quad")
        monkeypatch.setenv("POLYDERIVE_SEED", "22")
        _code, second = run_json(capsys, "generate", "--kind", "quad")
        assert (first["seed"], second["seed"]) == (21, 22)
        assert first["vertices"] != second["vertices"]
        assert cli.build_parser() is cli.build_parser()


class TestVerify:
    def test_single_suite_passes(self, capsys):
        code, report = run_json(
            capsys, "verify", "--suite", "eq2", "--samples", "25", "--seed", "1"
        )
        assert code == 0
        assert report["passed"]
        assert report["suites"][0]["failures"] == 0

    def test_all_suites_small_run(self, capsys):
        code, report = run_json(
            capsys, "verify", "--suite", "all", "--samples", "3", "--seed", "2"
        )
        assert code == 0
        assert len(report["suites"]) == 8

    def test_property_failure_exits_one(self, capsys, monkeypatch):
        from polyderive import suites as suites_module

        def failing_suite(samples: int, seed: int) -> SuiteResult:
            return SuiteResult("eq2", samples, 1, {"failed": "injected"})

        monkeypatch.setitem(suites_module.SUITES, "eq2", failing_suite)
        code, report = run_json(
            capsys, "verify", "--suite", "eq2", "--samples", "5", "--seed", "1"
        )
        assert code == 1
        assert not report["passed"]
        assert report["suites"][0]["counterexample"] == {"failed": "injected"}

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sample_count_below_one_is_a_usage_error(self, capsys, samples):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--suite", "all", "--samples", samples, "--seed", "0"])
        assert excinfo.value.code == 2
        assert "at least 1" in capsys.readouterr().err


class TestPlot:
    def test_polygon_file(self, capsys):
        code, out, _err = run_cli(capsys, "plot", QUADRANGLE)
        assert code == 0
        lines = out.strip().splitlines()
        assert sum(1 for line in lines if line.startswith("v ")) == 4
        assert sum(1 for line in lines if line.startswith("e ")) == 4
        assert "e 4 1" in lines

    def test_derive_report_gets_plane_tags(self, capsys, tmp_path):
        code, report = run_json(capsys, "derive", HEXAGON, "--alpha", "1")
        assert code == 0
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        plot_code, out, _err = run_cli(capsys, "plot", str(path))
        assert plot_code == 0
        assert "# planar false" in out
        assert "plane=1" in out and "plane=2" in out

    def test_quadrangle_derive_report_notes_planarity(self, capsys, tmp_path):
        code, report = run_json(capsys, "derive", QUADRANGLE, "--alpha", "1")
        assert code == 0
        path = tmp_path / "quad_report.json"
        path.write_text(json.dumps(report))
        plot_code, out, _err = run_cli(capsys, "plot", str(path))
        assert plot_code == 0
        lines = out.strip().splitlines()
        assert "# planar true" in out
        assert sum(1 for line in lines if line.startswith("v ")) == 4
        assert sum(1 for line in lines if line.startswith("e ")) == 4

    def test_pentagon_derive_report_plots_extension_vertices(self, capsys, tmp_path):
        code, report = run_json(capsys, "derive", PENTAGON)
        assert code == 0
        vertices = report["derived_analysis"]["vertices"]
        assert vertices[0][2] == {"a": "0", "b": "5/8", "d": "8/5"}
        path = tmp_path / "pentagon_report.json"
        path.write_text(json.dumps(report))
        plot_code, out, _err = run_cli(capsys, "plot", str(path))
        assert plot_code == 0
        rows = [line.split() for line in out.splitlines() if line.startswith("v ")]
        assert [row[1] for row in rows] == ["1", "2", "3", "4", "5"]
        root = (8 / 5) ** 0.5
        for row, vertex in zip(rows, vertices):
            expected = [float(Fraction(c["b"])) * root for c in vertex]
            assert [float(x) for x in row[2:5]] == pytest.approx(expected, rel=1e-15)
        assert "# planar true" in out
        assert "plane=" not in out

    def test_triangle(self, capsys, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps({"vertices": TRIANGLE}))
        code, out, _err = run_cli(capsys, "plot", str(path))
        assert code == 0
        lines = out.strip().splitlines()
        assert sum(1 for line in lines if line.startswith("v ")) == 3
        assert sum(1 for line in lines if line.startswith("e ")) == 3

    @pytest.mark.parametrize("vertices", [[], TRIANGLE[:1]], ids=["empty", "one-vertex"])
    def test_fewer_than_three_vertices_is_a_usage_error(self, capsys, tmp_path, vertices):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"vertices": vertices}))
        code, out, err = run_cli(capsys, "plot", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: 'vertices' must list at least three points\n"

    @pytest.mark.parametrize(
        "payload",
        [
            {"derived_analysis": {}},
            {"input_summary": {}},
            {"vertices": TRIANGLE, "planarity": {}},
            {"vertices": [["1e400", "0", "0"]] + TRIANGLE[1:]},
        ],
        ids=["empty-derived-block", "empty-input-summary", "empty-planarity", "huge-vertex"],
    )
    def test_malformed_payload_is_a_usage_error(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "plot", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_extension_value_beyond_double_range_is_a_usage_error(self, capsys, tmp_path):
        # Each part of 1e300 * sqrt(1e300) fits a double; the value does not.
        path = tmp_path / "overflow.json"
        vertices = [[_radical("1e300", "1e300"), "0", "0"], *TRIANGLE[1:]]
        path.write_text(json.dumps({"vertices": vertices}))
        code, out, err = run_cli(capsys, "plot", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: vertex 1 is beyond double range\n"


# Files the JSON reader rejects before any polygon is read.
UNREADABLE_FILES = {
    "deep-nesting": b"[" * 100_000,
    "long-int-literal": b'{"vertices": [[' + b"1" * 5000 + b", 0, 0]]}",
    "not-utf-8": b'{"vertices": "\xff\xfe"}',
}


class TestUnreadableFiles:
    @pytest.mark.parametrize("command", ["check", "plot"])
    @pytest.mark.parametrize("name", sorted(UNREADABLE_FILES))
    def test_unreadable_file_is_a_usage_error(self, capsys, tmp_path, name, command):
        path = tmp_path / f"{name}.json"
        path.write_bytes(UNREADABLE_FILES[name])
        code, out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path} cannot be read as JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "plot"])
    def test_long_int_literal_names_the_coordinate_limit(self, capsys, tmp_path, command):
        # The interpreter's advice to raise its digit limit is no use at the
        # command line; the error names the limit a coordinate has instead.
        path = tmp_path / "long.json"
        path.write_bytes(UNREADABLE_FILES["long-int-literal"])
        code, _out, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert err == (
            f"error: {path} cannot be read as JSON: an integer literal has more than "
            "4300 digits, the limit for a coordinate\n"
        )
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("command", ["check", "derive", "analyze", "plot"])
    def test_directory_is_a_usage_error(self, capsys, tmp_path, command):
        code, out, err = run_cli(capsys, command, str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot read {tmp_path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "argv",
        [["generate", "--kind", "quad", "--seed", "0"], ["plot", PENTAGON]],
        ids=["generate", "plot"],
    )
    @pytest.mark.parametrize("target", ["missing-directory", "directory", "full-disk"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, argv, target):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        path, strerror = {
            "missing-directory": (tmp_path / "missing" / "x.txt", "No such file or directory"),
            "directory": (out_dir, "Is a directory"),
            # Opens, then fails on the write: ENOSPC.
            "full-disk": (Path("/dev/full"), "No space left on device"),
        }[target]
        if target == "full-disk" and not path.exists():
            pytest.skip("no /dev/full on this platform")
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: {strerror}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert list(out_dir.iterdir()) == []


# Non-ASCII and control characters, and lone surrogates, which ``characters()`` leaves out.
TEXT = st.text(st.characters() | st.characters(categories=["Cs"]))
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**4000) + 1, 10**4000 - 1)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | TEXT
    | st.sampled_from([[], {}, ()])
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=24,
)


class TestWriter:
    """``_emit`` writes reports itself, in the bytes of ``json.dumps(indent=2)``."""

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(TEXT, TREES, max_size=4))
    def test_same_bytes_as_json_dumps(self, document):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(document)
        assert out.getvalue() == json.dumps(document, indent=2) + "\n"

    @pytest.mark.parametrize(
        "document",
        [{1: "a"}, {"a": [{"b": Fraction(1, 2)}]}],
        ids=["int-key", "fraction-value"],
    )
    def test_other_types_raise(self, capsys, document):
        with pytest.raises(TypeError):
            cli._emit(document)
        assert capsys.readouterr().out == ""
