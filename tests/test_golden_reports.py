"""Byte-exact replay of frozen CLI outputs (stdout and exit code).

Each case runs ``cli.main`` in-process from the repository root, so the
``source`` paths inside the reports stay stable. The expected stdout of a
case lives in ``tests/golden_reports/<name>.out`` (generated inputs in
``inputs/``), and the expected exit codes in ``exit_codes.json``.

The outputs were frozen before ``reports.py`` was changed to run each
pipeline stage once. A change that alters a report on purpose refreezes them
with ``PYTHONPATH=src python tests/test_golden_reports.py`` and says why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from polyderive import cli

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden_reports"
INPUTS = "tests/golden_reports/inputs"
EXIT_CODES = GOLDEN_DIR / "exit_codes.json"

FIXTURES = [
    ("fixtures/quadrangle.json", True),
    ("fixtures/pentagon.json", False),
    ("fixtures/pentagon_flat_support.json", False),
    ("fixtures/hexagon_regular.json", True),
    ("fixtures/hexagon_strongly_regular.json", True),
]
KINDS = [("quad", True), ("pentagon", False), ("hexagon-lift", True), ("alt-sign", True)]
GENERATED = [(kind, seed, even) for kind, even in KINDS for seed in (1, 2)]
# Each of these seeds redraws one sample: thm51, thm52 and eq4 respectively.
VERIFY_SEEDS = (24, 50, 378)


def _cases() -> list[tuple[str, list[str]]]:
    """(expected stdout path relative to GOLDEN_DIR, argv), in freezing order."""
    cases = [
        (f"inputs/{kind}_s{seed}.json", ["generate", "--kind", kind, "--seed", str(seed)])
        for kind, seed, _ in GENERATED
    ]
    generated = [(f"{INPUTS}/{kind}_s{seed}.json", even) for kind, seed, even in GENERATED]
    for path, even in FIXTURES + generated:
        stem = Path(path).stem
        cases.append((f"check_{stem}.out", ["check", "--float-check", path]))
        cases.append((f"analyze_{stem}.out", ["analyze", "--float-check", path]))
        variants = (
            [("a1", ["--alpha", "1"]), ("a-3_2", ["--alpha=-3/2"])]
            if even
            else [("canonical", []), ("negative", ["--negative-root"])]
        )
        for label, flags in variants:
            cases.append((f"derive_{stem}_{label}.out", ["derive", path, *flags]))
            cases.append(
                (f"derive_{stem}_{label}_float.out", ["derive", path, *flags, "--float-check"])
            )
    cases += [
        ("error_derive_pentagon_alpha.out", ["derive", "fixtures/pentagon.json", "--alpha", "1"]),
        ("error_derive_quadrangle_no_alpha.out", ["derive", "fixtures/quadrangle.json"]),
        ("error_check_nongeneric_pentagon.out", ["check", f"{INPUTS}/nongeneric_pentagon.json"]),
        ("error_derive_nongeneric_pentagon.out", ["derive", f"{INPUTS}/nongeneric_pentagon.json"]),
        ("error_analyze_triangle.out", ["analyze", "--float-check", f"{INPUTS}/triangle.json"]),
        ("analyze_derived_hexagon.out", ["analyze", f"{INPUTS}/derived_hexagon.json"]),
        (
            "plot_derive_hexagon_regular.out",
            ["plot", "tests/golden_reports/derive_hexagon_regular_a1.out"],
        ),
        (
            "plot_analyze_derived_hexagon.out",
            ["plot", "tests/golden_reports/analyze_derived_hexagon.out"],
        ),
        ("plot_derived_block.out", ["plot", f"{INPUTS}/derived_block.json"]),
    ]
    cases += [
        (
            f"verify_all_s{seed}.out",
            ["verify", "--suite", "all", "--samples", "3", "--seed", str(seed)],
        )
        for seed in VERIFY_SEEDS
    ]
    return cases


CASES = _cases()


def test_every_case_has_a_frozen_exit_code():
    frozen = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    assert sorted(frozen) == sorted(name for name, _ in CASES)


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == json.loads(EXIT_CODES.read_text(encoding="utf-8"))[name]
    assert out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()


def freeze() -> None:
    """Rewrite every golden file from the current code."""
    os.chdir(REPO_ROOT)
    codes = {}
    for name, argv in CASES:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            codes[name] = cli.main(argv)
        (GOLDEN_DIR / name).write_bytes(stdout.getvalue().encode("utf-8"))
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    freeze()
