"""Self-test of the benchmark's output checks.

Usage (from the repository root): python3 bench/selftest.py

The checks must accept the reports polyderive writes for the five fixtures
and for a sample of every generated input class, and must reject tampered
reports: one corner determinant changed, one sign flipped in a support
vector, a verify report with fewer samples than asked, and more. A check
that accepted all of these would be vacuous. Exits 1 on the first miss.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import shutil
import sys
from fractions import Fraction

import checks
import inputs
import run


def cli_report(cli, argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"selftest: {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue())


def expect_accept(label: str, check, report: dict) -> None:
    try:
        check(report)
    except checks.CheckError as exc:
        raise SystemExit(f"selftest: {label} was rejected: {exc}")
    print(f"accepts {label}")


def expect_reject(label: str, check, report: dict) -> None:
    try:
        check(report)
    except checks.CheckError as exc:
        print(f"rejects {label}: {exc}")
        return
    raise SystemExit(f"selftest: tampered report accepted: {label}")


def flip(value):
    """The negation of a scalar in report form."""
    if isinstance(value, dict):
        return {**value, "a": str(-Fraction(value["a"])), "b": str(-Fraction(value["b"]))}
    return str(-Fraction(value))


def main() -> int:
    cli = run.import_in_process()
    reports = check_fixtures(cli)
    workdir = run.RESULTS / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        verify = check_generated(cli, random.Random("selftest"), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_tampering(reports, verify)
    print("selftest: all checks behave")
    return 0


def check_fixtures(cli) -> dict:
    """Accept every report on the five fixtures; return them with their checks."""
    reports = {}
    for name in run.FIXTURES:
        path = f"fixtures/{name}.json"
        points = checks.parse_polygon((run.ROOT / path).read_text(encoding="utf-8"))
        alpha = Fraction(1) if len(points) % 2 == 0 else None
        derive_argv = ["derive", path, "--float-check"] + (["--alpha", "1"] if alpha else [])
        cases = [
            (["check", path], lambda r, p=points: checks.check_check(r, p)),
            (derive_argv, lambda r, p=points, a=alpha: checks.check_derive(r, p, a, float_check=True)),
            (["analyze", path], lambda r, p=points: checks.check_analyze(r, p)),
        ]
        if alpha is None:
            cases.append((
                ["derive", path, "--negative-root"],
                lambda r, p=points: checks.check_derive(r, p, negative_root=True),
            ))
        for argv, check in cases:
            report = cli_report(cli, argv)
            expect_accept(" ".join(argv), check, report)
            reports[(name, argv[0], "--negative-root" in argv)] = (report, check)
    return reports


def check_generated(cli, rng, workdir) -> dict:
    """Accept reports on generated inputs of every class; return a verify report."""
    generated = {
        "quadrangle": inputs.generic_polygon(rng, 4),
        "pentagon": inputs.regular_odd_polygon(rng, 5),
        "lifted hexagon": inputs.lifted_hexagon(rng),
        f"{run.ODD_N}-gon": inputs.regular_odd_polygon(rng, run.ODD_N),
    }
    for label, points in generated.items():
        path = run.write_polygon(workdir, label.replace(" ", "_"), points)
        scales = inputs.scales(points) if len(points) % 2 == 0 else [None]
        for alpha in scales:
            argv = ["derive", path] + (["--alpha", str(alpha)] if alpha is not None else [])
            expect_accept(f"derive of a generated {label} at scale {alpha}",
                          lambda r: checks.check_derive(r, points, alpha), cli_report(cli, argv))
        expect_accept(f"check of a generated {label}",
                      lambda r: checks.check_check(r, points), cli_report(cli, ["check", path]))
        expect_accept(f"analyze of a generated {label}",
                      lambda r: checks.check_analyze(r, points), cli_report(cli, ["analyze", path]))
    verify = cli_report(cli, ["verify", "--suite", "all", "--samples", "2", "--seed", "5"])
    expect_accept("verify --samples 2", lambda r: checks.check_verify(r, 2), verify)
    return verify


def check_tampering(reports: dict, verify: dict) -> None:
    """Reject every tampered copy of a report the checks accepted."""

    def tampered(key, edit):
        report, check = reports[key]
        bad = copy.deepcopy(report)
        edit(bad)
        return check, bad

    def bump_delta(r):
        r["deltas"][2] = str(Fraction(r["deltas"][2]) + 1)

    def flip_support(r):
        r["support_system"]["vectors"][1][0] = flip(r["support_system"]["vectors"][1][0])

    def flip_verdict(r):
        r["verdict"]["regular"] = not r["verdict"]["regular"]

    def bump_area(r):
        r["derived_analysis"]["area_vector"][0] = "1"

    def break_symmetry(r):
        r["derived_analysis"]["derived_deltas"][3] = flip(r["derived_analysis"]["derived_deltas"][3])

    def oracle_fails(r):
        r["oracle_results"]["ok"] = False

    def flip_root(r):
        r["support_system"]["alpha"] = flip(r["support_system"]["alpha"])

    for label, key, edit in (
        ("a changed corner determinant", ("pentagon", "check", False), bump_delta),
        ("a changed corner determinant in derive", ("hexagon_regular", "derive", False), bump_delta),
        ("one sign flipped in a support vector", ("hexagon_regular", "derive", False), flip_support),
        ("one sign flipped in an extension support vector", ("pentagon", "derive", False), flip_support),
        ("a flipped regularity verdict", ("quadrangle", "check", False), flip_verdict),
        ("a nonzero derived area vector", ("quadrangle", "derive", False), bump_area),
        ("broken half-turn symmetry", ("hexagon_strongly_regular", "derive", False), break_symmetry),
        ("a failed float oracle", ("pentagon_flat_support", "derive", False), oracle_fails),
        ("the wrong root", ("pentagon", "derive", True), flip_root),
        ("a changed determinant in analyze", ("hexagon_regular", "analyze", False), bump_delta),
    ):
        expect_reject(label, *tampered(key, edit))

    fewer = copy.deepcopy(verify)
    fewer["suites"][3]["samples"] = 1
    expect_reject("a verify report with fewer samples than asked",
                  lambda r: checks.check_verify(r, 2), fewer)
    missing = copy.deepcopy(verify)
    del missing["suites"][0]
    expect_reject("a verify report missing a suite", lambda r: checks.check_verify(r, 2), missing)


if __name__ == "__main__":
    sys.exit(main())
