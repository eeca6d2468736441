"""Command-line front end: check, derive, analyze, generate, verify, plot.

Reports go to stdout as JSON; human-readable summaries go to stderr. Exit
codes: 0 success (or all suites passing), 1 analysis or property failure,
2 usage or parse error. POLYDERIVE_SEED provides the default seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Iterator

from .polygon import NonGenericPolygonError
from .regularity import IrregularPolygonError
from .reports import (
    PolygonFormatError,
    _support_json,
    analyze_report,
    check_report,
    derive_report,
    plot_lines,
    polygon_from_json,
    polygon_to_json,
)
from .scalars import parse_rational

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
_quote = json.encoder.encode_basestring_ascii
_INFINITIES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


class _UsageError(ValueError):
    """A setting read outside the argument parser is unusable: a malformed
    POLYDERIVE_SEED, or an ``--out`` path that cannot be written."""


def _load_payload(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise PolygonFormatError(f"no such file: {path}")
    except OSError as exc:  # a directory, no permission
        raise PolygonFormatError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise PolygonFormatError(
            f"{path} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        )
    except (RecursionError, UnicodeDecodeError) as exc:  # deep nesting, non-UTF-8
        raise PolygonFormatError(f"{path} cannot be read as JSON: {exc}")
    except ValueError:  # an integer literal longer than int() reads
        raise PolygonFormatError(
            f"{path} cannot be read as JSON: an integer literal has more than "
            f"{sys.get_int_max_str_digits()} digits, the limit for a coordinate"
        )
    if not isinstance(payload, dict):
        raise PolygonFormatError(f"{path} must hold a JSON object")
    return payload


def _json(value: object, pad: str) -> str:
    """``json.dumps(value, indent=2)`` at indent ``pad``, without the stdlib's Python encoder."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict or kind is list or kind is tuple:
        brackets = "{}" if kind is dict else "[]"
        if not value:
            return brackets
        inner = pad + "  "
        if kind is dict:
            items = [
                _quote(key) + ": " + (_quote(item) if type(item) is str else _json(item, inner))
                for key, item in value.items()
            ]
        else:
            items = [_quote(item) if type(item) is str else _json(item, inner) for item in value]
        text = (",\n" + inner).join(items)
        return f"{brackets[0]}\n{inner}{text}\n{pad}{brackets[1]}"
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        return "NaN" if value != value else _INFINITIES.get(value) or float.__repr__(value)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(document: dict | str, out: str | None = None) -> None:
    text = document if isinstance(document, str) else _json(document, "") + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:  # a missing directory, a directory, a full disk
            raise _UsageError(f"cannot write {out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _emit_report(report: dict, float_check: bool) -> None:
    """Emit a report, with the exact re-run of ``--float-check`` attached when asked for."""
    if float_check:
        from .oracle import float_cross_validate

        validation = float_cross_validate(report)
        report["oracle_results"] = {
            "ok": validation.ok,
            "checks": validation.checks,
            "mismatches": [
                {"field": m.field, "detail": m.detail} for m in validation.mismatches
            ],
        }
    _emit(report)


def _summary(message: str) -> None:
    print(message, file=sys.stderr)


def _seed(value: int | None) -> int:
    """An explicit ``--seed``, else the integer POLYDERIVE_SEED when the command runs, else 0."""
    if value is not None:
        return value
    text = os.environ.get("POLYDERIVE_SEED", "0")
    try:
        return _integer(text)
    except argparse.ArgumentTypeError:
        raise _UsageError(f"POLYDERIVE_SEED must be an integer, got {text!r}") from None


def _integer(text: str, minimum: int | None = None) -> int:
    try:
        if not text.isascii() or "_" in text:  # parse_rational's rule; int() reads "1_0", "١"
            raise ValueError(text)
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if minimum is not None and value < minimum:
        raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
    return value


def _alpha(text: str) -> Fraction:
    """A nonzero ``--alpha`` in the coordinate grammar of :func:`parse_rational`."""
    try:
        value = parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value == 0:
        raise argparse.ArgumentTypeError("must be nonzero")
    return value


def _cmd_check(args: argparse.Namespace) -> int:
    polygon = polygon_from_json(_load_payload(args.file))
    report = check_report(polygon, source=args.file)
    _emit_report(report, args.float_check)
    if report["genericity"]["ok"]:
        verdict = report["verdict"]
        _summary(
            f"{args.file}: n={report['input_summary']['n']} "
            f"{'regular' if verdict['regular'] else 'not regular'} ({verdict['parity']})"
        )
    else:
        info = report["genericity"]
        _summary(f"{args.file}: not generic at edge {info['index']} ({info['kind']})")
    return EXIT_OK


def _cmd_derive(args: argparse.Namespace) -> int:
    polygon = polygon_from_json(_load_payload(args.file))
    report = derive_report(
        polygon, alpha=args.alpha, negative_root=args.negative_root, source=args.file
    )
    _emit_report(report, args.float_check)
    block = report["derived_analysis"]
    notes = [f"planar={block['planarity']['planar']}"]
    if block.get("strongly_regular") is not None:
        notes.append(f"strongly_regular={block['strongly_regular']}")
    if block.get("type_matches_input") is not None:
        notes.append(f"type_matches_input={block['type_matches_input']}")
    _summary(f"{args.file}: derived polygon built, " + ", ".join(notes))
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    polygon = polygon_from_json(_load_payload(args.file))
    report = analyze_report(polygon, source=args.file)
    _emit_report(report, args.float_check)
    _summary(
        f"{args.file}: planar={report['planarity']['planar']}, "
        f"generic={report['genericity']['ok']}"
    )
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    from .generators import (
        GenConfig,
        alternating_sign_hexagon,
        random_generic_polygon,
        random_regular_pentagon,
        regular_hexagon_via_lift,
    )

    cfg = GenConfig(seed=_seed(args.seed), coordinate_bound=args.bound)
    fixture: dict = {
        "kind": args.kind,
        "seed": cfg.seed,
        "coordinate_bound": cfg.coordinate_bound,
    }
    if args.kind == "quad":
        fixture.update(polygon_to_json(random_generic_polygon(4, cfg)))
    elif args.kind == "pentagon":
        fixture.update(polygon_to_json(random_regular_pentagon(cfg)))
    elif args.kind == "hexagon-lift":
        polygon, system = regular_hexagon_via_lift(cfg)
        fixture.update(polygon_to_json(polygon))
        fixture["support_system"] = _support_json(system)
    elif args.kind == "alt-sign":
        fixture.update(polygon_to_json(alternating_sign_hexagon(cfg)))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown kind {args.kind!r}")
    _emit(fixture, args.out)
    destination = args.out if args.out else "stdout"
    _summary(f"generated {args.kind} fixture (seed {cfg.seed}) -> {destination}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .suites import SUITES, run_suite

    names = list(SUITES) if args.suite == "all" else [args.suite]
    seed = _seed(args.seed)
    results = [run_suite(name, args.samples, seed) for name in names]
    passed = all(result.passed for result in results)
    _emit({"command": "verify", "passed": passed, "suites": [r.to_json() for r in results]})
    for result in results:
        _summary(
            f"suite {result.suite}: {result.samples - result.failures}/{result.samples} ok"
        )
    return EXIT_OK if passed else EXIT_FAILURE


def _cmd_plot(args: argparse.Namespace) -> int:
    text = plot_lines(_load_payload(args.file))
    _emit(text, args.out)
    return EXIT_OK


class _SuiteIds:
    """The ``--suite`` choices: the ids of :data:`suites.SUITES`, then ``all``.

    They are read when verify parses or prints its usage, so the other
    commands never import :mod:`suites`.
    """

    def __contains__(self, name: object) -> bool:
        return name in self._ids()

    def __iter__(self) -> Iterator[str]:
        return iter(self._ids())

    @staticmethod
    def _ids() -> tuple[str, ...]:
        from .suites import SUITES

        return (*SUITES, "all")


_FLOAT_CHECK_HELP = "attach an exact re-run of the report modulo a prime (no floats)"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="polyderive",
        description=(
            "Exact-arithmetic analysis of closed space polygons: decide whether a "
            "support system exists, build it, and analyze the derived polygon."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="genericity, determinants, regularity verdict")
    check.add_argument("file", help="polygon JSON file")
    check.add_argument("--float-check", action="store_true", help=_FLOAT_CHECK_HELP)
    check.set_defaults(func=_cmd_check)

    derive = sub.add_parser("derive", help="build the support system and derived polygon")
    derive.add_argument("file", help="polygon JSON file")
    derive.add_argument("--alpha", type=_alpha, help="rational scale factor (required for even n)")
    derive.add_argument(
        "--negative-root",
        action="store_true",
        help="odd n: use the negative square root instead of the canonical one",
    )
    derive.add_argument("--float-check", action="store_true", help=_FLOAT_CHECK_HELP)
    derive.set_defaults(func=_cmd_derive)

    analyze = sub.add_parser("analyze", help="planarity, area vector, hexagon structure")
    analyze.add_argument("file", help="polygon JSON file")
    analyze.add_argument("--float-check", action="store_true", help=_FLOAT_CHECK_HELP)
    analyze.set_defaults(func=_cmd_analyze)

    generate = sub.add_parser("generate", help="emit a seeded fixture")
    generate.add_argument(
        "--kind",
        required=True,
        choices=("quad", "pentagon", "hexagon-lift", "alt-sign"),
    )
    generate.add_argument("--seed", type=_integer)
    generate.add_argument(
        "--bound", type=functools.partial(_integer, minimum=2), default=9, help="coordinate bound"
    )
    generate.add_argument("--out", help="write to a file instead of stdout")
    generate.set_defaults(func=_cmd_generate)

    verify = sub.add_parser("verify", help="run randomized verification suites")
    # add_argument formats the choices it is given, so they are set after it.
    verify.add_argument("--suite", required=True).choices = _SuiteIds()
    verify.add_argument("--samples", type=functools.partial(_integer, minimum=1), default=100)
    verify.add_argument("--seed", type=_integer)
    verify.set_defaults(func=_cmd_verify)

    plot = sub.add_parser("plot", help="emit float plot data for a polygon or report")
    plot.add_argument("file", help="polygon or report JSON file")
    plot.add_argument("--out", help="write to a file instead of stdout")
    plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PolygonFormatError, _UsageError) as exc:
        _summary(f"error: {exc}")
        return EXIT_USAGE
    except (NonGenericPolygonError, IrregularPolygonError, ValueError, ZeroDivisionError) as exc:
        return _failure(exc)
    except RuntimeError as exc:
        # Only generate and verify can raise it, and they have loaded generators.
        from .generators import GenerationBudgetError

        if not isinstance(exc, GenerationBudgetError):
            raise
        return _failure(exc)


def _failure(exc: Exception) -> int:
    """Report an analysis failure on stdout and stderr: exit code 1."""
    _emit({"error": {"type": type(exc).__name__, "message": str(exc)}})
    _summary(f"error: {exc}")
    return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
