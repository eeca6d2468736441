"""Dump the CLI's output on a fixed corpus, for byte-identity checks.

Usage::

    python3 tools/identity.py TREE OUT

imports ``polyderive`` from ``TREE/src`` and runs ``cli.main`` in-process on
``check``, ``analyze``, ``derive`` and ``plot`` of the fixtures and of seeded
``bench/inputs`` corpora (regular odd polygons, generic quadrangles, lifted
hexagons and some irregular inputs), on regular 21-gons with a distinct
6-digit prime denominator per coordinate (:func:`coprime_polygon`, where
clearing denominators per vector and per list differ most), on the
hand-written non-generic inputs of ``NON_GENERIC``, on ``generate``
for every kind and seeds 0-4, then ``generate --kind hexagon-lift`` to stdout
for seeds 5-199 (``LIFT_SEEDS``, so that the lift's polygon and alpha are
compared on 200 draws), then ``generate --kind K`` to stdout for each
``DRAW_KINDS`` kind and seeds 5-99 (``DRAW_SEEDS``, so that the rejection
draws are compared on 100 seeds per kind), and on
``verify --suite all --samples 3`` for seeds 0-299.
Odd inputs derive at both roots, even ones at each ``inputs.ALPHAS``, and
every fourth input also runs with ``--float-check``. Each ``generate`` runs
again as ``generate --out FILE`` and ``plot FILE --out FILE2``, so that the
bytes written to files are compared too. The exit code, stdout and stderr of
each run go to ``OUT/reports.txt`` and ``OUT/verify.txt``, and the files the
``--out`` runs write are appended to ``OUT/reports.txt``.
Two trees write the same bytes exactly when their CLI behaves the same::

    python3 tools/identity.py PARENT id_parent
    python3 tools/identity.py . id_change
    cmp id_parent/reports.txt id_change/reports.txt
    cmp id_parent/verify.txt id_change/verify.txt

The corpora come from this checkout's ``bench/inputs.py``, so both trees
read the same inputs. Input files are written under ``OUT`` and named by
relative paths, because reports echo the path they read.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
VERIFY_SEEDS = range(300)
LIFT_SEEDS = range(5, 200)
DRAW_KINDS = ("quad", "pentagon", "alt-sign")
DRAW_SEEDS = range(5, 100)
GENERATE_KINDS = ("quad", "pentagon", "hexagon-lift", "alt-sign")
# Polygons with a zero corner determinant, for the genericity scan and the
# error path of every command. Each fails first at the edge and in the way
# its comment gives.
NON_GENERIC = (
    # edge 1, coplanar_triple: every determinant is zero
    ("coplanar_square", [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]),
    # edge 2, collinear_pair: edge 3 is zero
    ("repeated_vertex", [(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 0), (0, 0, 1)]),
    # edge 3, coplanar_triple: edges 3-5 lie in z = 0
    ("coplanar_triple", [(0, 2, 0), (0, 1, 3), (0, 0, 0), (1, 0, 0), (1, 1, 0)]),
    # edge 4, collinear_pair: edges 4 and 5 are both (1, 0, 0)
    ("collinear_pair", [(2, 1, 0), (1, 2, 3), (0, 1, 1), (0, 0, 0), (1, 0, 0), (2, 0, 0)]),
)


def primes(start: int, count: int) -> list[int]:
    """The first ``count`` primes from ``start`` on, by trial division."""
    found, candidate = [], start
    while len(found) < count:
        if all(candidate % p for p in range(2, math.isqrt(candidate) + 1)):
            found.append(candidate)
        candidate += 1
    return found


def coprime_polygon(rng: random.Random, n: int, pool: list[int]) -> list:
    """Regular odd n-gon whose 3n coordinates have distinct prime denominators.

    Generic by rejection and mirrored in z when the determinant product is
    negative, as ``inputs.regular_odd_polygon`` does.
    """
    from checks import corner_dets, edges_of, is_generic

    while True:
        dens = iter(rng.sample(pool, 3 * n))
        points = [
            tuple(Fraction(rng.randint(-(10**6), 10**6), next(dens)) for _ in range(3))
            for _ in range(n)
        ]
        if is_generic(points):
            break
    if math.prod(corner_dets(edges_of(points))) < 0:
        points = [(x, y, -z) for x, y, z in points]
    return points


def corpus() -> list[tuple[str, str]]:
    """(name, polygon JSON) for the seeded and the non-generic inputs, in a fixed order."""
    import inputs

    rng = random.Random(20201015)
    drawn = []
    for n, count in ((21, 16), (5, 40), (7, 20)):
        drawn += [(f"odd{n}", inputs.regular_odd_polygon(rng, n)) for _ in range(count)]
    drawn += [("quad", inputs.generic_polygon(rng, 4)) for _ in range(20)]
    drawn += [("hexlift", inputs.lifted_hexagon(rng)) for _ in range(20)]
    # Generic pentagons and hexagons, most of them irregular: the failure path.
    drawn += [("generic5", inputs.generic_polygon(rng, 5)) for _ in range(10)]
    drawn += [("generic6", inputs.generic_polygon(rng, 6)) for _ in range(10)]
    pool = primes(100_000, 500)
    drawn += [("coprime21", coprime_polygon(rng, 21, pool)) for _ in range(8)]
    # After the drawn inputs, so that those keep their index.
    drawn += NON_GENERIC
    return [
        (f"{kind}_{i:03d}.json", inputs.polygon_json(points))
        for i, (kind, points) in enumerate(drawn)
    ]


def run(main, argv: list[str], sink) -> None:
    """Run the CLI once and append its exit code, stdout and stderr to ``sink``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    sink.write(f"=== {' '.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}")
    sink.write(f"--- stderr\n{err.getvalue()}")


def polygon_runs(path: str, n: int, float_check: bool) -> list[list[str]]:
    import inputs

    flag = ["--float-check"] if float_check else []
    if n % 2:
        derives = [["derive", path, *flag], ["derive", path, "--negative-root", *flag]]
    else:
        derives = [["derive", path, f"--alpha={alpha}", *flag] for alpha in inputs.ALPHAS]
    return [["check", path, *flag], ["analyze", path, *flag], *derives]


def main(tree: str, out: str) -> int:
    tree_src = Path(tree).resolve() / "src"
    sys.path[:0] = [str(tree_src), str(BENCH)]
    from polyderive import cli

    if Path(cli.__file__).resolve().parent.parent != tree_src:
        raise SystemExit(f"polyderive was imported from {cli.__file__}, not {tree_src}")
    target = Path(out)
    target.mkdir(parents=True, exist_ok=True)
    shutil.copytree(Path(tree) / "fixtures", target / "fixtures", dirs_exist_ok=True)
    (target / "inputs").mkdir(exist_ok=True)
    (target / "generated").mkdir(exist_ok=True)
    files = []
    for fixture in sorted((target / "fixtures").glob("*.json")):
        files.append(f"fixtures/{fixture.name}")
    for name, text in corpus():
        (target / "inputs" / name).write_text(text)
        files.append(f"inputs/{name}")
    # Reports echo the relative path they read, the same for both trees.
    with contextlib.chdir(target):
        with open("reports.txt", "w") as sink:
            for index, path in enumerate(files):
                n = len(json.loads(Path(path).read_text())["vertices"])
                for argv in polygon_runs(path, n, index % 4 == 0):
                    run(cli.main, argv, sink)
                if path.startswith("fixtures/"):
                    run(cli.main, ["plot", path], sink)
            for kind in GENERATE_KINDS:
                for seed in range(5):
                    argv = ["generate", "--kind", kind, "--seed", str(seed)]
                    run(cli.main, argv, sink)
                    # The same through the file branch, then plotted to a file.
                    fixture = f"generated/{kind}_{seed}.json"
                    plotted = f"generated/{kind}_{seed}.txt"
                    run(cli.main, [*argv, "--out", fixture], sink)
                    run(cli.main, ["plot", fixture, "--out", plotted], sink)
                    for written in (fixture, plotted):
                        sink.write(f"--- {written}\n{Path(written).read_text()}")
            # After the runs above, so that their output keeps its place.
            for seed in LIFT_SEEDS:
                run(cli.main, ["generate", "--kind", "hexagon-lift", "--seed", str(seed)], sink)
            for kind in DRAW_KINDS:
                for seed in DRAW_SEEDS:
                    run(cli.main, ["generate", "--kind", kind, "--seed", str(seed)], sink)
        with open("verify.txt", "w") as sink:
            for seed in VERIFY_SEEDS:
                argv = ["verify", "--suite", "all", "--samples", "3", "--seed", str(seed)]
                run(cli.main, argv, sink)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
