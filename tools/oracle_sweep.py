"""Sweep ``derive --float-check`` over correct reports and count misfires.

Usage::

    python3 tools/oracle_sweep.py

imports ``polyderive`` from this checkout's ``src`` and runs ``cli.main``
in-process on ``derive --float-check`` of seeded ``bench/inputs.py`` polygons:
``HEXAGONS`` lifted hexagons at each ``inputs.ALPHAS`` scale, and
``ODD_COUNT`` regular odd n-gons for each n of ``ODD_NS`` at both roots.
Every report the program writes is correct, so the exact re-run must confirm
each one that derives: a report with ``oracle_results.ok`` false is a misfire.
A run that does not derive (exit code other than 0) is counted, not checked.
Prints one line of counts per family and each misfire's first mismatch, and
exits 1 if there was any. ``bench/`` is imported, never changed. Standard
library only.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEXAGONS = 600
ODD_NS = (5, 7, 21)
ODD_COUNT = 200
SEED = "oracle-sweep"


def derive(main, path: str, flags: list[str]) -> dict | None:
    """The report of ``derive PATH FLAGS --float-check``, or None if it does not derive."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["derive", path, *flags, "--float-check"])
    return json.loads(out.getvalue()) if code == 0 else None


def sweep(main, inputs, workdir: Path) -> int:
    """Derive every polygon of every family; print the counts and return the exit code."""
    rng = random.Random(SEED)
    hexagons = [inputs.lifted_hexagon(rng) for _ in range(HEXAGONS)]
    scales = [[f"--alpha={alpha}"] for alpha in inputs.ALPHAS]
    families = [("lifted hexagons", hexagons, scales)]
    for n in ODD_NS:
        polygons = [inputs.regular_odd_polygon(rng, n) for _ in range(ODD_COUNT)]
        families.append((f"regular {n}-gons", polygons, [[], ["--negative-root"]]))
    misfires = 0
    for name, polygons, variants in families:
        runs = derived = confirmed = 0
        for index, points in enumerate(polygons):
            path = workdir / f"{name.replace(' ', '_')}_{index}.json"
            path.write_text(inputs.polygon_json(points))
            for flags in variants:
                runs += 1
                report = derive(main, str(path), flags)
                if report is None:
                    continue
                derived += 1
                oracle = report["oracle_results"]
                if oracle["ok"]:
                    confirmed += 1
                    continue
                mismatches = oracle["mismatches"]
                argv = " ".join(["derive", path.name, *flags])
                print(f"misfire: {argv}: {len(mismatches)} mismatches")
                print(f"  the first, {mismatches[0]['field']}: {mismatches[0]['detail']}")
        misfires += derived - confirmed
        print(
            f"{name}: {len(polygons)} polygons, {runs} runs, {derived} derived, "
            f"{confirmed} confirmed, {derived - confirmed} misfires"
        )
    return 1 if misfires else 0


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import inputs
    from polyderive import cli

    with tempfile.TemporaryDirectory() as workdir:
        return sweep(cli.main, inputs, Path(workdir))


if __name__ == "__main__":
    sys.exit(main())
