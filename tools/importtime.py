"""Compare the cold start of two polyderive source trees.

Usage::

    python3 tools/importtime.py PARENT/src CHANGE/src

Each of ``ROUNDS`` (20) rounds runs, for each tree in turn (the order
alternating from round to round), two fresh interpreters with that tree alone
on ``PYTHONPATH``:

- ``python -X importtime -c "import polyderive.cli"``, reading the
  cumulative import time of ``polyderive.cli`` from its stderr;
- ``python -m polyderive.cli check fixtures/pentagon.json``, timing the
  child's CPU (user plus system) from ``getrusage(RUSAGE_CHILDREN)``.

The bytecode cache is on, and one untimed run per tree fills it first. The
medians over the rounds are printed per tree, with the second tree's medians
as a fraction of the first's. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

PENTAGON = Path(__file__).resolve().parent.parent / "fixtures" / "pentagon.json"
ROUNDS = 20


def _env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def import_us(src: Path) -> int:
    """Cumulative ``-X importtime`` microseconds of ``polyderive.cli`` in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import polyderive.cli"],
        capture_output=True, text=True, env=_env(src), check=True,
    )
    for line in result.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "polyderive.cli":
            return int(fields[1])
    raise RuntimeError(f"no import time for polyderive.cli under {src}")


def check_cpu_s(src: Path) -> float:
    """Child CPU seconds of a cold ``check`` of the pentagon fixture."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(
        [sys.executable, "-m", "polyderive.cli", "check", str(PENTAGON)],
        capture_output=True, env=_env(src), check=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, type=Path, help="two src directories")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "polyderive" / "cli.py").is_file():
            parser.error(f"no polyderive package under {tree}")
        import_us(tree)
        check_cpu_s(tree)
    imports = {tree: [] for tree in trees}
    cpu = {tree: [] for tree in trees}
    for round_index in range(ROUNDS):
        for tree in trees if round_index % 2 == 0 else trees[::-1]:
            imports[tree].append(import_us(tree))
            cpu[tree].append(check_cpu_s(tree))
    medians = [
        (statistics.median(imports[tree]) / 1e3, statistics.median(cpu[tree]) * 1e3)
        for tree in trees
    ]
    print(f"{ROUNDS} interleaved rounds per tree, {sys.implementation.name} "
          f"{sys.version.split()[0]}, {os.cpu_count()} cores")
    print(f"{'tree':<40} {'import polyderive.cli ms':>25} {'cold check CPU ms':>18}")
    for tree, (import_ms, cpu_ms) in zip(trees, medians):
        print(f"{str(tree):<40} {import_ms:>25.1f} {cpu_ms:>18.1f}")
    (first_import, first_cpu), (second_import, second_cpu) = medians
    print(f"{'second / first':<40} {second_import / first_import:>25.2f} "
          f"{second_cpu / first_cpu:>18.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
