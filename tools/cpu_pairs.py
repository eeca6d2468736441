"""Compare the CPU time per operation of two polyderive source trees on one workload.

Usage::

    python3 tools/cpu_pairs.py PARENT/src CHANGE/src --workload W

``W`` is one of the in-process workloads of ``bench/run.py``
(``report-corpus``, ``verify-rounds``, ``large-odd-n``); a cold start is
compared with ``tools/importtime.py``. Each of ``PAIRS`` pairs runs one
fresh child per tree, the order alternating from pair to pair. A child
imports ``polyderive`` from its tree alone and builds the workload's
operations with ``bench/run.py``'s ``WORKLOADS`` function at ``SEED``, so
both trees run the same operations; ``bench/`` is imported, never changed.
It runs every operation once untimed, checking each output with
``bench/checks.py``, then repeats whole rounds until ``CHILD_CPU_S`` seconds
of CPU are spent, timing each operation with ``time.process_time``, and
reports the median milliseconds per operation. Printed per tree: the median
of its children's medians, with their first and third quartiles
(``statistics.quantiles(n=4)``); then the second tree's median as a
fraction of the first's, and the number of pairs in which the second tree's
child was faster. A gain is claimed when the second tree wins at least nine
pairs and its median is below the first's by more than the first's q3 - q1.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
IN_PROCESS = ("report-corpus", "verify-rounds", "large-odd-n")
CHILD_CPU_S = 1.0
PAIRS = 10
SEED = 0


def child(src: Path, workload: str) -> int:
    """Time one workload on the tree ``src``; print the median CPU ms per operation."""
    sys.path[:0] = [str(src), str(BENCH)]
    import polyderive.cli

    if Path(polyderive.cli.__file__).resolve().parent != src / "polyderive":
        raise RuntimeError(f"imported polyderive from {polyderive.cli.__file__}, not {src}")
    import run  # bench/run.py

    os.chdir(ROOT)  # the workloads name their input files relative to the root
    run.RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="cpu-pairs-", dir=run.RESULTS))
    try:
        ops = run.WORKLOADS[workload](SEED, workdir).ops
        runner = run.InProcessRunner(polyderive.cli)
        for op in ops:
            for call in op.calls:
                _, code, text, _ = runner(call.argv)
                if code != 0:
                    raise RuntimeError(f"{' '.join(call.argv)}: exit {code}")
                call.check(json.loads(text))
        times = []
        while sum(times) < CHILD_CPU_S:
            for op in ops:
                start = time.process_time()
                for call in op.calls:
                    runner(call.argv)
                times.append(time.process_time() - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ms_per_op": statistics.median(times) * 1e3, "ops": len(times)}))
    return 0


def spawn(src: Path, workload: str) -> float:
    """One child's median CPU ms per operation."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    result = subprocess.run(
        [sys.executable, __file__, "--child", str(src), "--workload", workload],
        capture_output=True, text=True, env=env,
    )
    if result.returncode != 0:
        raise RuntimeError(f"child on {src} failed:\n{result.stderr}")
    return json.loads(result.stdout.splitlines()[-1])["ms_per_op"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="two src directories")
    parser.add_argument("--workload", required=True, choices=IN_PROCESS)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        return child(args.child.resolve(), args.workload)
    if len(args.trees) != 2:
        parser.error("give two src directories")
    trees = [tree.resolve() for tree in args.trees]
    if trees[0] == trees[1]:
        parser.error("give two different src directories")
    for tree in trees:
        if not (tree / "polyderive" / "cli.py").is_file():
            parser.error(f"no polyderive package under {tree}")
    medians = {tree: [] for tree in trees}
    for pair in range(PAIRS):
        for tree in trees if pair % 2 == 0 else trees[::-1]:
            medians[tree].append(spawn(tree, args.workload))
    first, second = (statistics.median(medians[tree]) for tree in trees)
    won = sum(b < a for a, b in zip(*medians.values()))
    print(f"{PAIRS} alternating pairs, workload {args.workload}, seed {SEED}, "
          f"{sys.implementation.name} {sys.version.split()[0]}, {os.cpu_count()} cores")
    print(f"{'tree':<48} {'CPU ms/op':>10} {'q1':>10} {'q3':>10}")
    for tree, value in zip(trees, (first, second)):
        q1, _, q3 = statistics.quantiles(medians[tree], n=4)
        print(f"{str(tree):<48} {value:>10.3f} {q1:>10.3f} {q3:>10.3f}")
    print(f"{'second / first':<48} {second / first:>10.3f}")
    print(f"{'pairs the second tree won':<48} {won:>7}/{PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
