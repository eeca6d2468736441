"""Cold start: a fresh process imports only the modules its command runs.

Each run is a fresh interpreter with ``-X importtime``, which names on stderr
every module the process imports; the bytecode cache is left on, as for a
user at the shell. Modules are compared against a bare interpreter's, so the
site packages of the machine do not enter the claim.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import FIXTURES_DIR

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
PENTAGON = str(FIXTURES_DIR / "pentagon.json")
UNUSED_BY_REPORTS = ("polyderive.oracle", "polyderive.suites", "polyderive.generators")


def imported(*args: str) -> set[str]:
    """The modules a fresh ``python -X importtime ARGS`` imports; it must exit 0."""
    paths = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return imported("-c", "pass")


@pytest.mark.parametrize("command", ["check", "derive", "analyze"])
def test_report_commands_load_only_what_they_run(bare, command):
    modules = imported("-m", "polyderive.cli", command, PENTAGON)
    assert "polyderive.reports" in modules
    assert not modules & set(UNUSED_BY_REPORTS)
    assert "dataclasses" not in modules - bare


def test_float_check_loads_the_oracle():
    modules = imported("-m", "polyderive.cli", "derive", PENTAGON, "--float-check")
    assert "polyderive.oracle" in modules


@pytest.mark.parametrize(
    "argv, module",
    [
        (["generate", "--kind", "quad", "--seed", "0"], "polyderive.generators"),
        (["verify", "--suite", "eq2", "--samples", "1", "--seed", "0"], "polyderive.suites"),
    ],
    ids=["generate", "verify"],
)
def test_generate_and_verify_load_their_modules(argv, module):
    assert module in imported("-m", "polyderive.cli", *argv)


def test_package_import_loads_no_module(bare):
    modules = imported("-c", "import polyderive")
    assert {name for name in modules if name.startswith("polyderive.")} == set()
    assert "dataclasses" not in modules - bare
