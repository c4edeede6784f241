"""The scripts under scripts/ still run to completion, at tiny sizes."""

from __future__ import annotations

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TINY_AUDIT = ("random_audit.py", "--quivers", "6", "--spaces", "4", "--seq", "4")

# one line per family of scripts/random_audit.py, in the order it runs them
AUDIT_FAMILIES = [
    "oracle agreement", "exact status", "universal evolutions", "self-exclusive normality",
    "report rendering", "E-sequence round trips", "prec blocks", "E-sequence axioms",
    "isomorphism", "towers", "underline_d and is_trim", "trusted tower quotients",
    "metric problems", "ultrametric test", "isometry", "clade reports", "clade formulas",
]


@functools.cache
def run_script(*argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("argv", [list(TINY_AUDIT), ["run_examples.py"]])
def test_script_exits_0(argv):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_audit_prints_one_verdict_per_family():
    proc = run_script(*TINY_AUDIT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line[:26].rstrip() for line in lines] == AUDIT_FAMILIES
    assert all(line[26:].startswith("ok on ") for line in lines)
