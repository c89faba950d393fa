"""The experiment scripts run to completion."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ["ends_survey.py", "obstruction_demo.py", "trivialize_roundtrip.py"]


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_exits_zero(tmp_path, script):
    # ends_survey.py writes its CSV into the working directory by default
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=tmp_path, env=env, capture_output=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("script", SCRIPTS)
def test_usage_line_names_only_flags_the_script_takes(script):
    # every --flag of the docstring's usage line is one that --help lists
    path = ROOT / "scripts" / script
    doc = ast.get_docstring(ast.parse(path.read_text()))
    usage = [line for line in doc.splitlines() if f"scripts/{script}" in line]
    flags = set(re.findall(r"--[\w-]+", " ".join(usage)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(path), "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    offered = set(re.findall(r"--[\w-]+", done.stdout))
    assert usage and flags and flags <= offered, flags - offered


def test_obstruction_demo_refuses_a_negative_trial_count():
    # one line on stderr and exit 2, as for any malformed input; no traceback
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "obstruction_demo.py"
    done = subprocess.run(
        [sys.executable, str(script), "--trials", "-1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "obstruction_demo.py: error: --trials must be nonnegative, got -1"
    ]
