"""The experiment scripts run to completion."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from relend.cli import MAX_SAMPLES

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


@pytest.mark.parametrize("flag", ["--samples", "--b0-window"])
def test_trivialize_roundtrip_refuses_a_negative_count(flag):
    # one line and exit 2, not a passing sweep of -1 samples or a traceback
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "trivialize_roundtrip.py"
    done = subprocess.run(
        [sys.executable, str(script), flag, "-1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        f"trivialize_roundtrip.py: error: {flag} must be nonnegative, got -1"
    ]


@pytest.mark.parametrize(
    "script,flag",
    [("obstruction_demo.py", "--trials"), ("trivialize_roundtrip.py", "--samples")],
)
def test_a_count_over_the_budget_is_refused_before_any_work(script, flag):
    # the CLI's --samples budget; a run of 10^8 trials would not end in minutes
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    over = MAX_SAMPLES + 1
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), flag, str(over)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        f"{script}: error: {flag} {over} is over the budget {MAX_SAMPLES}"
    ]


def test_trivialize_roundtrip_reports_a_config_error_in_one_line():
    # a b0 window whose table is too large: one line and exit 2, as the CLI
    # gives, not a traceback with exit 1
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "trivialize_roundtrip.py"
    done = subprocess.run(
        [sys.executable, str(script), "--b0-window", "40"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "trivialize_roundtrip.py: error: b0 table over 3281 cells and 2 symbols"
        " is too large to materialise"
    ]


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_ends_survey_refuses_an_unwritable_out_before_any_work(tmp_path, target):
    # one line and exit 2 before the survey runs, not a traceback at its end
    out = tmp_path / "missing" / "survey.csv" if target == "missing" else tmp_path
    reason = "No such file or directory" if target == "missing" else "Is a directory"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "scripts" / "ends_survey.py"
    done = subprocess.run(
        [sys.executable, str(script), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        f"ends_survey.py: error: cannot write {out}: {reason}"
    ]
