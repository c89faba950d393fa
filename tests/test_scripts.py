"""The experiment scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", ["ends_survey.py", "obstruction_demo.py", "trivialize_roundtrip.py"]
)
def test_script_exits_zero(tmp_path, script):
    # ends_survey.py writes its CSV into the working directory by default
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=tmp_path, env=env, capture_output=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr.decode()
