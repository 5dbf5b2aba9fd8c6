import subprocess
import sys
from pathlib import Path

import pytest

from checkout import spawn_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=spawn_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
