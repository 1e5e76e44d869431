"""Every script under demos/ runs to completion against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_exits_0(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert done.returncode == 0, done.stderr
