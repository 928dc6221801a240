"""Smoke tests of the demos under ``scripts/``: each runs to exit code 0.

Each demo runs in a fresh interpreter with ``PYTHONPATH=src``, as the
README tells a reader to run them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_every_demo_is_collected():
    assert {p.name for p in SCRIPTS} >= {"detect_demo.py", "fix_demo.py", "slow_clock_demo.py"}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_demo_exits_cleanly(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
