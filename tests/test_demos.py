"""Smoke tests: the narrative demos run to completion."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_vocab_growth.py",
                                  "02_losses_and_gradients.py",
                                  "03_continual_run.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["TMPDIR"] = str(tmp_path)  # where demo 03 leaves its run artifacts
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
