"""Smoke test: the quick demos run to completion against the current API.

Demo 03 repeats the gradient-fidelity acceptance gate and demo 04 trains
for minutes, so only 01 and 02 run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_scene_and_channel.py",
                                  "02_fingerprints.py"])
def test_demo_runs(demo):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
