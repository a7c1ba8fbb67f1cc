"""Smoke test: every demo runs to completion against the current API.

Each takes a few seconds; ``05_estimator_diagnostics.py`` is the only one
that runs the Gumbel branch of ``grad_norm_probe``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ("01_tape_autodiff.py", "02_captioner_decoding.py",
               "03_coattention_scoring.py", "04_adversarial_training.py",
               "05_estimator_diagnostics.py", "06_metrics_and_semantic_score.py")


@pytest.mark.parametrize("script", QUICK_DEMOS)
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
