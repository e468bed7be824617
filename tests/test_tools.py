"""The measurement scripts under tools/ start and print their usage."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("script", ["seed_panel.py", "layer_faults.py"])
def test_help_exits_zero(script, flag):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), flag],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert script in result.stdout
