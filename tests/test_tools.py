"""The measurement scripts under tools/ start, print their usage and do
their jobs: layer_faults.py reports every layer of a trial, and
seed_panel.py compare tells identical dumps from changed ones."""

import copy
import functools
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_benchmark_contract import TRIAL_PATH

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / script), *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("script", ["seed_panel.py", "layer_faults.py"])
def test_help_exits_zero(script, flag):
    result = _run(script, flag)
    assert result.returncode == 0, result.stderr
    assert script in result.stdout


def test_layer_faults_reports_every_trial_layer():
    result = _run("layer_faults.py", "--workload", "trial-default", "--seed", 1, "--trials", 2)
    assert result.returncode == 0, result.stderr
    # Layer rows: name, faults/trial, ms/trial, calls/trial, peak MB.
    calls = {
        parts[0]: float(parts[3])
        for parts in map(str.split, result.stdout.splitlines()[2:])
        if len(parts) == 5
    }
    missing = sorted(name for name in TRIAL_PATH if calls.get(name, 0.0) <= 0.0)
    assert not missing, result.stdout


def test_layer_faults_refuses_zero_trials():
    result = _run("layer_faults.py", "--trials", 0)
    assert result.returncode == 2
    assert "--trials must be at least 1" in result.stderr


# A dump in the layout seed_panel.py dump writes, cut to one trial and one BER row.
DUMP = {
    "trials": {"desk20/3000": {"ssamp": {"nmse_db": (-21.5).hex(), "iterations": 9, "stages": 4}}},
    "ber": {"desk": [[10.0, "ssamp", 0.0125, 10000]]},
    "sweep": [["slots", 9, -12.5]],
    "certificates": [{"sparsity": 2, "consistent": True}],
}


@pytest.mark.parametrize("where, value, code, text", [
    (None, None, 0, "0 of 1 trials differ"),
    (("trials", "desk20/3000", "ssamp", "iterations"), 10, 1,
     "desk20/3000 ssamp: iterations 9 -> 10"),
    (("ber", "desk", 0, 2), 0.0126, 1, "BER table desk: differs"),
], ids=["identical", "iterations", "ber-row"])
def test_seed_panel_compare(tmp_path, where, value, code, text):
    changed = copy.deepcopy(DUMP)
    if where:
        *keys, last = where
        functools.reduce(operator.getitem, keys, changed)[last] = value
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, dump in zip(paths, (DUMP, changed)):
        path.write_text(json.dumps(dump))
    result = _run("seed_panel.py", "compare", *paths)
    assert result.returncode == code, result.stdout + result.stderr
    assert text in result.stdout
