"""Smoke test of the benchmark harness at desk scale.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs briefly on the DESK_SNR20 geometry of tests/conftest.py,
untraced and traced, and must emit every metric BENCHMARK.json names, with
its unit, and pass its own output checks.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

import compare  # noqa: E402
import run  # noqa: E402
from tests.conftest import DESK_SNR20  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def desk(workload):
    config = {f.name: getattr(DESK_SNR20, f.name) for f in fields(DESK_SNR20)}
    return replace(
        workload,
        config=config,
        slots=(DESK_SNR20.n_slots,),
        n_symbols=min(workload.n_symbols, 10**4),
        n_realizations=1,
        panel_seeds=2,
        ber_panel_symbols=10**4,
        ber_panel_realizations=1,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, details, meta = run.measure(desk(WORKLOADS[name]), seed=3, seconds=0.2, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    specs = BENCH["per_layer" if trace else "end_to_end"]
    emitted = {key: entry["unit"] for key, entry in result["metrics"].items()}
    assert emitted == {spec["name"]: spec["unit"] for spec in specs}
    for entry in result["metrics"].values():
        assert math.isfinite(entry["value"])
    assert meta["cpu_count"] >= 1 and set(meta["thread_env"]) == set(run.THREAD_VARS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trial-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_verdicts():
    base = {s: 100.0 + s for s in range(10)}
    assert compare.classify(base, {s: v * 0.5 for s, v in base.items()}, "higher", 0.1)[0] == "regressed"
    assert compare.classify(base, {s: v * 2.0 for s, v in base.items()}, "higher", 0.1)[0] == "improved"
    assert compare.classify(base, dict(base), "higher", 0.1)[0] == "unchanged"
    noisy = {s: 100.0 * (1 + s % 2) for s in range(10)}
    assert compare.classify(noisy, noisy, "lower", 0.1)[0] == "unresolved"
