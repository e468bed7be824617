"""mmwave-scs benchmark: trial throughput and estimation quality per workload.

    python3 perfbench/run.py --workload trial-default --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the run measures set-up (the import plus the first call, in
this process and in fresh ones), a fixed quality panel, then a closed loop of
calls for --seconds, and prints the end-to-end metrics.  With --trace 1 it
runs the same loop with each call made twice, once plain and once with spans
around every call `simulate` makes into channel, pilots and recovery, and
prints the per-layer metrics and the tracing overhead.  Every metric is
printed by name with its unit; the last line of standard output is the JSON
result.  --out FILE appends that result, with machine metadata and details,
to a JSON-lines file that compare.py reads.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from tracing import Tracer
from workloads import (
    WORKLOADS,
    Workload,
    call,
    check,
    first_call,
    op_seeds,
    quality_panel,
    signature,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

# Set-up is measured in this process and in SETUP_PROBES fresh ones; the
# median of the samples is reported.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def setup_once(workload: Workload):
    """Import the package and make the first call: (seconds, output, problems)."""
    start = time.perf_counter()
    import mmwave_scs.simulate  # noqa: F401  (timed: the import is set-up cost)

    output, problems = first_call(workload)
    return time.perf_counter() - start, output, problems


def probe_setup(workload: Workload) -> float:
    """Set-up time of a fresh interpreter running setup_once."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         json.dumps(asdict(workload))],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """(value, percentile): the highest percentile with >= 10 samples beyond it.

    With fewer than 21 samples no percentile at or above the median has ten
    beyond it, and the median is reported as the tail (percentile 50).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Checks:
    """Counts attempted operations and those whose outputs failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_plain(workload: Workload, seed: int, seconds: float, checks: Checks):
    """End-to-end metrics (--trace 0)."""
    setup_s, first, problems = setup_once(workload)
    checks.record(problems)
    setup = [setup_s]
    for _ in range(SETUP_PROBES):
        try:
            setup.append(probe_setup(workload))
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            checks.record([f"set-up probe failed: {exc}"])

    panel = quality_panel(workload, checks.record)

    per_trial_ms = []
    trials = 0
    seeds = op_seeds(seed)
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        op_seed = next(seeds)
        t0 = time.perf_counter()
        output, n = call(workload, index, op_seed)
        t1 = time.perf_counter()
        checks.record(check(workload, output))
        per_trial_ms.append((t1 - t0) * 1e3 / n)
        trials += n
        index += 1
        if t1 >= deadline:
            break
    wall = time.perf_counter() - start

    again, problems = first_call(workload)
    if signature(again) != signature(first):
        problems.append("the set-up call did not repeat bit for bit")
    checks.record(problems)

    tail_ms, tail_pct = tail(per_trial_ms)
    metrics = {
        "trials_per_s": (trials / wall, "1/s"),
        "trial_p50_ms": (statistics.median(per_trial_ms), "ms"),
        "trial_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        **panel,
    }
    details = {
        "calls": index,
        "trials": trials,
        "loop_wall_s": wall,
        "trial_tail_percentile": tail_pct,
        "setup_samples_s": setup,
        "nmse_db": {k: _db(metrics[k][0]) for k in ("ssamp_nmse", "omp_nmse", "oracle_nmse")},
    }
    if workload.kind == "ber":
        details["ber_symbols_per_s"] = (
            index * len(workload.snrs) * workload.n_symbols / wall
        )
    return metrics, details


def _db(ratio):
    return 10.0 * math.log10(ratio) if ratio > 0 else float("-inf")


def run_traced(workload: Workload, seed: int, seconds: float, checks: Checks):
    """Per-layer metrics (--trace 1): each call plain and traced, in turn."""
    from mmwave_scs import simulate

    _, _, problems = setup_once(workload)
    checks.record(problems)

    top_name = "run_trial" if workload.kind == "trial" else "ber_experiment"
    tracer = Tracer()
    plain_s = traced_s = 0.0
    trials = 0
    seeds = op_seeds(seed)
    cpu0, start = cpu_seconds(), time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        op_seed = next(seeds)
        outputs = {}
        # Alternate which of the pair goes first, so drift falls on both.
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install(simulate)
            t0 = time.perf_counter()
            try:
                output, n = call(workload, index, op_seed)
            finally:
                t1 = time.perf_counter()
                if traced:
                    tracer.uninstall(simulate)
            outputs[traced] = output
            if traced:
                traced_s += t1 - t0
                trials += n
            else:
                plain_s += t1 - t0
        checks.record(check(workload, outputs[False]))
        problems = check(workload, outputs[True])
        if signature(outputs[True]) != signature(outputs[False]):
            problems.append("traced call differs from the plain call")
        checks.record(problems)
        index += 1
        # Stop on an even count, so each side went first equally often.
        if t1 >= deadline and index % 2 == 0:
            break
    wall = time.perf_counter() - start
    cpu_per_wall = (cpu_seconds() - cpu0) / wall

    self_s = tracer.self_times()
    ber_calls = index if workload.kind == "ber" else 0

    def total(*names):
        return sum(self_s.get(name, (0.0, 0))[0] for name in names)

    def calls(name):
        return self_s.get(name, (0.0, 0))[1]

    def per(value, count):
        return value / count if count else 0.0

    ms_per_trial = 1e3 / trials
    top_s = tracer.top_level_seconds()
    ssamp_calls, omp_calls = calls("ssamp"), calls("adaptive_omp")
    data_stage = total("ber_experiment", "qam16_modulate", "qam16_hard_bits")
    metrics = {
        "channel.synth_ms": (total("draw_multipath", "angular_channel_set") * ms_per_trial, "ms"),
        "pilots.operator_build_ms": (total("measurement_operators") * ms_per_trial, "ms"),
        "pilots.receive_ms": (
            total("draw_ensemble", "calibrate_noise_variance", "synthesize_received") * ms_per_trial,
            "ms",
        ),
        "pilots.operator_mb": (
            per(tracer.counts["operator_bytes"], calls("measurement_operators")) / 2**20, "MB"
        ),
        "recovery.ssamp_ms": (total("ssamp") * ms_per_trial, "ms"),
        "recovery.ssamp_passes": (per(tracer.counts["ssamp_passes"], ssamp_calls), "count"),
        "recovery.ssamp_ms_per_pass": (
            per(total("ssamp") * 1e3, tracer.counts["ssamp_passes"]), "ms"
        ),
        "recovery.ssamp_stages": (per(tracer.counts["ssamp_stages"], ssamp_calls), "count"),
        "recovery.ssamp_exact_support_frac": (
            per(tracer.counts["ssamp_exact"], ssamp_calls), "ratio"
        ),
        "recovery.omp_ms": (total("adaptive_omp") * ms_per_trial, "ms"),
        "recovery.omp_picks": (per(tracer.counts["omp_picks"], omp_calls), "count"),
        "recovery.oracle_ls_ms": (total("oracle_ls") * ms_per_trial, "ms"),
        "simulate.trial_self_ms": (total(top_name) * ms_per_trial, "ms"),
        "simulate.ber_data_stage_s": (per(data_stage, ber_calls), "s"),
        "simulate.qam_demod_s": (per(total("qam16_hard_bits"), ber_calls), "s"),
        "simulate.cpu_per_wall": (cpu_per_wall, "ratio"),
        "share.ssamp_pct": (100.0 * total("ssamp") / top_s, "%"),
        "share.operator_build_pct": (100.0 * total("measurement_operators") / top_s, "%"),
        "share.ber_data_stage_pct": (100.0 * data_stage / top_s, "%"),
        "trace.overhead_pct": (100.0 * (traced_s / plain_s - 1.0), "%"),
        "trace.accounted_pct": (100.0 * top_s / traced_s, "%"),
    }
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    details = {
        "calls": index,
        "traced_trials": trials,
        "loop_wall_s": wall,
        "plain_trials_per_s": trials / plain_s,
        "traced_trials_per_s": trials / traced_s,
        "self_ms_per_trial": {k: v[0] * ms_per_trial for k, v in sorted(self_s.items())},
        "span_calls": {k: v[1] for k, v in sorted(self_s.items())},
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details


def metadata() -> dict:
    """Machine and software facts recorded with every result."""
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), ""
            )
    except OSError:
        pass
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        git = describe.stdout.strip() if describe.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        git = "unavailable"
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_describe": git,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the result to this JSON-lines file")
    parser.add_argument("--setup-probe", metavar="WORKLOAD_JSON", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "mmwave_scs" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        spec = json.loads(args.setup_probe)
        workload = Workload(**{**spec, "slots": tuple(spec["slots"]), "snrs": tuple(spec["snrs"])})
        seconds, _, problems = setup_once(workload)
        if problems:
            print("; ".join(problems), file=sys.stderr)
            return 1
        print(repr(seconds))
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    workload = WORKLOADS[args.workload]
    result, details, meta = measure(workload, args.seed, args.seconds, args.trace)
    print(f"# meta {json.dumps(meta)}")
    for key, value in details.items():
        print(f"# {key} = {json.dumps(value)}")
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a") as handle:
            record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "meta": meta, "details": details, "result": result}
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def measure(workload: Workload, seed: int, seconds: float, trace: int):
    """Run one workload: (result object, details, metadata)."""
    checks = Checks()
    runner = run_traced if trace else run_plain
    metrics, details = runner(workload, seed, seconds, checks)
    details["problems"] = checks.problems[:20]
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, details, metadata()


if __name__ == "__main__":
    sys.exit(main())
