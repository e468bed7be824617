"""The benchmark's workloads, their seeded inputs and their output checks.

Every workload is a closed loop with one caller: the next call starts when
the previous one has returned.  A "trial" is one channel realisation
estimated by ssamp, adaptive OMP (and, in `run_trial`, oracle LS); a
`ber_experiment` call runs len(snrs) * n_realizations of them before its data
stage.  Why each workload exists is written down in README.md beside this
file.

This module imports nothing from numpy or mmwave_scs at import time, so that
the set-up measurement in run.py sees the package's full import cost.
"""

import math
import random
from dataclasses import dataclass

# Configs are SystemConfig field overrides; anything not listed keeps its
# default.  The wide point is the near-published geometry: dim 16,384, 24
# rows, a 50 MB dense operator per trial.  ssamp still recovers there at
# G = 12 and does not at G = 9, so G stays at 12.
WIDE = {
    "n_bs": 4,
    "n_ant_bs": 256,
    "n_ant_user": 16,
    "n_paths": 2,
    "n_subcarriers": 16,
    "n_pilot_subcarriers": 8,
    "max_delay_s": 25e-9,
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                        # "trial" (run_trial) or "ber" (ber_experiment)
    config: dict                     # SystemConfig overrides
    slots: tuple                     # G values; trial calls cycle through them
    snrs: tuple = (20.0,)            # SNR points of a ber call and of the NMSE panel
    n_symbols: int = 0               # symbols per SNR point of a ber call
    n_realizations: int = 4          # channel draws per SNR point of a ber call
    panel_seeds: int = 16            # NMSE panel trials per (G, SNR) point
    ber_panel_symbols: int = 10**6   # symbols of the BER panel at 20 dB
    ber_panel_realizations: int = 4


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trial-default", "trial", {}, slots=(9, 12, 16)),
        Workload("trial-wide", "trial", WIDE, slots=(12,), panel_seeds=6,
                 ber_panel_symbols=2 * 10**5, ber_panel_realizations=2),
        Workload("ber-long", "ber", {}, slots=(16,), snrs=(10.0, 20.0, 30.0),
                 n_symbols=10**6, panel_seeds=8),
    )
}


def op_seeds(seed: int):
    """The endless, reproducible sequence of call seeds drawn from --seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def system_config(workload: Workload, **extra):
    from mmwave_scs.channel import SystemConfig

    return SystemConfig(**{**workload.config, **extra})


def call(workload: Workload, index: int, seed: int):
    """Call number `index` of the loop: (output, trials it estimated)."""
    from mmwave_scs import simulate

    if workload.kind == "trial":
        cfg = system_config(workload, n_slots=workload.slots[index % len(workload.slots)])
        return simulate.run_trial(cfg, seed), 1
    cfg = system_config(workload, n_slots=workload.slots[0])
    table = simulate.ber_experiment(
        cfg, list(workload.snrs), workload.n_symbols, seed, n_realizations=workload.n_realizations
    )
    return table, len(workload.snrs) * workload.n_realizations


def first_call(workload: Workload):
    """The set-up call, checked: (output, problems).

    Its input is fixed (seed 0), so set-up time does not move with --seed.  For
    trial workloads it is a trial at the first G of the loop.  For ber
    workloads it is the smallest ber_experiment on the workload's config (one
    SNR point, one realisation, 10^4 symbols): it pays the same one-time costs
    as a full call without repeating a full call's work.
    """
    if workload.kind == "trial":
        output, _ = call(workload, 0, 0)
        return output, check_trial(output)
    from mmwave_scs import simulate

    snrs, n_symbols = [workload.snrs[0]], 10**4
    cfg = system_config(workload, n_slots=workload.slots[0])
    table = simulate.ber_experiment(cfg, snrs, n_symbols, 0, n_realizations=1)
    return table, check_ber(table, snrs, n_symbols)


def signature(output):
    """What must repeat bit for bit when the same call is made twice."""
    if hasattr(output, "rows"):
        return output.rows
    return (
        output.true_sparsity,
        tuple(
            (name, m.nmse_db, m.exact_support_match, m.iterations)
            for name, m in sorted(output.metrics.items())
        ),
    )


def check_trial(record) -> list:
    """Problems with one TrialRecord; an empty list means it passed."""
    problems = []
    for name in ("ssamp", "adaptive_omp", "oracle_ls"):
        m = record.metrics.get(name)
        if m is None:
            problems.append(f"{name}: missing")
            continue
        if not math.isfinite(m.nmse_db):
            problems.append(f"{name}: NMSE {m.nmse_db} is not finite")
        if m.exact_support_match not in (True, False):
            problems.append(f"{name}: support match {m.exact_support_match!r} is not a bool")
        if m.iterations < 0:
            problems.append(f"{name}: negative iteration count {m.iterations}")
    return problems


def check_ber(table, snrs, n_symbols) -> list:
    """Problems with one ber_experiment table; an empty list means it passed."""
    problems = []
    if len(table.rows) != 3 * len(snrs):
        problems.append(f"{len(table.rows)} rows, expected {3 * len(snrs)}")
    for row in table.rows:
        rec = dict(zip(table.columns, row))
        ber = rec["ber"]
        # A receiver whose CSI is useless guesses, and its BER lands on either
        # side of 0.5; allow five standard deviations of a fair coin over the
        # counted bits (4 per 16-QAM symbol) above 0.5, and no more.
        ceiling = 0.5 + 5.0 * math.sqrt(0.25 / (4 * rec["symbols"]))
        if not (math.isfinite(ber) and 0.0 <= ber <= ceiling):
            problems.append(f"{rec['csi_source']} at {rec['snr_db']} dB: BER {ber} outside [0, {ceiling:.4f}]")
        if rec["symbols"] < n_symbols:
            problems.append(f"{rec['csi_source']}: {rec['symbols']} symbols < {n_symbols} requested")
    return problems


def check(workload: Workload, output) -> list:
    if workload.kind == "trial":
        return check_trial(output)
    return check_ber(output, workload.snrs, workload.n_symbols)


def quality_panel(workload: Workload, record):
    """Estimation quality on a fixed seed panel: {metric: (value, unit)}.

    `record` receives the problems found in each call's output.

    The panel does not depend on --seed, so its figures repeat exactly from run
    to run and any change in them is a change in the program's numbers.  NMSE
    is averaged in the linear domain, as `sweep` does.
    """
    from mmwave_scs import simulate

    from tracing import Tracer

    # The tracer's boundary counts give ssamp's support against the truth,
    # which TrialRecord reduces to an exact-match flag.
    tracer = Tracer()
    tracer.install(simulate)
    try:
        return _panel(workload, simulate, tracer, record)
    finally:
        tracer.uninstall(simulate)


def _panel(workload, simulate, tracer, record):
    lin = {"ssamp": [], "adaptive_omp": [], "oracle_ls": []}
    for g in workload.slots:
        for snr in workload.snrs:
            cfg = system_config(workload, n_slots=g, snr_db=snr)
            for seed in range(workload.panel_seeds):
                trial = simulate.run_trial(cfg, seed)
                record(check_trial(trial))
                for name, values in lin.items():
                    values.append(10.0 ** (trial.metrics[name].nmse_db / 10.0))
    recall = tracer.counts["ssamp_true_found"] / tracer.counts["true_support"]

    snr = 20.0
    cfg = system_config(workload, n_slots=workload.slots[-1])
    table = simulate.ber_experiment(
        cfg, [snr], workload.ber_panel_symbols, 0, n_realizations=workload.ber_panel_realizations
    )
    record(check_ber(table, [snr], workload.ber_panel_symbols))
    ber = {rec["csi_source"]: rec["ber"] for rec in table.to_records()}

    metrics = {
        "ssamp_nmse": (sum(lin["ssamp"]) / len(lin["ssamp"]), "ratio"),
        "omp_nmse": (sum(lin["adaptive_omp"]) / len(lin["adaptive_omp"]), "ratio"),
        "oracle_nmse": (sum(lin["oracle_ls"]) / len(lin["oracle_ls"]), "ratio"),
        "ssamp_support_recall": (recall, "ratio"),
        "ber_ssamp": (ber["ssamp"], "ratio"),
        "ber_omp": (ber["adaptive_omp"], "ratio"),
    }
    problems = [f"panel {name} = {value} is not finite"
                for name, (value, _) in metrics.items() if not math.isfinite(value)]
    if not 0.0 <= recall <= 1.0:
        problems.append(f"support recall {recall} outside [0, 1]")
    record(problems)
    return metrics
