"""The names the benchmark's tracer wraps must stay in mmwave_scs.simulate.

perfbench/tracing.py replaces every name in its LAYER_OF table on the
simulate module with a timing wrapper, looking each one up with getattr.  A
change in src/ that drops one of those names from simulate makes every traced
benchmark run fail, so this test fails first.  A traced trial must also still
reach every layer the benchmark reports and return what the tracer reads its
counts from, and a traced BER call must reach the modem whose spans the
benchmark adds up as its data stage.  The tracer is loaded from its file and
is not edited.
"""

import os
from collections import Counter

from mmwave_scs import simulate

from conftest import DESK_SNR20, perfbench_module


def test_every_traced_name_is_a_simulate_attribute():
    layer_of = perfbench_module("tracing").LAYER_OF
    assert layer_of
    missing = sorted(name for name in layer_of if not hasattr(simulate, name))
    assert not missing, f"perfbench traces names simulate no longer has: {missing}"
    assert all(callable(getattr(simulate, name)) for name in layer_of)


# Every traced name that one run_trial call goes through.
TRIAL_PATH = (
    "run_trial", "draw_multipath", "pilot_subcarrier_indices", "angular_channel_set",
    "draw_ensemble", "measurement_operators", "calibrate_noise_variance",
    "synthesize_received", "p_th_for_snr", "ssamp", "adaptive_omp", "oracle_ls",
    "nmse_db",
)


def test_traced_trial_records_every_layer_and_count():
    tracer = perfbench_module("tracing").Tracer()
    tracer.install(simulate)
    try:
        simulate.run_trial(DESK_SNR20, 3000)
    finally:
        tracer.uninstall(simulate)
    recorded = {span[0] for span in tracer.spans}
    missing = sorted(name for name in TRIAL_PATH if name not in recorded)
    assert not missing, f"traced trial recorded no span for {missing}"
    for count in ("true_support", "ssamp_true_found", "omp_picks", "operator_bytes"):
        assert tracer.counts[count] > 0, count


# Every traced name that one ber_experiment call goes through.
BER_PATH = (
    "ber_experiment", "draw_multipath", "pilot_subcarrier_indices", "angular_channel_set",
    "draw_ensemble", "measurement_operators", "calibrate_noise_variance",
    "synthesize_received", "p_th_for_snr", "ssamp", "adaptive_omp", "qam16_modulate",
    "qam16_hard_bits",
)


def test_traced_ber_records_every_layer_and_the_modem(monkeypatch):
    # One core keeps every realisation in this process, where the wrappers
    # count it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    snrs, realisations = [10.0, 20.0], 2
    tracer = perfbench_module("tracing").Tracer()
    tracer.install(simulate)
    try:
        simulate.ber_experiment(DESK_SNR20, snrs, 10**4, 0, n_realizations=realisations)
    finally:
        tracer.uninstall(simulate)
    calls = Counter(span[0] for span in tracer.spans)
    missing = sorted(name for name in BER_PATH if not calls[name])
    assert not missing, f"traced BER call recorded no span for {missing}"
    # The data stage modulates once per realisation and subcarrier, and
    # decides once per CSI source there.
    passes = len(snrs) * realisations * DESK_SNR20.n_pilot_subcarriers
    assert calls["qam16_modulate"] == passes
    assert calls["qam16_hard_bits"] == passes * len(simulate.CSI_SOURCES)
