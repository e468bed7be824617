"""The names the benchmark's tracer wraps must stay in mmwave_scs.simulate.

perfbench/tracing.py replaces every name in its LAYER_OF table on the
simulate module with a timing wrapper, looking each one up with getattr.  A
change in src/ that drops one of those names from simulate makes every traced
benchmark run fail, so this test fails first.  A traced trial must also still
reach every layer the benchmark reports and return what the tracer reads its
counts from.  The tracer is loaded from its file, as the benchmark loads it,
and is not edited.
"""

import importlib.util
from pathlib import Path

from mmwave_scs import simulate

from conftest import DESK_SNR20

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_simulate_attribute():
    layer_of = _load_tracing().LAYER_OF
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
    tracer = _load_tracing().Tracer()
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
