"""The names the benchmark's tracer wraps must stay in mmwave_scs.simulate.

perfbench/tracing.py replaces every name in its LAYER_OF table on the
simulate module with a timing wrapper, looking each one up with getattr.  A
change in src/ that drops one of those names from simulate makes every traced
benchmark run fail, so this test fails first.  The tracer is loaded from its
file, as the benchmark loads it, and is not edited.
"""

import importlib.util
from pathlib import Path

from mmwave_scs import simulate

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
