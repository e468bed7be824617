"""Spans around the calls that `mmwave_scs.simulate` makes into its layers.

Tracing is done from outside the package: while a `Tracer` is installed, the
names that `simulate` imported from `channel`, `pilots` and `recovery`, its
`qam16_*` helpers and its entry points `run_trial` and `ber_experiment` are
replaced in the `simulate` module by wrappers that record one span per call.
The harness calls the entry points through the module, so they open the
top-level spans.  Nothing inside the package changes, and uninstalling
restores the original functions.

Spans stay in memory and are written out once, at the end.  A
span's self time is its duration minus the time its child spans cover; calls
on one thread nest, so children never overlap and that cover is their sum.
"""

import json
import time
from collections import defaultdict

LAYER_OF = {
    "angular_channel_set": "channel",
    "dft_pair": "channel",
    "draw_multipath": "channel",
    "grid_steering_vector": "channel",
    "inverse_angular_transform": "channel",
    "calibrate_noise_variance": "pilots",
    "draw_ensemble": "pilots",
    "measurement_operators": "pilots",
    "pilot_subcarrier_indices": "pilots",
    "synthesize_received": "pilots",
    "adaptive_omp": "recovery",
    "nmse_db": "recovery",
    "oracle_ls": "recovery",
    "p_th_for_snr": "recovery",
    "ssamp": "recovery",
    "qam16_modulate": "simulate",
    "qam16_hard_bits": "simulate",
    "run_trial": "simulate",
    "ber_experiment": "simulate",
}


class Tracer:
    """Records spans (name, start, end, parent, op) and per-call counts."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self._stack = []
        self._op = -1
        self._truth = None
        self._saved = {}

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name; returns fn's result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._op += 1
        record = [name, time.perf_counter(), 0.0, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
        self._observe(name, out)
        return out

    def _observe(self, name, out):
        """Counts read off a layer's return value at the boundary."""
        if name == "angular_channel_set":
            self._truth = set(out.support.tolist())
        elif name == "measurement_operators":
            self.counts["operator_bytes"] += out.nbytes
        elif name == "ssamp":
            self.counts["ssamp_passes"] += out.iterations
            self.counts["ssamp_stages"] += out.stages
            if self._truth is not None:
                found = set(out.support.tolist())
                self.counts["ssamp_exact"] += found == self._truth
                self.counts["ssamp_true_found"] += len(found & self._truth)
                self.counts["true_support"] += len(self._truth)
        elif name == "adaptive_omp":
            self.counts["omp_picks"] += out.iterations

    def install(self, module):
        """Wrap every traced name that `module` (mmwave_scs.simulate) holds."""
        for name in LAYER_OF:
            original = getattr(module, name)
            self._saved[name] = original
            setattr(module, name, self._wrapper(name, original))

    def uninstall(self, module):
        for name, original in self._saved.items():
            setattr(module, name, original)
        self._saved.clear()

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def self_times(self):
        """{span name: (total self seconds, calls)} over all recorded spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, _), child in zip(self.spans, covered):
            totals[name][0] += end - start - child
            totals[name][1] += 1
        return {name: tuple(value) for name, value in totals.items()}

    def top_level_seconds(self):
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "layer": LAYER_OF[name],
                         "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
