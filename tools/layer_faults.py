"""Minor page faults, time and peak memory per trial in each layer that
`simulate` calls.

    PYTHONPATH=src python3 tools/layer_faults.py --workload trial-wide --seed 1 --trials 60

Runs perfbench's sequence for one workload in this process: the fixed set-up
call, the quality panel, then --trials calls of the timed loop on the call
seeds drawn from --seed.  During those calls every name that perfbench's
tracer wraps in `simulate` (tracing.LAYER_OF: the functions it imported from
channel, pilots and recovery, and its entry points) is wrapped again here,
to count minor page faults (resource.getrusage) and wall time.  The table
gives each layer's own share per trial, its children's excluded, so
`run_trial` or `ber_experiment` is the entry point's own lines.  The last
rows give the loop as a whole: the calls' total and the whole process,
with its system time.  A second pass makes the same calls on the same call
seeds under tracemalloc, with the counting wrappers removed, so the fault
and time columns do not pay for it.  Its column gives each layer's peak
traced allocation above the level at its entry, children included, as the
largest over its calls: memory numpy allocates counts, BLAS and FFT
scratch does not.  Only numpy and mmwave_scs are needed;
perfbench/workloads.py and tracing.py are imported, not changed.

For the whole run os.sched_getaffinity reports one core, so
simulate._fan_out keeps every trial and BER realisation in this process,
where the wrappers count them; a forked child would count its share in its
own copy.  The process's CPU affinity and BLAS threads are left alone.
"""

import argparse
import os
import resource
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracing import LAYER_OF  # noqa: E402
from workloads import WORKLOADS, call, first_call, op_seeds, quality_panel  # noqa: E402


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF)


class LayerCounter:
    """Self faults, self seconds and calls per wrapped name."""

    def __init__(self):
        self.totals = defaultdict(lambda: [0, 0.0, 0])
        self._children = []  # per open call: [faults, seconds] of its children
        self._saved = {}

    def _wrap(self, name, fn):
        def counted(*args, **kwargs):
            self._children.append([0, 0.0])
            faults0, start = _usage().ru_minflt, time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                faults = _usage().ru_minflt - faults0
                seconds = time.perf_counter() - start
                child_faults, child_seconds = self._children.pop()
                entry = self.totals[name]
                entry[0] += faults - child_faults
                entry[1] += seconds - child_seconds
                entry[2] += 1
                if self._children:
                    self._children[-1][0] += faults
                    self._children[-1][1] += seconds

        return counted

    def install(self, module):
        for name in LAYER_OF:
            if hasattr(module, name):
                self._saved[name] = getattr(module, name)
                setattr(module, name, self._wrap(name, self._saved[name]))

    def uninstall(self, module):
        for name, fn in self._saved.items():
            setattr(module, name, fn)
        self._saved = {}


class PeakCounter(LayerCounter):
    """Largest traced allocation above entry level per wrapped name, over
    its calls; a call's peak includes its children's."""

    def __init__(self):
        super().__init__()
        self.peaks = defaultdict(int)
        self._open = []  # per open call: [entry level, highest peak seen]

    def _wrap(self, name, fn):
        def measured(*args, **kwargs):
            level, peak = tracemalloc.get_traced_memory()
            if self._open:
                # The reset below drops the caller's peak so far: keep it.
                self._open[-1][1] = max(self._open[-1][1], peak)
            self._open.append([level, 0])
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                entry, seen = self._open.pop()
                # The traced peak still counts from this call's entry.
                peak = max(seen, tracemalloc.get_traced_memory()[1])
                self.peaks[name] = max(self.peaks[name], peak - entry)
                if self._open:
                    self._open[-1][1] = max(self._open[-1][1], peak)

        return measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="trial-wide")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trials", type=int, default=60, help="calls of the timed loop")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be at least 1")

    from mmwave_scs import simulate

    # What _fan_out reads as the usable cores: one, so nothing forks.
    os.sched_getaffinity = lambda pid: {0}
    workload = WORKLOADS[args.workload]
    problems = []
    _, found = first_call(workload)
    problems.extend(found)
    quality_panel(workload, problems.extend)

    counter = LayerCounter()
    seeds = op_seeds(args.seed)
    trials = 0
    counter.install(simulate)
    try:
        before, start = _usage(), time.perf_counter()
        for index in range(args.trials):
            _, n = call(workload, index, next(seeds))
            trials += n
        after, wall = _usage(), time.perf_counter() - start
    finally:
        counter.uninstall(simulate)

    peaks = PeakCounter()
    seeds = op_seeds(args.seed)
    peaks.install(simulate)
    tracemalloc.start()
    try:
        for index in range(args.trials):
            call(workload, index, next(seeds))
    finally:
        tracemalloc.stop()
        peaks.uninstall(simulate)
    if problems:
        print("; ".join(problems[:5]), file=sys.stderr)
        return 1

    print(f"# {args.workload}: {args.trials} calls, {trials} trials, seed {args.seed}")
    print(f"{'layer':<28}{'faults/trial':>14}{'ms/trial':>11}{'calls/trial':>13}"
          f"{'peak MB':>10}")
    rows = sorted(counter.totals.items(), key=lambda item: -item[1][0])
    for name, (faults, seconds, calls) in rows:
        print(f"{name:<28}{faults / trials:>14.1f}{seconds * 1e3 / trials:>11.2f}"
              f"{calls / trials:>13.2f}{peaks.peaks[name] / 1e6:>10.3f}")
    faults = sum(entry[0] for entry in counter.totals.values())
    seconds = sum(entry[1] for entry in counter.totals.values())
    print(f"{'all calls':<28}{faults / trials:>14.1f}{seconds * 1e3 / trials:>11.2f}")
    print(f"{'process':<28}{(after.ru_minflt - before.ru_minflt) / trials:>14.1f}"
          f"{wall * 1e3 / trials:>11.2f}   system "
          f"{(after.ru_stime - before.ru_stime) * 1e3 / trials:.2f} ms/trial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
