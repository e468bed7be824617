"""Compare two benchmark result files metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds JSON lines appended by `run.py --out`.  For every end-to-end
(metric, workload) the two medians are compared against the metric's bound in
BENCHMARK.json:

  unresolved  a side's quartile spread, as a share of its median, is wider than
              the bound, and not every new run reads better than every base run
  regressed   the new median is worse than the base median by more than the bound
  improved    the new median is better by more than the base's quartile spread
              and the new run wins at least nine tenths of the seed-paired runs
  unchanged   none of the above

Per-layer metrics have no bound; their medians and relative change are listed.
The exit code is 1 when anything regressed or is unresolved.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
META_KEYS = ("cpu_count", "cpu_model", "python", "numpy", "blas", "thread_env")


def load(path):
    """({(trace, workload, metric): {seed: value}}, first record's metadata)."""
    values = defaultdict(dict)
    meta = None
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            meta = meta or record["meta"]
            for name, entry in record["result"]["metrics"].items():
                values[(record["trace"], record["workload"], name)][record["seed"]] = entry["value"]
    return values, meta or {}


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def classify(base, new, better, bound):
    """(verdict, relative change of the median, positive = better)."""
    base_values, new_values = list(base.values()), list(new.values())
    sign = 1.0 if better == "higher" else -1.0
    b_med, n_med = statistics.median(base_values), statistics.median(new_values)
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    all_better = all(sign * (n - b) > 0 for n in new_values for b in base_values)
    if max(spread(base_values), spread(new_values)) > bound and not all_better:
        return "unresolved", change
    if change < -bound:
        return "regressed", change
    seeds = sorted(set(base) & set(new))
    pairs = list(zip((base[s] for s in seeds), (new[s] for s in seeds))) or list(
        zip(base_values, new_values)
    )
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if change > spread(base_values) and wins >= 0.9 * len(pairs):
        return "improved", change
    return "unchanged", change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads(BENCHMARK.read_text())
    base, base_meta = load(args.base)
    new, new_meta = load(args.new)
    for key in META_KEYS:
        if base_meta.get(key) != new_meta.get(key):
            print(f"warning: {key} differs: {base_meta.get(key)!r} vs {new_meta.get(key)!r}")

    failing = 0
    print(f"{'workload':14} {'metric':34} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for spec in bench["end_to_end"]:
        for trace, workload, name in sorted(k for k in base if k[0] == 0 and k[2] == spec["name"]):
            if (trace, workload, name) not in new:
                continue
            b, n = base[(trace, workload, name)], new[(trace, workload, name)]
            verdict, change = classify(b, n, spec["better"], spec["bound"])
            failing += verdict in ("regressed", "unresolved")
            print(
                f"{workload:14} {name:34} {statistics.median(b.values()):12.6g} "
                f"{statistics.median(n.values()):12.6g} {100 * change:+7.2f}%  {verdict}"
            )
    for spec in bench["per_layer"]:
        for trace, workload, name in sorted(k for k in base if k[0] == 1 and k[2] == spec["name"]):
            if (trace, workload, name) not in new:
                continue
            b = statistics.median(base[(trace, workload, name)].values())
            n = statistics.median(new[(trace, workload, name)].values())
            change = f"{100 * (n - b) / abs(b):+7.2f}%" if b else "    n/a"
            print(f"{workload:14} {name:34} {b:12.6g} {n:12.6g} {change}  (per layer)")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
