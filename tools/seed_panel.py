"""Fixed seed panel.  `PYTHONPATH=src python3 tools/seed_panel.py dump OUT.json`
runs run_trial on DESK_SNR20 seeds 3000-3199, DESK_SNR10 seeds 0-49,
SystemConfig(n_slots=G) for G = 9/12/16 seeds 0-39 and the perfbench trial-wide
point seeds 0-3, keeping per estimator every EstimatorMetrics field but the
wall time (NMSE, precision and recall as float hex), plus five
ber_experiment tables at 10/20/30 dB: desk scale (10^4 symbols, 2
realisations); SystemConfig(), the geometry of the
perfbench ber-long workload (10^5 symbols, 1 realisation); a ber-long-sized
call at SystemConfig(n_slots=16) (10^6 symbols, 4 realisations), whose
realisations after the first two are shared with a forked child process
on a multi-core host; the ber-long call with seed 1 (SystemConfig(), 10^6 symbols, 4
realisations), whose realisation 2 at 30 dB serves both LOS streams from
AoA bin 7, so both streams see the same noise (simulate._noise_root); and,
at 20 dB only, the perfbench trial-wide BER point (G = 12, 2*10^5 symbols,
2 realisations).  Then the sweep(SystemConfig(), "slots",
[9, 12, 16], 40, 0) table (whose trials are shared with a forked child
process on a multi-core host), and every field of the run_certificate_battery(20, 0)
records.  `compare A.json B.json` prints every changed field of every
trial that differs (the NMSE as a delta in dB), then per estimator the
number of trials in which each field changed and the largest NMSE |delta|,
then whether each BER table is
identical with every differing row (table, SNR, CSI source, old -> new BER
and the change in binomial standard errors of the mean BER over 4 bits per
symbol), then whether the sweep table is identical with every differing row,
then whether the certificate records are identical with every differing
record, and exits 1 if any trial, BER row, sweep row or certificate record
differs.
"""

import json
import math
import sys
from dataclasses import asdict
from itertools import zip_longest

# The EstimatorMetrics fields a trial record keeps, in order; the floats are
# stored as float hex so that they round-trip exactly.
FIELDS = ("nmse_db", "exact_support_match", "iterations", "stages",
          "termination_reason", "precision", "recall")
_HEX = {"nmse_db", "precision", "recall"}


def dump(path):
    from mmwave_scs import SystemConfig, ber_experiment, run_trial
    from mmwave_scs.simulate import sweep
    from mmwave_scs.theory import run_certificate_battery

    desk = dict(n_ant_bs=16, n_ant_user=4, n_paths=2, n_subcarriers=8,
                n_pilot_subcarriers=8, n_slots=6, max_delay_s=25e-9)
    wide = dict(n_bs=4, n_ant_bs=256, n_ant_user=16, n_paths=2, n_subcarriers=16,
                n_pilot_subcarriers=8, n_slots=12, max_delay_s=25e-9)
    panel = [("desk20", SystemConfig(**desk), range(3000, 3200)),
             ("desk10", SystemConfig(**desk, snr_db=10.0), range(50)),
             *((f"default-G{g}", SystemConfig(n_slots=g), range(40)) for g in (9, 12, 16)),
             ("wide", SystemConfig(**wide), range(4))]
    trials = {}
    for name, config, seeds in panel:
        for seed in seeds:
            trials[f"{name}/{seed}"] = {
                est: {f: float(v).hex() if f in _HEX else v
                      for f, v in asdict(m).items() if f in FIELDS}
                for est, m in run_trial(config, seed).metrics.items()
            }
    snrs = [10.0, 20.0, 30.0]
    tables = {"desk": ber_experiment(SystemConfig(**desk), snrs, 10**4, 0, n_realizations=2),
              "default": ber_experiment(SystemConfig(), snrs, 10**5, 0, n_realizations=1),
              "ber-long": ber_experiment(SystemConfig(n_slots=16), snrs, 10**6, 0,
                                         n_realizations=4),
              "shared-bin": ber_experiment(SystemConfig(), snrs, 10**6, 1, n_realizations=4),
              "wide": ber_experiment(SystemConfig(**wide), [20.0], 2 * 10**5, 0,
                                     n_realizations=2)}
    ber = {name: [list(row) for row in table.rows] for name, table in tables.items()}
    rows = [list(row) for row in sweep(SystemConfig(), "slots", [9, 12, 16], 40, 0).rows]
    certificates = [asdict(record) for record in run_certificate_battery(20, 0)]
    with open(path, "w") as handle:
        json.dump({"trials": trials, "ber": ber, "sweep": rows, "certificates": certificates},
                  handle, indent=1)
    return 0


def _show(field, value):
    """A stored field value as text: float hex back to a float."""
    return float.fromhex(value) if field in _HEX and value is not None else value


def _sigma_move(ber_a, ber_b, symbols):
    """' (+z sigma)': the BER change in binomial standard errors
    sqrt(p (1 - p) / bits), p the mean of both BERs and 4 bits per symbol."""
    if ber_a is None or ber_b is None:
        return ""
    p = (ber_a + ber_b) / 2.0
    sigma = math.sqrt(p * (1.0 - p) / (4 * symbols))
    return f" ({(ber_b - ber_a) / sigma:+.2f} sigma)" if sigma else ""


def compare(path_a, path_b):
    a, b = (json.load(open(path)) for path in (path_a, path_b))
    keys = sorted(a["trials"].keys() | b["trials"].keys())
    differ = [key for key in keys if a["trials"].get(key) != b["trials"].get(key)]
    estimators = sorted({e for t in (a, b) for rec in t["trials"].values() for e in rec})
    changes = {est: dict.fromkeys(FIELDS, 0) for est in estimators}
    largest = dict.fromkeys(estimators, 0.0)  # largest NMSE |delta| in dB
    for key in differ:
        ta, tb = a["trials"].get(key, {}), b["trials"].get(key, {})
        for est in sorted(e for e in ta.keys() | tb.keys() if ta.get(e) != tb.get(e)):
            ma, mb = ta.get(est, {}), tb.get(est, {})
            text = []
            for f in (f for f in FIELDS if ma.get(f) != mb.get(f)):
                changes[est][f] += 1
                if f == "nmse_db":
                    delta = float.fromhex(mb.get(f, "nan")) - float.fromhex(ma.get(f, "nan"))
                    largest[est] = max(largest[est], abs(delta))
                    text.append(f"nmse {delta:+.3g} dB")
                else:
                    old, new = (_show(f, m.get(f)) for m in (ma, mb))
                    text.append(f"{f} {old} -> {new}")
            print(f"{key} {est}: {', '.join(text)}")
    for est in estimators:
        counts = ", ".join(f"{f} {n}" for f, n in changes[est].items())
        print(f"{est}: trials changed per field: {counts}; "
              f"largest NMSE |delta| {largest[est]:.3g} dB")
    print(f"{len(differ)} of {len(keys)} trials differ")
    same_ber = True
    for name in sorted(a["ber"].keys() | b["ber"].keys()):
        rows_a, rows_b = a["ber"].get(name, []), b["ber"].get(name, [])
        same = rows_a == rows_b
        same_ber &= same
        print(f"BER table {name}: {'identical' if same else 'differs'}")
        old = {tuple(row[:2]): row[2:] for row in rows_a}
        new = {tuple(row[:2]): row[2:] for row in rows_b}
        for key in sorted(old.keys() | new.keys()):
            if old.get(key) != new.get(key):
                (ber_a, _), (ber_b, symbols) = old.get(key, [None] * 2), new.get(key, [None] * 2)
                print(f"  {name} {key[0]:g} dB {key[1]}: {ber_a} -> {ber_b}"
                      f"{_sigma_move(ber_a, ber_b, symbols)}")
    sweep_a, sweep_b = a.get("sweep", []), b.get("sweep", [])
    same_sweep = sweep_a == sweep_b
    print(f"sweep table: {'identical' if same_sweep else 'differs'}")
    for old, new in zip_longest(sweep_a, sweep_b):
        if old != new:
            print(f"  sweep row: {old} -> {new}")
    cert_a, cert_b = a.get("certificates", []), b.get("certificates", [])
    same_certs = cert_a == cert_b
    print(f"certificate records: {'identical' if same_certs else 'differ'}")
    for i, (old, new) in enumerate(zip_longest(cert_a, cert_b)):
        if old != new:
            print(f"  certificate {i}: {old} -> {new}")
    return 1 if differ or not same_ber or not same_sweep or not same_certs else 0


if __name__ == "__main__":
    commands = {"dump": (dump, 1), "compare": (compare, 2)}
    name, args = (sys.argv[1:2] or [""])[0], sys.argv[2:]
    if name in ("-h", "--help"):
        print(__doc__)
        sys.exit(0)
    if name not in commands or len(args) != commands[name][1]:
        sys.exit(__doc__)
    sys.exit(commands[name][0](*args))
