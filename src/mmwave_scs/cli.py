"""Command line front end: config files, experiment runners, CSV/JSON output.

Config files are flat `key = value` text with exactly the SystemConfig field
names as keys; missing keys take the desk-scale defaults, and unknown or
repeated keys are rejected with their line numbers.  Every subcommand writes a
CSV of results, a JSON summary, and a manifest recording the config snapshot,
seed and package version.  Exit codes: 0 success, 2 config error, 3 numerical
failure.
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .channel import LinkBudgetParams, SystemConfig, path_loss_db
from .simulate import (
    ESTIMATORS,
    EstimatorMetrics,
    ResultTable,
    _ssamp_threshold,
    ber_experiment,
    run_trial,
    sweep,
)
from .theory import (
    CertificateRecord,
    min_time_slots,
    orthogonal_pilot_overhead,
    run_certificate_battery,
)

# Unknown-dimension threshold above which a run is flagged as long-running.
LARGE_DIMENSION = 16384

_PATH_LOSS_NOTE = (
    "Evaluates 32.5 + 20 log10(f_MHz) + 10 a log10(d_km) + (atm + rain) d_km "
    "literally. Note: the published description of this budget quotes values "
    "(192.62 / 188.27 / 161.78 dB) that do not follow from its own formula; "
    "this tool reports the formula's numbers (102.04 / 100.55 / 88.69 dB for "
    "the same three scenarios)."
)


class ConfigError(Exception):
    """Invalid config file or config-level argument."""


@dataclass(frozen=True)
class RunManifest:
    """Provenance sidecar written next to every result file."""

    subcommand: str
    version: str
    created_utc: str
    seed: int | None
    config: dict
    outputs: dict

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(asdict(self), handle, indent=2, sort_keys=True)
            handle.write("\n")


_FIELD_TYPES = {f.name: f.type for f in fields(SystemConfig)}
_INT_FIELDS = {name for name, tp in _FIELD_TYPES.items() if tp is int}


def parse_config(path) -> SystemConfig:
    """Read `key = value` lines into a SystemConfig; defaults fill the gaps."""
    values, lines = {}, {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: {key!r} already set on line {lines[key]}")
        lines[key] = lineno
        try:
            values[key] = int(value) if key in _INT_FIELDS else float(value)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: malformed value for {key!r}: {value!r}"
            ) from exc
    try:
        return SystemConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _flag_if_large(config: SystemConfig) -> None:
    if config.angular_dimension > LARGE_DIMENSION:
        print(
            f"note: unknown dimension {config.angular_dimension} per subcarrier; "
            "this configuration is accepted but long-running",
            file=sys.stderr,
        )


def _write_outputs(subcommand, args, table, summary, config_dict, seed):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{subcommand.replace('-', '_')}.csv"
    json_path = out / f"{subcommand.replace('-', '_')}_summary.json"
    manifest_path = out / "manifest.json"
    table.to_csv(csv_path)
    with open(json_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    manifest = RunManifest(
        subcommand=subcommand,
        version=__version__,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        seed=seed,
        config=config_dict,
        outputs={
            "csv": str(csv_path),
            "summary": str(json_path),
        },
    )
    manifest.write(manifest_path)
    if args.format == "json":
        print(json.dumps(table.to_records(), indent=2))
    else:
        print(",".join(str(c) for c in table.columns))
        for row in table.rows:
            print(",".join(str(v) for v in row))
    return csv_path


def _load_config(args) -> SystemConfig:
    config = parse_config(args.config) if args.config else SystemConfig()
    _flag_if_large(config)
    return config


def cmd_linkbudget(args) -> int:
    try:
        params = LinkBudgetParams(
            carrier_freq_mhz=args.freq_mhz,
            path_loss_exponent=args.exponent,
            distance_km=args.distance_km,
            atmos_atten_db_per_km=args.atmos_db_per_km,
            rain_atten_db_per_km=args.rain_db_per_km,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    loss = path_loss_db(params)
    table = ResultTable(
        columns=(*(f.name for f in fields(LinkBudgetParams)), "path_loss_db"),
        rows=((*astuple(params), loss),),
    )
    _write_outputs("linkbudget", args, table, {"path_loss_db": loss}, asdict(params), None)
    print(f"path loss: {loss:.2f} dB")
    print(f"note: {_PATH_LOSS_NOTE}", file=sys.stderr)
    return 0


def cmd_estimate(args) -> int:
    config = _load_config(args)
    record = run_trial(config, args.seed)
    table = ResultTable(
        columns=("estimator", *(f.name for f in fields(EstimatorMetrics))),
        rows=tuple((name, *astuple(record.metrics[name])) for name in ESTIMATORS),
    )
    summary = {
        "seed": args.seed,
        "true_sparsity": record.true_sparsity,
        "p_th": _ssamp_threshold(config),
        "metrics": {
            name: asdict(record.metrics[name]) for name in ESTIMATORS
        },
    }
    _write_outputs("estimate", args, table, summary, asdict(config), args.seed)
    for name in ESTIMATORS:
        m = record.metrics[name]
        print(
            f"{name}: nmse {m.nmse_db:.2f} dB, support "
            f"{'exact' if m.exact_support_match else 'mismatch'}, "
            f"{m.iterations} iterations"
        )
    return 0


def _sweep_values(variable, text, flag="--values") -> list:
    """flag's values as slot counts (positive integers) or SNRs in dB (inf: noiseless)."""
    values = []
    for item in filter(None, (v.strip() for v in text.split(","))):
        try:
            value = float(item)
        except ValueError:
            raise ConfigError(f"{flag}: malformed number {item!r}") from None
        if variable == "slots" and not (value.is_integer() and value >= 1):
            raise ConfigError(f"{flag}: slot counts must be positive integers, got {item!r}")
        if variable == "snr" and (math.isnan(value) or value == -math.inf):
            raise ConfigError(f"{flag}: SNR must be a number or inf, got {item!r}")
        values.append(int(value) if variable == "slots" else value)
    if not values:
        raise ConfigError(f"{flag} is empty")
    return values


def cmd_sweep_mse(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    values = _sweep_values(args.variable, args.values)
    config = _load_config(args)
    table = sweep(config, args.variable, values, args.trials, args.seed)
    summary = {
        "variable": args.variable,
        "values": values,
        "trials": args.trials,
        "rows": table.to_records(),
    }
    _write_outputs("sweep-mse", args, table, summary, asdict(config), args.seed)
    return 0


def cmd_sweep_ber(args) -> int:
    if args.symbols < 10**4:
        raise ConfigError(f"--symbols must be at least 10^4, got {args.symbols}")
    if args.realizations < 1:
        raise ConfigError(f"--realizations must be at least 1, got {args.realizations}")
    snrs = _sweep_values("snr", args.snrs, "--snrs")
    config = _load_config(args)
    if config.n_bs < 2:
        raise ConfigError("sweep-ber needs n_bs >= 2 (two LOS streams)")
    table = ber_experiment(
        config, snrs, args.symbols, args.seed, n_realizations=args.realizations
    )
    summary = {"snr_db": snrs, "symbols": args.symbols, "rows": table.to_records()}
    _write_outputs("sweep-ber", args, table, summary, asdict(config), args.seed)
    return 0


def cmd_theory_check(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    records = run_certificate_battery(args.trials, args.seed)
    consistent = sum(1 for rec in records if rec.consistent)
    table = ResultTable(
        columns=tuple(f.name for f in fields(CertificateRecord)),
        rows=tuple(astuple(rec) for rec in records),
    )
    summary = {
        "instances": len(records),
        "consistent": consistent,
        "min_time_slots_example": min_time_slots(16, 2),
        "orthogonal_overhead_example": orthogonal_pilot_overhead(64, 4, 32, 512, 2),
    }
    _write_outputs("theory-check", args, table, summary, {}, args.seed)
    print(f"{consistent}/{len(records)} certificates consistent with exhaustive search")
    return 0 if consistent == len(records) else 3


def _add_common(parser, with_config=True):
    if with_config:
        parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="stdout format for the result table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwave-scs",
        description="Structured compressive channel estimation experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("linkbudget", help="evaluate the link budget",
                       description=_PATH_LOSS_NOTE)
    p.add_argument("--freq-mhz", type=float, required=True)
    p.add_argument("--exponent", type=float, required=True)
    p.add_argument("--distance-km", type=float, required=True)
    p.add_argument("--atmos-db-per-km", type=float, default=0.0)
    p.add_argument("--rain-db-per-km", type=float, default=0.0)
    _add_common(p, with_config=False)
    p.set_defaults(func=cmd_linkbudget)

    p = sub.add_parser("estimate", help="run one estimation trial")
    _add_common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sweep-mse", help="NMSE sweep over slots or SNR")
    p.add_argument("--variable", choices=("slots", "snr"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--trials", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=cmd_sweep_mse)

    p = sub.add_parser("sweep-ber", help="BER versus SNR for each CSI source")
    p.add_argument("--snrs", required=True, help="comma-separated SNR points in dB")
    p.add_argument("--symbols", type=int, default=10**5)
    p.add_argument("--realizations", type=int, default=4)
    _add_common(p)
    p.set_defaults(func=cmd_sweep_ber)

    p = sub.add_parser("theory-check", help="uniqueness certificates vs exhaustive search")
    p.add_argument("--trials", type=int, default=100)
    _add_common(p, with_config=False)
    p.set_defaults(func=cmd_theory_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        # The nearest existing path of --out must be a directory to write into.
        out = Path(args.out)
        existing = next(path for path in (out, *out.parents) if path.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out {args.out}: {existing} is not a directory")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
