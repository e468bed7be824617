"""CLI: config parsing, subcommands, exit codes, output artifacts."""

import json
import shutil
import subprocess
import sys
from dataclasses import fields
from importlib.metadata import entry_points
from pathlib import Path

import pytest

from mmwave_scs import __version__
from mmwave_scs.channel import SystemConfig
from mmwave_scs.cli import (
    ConfigError,
    _flag_if_large,
    main,
    parse_config,
)
from mmwave_scs.recovery import p_th_for_snr
from mmwave_scs.simulate import BER_COLUMNS, MSE_COLUMNS, _ssamp_threshold

from conftest import DESK_EXACT, DESK_SNR20

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
CONSOLE_SCRIPT = "mmwave-scs"
ENTRY_POINT = "mmwave_scs.cli:main"


def write_config(config: SystemConfig, path) -> None:
    """Write every field as `key = value`; parse_config inverts this exactly."""
    lines = [f"{f.name} = {getattr(config, f.name)!r}" for f in fields(config)]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------- config files


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert parse_config(path) == SystemConfig()


def test_comments_and_blanks(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# leading comment\n\nn_bs = 3  # trailing comment\n")
    assert parse_config(path) == SystemConfig(n_bs=3)


def test_unknown_key_names_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_bs = 2\nn_fancy_knob = 7\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert "n_fancy_knob" in msg and f"{path}:2" in msg


def test_malformed_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_bs = two\n")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(path)
    path.write_text("n_bs\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)


def test_invariant_violation_names_both_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_chain_user = 64\nn_ant_user = 32\n")
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    msg = str(err.value)
    assert "n_chain_user" in msg and "n_ant_user" in msg


def test_config_round_trip(tmp_path):
    for config in (SystemConfig(), DESK_EXACT, DESK_SNR20):
        path = tmp_path / "rt.cfg"
        write_config(config, path)
        assert parse_config(path) == config  # including snr_db = inf


def test_published_scale_accepted_but_flagged(tmp_path, capsys):
    path = tmp_path / "big.cfg"
    path.write_text(
        "n_ant_bs = 512\nn_chain_bs = 8\nn_ant_user = 32\nn_bs = 4\n"
        "n_subcarriers = 64\nn_pilot_subcarriers = 64\nn_slots = 60\n"
        "max_delay_s = 100e-9\n"
    )
    config = parse_config(path)
    assert config.angular_dimension == 65536
    _flag_if_large(config)
    err = capsys.readouterr().err
    assert "long-running" in err


# ---------------------------------------------------------------- subcommands


def _desk_config(tmp_path):
    path = tmp_path / "desk.cfg"
    write_config(DESK_SNR20, path)
    return str(path)


def test_linkbudget_values(tmp_path, capsys):
    code = main(
        [
            "linkbudget", "--freq-mhz", "30000", "--exponent", "2.2",
            "--distance-km", "0.1", "--atmos-db-per-km", "0.1",
            "--rain-db-per-km", "5", "--out", str(tmp_path),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "path loss: 100.55 dB" in captured.out
    assert "note:" in captured.err  # the published-value discrepancy note
    lines = (tmp_path / "linkbudget.csv").read_text().strip().splitlines()
    assert lines[0] == (
        "carrier_freq_mhz,path_loss_exponent,distance_km,atmos_atten_db_per_km,"
        "rain_atten_db_per_km,path_loss_db"
    )
    assert len(lines) == 2 and len(lines[1].split(",")) == 6

    code = main(
        [
            "linkbudget", "--freq-mhz", "3000", "--exponent", "2.2",
            "--distance-km", "1", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert "path loss: 102.04 dB" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--freq-mhz", "nan", "--distance-km", "1"], "carrier_freq_mhz must be finite, got nan"),
        (["--freq-mhz", "3000", "--distance-km", "inf"], "distance_km must be finite, got inf"),
        (["--freq-mhz", "3000", "--distance-km", "-1"], "distance_km must be positive"),
    ],
)
def test_exit_code_bad_linkbudget_argument(tmp_path, capsys, flags, message):
    code = main(["linkbudget", *flags, "--exponent", "2", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"config error: {message}" in captured.err
    assert "path loss" not in captured.out


def test_estimate_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(
        [
            "estimate", "--config", _desk_config(tmp_path), "--seed", "3",
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = (out / "estimate.csv").read_text().strip().splitlines()
    assert lines[0] == (
        "estimator,nmse_db,exact_support_match,iterations,wall_time_s,"
        "stages,termination_reason,precision,recall"
    )
    assert [line.split(",")[0] for line in lines[1:]] == ["ssamp", "adaptive_omp", "oracle_ls"]
    assert (out / "estimate_summary.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "estimate"
    assert manifest["version"] == __version__
    assert manifest["seed"] == 3
    assert manifest["config"]["n_slots"] == DESK_SNR20.n_slots
    assert set(manifest["outputs"]) == {"csv", "summary"}
    assert manifest["created_utc"]
    for name in ("ssamp", "adaptive_omp", "oracle_ls"):
        assert name in captured.out


def test_estimate_summary_reports_the_threshold_ssamp_used(tmp_path):
    # ssamp runs with the table value times N_US * N_BS, not the table value.
    out = tmp_path / "results"
    code = main(["estimate", "--config", _desk_config(tmp_path), "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "estimate_summary.json").read_text())
    assert summary["p_th"] == _ssamp_threshold(DESK_SNR20)
    assert summary["p_th"] == p_th_for_snr(20.0) * 4 * 16


def test_sweep_mse_single_point(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(
        [
            "sweep-mse", "--config", _desk_config(tmp_path), "--variable", "slots",
            "--values", "8", "--trials", "1", "--seed", "0", "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = (out / "sweep_mse.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(MSE_COLUMNS)
    assert len(lines) == 1 + 3  # header plus one row per estimator
    estimators = [line.split(",")[2] for line in lines[1:]]
    assert estimators == ["ssamp", "adaptive_omp", "oracle_ls"]


def test_sweep_mse_json_stdout(tmp_path, capsys):
    code = main(
        [
            "sweep-mse", "--config", _desk_config(tmp_path), "--variable", "snr",
            "--values", "20", "--trials", "1", "--seed", "1",
            "--out", str(tmp_path / "results"), "--format", "json",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    records = json.loads(captured.out)
    assert len(records) == 3
    assert set(records[0]) == set(MSE_COLUMNS)


def test_sweep_ber_csv(tmp_path, capsys):
    out = tmp_path / "results"
    desk = tmp_path / "noiseless.cfg"
    write_config(DESK_EXACT, desk)
    code = main(
        [
            "sweep-ber", "--config", str(desk), "--snrs", "inf",
            "--symbols", "10000", "--realizations", "1", "--seed", "2",
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = (out / "sweep_ber.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(BER_COLUMNS)
    assert len(lines) == 1 + 3
    sources = [line.split(",")[1] for line in lines[1:]]
    assert sources == ["perfect", "ssamp", "adaptive_omp"]


def test_theory_check_summary_line(tmp_path, capsys):
    code = main(
        ["theory-check", "--trials", "3", "--seed", "4242", "--out", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "3/3 certificates consistent with exhaustive search" in captured.out
    lines = (tmp_path / "theory_check.csv").read_text().strip().splitlines()
    assert lines[0] == (
        "instance,m,n,sparsity,n_vectors,spark_phi1,rank_ytilde,"
        "certificate_holds,consistent"
    )
    assert len(lines) == 4 and len(lines[1].split(",")) == 9
    summary = json.loads((tmp_path / "theory_check_summary.json").read_text())
    assert summary["min_time_slots_example"] == 9
    assert summary["orthogonal_overhead_example"] == 2_097_152


# ------------------------------------------------------------------ exit codes


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_fancy_knob = 7\n")
    code = main(["estimate", "--config", str(bad), "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err


def test_exit_code_ber_needs_two_bs(tmp_path, capsys):
    single = tmp_path / "single.cfg"
    write_config(SystemConfig(n_bs=1), single)
    code = main(
        [
            "sweep-ber", "--config", str(single), "--snrs", "10",
            "--out", str(tmp_path / "r"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "n_bs" in captured.err


_SUBCOMMAND_ARGS = {
    "linkbudget": ["--freq-mhz", "3000", "--exponent", "2", "--distance-km", "1"],
    "estimate": [],
    "sweep-mse": ["--variable", "snr", "--values", "10", "--trials", "1"],
    "sweep-ber": ["--snrs", "10"],
    "theory-check": ["--trials", "1"],
}


@pytest.mark.parametrize(
    "subcommand, flags, out_name, message",
    [
        *(pytest.param(name, ["--seed", "-1"], "r", "--seed must be non-negative, got -1",
                       id=f"seed-{name}") for name in _SUBCOMMAND_ARGS),
        pytest.param("estimate", [], "file", "is not a directory", id="out-file"),
        pytest.param("estimate", [], "file/sub", "is not a directory", id="out-under-file"),
    ],
)
def test_exit_code_bad_seed_or_out(tmp_path, capsys, subcommand, flags, out_name, message):
    # Rejected before any work: exit 2, the flag named, no output directory.
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / out_name
    code = main([subcommand, *_SUBCOMMAND_ARGS[subcommand], *flags, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err and message in captured.err
    assert ("--seed" if flags else "--out") in captured.err
    assert [path.name for path in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


def test_exit_code_numerical_error(tmp_path, capsys):
    # a finite SNR so low that the calibrated noise variance overflows to inf
    for argv in (
        ["sweep-mse", "--variable", "snr", "--values=-3100", "--trials", "1"],
        ["sweep-ber", "--snrs=-3100", "--symbols", "10000", "--realizations", "1"],
    ):
        code = main([*argv, "--config", _desk_config(tmp_path), "--out", str(tmp_path / "r")])
        captured = capsys.readouterr()
        assert code == 3, argv
        assert "numerical error" in captured.err and "non-finite" in captured.err
        assert "SNR -3100.0 dB" in captured.err


@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param("snr_db", "nan", "snr_db must be a number or inf, got nan", id="nan"),
        pytest.param("snr_db", "-inf", "snr_db must be a number or inf, got -inf", id="-inf"),
        ("max_delay_s", "nan", "max_delay_s must be finite, got nan"),
        ("rician_k_db", "nan", "rician_k_db must be finite, got nan"),
        ("bandwidth_hz", "nan", "bandwidth_hz must be finite, got nan"),
        ("bandwidth_hz", "inf", "bandwidth_hz must be finite, got inf"),
    ],
)
def test_exit_code_bad_config_snr(tmp_path, capsys, key, value, message):
    path = tmp_path / "snr.cfg"
    path.write_text(f"{key} = {value}\n")
    code = main(["estimate", "--config", str(path), "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err
    assert message in captured.err


def test_exit_code_snr_underflow(tmp_path, capsys):
    # 10^(-400) underflows to zero: the noise variance would be infinite
    code = main(
        [
            "sweep-mse", "--config", _desk_config(tmp_path), "--variable", "snr",
            "--values=-4000", "--trials", "1", "--out", str(tmp_path / "r"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "numerical error: SNR -4000.0 dB underflows to zero" in captured.err


@pytest.mark.parametrize(
    "variable, values, trials, message",
    [
        ("slots", "8,8.5", "1", "slot counts must be positive integers, got '8.5'"),
        ("slots", "0", "1", "slot counts must be positive integers, got '0'"),
        ("snr", "nan", "1", "SNR must be a number or inf, got 'nan'"),
        ("snr", "-inf", "1", "SNR must be a number or inf, got '-inf'"),
        ("snr", "ten", "1", "malformed number 'ten'"),
        ("snr", " , ", "1", "--values is empty"),
        ("snr", "10", "0", "--trials must be at least 1, got 0"),
    ],
    ids=["fractional-slots", "zero-slots", "nan-snr", "minus-inf-snr", "malformed",
         "empty", "zero-trials"],
)
def test_exit_code_sweep_arguments(tmp_path, capsys, variable, values, trials, message):
    out = tmp_path / "r"
    code = main(
        [
            "sweep-mse", "--config", _desk_config(tmp_path), "--variable", variable,
            f"--values={values}", "--trials", trials, "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err and message in captured.err
    assert not out.exists()  # rejected before any trial runs


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--snrs", "nan"], "--snrs: SNR must be a number or inf, got 'nan'"),
        (["--snrs=-inf"], "--snrs: SNR must be a number or inf, got '-inf'"),
        (["--snrs="], "--snrs is empty"),
        (["--snrs", "10,abc"], "--snrs: malformed number 'abc'"),
        (["--snrs", "10", "--symbols", "100"], "--symbols must be at least 10^4, got 100"),
        (["--snrs", "10", "--realizations", "0"], "--realizations must be at least 1, got 0"),
    ],
    ids=["nan-snr", "minus-inf-snr", "empty", "malformed", "few-symbols", "zero-realizations"],
)
def test_exit_code_sweep_ber_arguments(tmp_path, capsys, argv, message):
    out = tmp_path / "r"
    code = main(["sweep-ber", "--config", _desk_config(tmp_path), *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err and message in captured.err
    assert not out.exists()  # rejected before any realisation runs


@pytest.mark.parametrize(
    "text, keys",
    [
        ("n_paths = 40\n", ("n_paths", "n_ant_bs")),
        ("n_subcarriers = 16\nn_pilot_subcarriers = 6\n",
         ("n_pilot_subcarriers", "n_subcarriers")),
    ],
    ids=["paths-beyond-aod-grid", "pilots-not-dividing"],
)
def test_exit_code_inconsistent_geometry(tmp_path, capsys, text, keys):
    # rejected when the file is read, not later inside a trial
    path = tmp_path / "geometry.cfg"
    path.write_text(text)
    code = main(["estimate", "--config", str(path), "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err
    assert all(key in captured.err for key in keys)


def test_exit_code_removed_spacing_key(tmp_path, capsys):
    # the DFT grids fix half-wavelength spacing; the key is no longer accepted
    path = tmp_path / "old.cfg"
    path.write_text("n_bs = 2\nantenna_spacing_ratio = 0.5\n")
    code = main(["estimate", "--config", str(path), "--out", str(tmp_path / "r")])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown key 'antenna_spacing_ratio'" in captured.err
    assert f"{path}:2" in captured.err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_exit_code_theory_check_trials_below_one(tmp_path, capsys, trials):
    out = tmp_path / "r"
    code = main(["theory-check", "--trials", trials, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"config error: --trials must be at least 1, got {trials}" in captured.err
    assert not out.exists()


def test_exit_code_repeated_key(tmp_path, capsys):
    # the second value would silently win; both lines are named
    path = tmp_path / "twice.cfg"
    path.write_text("n_slots = 9\nn_bs = 2\nn_slots = 12\n")
    out = tmp_path / "r"
    code = main(["estimate", "--config", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"config error: {path}:3: 'n_slots' already set on line 1" in captured.err
    assert not out.exists()


def test_exit_code_workers_flag_rejected(tmp_path, capsys):
    # The fan-out rule picks the worker count; --workers is an unknown flag.
    out = tmp_path / "r"
    with pytest.raises(SystemExit) as exit_info:
        main(
            [
                "sweep-mse", "--config", _desk_config(tmp_path), "--variable", "snr",
                "--values", "10", "--trials", "1", "--workers", "2", "--out", str(out),
            ]
        )
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not out.exists()


def test_version_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "mmwave_scs.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == __version__


def _declared_console_scripts():
    """The [project.scripts] table of pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as handle:
        return tomllib.load(handle)["project"].get("scripts", {})


def test_console_script():
    """The declared console script works, run as its generated wrapper runs it.

    An install turns the declaration into a wrapper that loads the entry
    point, sets argv[0] to the script name and exits with main()'s return
    value; this does the same in a fresh interpreter, so no install is needed.
    """
    scripts = _declared_console_scripts()
    assert scripts == {CONSOLE_SCRIPT: ENTRY_POINT}
    wrapper = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"main = EntryPoint(name={CONSOLE_SCRIPT!r}, value={scripts[CONSOLE_SCRIPT]!r},"
        " group='console_scripts').load()\n"
        f"sys.argv[0] = {CONSOLE_SCRIPT!r}\n"
        "sys.exit(main())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == __version__


@pytest.mark.skipif(
    shutil.which(CONSOLE_SCRIPT) is None, reason="mmwave-scs is not installed on PATH"
)
def test_installed_console_script():
    installed = {
        ep.name: ep.value
        for ep in entry_points(group="console_scripts")
        if ep.name == CONSOLE_SCRIPT
    }
    assert installed == {CONSOLE_SCRIPT: ENTRY_POINT}
    result = subprocess.run(
        [CONSOLE_SCRIPT, "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert result.stdout.strip() == __version__
