"""CLI output formats: strict JSON everywhere, stdout's CSV is the file's text."""

import json

import pytest

from mmwave_scs.cli import main

from conftest import DESK_EXACT
from test_cli import write_config


def _strict(text):
    """json.loads that rejects the non-standard Infinity, -Infinity and NaN."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


# Each subcommand at a noiseless SNR where it takes one (DESK_EXACT has
# snr_db = inf), so every output that can carry inf does.
_RUNS = {
    "linkbudget": ["--freq-mhz", "3000", "--exponent", "2", "--distance-km", "1"],
    "estimate": ["--config", "{cfg}"],
    "sweep-mse": ["--config", "{cfg}", "--variable", "snr", "--values", "inf", "--trials", "1"],
    "sweep-ber": ["--config", "{cfg}", "--snrs", "inf", "--symbols", "10000",
                  "--realizations", "1"],
    "theory-check": ["--trials", "1"],
}

# Part of the summary line each of these subcommands prints after its table.
_SUMMARY_LINES = {
    "estimate": "ssamp: nmse ",
    "linkbudget": "path loss: ",
    "theory-check": " certificates consistent with exhaustive search",
}


def _run(tmp_path, capsys, subcommand, fmt):
    cfg = tmp_path / "noiseless.cfg"
    write_config(DESK_EXACT, cfg)
    out = tmp_path / fmt
    argv = [arg.format(cfg=cfg) for arg in _RUNS[subcommand]]
    code = main([subcommand, *argv, "--seed", "2", "--out", str(out), "--format", fmt])
    assert code == 0
    return out, out / f"{subcommand.replace('-', '_')}", capsys.readouterr()


@pytest.mark.parametrize("subcommand", sorted(_RUNS))
def test_json_outputs_are_strict(tmp_path, capsys, subcommand):
    out, stem, captured = _run(tmp_path, capsys, subcommand, "json")
    # The whole of stdout is one JSON document; summary lines go to stderr.
    records = _strict(captured.out)
    if subcommand in _SUMMARY_LINES:
        assert _SUMMARY_LINES[subcommand] in captured.err
    summary = _strict(stem.with_name(stem.name + "_summary.json").read_text())
    manifest = _strict((out / "manifest.json").read_text())
    # Non-finite floats are written as the config format writes them.
    if subcommand in ("estimate", "sweep-mse", "sweep-ber"):
        assert manifest["config"]["snr_db"] == "inf"
    if subcommand == "sweep-mse":
        assert summary["values"] == ["inf"]
        assert {record["value"] for record in records} == {"inf"}
    if subcommand == "sweep-ber":
        assert summary["snr_db"] == ["inf"]
        assert {record["snr_db"] for record in summary["rows"]} == {"inf"}


@pytest.mark.parametrize("subcommand", sorted(_RUNS))
def test_csv_stdout_is_the_file_text(tmp_path, capsys, subcommand):
    _, stem, captured = _run(tmp_path, capsys, subcommand, "csv")
    text = stem.with_suffix(".csv").read_text()
    # estimate, linkbudget and theory-check print their summary lines after it.
    assert captured.out.startswith(text)
    if subcommand in _SUMMARY_LINES:
        assert _SUMMARY_LINES[subcommand] in captured.out[len(text):]
    assert "None" not in captured.out
