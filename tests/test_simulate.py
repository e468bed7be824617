"""Monte-Carlo harness: paired trials, sweeps, BER study, QAM mapping."""

import os
import signal
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from mmwave_scs import simulate
from mmwave_scs.channel import (
    MultipathChannel,
    SystemConfig,
    dft_pair,
    draw_multipath,
    grid_steering_vector,
)
from mmwave_scs.cli import main
from mmwave_scs.recovery import adaptive_omp, nmse_db, oracle_ls, ssamp, support_metrics
from mmwave_scs.simulate import (
    BER_COLUMNS,
    CSI_SOURCES,
    ESTIMATORS,
    MSE_COLUMNS,
    _los_beams,
    _noise_root,
    _omp_threshold,
    _ssamp_threshold,
    _synthesize,
    _trial_seeds,
    _zf_precoders,
    ber_experiment,
    qam16_hard_bits,
    qam16_modulate,
    run_trial,
    sweep,
)

from conftest import (
    DESK_EXACT,
    DESK_SNR20,
    effective_channels,
    exact_ber,
    per_bs_matrices,
    stack_angular,
)

# The 16-QAM mapping, argmin demodulator, the decision contract and the BER
# data stage written as one subcarrier and one CSI source at a time, kept as
# references for the comparison-based demodulator and the stacked data stage.
LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)


def modulate_reference(bits):
    b = np.asarray(bits, dtype=int).reshape(-1, 4)
    i_idx = 2 * b[:, 0] + (b[:, 0] ^ b[:, 1])
    q_idx = 2 * b[:, 2] + (b[:, 2] ^ b[:, 3])
    return LEVELS[i_idx] + 1j * LEVELS[q_idx]


def argmin_hard_bits(symbols):
    """The first level index minimising |x - level| per axis, Gray-mapped to bits."""
    s = np.asarray(symbols).ravel()
    i_idx = np.argmin(np.abs(s.real[:, None] - LEVELS[None, :]), axis=1)
    q_idx = np.argmin(np.abs(s.imag[:, None] - LEVELS[None, :]), axis=1)
    out = np.empty((s.size, 4), dtype=int)
    out[:, 0] = i_idx >> 1
    out[:, 1] = out[:, 0] ^ (i_idx & 1)
    out[:, 2] = q_idx >> 1
    out[:, 3] = out[:, 2] ^ (q_idx & 1)
    return out.ravel()


def contract_hard_bits(symbols):
    """The decision contract per float part: argmin's first nearest level
    below 2^50 in magnitude, and beyond that the outer level on the part's
    side (level 3 from 2^50 and at +inf; level 0 from -2^50, at -inf and for
    NaN), Gray-mapped to bits."""
    x = np.asarray(symbols, dtype=complex).ravel().view(np.float64)
    inside = np.abs(x) < 2.0**50
    level = np.where(x > 0.0, 3, 0)
    level[inside] = np.argmin(np.abs(x[inside, None] - LEVELS[None, :]), axis=1)
    b0 = level >> 1
    return np.stack([b0, b0 ^ (level & 1)], axis=1).ravel()


def _combiners(n_ant, bins):
    """The (n_ant, 2) unit-norm grid combiners of AoA bins `bins`."""
    return np.column_stack([grid_steering_vector(n_ant, b) for b in bins]) / np.sqrt(n_ant)


def _reference_realisation(cfg, seed, point, real):
    """One realisation's (data_seed, AoA bins, combiners, true link, per-source
    ZF) as ber_experiment forms them."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(point, real))
    chan_seed, ens_seed, noise_seed, data_seed = (int(s) for s in ss.generate_state(4))
    chan, aset, operators, received, sigma2 = _synthesize(
        cfg, chan_seed, ens_seed, noise_seed
    )
    est_ssamp = ssamp(received, operators, _ssamp_threshold(cfg))
    est_omp = adaptive_omp(received, operators, _omp_threshold(sigma2, received))
    columns, aoa = _los_beams(chan, cfg)
    every = np.arange(cfg.angular_dimension)
    sources = {"perfect": aset, "ssamp": est_ssamp, "adaptive_omp": est_omp}
    h_eff = {name: sources[name].at(every)[:, columns] for name in CSI_SOURCES}
    zf = {name: _zf_precoders(h_eff[name]) for name in CSI_SOURCES}
    return data_seed, aoa, _combiners(cfg.n_ant_user, aoa), h_eff["perfect"], zf


def _reference_rows(config, snr_values, n_symbols, seed, n_realizations, data_stage):
    """BER rows from data_stage(rng, n_vec, snr_lin, aoa, combiners, h_true, zf),
    which returns each CSI source's bit errors over the subcarriers, n_vec
    symbol pairs (8 bits) on each."""
    n_p = config.n_pilot_subcarriers
    n_vec = -(-n_symbols // (n_realizations * n_p * 2))
    rows = []
    for point, snr_db in enumerate(snr_values):
        cfg = replace(config, snr_db=snr_db)
        errors = {name: 0 for name in CSI_SOURCES}
        total_bits = total_symbols = 0
        for real in range(n_realizations):
            data_seed, aoa, combiners, h_true, zf = _reference_realisation(
                cfg, seed, point, real
            )
            rng = np.random.default_rng(data_seed)
            snr_lin = 10.0 ** (snr_db / 10.0)
            counts = data_stage(rng, n_vec, snr_lin, aoa, combiners, h_true, zf)
            for name in CSI_SOURCES:
                errors[name] += counts[name]
            total_bits += n_p * 8 * n_vec
            total_symbols += n_p * 2 * n_vec
        for name in CSI_SOURCES:
            rows.append((snr_db, name, errors[name] / total_bits, total_symbols))
    return tuple(rows)


def _exact_rows(config, snr_values, seed, n_realizations):
    """The expected BER of every row of ber_experiment's table, given each
    realisation's channel and CSI (conftest.exact_ber)."""
    expected = []
    for point, snr_db in enumerate(snr_values):
        cfg = replace(config, snr_db=snr_db)
        per_source = {name: 0.0 for name in CSI_SOURCES}
        for real in range(n_realizations):
            _, _, combiners, h_true, zf = _reference_realisation(cfg, seed, point, real)
            for name in CSI_SOURCES:
                precoders, betas = zf[name]
                per_source[name] += exact_ber(
                    h_true @ precoders, betas, zf["perfect"][1], combiners, 10.0 ** (snr_db / 10.0)
                )
        expected.extend(per_source[name] / n_realizations for name in CSI_SOURCES)
    return expected


def _two_stream_data(rng, n_vec, snr_lin, aoa, combiners, h_true, zf):
    """The specified data stage: byte-drawn bits, the two combined noise
    components drawn as sigma_d L w, and beta folded out of the link.  w is
    drawn by Box-Muller from one uniform fill after the bytes: radius
    uniforms first, then angle uniforms; float64 radius, float32 angle."""
    root = _noise_root(aoa)
    links = {name: h_true @ zf[name][0] for name in CSI_SOURCES}
    beta_true = zf["perfect"][1]
    errors = {name: 0 for name in CSI_SOURCES}
    for p in range(h_true.shape[0]):
        bits = np.unpackbits(rng.integers(0, 256, n_vec, dtype=np.uint8))
        sym = modulate_reference(bits).reshape(2, n_vec)
        sigma_d2 = beta_true[p] ** 2 / snr_lin
        u = rng.random((2, 2, n_vec))
        radius = np.sqrt(-2.0 * np.log(1.0 - u[0]))
        angle = (2.0 * np.pi * u[1]).astype(np.float32)
        w = radius * np.cos(angle) + 1j * (radius * np.sin(angle))
        eta = (np.sqrt(sigma_d2 / 2.0) * root) @ w
        for name in CSI_SOURCES:
            rx = links[name][p] @ sym + eta / zf[name][1][p]
            errors[name] += int(np.sum(argmin_hard_bits(rx.ravel()) != bits))
    return errors


def _per_antenna_data(rng, n_vec, snr_lin, aoa, combiners, h_true, zf):
    """The earlier data stage: integer bits, noise drawn on every user antenna
    and then combined, and beta applied at the transmitter and divided out."""
    beta_true = zf["perfect"][1]
    errors = {name: 0 for name in CSI_SOURCES}
    for p in range(h_true.shape[0]):
        bits = rng.integers(0, 2, size=2 * n_vec * 4)
        sym = modulate_reference(bits).reshape(2, n_vec)
        sigma_d2 = beta_true[p] ** 2 / snr_lin
        noise = np.sqrt(sigma_d2 / 2.0) * (
            rng.standard_normal((combiners.shape[0], n_vec))
            + 1j * rng.standard_normal((combiners.shape[0], n_vec))
        )
        eta = combiners.conj().T @ noise
        for name in CSI_SOURCES:
            precoder, beta = zf[name][0][p], zf[name][1][p]
            rx = h_true[p] @ (beta * (precoder @ sym)) + eta
            errors[name] += int(np.sum(argmin_hard_bits((rx / beta).ravel()) != bits))
    return errors


def ber_reference(config, snr_values, n_symbols, seed, n_realizations):
    """ber_experiment's rows from a loop over subcarriers and CSI sources."""
    return _reference_rows(config, snr_values, n_symbols, seed, n_realizations, _two_stream_data)


def ber_reference_per_antenna(config, snr_values, n_symbols, seed, n_realizations):
    """The same channels and CSI with the per-antenna noise and bit draws."""
    return _reference_rows(config, snr_values, n_symbols, seed, n_realizations, _per_antenna_data)


def _set_cores(monkeypatch, n):
    """Make _fan_out see n usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class _Clock:
    """Stands in for simulate's time module.  Its wall and CPU readings move
    only when a test task advances them, so _fan_out decides the same way
    whatever this host's speed and BLAS threads."""

    def __init__(self):
        self.wall = self.cpu = 0.0

    def perf_counter(self):
        return self.wall

    def process_time(self):
        return self.cpu


def _fake_clock(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(simulate, "time", clock)
    return clock


@pytest.fixture(autouse=True)
def _not_forked_yet(monkeypatch):
    """Every test starts as a process that has not forked in _fan_out (so
    may be fresh), and leaves simulate._forked as it found it."""
    monkeypatch.setattr(simulate, "_forked", False)


def _forked_before(monkeypatch):
    """Make _fan_out see a process that has forked before, so is not fresh."""
    monkeypatch.setattr(simulate, "_forked", True)


def _costed_task(wall_s, cpu_s):
    """_fan_out's task function for tests: advances the fake clock by the
    task's cost and returns the process it ran in."""
    simulate.time.wall += wall_s
    simulate.time.cpu += cpu_s
    return os.getpid()


class _TwoArgError(Exception):
    """Pickles, but does not unpickle: pickle calls it with one argument."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


def _acting_task(wall_s, cpu_s, action=None):
    """_costed_task, then `action`: "raise" a ValueError, raise one that
    does not pickle ("unpicklable") or one that does not unpickle
    ("unloadable"), end the process by os._exit(1) ("exit") or SIGKILL
    ("kill"), or "sleep" for a minute."""
    pid = _costed_task(wall_s, cpu_s)
    if action == "raise":
        raise ValueError(f"task failed in {pid}")
    if action == "unpicklable":
        exc = ValueError(f"task failed in {pid}")
        exc.hook = lambda: None
        raise exc
    if action == "unloadable":
        raise _TwoArgError("task failed", pid)
    if action == "exit":
        os._exit(1)
    if action == "kill":
        os.kill(pid, signal.SIGKILL)
    if action == "sleep":
        time.sleep(60.0)
    return pid


def _count_forks(monkeypatch):
    """Record the pid of every child that os.fork makes, in a list."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _refuse_forks(monkeypatch, what):
    """Fail the test if `what` forks."""

    def refuse():
        raise AssertionError(f"{what} forked")

    monkeypatch.setattr(os, "fork", refuse)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _strip_time(metrics):
    return {
        name: (m.nmse_db, m.exact_support_match, m.iterations)
        for name, m in metrics.items()
    }


class TestRunTrial:
    def test_deterministic(self):
        a = run_trial(DESK_SNR20, 5)
        b = run_trial(DESK_SNR20, 5)
        assert _strip_time(a.metrics) == _strip_time(b.metrics)
        assert a.true_sparsity == b.true_sparsity

    def test_covers_all_estimators(self):
        record = run_trial(DESK_SNR20, 6)
        assert set(record.metrics) == set(ESTIMATORS)
        assert record.metrics["oracle_ls"].exact_support_match
        assert record.metrics["oracle_ls"].precision == record.metrics["oracle_ls"].recall == 1.0
        assert 0 < record.true_sparsity <= DESK_SNR20.n_bs * DESK_SNR20.n_paths

    def test_no_masked_arrays(self):
        """A trial, a sweep and a BER call never import numpy.ma, which
        costs about 1 MB and 12-17 ms on first use.  Checked in a fresh
        interpreter, since this one may have imported it already."""
        desk = {f.name: getattr(DESK_SNR20, f.name) for f in fields(DESK_SNR20)}
        script = f"""
import sys
from mmwave_scs.channel import SystemConfig
from mmwave_scs.simulate import ber_experiment, run_trial, sweep
desk = SystemConfig(**{desk!r})
run_trial(SystemConfig(), 0)
run_trial(desk, 3000)
sweep(desk, "slots", [4, 6], 2, 0)
ber_experiment(desk, [20.0], 10**4, 0, n_realizations=1)
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""
        src = Path(simulate.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_wall_time_excludes_scoring(self, monkeypatch):
        # the clock stops when the estimator returns, so a 50 ms scoring
        # step shows in no estimator's wall time
        def slow_nmse_db(estimates, truth):
            time.sleep(0.05)
            return nmse_db(estimates, truth)

        monkeypatch.setattr(simulate, "nmse_db", slow_nmse_db)
        record = run_trial(DESK_SNR20, 6)
        assert all(m.wall_time_s < 0.05 for m in record.metrics.values())

    def test_noiseless_exact(self):
        record = run_trial(DESK_EXACT, 1001)
        assert record.metrics["ssamp"].nmse_db <= -60.0
        assert record.metrics["ssamp"].exact_support_match
        assert record.metrics["oracle_ls"].nmse_db <= (
            record.metrics["ssamp"].nmse_db + 1e-9
        )

    def test_noisy_mean_oracle_dominance(self):
        # per-draw inversions happen (the pursuit may drop a weak atom that
        # the oracle is forced to fit noise onto), but the oracle reference
        # is no worse in the linear-mean NMSE
        lin = {"ssamp": [], "oracle_ls": []}
        for t in range(100):
            record = run_trial(DESK_SNR20, 3000 + t)
            for name in lin:
                lin[name].append(10.0 ** (record.metrics[name].nmse_db / 10.0))
        assert np.mean(lin["oracle_ls"]) <= np.mean(lin["ssamp"])

    def test_nmse_on_supports_matches_full_arrays(self):
        # run_trial scores each estimate on the union of its support and the
        # true one; off it both are zero, so only the summation order differs
        # from nmse_db over the full arrays.  Noiseless trials hit the floor.
        # The record also carries each run's stages and stop reason and its
        # support's precision and recall against the truth.
        panel = [(DESK_SNR20, seed) for seed in range(3000, 3030)]
        panel += [(DESK_EXACT, seed) for seed in range(3)]
        floored = 0
        for cfg, seed in panel:
            record = run_trial(cfg, seed)
            _, aset, ops, received, sigma2 = _synthesize(cfg, *_trial_seeds(seed))
            full = {
                "ssamp": ssamp(received, ops, _ssamp_threshold(cfg)),
                "adaptive_omp": adaptive_omp(received, ops, _omp_threshold(sigma2, received)),
                "oracle_ls": oracle_ls(received, ops, aset.support),
            }
            for name, est in full.items():
                every = np.arange(cfg.angular_dimension)
                want = nmse_db(est.at(every), aset.at(every))
                m = record.metrics[name]
                assert abs(m.nmse_db - want) <= 1e-12, (seed, name)
                assert (m.stages, m.termination_reason) == (est.stages, est.termination_reason)
                assert (m.exact_support_match, m.precision, m.recall) == support_metrics(
                    est.support, aset.support
                )
                floored += want == -300.0
        assert floored

    def test_every_config_field_is_read(self):
        """Each SystemConfig field, set to another valid value, changes the
        seeded record: a field that nothing reads would leave it as it is.
        The one exception is n_subcarriers with P fixed, because the pilot
        frequencies are k B / P whatever N is."""
        others = {
            "n_ant_bs": 8, "n_chain_bs": 2, "n_ant_user": 8, "n_chain_user": 1,
            "n_bs": 3, "n_paths": 3, "n_pilot_subcarriers": 4, "n_slots": 8,
            "bandwidth_hz": 0.2e9, "max_delay_s": 20e-9, "rician_k_db": 3.0,
            "snr_db": 10.0,
        }
        assert {f.name for f in fields(SystemConfig)} == set(others) | {"n_subcarriers"}

        def record(config):
            trial = run_trial(config, 0)
            return trial.true_sparsity, _strip_time(trial.metrics)

        base = record(DESK_SNR20)
        for name, value in others.items():
            assert record(replace(DESK_SNR20, **{name: value})) != base, name
        assert record(replace(DESK_SNR20, n_subcarriers=16)) == base

    def test_trial_seeds(self):
        assert _trial_seeds(0) == _trial_seeds(0)
        assert _trial_seeds(0) != _trial_seeds(1)
        assert len(set(_trial_seeds(12345))) == 3


class TestSweep:
    def test_single_point_matches_trial(self):
        table = sweep(DESK_SNR20, "slots", [8], 1, 42)
        record = run_trial(replace(DESK_SNR20, n_slots=8), 42)
        assert table.columns == MSE_COLUMNS
        assert len(table.rows) == 3
        by_name = {row[2]: row for row in table.rows}
        assert set(by_name) == set(ESTIMATORS)
        for name, row in by_name.items():
            assert row[0] == "n_slots" and row[1] == 8
            assert row[3] == pytest.approx(record.metrics[name].nmse_db, rel=1e-12)
            assert row[4] == float(record.metrics[name].exact_support_match)
            assert row[5] == 1 and row[6] == 0.0

    def test_rerun_identical(self):
        a = sweep(DESK_SNR20, "snr", [10.0, 20.0], 3, 7)
        b = sweep(DESK_SNR20, "snr", [10.0, 20.0], 3, 7)
        assert a.rows == b.rows

    def test_parallel_matches_serial(self, monkeypatch):
        # Every trial reads one second on one core, so on two cores the 14
        # after the first two are shared with one child; on one they stay
        # here.  The wrapper is a closure, and children never pickle it.
        clock = _fake_clock(monkeypatch)
        trial = simulate.run_trial

        def costed(*args):
            clock.wall += 1.0
            clock.cpu += 1.0
            return trial(*args)

        monkeypatch.setattr(simulate, "run_trial", costed)
        forks = _count_forks(monkeypatch)
        _set_cores(monkeypatch, 1)
        serial = sweep(DESK_SNR20, "snr", [10.0, 20.0], 8, 11)
        assert forks == []
        _set_cores(monkeypatch, 2)
        parallel = sweep(DESK_SNR20, "snr", [10.0, 20.0], 8, 11)
        assert len(forks) == 1
        assert serial.rows == parallel.rows

    def test_validation(self):
        # only the spellings the CLI passes, "slots" and "snr"
        for variable in ("bandwidth", "G", "n_slots", "snr_db"):
            with pytest.raises(ValueError, match="sweep variable"):
                sweep(DESK_SNR20, variable, [1.0], 1, 0)
        with pytest.raises(ValueError):
            sweep(DESK_SNR20, "snr", [], 1, 0)
        with pytest.raises(ValueError):
            sweep(DESK_SNR20, "snr", [10.0], 0, 0)
        for values in ([8.5], [6, 12.5], [float("nan")]):
            with pytest.raises(ValueError, match="slot counts must be integers"):
                sweep(DESK_SNR20, "slots", values, 1, 0)

    def test_more_slots_help(self):
        # at the published-style scale ratio (S_a = 8, 2 S_a / N_chain = 8),
        # pushing G past the threshold keeps improving the joint estimate
        table = sweep(SystemConfig(), "slots", [9, 12, 16], 200, 900)
        nmse = {row[1]: row[3] for row in table.rows if row[2] == "ssamp"}
        assert nmse[12] < nmse[9] - 0.5
        assert nmse[16] < nmse[12] - 0.5


class TestFanOut:
    def test_cold_first_task_fans_out_after_the_second(self, monkeypatch):
        # A first task on two cores' worth of CPU (OpenBLAS starting up),
        # then warm ones on about one: the sums pass after the second task.
        # This process runs every other task left, the child the others.
        _fake_clock(monkeypatch)
        _forked_before(monkeypatch)
        forks = _count_forks(monkeypatch)
        _set_cores(monkeypatch, 2)
        tasks = [(1.0, 2.0)] + [(1.0, 0.9)] * 9
        ran_in = simulate._fan_out(_costed_task, tasks)
        assert len(forks) == 1
        assert ran_in[:2] == [os.getpid()] * 2
        assert ran_in[2::2] == [os.getpid()] * 4
        assert ran_in[3::2] == forks * 4
        _assert_no_children()

    @pytest.mark.parametrize(
        "tasks",
        [
            [(1.0, 2.0)] * 30,
            [(1.0, 1.5)] * 30,
            # One task alone at 1.42, as one trial of 120 read at the wide
            # geometry: the sums stay above the threshold.
            [(1.0, 2.0)] * 10 + [(1.0, 1.42)] + [(1.0, 2.0)] * 19,
            # Too cheap: splitting the rest of ten tasks saves at most four
            # of them, 4/5 of what a fork costs.
            [(simulate.FORK_S / 5,) * 2] * 10,
        ],
        ids=["threaded", "threshold", "one-odd-task", "cheap"],
    )
    def test_construct_no_pool(self, monkeypatch, tasks):
        _refuse_forks(monkeypatch, "threaded or cheap tasks")
        _fake_clock(monkeypatch)
        _forked_before(monkeypatch)
        _set_cores(monkeypatch, 2)
        assert simulate._fan_out(_costed_task, tasks) == [os.getpid()] * len(tasks)

    @pytest.mark.parametrize(
        "tasks",
        [
            # A cold first task on one core is no measure of the cheap
            # tasks after it ...
            [(0.5, 0.5)] + [(simulate.FORK_S / 5,) * 2] * 9,
            # ... nor of their threads, as in 3 of 40 fresh processes at the
            # wide geometry.
            [(1.0, 1.0)] + [(0.05, 0.1)] * 29,
        ],
        ids=["cheap", "threaded"],
    )
    def test_fresh_process_leaves_the_first_task_out(self, monkeypatch, tasks):
        _refuse_forks(monkeypatch, "a fresh process's cold first task")
        _fake_clock(monkeypatch)
        _set_cores(monkeypatch, 2)
        assert simulate._fan_out(_costed_task, tasks) == [os.getpid()] * len(tasks)

    def test_importing_asyncio_changes_no_decision(self, monkeypatch):
        # asyncio imports concurrent.futures, whose presence once marked a
        # process as having built a pool, so a fresh process counted its
        # cold first task and forked.  Only _fan_out's own fork counts now.
        import asyncio  # noqa: F401

        assert "concurrent.futures" in sys.modules
        _refuse_forks(monkeypatch, "a fresh process that imported asyncio")
        _fake_clock(monkeypatch)
        _set_cores(monkeypatch, 2)
        tasks = [(0.5, 0.5)] + [(simulate.FORK_S / 5,) * 2] * 9
        assert simulate._fan_out(_costed_task, tasks) == [os.getpid()] * len(tasks)

    def test_fresh_process_forks_one_task_later(self, monkeypatch):
        # Twelve equal tasks.  Splitting the eleven left after the first
        # saves five of them, and so does splitting the ten left after the
        # second, where a fresh process's sums start: 6/5 of a fork's cost.
        _fake_clock(monkeypatch)
        _set_cores(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        cost = 1.2 * simulate.FORK_S / 5
        tasks = [(cost, cost)] * 12
        ran_in = simulate._fan_out(_costed_task, tasks)
        assert len(forks) == 1 and simulate._forked
        assert ran_in[:2] == [os.getpid()] * 2 and ran_in[3::2] == forks * 5
        # Now this process has forked, the first task counts.
        ran_in = simulate._fan_out(_costed_task, tasks)
        assert len(forks) == 2
        assert ran_in[0] == os.getpid() and ran_in[2::2] == forks[1:] * 5
        # At 4/5 of a fork's cost, neither kind of process forks.
        tasks = [(0.8 * simulate.FORK_S / 5,) * 2] * 12
        assert simulate._fan_out(_costed_task, tasks) == [os.getpid()] * len(tasks)
        monkeypatch.setattr(simulate, "_forked", False)
        assert simulate._fan_out(_costed_task, tasks) == [os.getpid()] * len(tasks)
        assert len(forks) == 2

    def test_local_closure_fans_out(self, monkeypatch):
        # Children are forked, so the task function is never pickled: a
        # local closure is shared out and returns what it does in process.
        _fake_clock(monkeypatch)
        _set_cores(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        scale = 3.0

        def local_task(wall_s, cpu_s):
            return _costed_task(wall_s, cpu_s), scale * wall_s

        tasks = [(1.0 + k, 0.9 + k) for k in range(10)]
        ran = simulate._fan_out(local_task, tasks)
        assert len(forks) == 1
        assert [value for _, value in ran] == [scale * wall_s for wall_s, _ in tasks]
        assert [pid for pid, _ in ran][3::2] == forks * 4

    @pytest.mark.parametrize(
        "where, action, error, message",
        [
            # The first two tasks run here before the fork; of those left,
            # this process runs tasks 2 and 4, the child 3 and 5.
            (2, "raise", ValueError, "task failed in"),
            (3, "raise", ValueError, "task failed in"),
            (3, "exit", RuntimeError, "exited with status 1 and no results"),
            (3, "kill", RuntimeError, "was killed by SIGKILL"),
            (3, "unpicklable", RuntimeError, r"(?s)Traceback.*_acting_task.*task failed in"),
            (3, "unloadable", RuntimeError, r"(?s)Traceback.*_acting_task.*_TwoArgError"),
        ],
        ids=["own-share-raises", "child-raises", "child-exits", "child-killed",
             "unpicklable-exception", "unloadable-exception"],
    )
    def test_failure_leaves_no_child(self, monkeypatch, where, action, error, message):
        # When this process's own share raises, the child still sleeping
        # in task 3 is killed; otherwise the child's failure reaches here.
        # Either way no child outlives the call.
        _fake_clock(monkeypatch)
        _set_cores(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        tasks = [(1.0, 0.9)] * 6
        tasks[where] = (1.0, 0.9, action)
        if where == 2:
            tasks[3] = (1.0, 0.9, "sleep")
        with pytest.raises(error, match=message):
            simulate._fan_out(_acting_task, tasks)
        assert len(forks) == 1
        _assert_no_children()


class TestBer:
    def test_noiseless_perfect_and_joint_exact(self):
        cfg = DESK_EXACT  # snr_db = inf
        table = ber_experiment(cfg, [float("inf")], 10**4, 11, n_realizations=1)
        assert table.columns == BER_COLUMNS
        by_source = {row[1]: row for row in table.rows}
        assert by_source["perfect"][2] == 0.0
        assert by_source["ssamp"][2] == 0.0
        assert by_source["adaptive_omp"][2] >= 0.0
        for row in table.rows:
            assert row[3] >= 10**4

    def test_perfect_csi_improves_with_snr(self):
        cfg = replace(DESK_EXACT, snr_db=0.0)
        table = ber_experiment(cfg, [0.0, 15.0], 10**4, 12, n_realizations=2)
        perfect = {row[0]: row[2] for row in table.rows if row[1] == "perfect"}
        assert perfect[15.0] < perfect[0.0]
        assert 0.0 < perfect[0.0] < 0.5

    def test_rerun_identical(self):
        cfg = replace(DESK_EXACT, snr_db=10.0)
        a = ber_experiment(cfg, [10.0], 10**4, 21, n_realizations=1)
        b = ber_experiment(cfg, [10.0], 10**4, 21, n_realizations=1)
        assert a.rows == b.rows

    def test_channel_algebra(self):
        # The index read of _los_beams against the antenna-domain route
        # (conftest) with serving BSs [2, 0] of three, on random angular
        # vectors, with the streams' AoA bins apart and shared; then the
        # zero-forcing of the stack.
        cfg = replace(DESK_EXACT, n_bs=3)
        dft = dft_pair(cfg)
        rng = np.random.default_rng(5)
        shape = (2, cfg.n_bs, cfg.n_ant_user, cfg.n_ant_bs)
        ang = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vectors = stack_angular(ang)
        bs_indices, aod = [2, 0], (11, 5)
        mats = per_bs_matrices(vectors, cfg, dft, bs_indices)
        for p in range(2):
            for k, m in enumerate(bs_indices):
                h_freq = dft.rx @ ang[p, m] @ dft.tx.conj().T
                np.testing.assert_allclose(mats[p, k], h_freq, rtol=0, atol=1e-12)
        precoders = np.column_stack(
            [grid_steering_vector(cfg.n_ant_bs, b) for b in aod]
        ) / np.sqrt(cfg.n_ant_bs)
        for aoa in [(2, 2), (1, 3)]:
            # (LOS gain, AoA bin, AoD bin) per BS: BS 2 is strongest, then BS 0.
            los = {2: (3.0, aoa[0], aod[0]), 0: (2.0, aoa[1], aod[1]), 1: (1.0, 0, 7)}
            gains, rx, tx = np.array([los[m] for m in range(cfg.n_bs)]).T
            chan = MultipathChannel(gains[:, None] + 0j, np.zeros((cfg.n_bs, 1)),
                                    rx.astype(int)[:, None], tx.astype(int)[:, None])
            columns, bins = _los_beams(chan, cfg)
            assert tuple(bins) == aoa
            h_eff = vectors[:, columns]
            np.testing.assert_allclose(
                h_eff,
                effective_channels(mats, precoders, _combiners(cfg.n_ant_user, bins)),
                rtol=0,
                atol=1e-12,
            )
            for a in range(2):
                for k, m in enumerate(bs_indices):
                    assert np.array_equal(h_eff[:, a, k], ang[:, m, aoa[a], aod[k]])

        # An estimate that misses stream 1's serving path reads exact zeros
        # in that stream's column, and gets a finite rank-1 pseudo-inverse.
        missed = vectors.copy()
        missed[:, columns[:, 1]] = 0.0
        h_missed = missed[:, columns]
        assert not h_missed[:, :, 1].any()
        np.testing.assert_array_equal(h_missed[:, :, 0], h_eff[:, :, 0])
        zf, betas = _zf_precoders(h_missed)
        assert np.isfinite(zf).all() and np.isfinite(betas).all()
        for p in range(2):
            assert np.linalg.matrix_rank(zf[p]) == 1
            np.testing.assert_allclose(
                h_missed[p] @ zf[p] @ h_missed[p], h_missed[p], rtol=0, atol=1e-12
            )

        h_eff[1] = 0.0  # an all-zero subcarrier
        zf, betas = _zf_precoders(h_eff)
        np.testing.assert_allclose(h_eff[0] @ zf[0], np.eye(2), rtol=0, atol=1e-12)
        assert betas[0] == pytest.approx(np.sqrt(2.0) / np.linalg.norm(zf[0]))
        assert not zf[1].any() and betas[1] == 1.0

    def test_data_stage_matches_reference(self, monkeypatch):
        # Calls of the patched _gray_pairs in a forked child would not come
        # back here, so one core keeps every realisation in this process, and
        # the count shows that every subcarrier pass was recorded.
        _set_cores(monkeypatch, 1)
        largest = []
        decide = simulate._gray_pairs

        def recorded(x, *args):
            largest.append(np.abs(x).max())
            return decide(x, *args)

        monkeypatch.setattr(simulate, "_gray_pairs", recorded)
        snrs = [10.0, 20.0, 30.0]
        passes = 0
        for config, n_symbols, seed, n_realizations in [
            *((DESK_SNR20, 10**4, seed, 2) for seed in range(4)),
            (SystemConfig(), 10**4, 0, 1),
            # An odd vector count (209 per subcarrier) over three
            # realisations.
            (DESK_SNR20, 10_001, 4, 3),
        ]:
            expected = ber_reference(config, snrs, n_symbols, seed, n_realizations)
            actual = ber_experiment(config, snrs, n_symbols, seed, n_realizations).rows
            assert actual == expected
            passes += len(snrs) * n_realizations * config.n_pilot_subcarriers
        # CSI that misses a serving path is exactly zero there, so ZF never
        # amplifies rounding residue: every decided part stays below 2^50,
        # where the comparisons and the argmin reference agree.
        assert len(largest) == passes
        assert np.max(largest) < 2.0**50

    def test_tables_match_exact_expectation(self):
        # Every row against its expectation over noise and payload given the
        # realisations' channels and CSI, within 5 binomial standard errors
        # of the row's bits: a bound fixed before these seeds were run.
        snrs = [10.0, 20.0, 30.0]
        for config, seed in [(DESK_SNR20, 5101), (DESK_SNR20, 5102), (SystemConfig(), 5103)]:
            rows = ber_experiment(config, snrs, 10**5, seed, n_realizations=2).rows
            for (snr_db, name, ber, symbols), p in zip(rows, _exact_rows(config, snrs, seed, 2)):
                bound = 5.0 * np.sqrt(p * (1.0 - p) / (4 * symbols))
                assert abs(ber - p) <= bound, (seed, snr_db, name, ber, p)
        # Seed 1's realisation 2 at 30 dB (point 2 of 10/20/30 dB) serves
        # both streams from AoA bin 7.  One combiner gives the 2x2 channel
        # equal rows, so zero-forcing delivers (s_0 + s_1) / 2 to each
        # stream, and 10 of every 32 bits err on average: 5/16, whatever
        # the CSI source.
        cfg = replace(SystemConfig(), snr_db=30.0)
        _, aoa, combiners, h_true, zf = _reference_realisation(cfg, 1, 2, 2)
        assert list(aoa) == [7, 7]
        for precoders, betas in zf.values():
            ber = exact_ber(h_true @ precoders, betas, zf["perfect"][1], combiners, 1e3)
            assert ber == pytest.approx(5 / 16, abs=1e-6)

    def test_fan_out_matches_in_process(self, monkeypatch):
        # 4 realisations of about 17 ms at each of 3 points: the 10 after
        # the first two are shared with a child, and the rows are those of
        # the same call on one core, which stays in this process.
        forks = _count_forks(monkeypatch)
        args = (SystemConfig(), [10.0, 20.0, 30.0], 10**6, 5, 4)
        _set_cores(monkeypatch, 2)
        fanned = ber_experiment(*args).rows
        assert len(forks) == 1
        _set_cores(monkeypatch, 1)
        assert ber_experiment(*args).rows == fanned
        assert len(forks) == 1

    def test_desk_call_constructs_no_pool(self, monkeypatch):
        # Splitting the realisations left after any of the four saves at
        # most one of them, and a desk realisation costs less than a fork.
        args = (DESK_SNR20, [10.0, 20.0], 10**4, 3, 2)
        n_vec = -(-10**4 // (2 * DESK_SNR20.n_pilot_subcarriers * 2))
        costs = []
        for real in range(2):
            start = time.process_time()
            simulate._ber_errors(replace(DESK_SNR20, snr_db=10.0), 3, 0, real, n_vec)
            costs.append(time.process_time() - start)
        assert min(costs) < simulate.FORK_S
        _refuse_forks(monkeypatch, "a desk-scale call")
        _forked_before(monkeypatch)
        _set_cores(monkeypatch, 2)
        table = ber_experiment(*args)
        assert len(table.rows) == 2 * len(CSI_SOURCES)

    def test_worker_exception_reaches_caller(self, monkeypatch, tmp_path, capsys):
        # Forked children inherit a _synthesize that fails at the last SNR
        # point, whose realisations and trials all run after the fork, here
        # and in the child alike.
        synthesize = simulate._synthesize

        def failing(config, *seeds):
            if config.snr_db == 30.0:
                raise np.linalg.LinAlgError("synthesis failed at 30 dB")
            return synthesize(config, *seeds)

        monkeypatch.setattr(simulate, "_synthesize", failing)
        forks = _count_forks(monkeypatch)
        _set_cores(monkeypatch, 2)
        with pytest.raises(np.linalg.LinAlgError, match="synthesis failed at 30 dB"):
            ber_experiment(SystemConfig(), [10.0, 20.0, 30.0], 10**6, 0, n_realizations=2)
        assert len(forks) == 1
        for calls, argv in enumerate(
            (
                ["sweep-ber", "--snrs", "10,20,30", "--symbols", "1000000", "--realizations", "2"],
                # Trials of about 12 ms: those at 30 dB are the last ten of 30.
                ["sweep-mse", "--variable", "snr", "--values", "10,20,30", "--trials", "10"],
            ),
            2,
        ):
            code = main([*argv, "--out", str(tmp_path / argv[0])])
            assert code == 3 and len(forks) == calls
            assert "numerical error: synthesis failed at 30 dB" in capsys.readouterr().err

    def test_complex_by_real_division_is_reciprocal_multiplication(self):
        # The data stage adds eta * (1 / beta) part by part where the
        # references add eta / beta; BER tables stay bit-identical only while
        # numpy divides complex by real that way.  Its loop forms
        # (re + im * 0) * (1 / beta) and (im - re * 0) * (1 / beta), so the
        # two agree bit for bit on every nonzero finite part; a zero part may
        # change sign, which no comparison with a flip point can see.
        rng = np.random.default_rng(7)
        parts = np.concatenate([
            10.0 ** rng.uniform(-300, 300, 4000) * rng.choice([-1.0, 1.0], 4000),
            rng.standard_normal(4000),
            [0.0, -0.0, -0.0, 2.5, -2.5, -0.0, -0.0, -2.5, 0.0, 0.0],  # signed zeros
        ])
        z = parts[: parts.size // 2 * 2].view(complex)
        betas = [1.0, *10.0 ** np.linspace(-12, 12, 49)]
        for seed in range(4):
            zf = _reference_realisation(DESK_SNR20, seed, 1, 0)[-1]
            betas.extend(b for name in CSI_SOURCES for b in zf[name][1])
        for beta in betas:
            with np.errstate(over="ignore", under="ignore"):
                divided = (z / np.array([beta])).view(np.float64)
                scaled = z.view(np.float64) * (1.0 / beta)
            nonzero = scaled != 0.0
            np.testing.assert_array_equal(
                divided[nonzero].view(np.uint64), scaled[nonzero].view(np.uint64)
            )
            assert not divided[~nonzero].any()

    def test_matches_per_antenna_draw_in_distribution(self):
        # Drawing the two combined noise components instead of the per-antenna
        # noise changes the draws, not their distribution: on the same channels
        # and CSI the BERs differ by sampling noise, within 3 binomial standard
        # errors of the difference of two independent BER estimates.
        snrs = [10.0, 20.0, 30.0]
        for config, seed, n_realizations in [
            *((DESK_SNR20, seed, 4) for seed in range(4)),
            *((SystemConfig(), seed, 2) for seed in range(2)),
        ]:
            old = ber_reference_per_antenna(config, snrs, 10**5, seed, n_realizations)
            new = ber_experiment(config, snrs, 10**5, seed, n_realizations).rows
            for (snr, source, ber_old, symbols), row in zip(old, new):
                assert row[:2] == (snr, source) and row[3] == symbols
                if source == "adaptive_omp":
                    continue
                bits = 4 * symbols
                sigma = np.sqrt((ber_old * (1 - ber_old) + row[2] * (1 - row[2])) / bits)
                assert abs(row[2] - ber_old) <= 3.0 * sigma, (config, seed, snr, source)

    def test_validation(self):
        single_bs = replace(DESK_EXACT, n_bs=1)
        with pytest.raises(ValueError, match="n_bs"):
            ber_experiment(single_bs, [10.0], 10**4, 0)
        with pytest.raises(ValueError, match="10\\^4"):
            ber_experiment(DESK_EXACT, [10.0], 9_999, 0)
        with pytest.raises(ValueError):
            ber_experiment(DESK_EXACT, [], 10**4, 0)
        with pytest.raises(ValueError):
            ber_experiment(DESK_EXACT, [10.0], 10**4, 0, n_realizations=0)


def _ber_long_aoa(seed, real):
    """The serving AoA bins of one 30 dB realisation of
    ber_experiment(SystemConfig(), [10, 20, 30], ...), the benchmark's
    ber-long call."""
    cfg = SystemConfig(snr_db=30.0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(2, real))
    chan = draw_multipath(cfg, int(ss.generate_state(4)[0]))
    return _los_beams(chan, cfg)[1]


class TestNoiseRoot:
    @pytest.mark.parametrize("bins", [(a, b) for a in range(8) for b in range(8)])
    def test_square_root_of_combiner_gram(self, bins):
        comb = _combiners(8, bins)
        root = _noise_root(np.array(bins))
        gram = comb.conj().T @ comb
        np.testing.assert_allclose(root @ root.conj().T, gram, rtol=0, atol=1e-12)
        assert np.linalg.matrix_rank(gram) == (1 if bins[0] == bins[1] else 2)

    def test_shared_bin_gives_equal_components(self):
        root = _noise_root(np.array([3, 3]))
        rng = np.random.default_rng(0)
        eta = root @ (rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50)))
        assert np.array_equal(eta[0], eta[1])

    @pytest.mark.parametrize("seed, real, aoa_bin", [(1, 2, 7), (2, 0, 6)])
    def test_ber_long_realisations_sharing_an_aoa_bin(self, seed, real, aoa_bin):
        # Both serving LOS paths of these 30 dB ber-long realisations arrive
        # in one AoA bin, so C^H C is rank 1 and the two streams see the same
        # noise.
        aoa = _ber_long_aoa(seed, real)
        assert aoa.tolist() == [aoa_bin, aoa_bin]
        comb = _combiners(SystemConfig().n_ant_user, aoa)
        root = _noise_root(aoa)
        np.testing.assert_allclose(root @ root.conj().T, comb.conj().T @ comb, rtol=0, atol=1e-12)
        eta = root @ (np.ones((2, 3)) + 1j * np.arange(6).reshape(2, 3))
        assert np.array_equal(eta[0], eta[1])


def _noise(rng, n_vec):
    """_complex_noise's (2, n_vec) draw, with fresh buffers."""
    w = np.empty((2, n_vec), dtype=complex)
    uniforms = np.empty((2, 2, n_vec))
    trig = np.empty((2, 2, n_vec), dtype=np.float32)
    return simulate._complex_noise(rng, w, uniforms, trig)


class _FixedUniforms:
    """Stands in for a Generator: random(out=) fills the buffer with value."""

    def __init__(self, value):
        self.value = value

    def random(self, out):
        out.fill(self.value)
        return out


class TestComplexNoise:
    # 500,000 complex samples, 10^6 float parts, at one seed; every bound was
    # fixed before the seed was first run.
    N_VEC = 250_000

    @pytest.fixture(scope="class")
    def w(self):
        return _noise(np.random.default_rng(2027), self.N_VEC)

    def test_parts_are_standard_normal(self, w):
        parts = w.view(np.float64).ravel()
        n = parts.size
        assert n >= 10**6
        assert stats.kstest(parts, "norm").pvalue > 1e-3
        assert abs(parts.mean()) <= 5.0 / np.sqrt(n)
        # The sample variance of n normals has standard error sqrt(2 / n).
        assert abs(parts.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)

    def test_real_and_imaginary_parts_uncorrelated(self, w):
        re, im = w.real.ravel(), w.imag.ravel()
        assert abs(np.corrcoef(re, im)[0, 1]) <= 5.0 / np.sqrt(re.size)

    def test_tail_beyond_four_sigma(self, w):
        parts = w.view(np.float64).ravel()
        p = 2.0 * stats.norm.sf(4.0)
        expected = p * parts.size
        beyond = np.count_nonzero(np.abs(parts) > 4.0)
        assert abs(beyond - expected) <= 5.0 * np.sqrt(expected * (1.0 - p))

    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)], ids=["zero", "below-one"])
    def test_finite_at_the_uniform_ends(self, u):
        w = _noise(_FixedUniforms(u), 3)
        assert np.isfinite(w.view(np.float64)).all()
        # |w| is the radius: 0 at the bottom, sqrt(-2 ln(2^-53)) = 8.57 at
        # the top.
        radius = np.sqrt(-2.0 * np.log1p(-u))
        np.testing.assert_allclose(np.abs(w), radius, rtol=1e-6)


class TestQam:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        # 4 (mod 8) bits leave a half byte, which the byte table pads.
        for n_bits in (4000, 4, 12, 4004):
            bits = rng.integers(0, 2, size=n_bits)
            symbols = qam16_modulate(bits)
            np.testing.assert_array_equal(symbols, modulate_reference(bits))
            np.testing.assert_array_equal(qam16_hard_bits(symbols), bits)
        assert qam16_modulate([]).size == 0 and qam16_hard_bits([]).size == 0
        # The byte tables: byte b's two symbols and its four per-axis Gray
        # pairs 2 b0 + b1, in the order of the symbols' float parts.
        bits = np.unpackbits(np.arange(256, dtype=np.uint8))
        symbols = simulate._BYTE_SYMBOLS.ravel()
        np.testing.assert_array_equal(symbols, qam16_modulate(bits))
        np.testing.assert_array_equal(symbols, modulate_reference(bits))
        pairs = (2 * bits[0::2] + bits[1::2]).astype(np.uint8)
        np.testing.assert_array_equal(simulate._BYTE_PAIRS.ravel(), pairs)

    def test_uint8_bits_match_int_bits(self):
        bits = np.unpackbits(np.random.default_rng(1).integers(0, 256, 1000, dtype=np.uint8))
        symbols = qam16_modulate(bits)
        np.testing.assert_array_equal(symbols, qam16_modulate(bits.astype(int)))
        np.testing.assert_array_equal(symbols, qam16_modulate(bits.tolist()))
        np.testing.assert_array_equal(symbols, modulate_reference(bits.astype(int)))
        with pytest.raises(ValueError, match=r"got values in \[0, 2\]"):
            qam16_modulate(np.array([0, 2, 1, 0], dtype=np.uint8))

    @pytest.mark.parametrize(
        "bits, message",
        [
            ([0, 1, -1, 0], r"bits must be 0 or 1, got values in \[-1, 1\]"),
            ([0, 2, 1, 0, 1, 1, 0, 0], r"bits must be 0 or 1, got values in \[0, 2\]"),
            ([0, 1, 1, 0, 1], "bit count must be a multiple of 4, got 5"),
        ],
        ids=["minus-one", "two", "length-5"],
    )
    def test_modulate_rejects_bad_bits(self, bits, message):
        with pytest.raises(ValueError, match=message):
            qam16_modulate(bits)

    def test_matches_argmin_reference(self):
        # argmin is the reference below 2^50 in magnitude; beyond, each part
        # decides by its side (contract_hard_bits).
        drawn_rng = np.random.default_rng(99)
        out_of_range = [complex(np.inf, -np.inf), complex(np.nan, 1e17), complex(-1e17, 0.3)]

        def check(symbols):
            expected = contract_hard_bits(symbols)
            decided = qam16_hard_bits(symbols)
            np.testing.assert_array_equal(decided, expected)
            # The data stage's pair decision and popcount error count.
            x = symbols.view(np.float64)
            pairs = simulate._gray_pairs(
                x, np.empty(x.size, np.uint8), np.empty((2, x.size), bool)
            )
            np.testing.assert_array_equal(pairs, 2 * expected[0::2] + expected[1::2])
            drawn = drawn_rng.integers(0, 4, x.size, dtype=np.uint8)
            drawn_bits = np.stack([drawn >> 1, drawn & 1], axis=1).ravel()
            errors = int(np.bitwise_count(pairs ^ drawn).sum())
            assert errors == np.count_nonzero(expected != drawn_bits)
            # An appended +-inf, NaN or 1e17 part leaves every other
            # decision unchanged.
            for extra in out_of_range:
                appended = qam16_hard_bits(np.append(symbols, extra))
                np.testing.assert_array_equal(appended[: decided.size], decided)
                np.testing.assert_array_equal(
                    appended[decided.size :], contract_hard_bits([extra])
                )

        # Random draws at every decade from 1e-300 to 1e300, and densely
        # from 1e14 to 1e20, where rounding starts to make distances equal
        # and the contract turns from argmin to the side at 2^50.
        rng = np.random.default_rng(2024)
        for scale in np.concatenate([10.0 ** np.arange(-300, 301), np.logspace(14, 20, 241)]):
            parts = scale * rng.standard_normal((2, 500))
            check(parts[0] + 1j * parts[1])

        # A few hundred ulps around every decision boundary (the midpoints
        # and the flip points the comparisons use), the levels and the
        # limit of the comparison range, one value per call.
        def ulp_walk(center, steps=200):
            up, down = [center], [center]
            for _ in range(steps):
                up.append(np.nextafter(up[-1], np.inf))
                down.append(np.nextafter(down[-1], -np.inf))
            return down[::-1] + up[1:]

        centers = [*(LEVELS[:-1] + LEVELS[1:]) / 2, *simulate._FLIP_POINTS, *LEVELS, 0.0,
                   2.0**-55, 2.0**50, -(2.0**50), 2.0**51, 2.0**52, 3e15]
        for center in centers:
            walk = np.array(ulp_walk(center))
            check(walk + 1j * walk[::-1])
            for value in walk[::20]:
                check(np.array([complex(value, -value)]))

        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 0.3, -1.2, 1e17]
        mixed = np.array([complex(a, b) for a in special for b in special])
        check(mixed)
        for value in mixed:
            check(np.array([value]))

    def test_unit_energy(self):
        all_bits = np.array(
            [[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)]
        ).ravel()
        symbols = qam16_modulate(all_bits)
        assert symbols.size == 16
        assert len(set(np.round(symbols, 9).tolist())) == 16
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0)

    def test_gray_neighbours_differ_by_one_bit(self):
        # adjacent levels on either axis decode to bit pairs at Hamming
        # distance 1, the whole point of the Gray mapping
        axis_bits = []
        for level in np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0):
            decoded = qam16_hard_bits(np.array([level + 1j * level]))
            axis_bits.append((decoded[0], decoded[1]))
        for a, b in zip(axis_bits, axis_bits[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1
