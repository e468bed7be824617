"""Monte-Carlo harness: estimation trials, parameter sweeps, and a BER study.

A trial draws one channel and one pilot ensemble, synthesizes noisy received
pilots at the configured SNR, and runs the three estimators on identical
data.  Sweeps repeat trials over a grid of slot counts or SNRs with paired
seeds so curves are directly comparable.  The BER experiment reuses the
estimation pipeline to feed a simplified two-stream downlink and measures how
CSI quality propagates into hard-decision errors.
"""

import os
import time
from dataclasses import dataclass, replace

import numpy as np

# dft_pair, grid_steering_vector and inverse_angular_transform are unused
# here; perfbench's tracer wraps them by name.
from .channel import (
    SystemConfig,
    angular_channel_set,
    dft_pair,
    draw_multipath,
    grid_steering_vector,
    inverse_angular_transform,
)
from .pilots import (
    calibrate_noise_variance,
    draw_ensemble,
    measurement_operators,
    pilot_subcarrier_indices,
    synthesize_received,
)
from .recovery import (
    _index_union,
    adaptive_omp,
    nmse_db,
    oracle_ls,
    p_th_for_snr,
    ssamp,
    support_metrics,
)

ESTIMATORS = ("ssamp", "adaptive_omp", "oracle_ls")
CSI_SOURCES = ("perfect", "ssamp", "adaptive_omp")

MSE_COLUMNS = ("sweep_var", "value", "estimator", "nmse_db", "support_rate", "trials", "stderr")
BER_COLUMNS = ("snr_db", "csi_source", "ber", "symbols")

# Adaptive-OMP stop rule: residual energy down to sigma^2 * rows * (1 + margin).
OMP_THRESHOLD_MARGIN = 0.1

_SWEEP_FIELDS = {"slots": "n_slots", "snr": "snr_db"}

# _fan_out forks a child process for each usable core past the first, to
# share the tasks left over, only when that saves more than the forks cost.
# Each is charged this.  Measured 2026-10-20 on a 2-vCPU Xeon (Python
# 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31, thread variables unset), in 36
# fresh processes per size, each after 2 desk BER realisations in process:
# sharing the next 2 or 10 with one child took 4-21 ms (median 8 ms) or
# 0-53 ms (median 9 ms, upper quartile 20 ms) more than half their time in
# process.  Fork, pipe and waitpid take 3.5-6 ms there; the rest is the
# 700-800 copy-on-write faults each process takes in its first task after
# the fork, and sittings in which the two run at half speed each.  At a
# 20 ms charge, fresh desk-scale `sweep-ber --symbols 10000` runs (18-22 ms
# to save) forked in 5 of 10 and took 0.078 s (median) against 0.071 s for
# the same runs kept in one process, so the charge is twice that upper
# quartile ...
FORK_S = 0.04
# ... and only when the tasks so far ran on about one core: at wide
# geometries OpenBLAS threads the correlations (CPU over wall time 1.9-2.0),
# and child processes there would contend for the cores it already uses.
MULTICORE_CPU_PER_WALL = 1.5
# Set once this process has forked in _fan_out; until then it may be fresh.
_forked = False


@dataclass(frozen=True)
class EstimatorMetrics:
    """One estimator's score in one trial, and how its run went: stages and
    termination_reason as the estimator reports them, precision and recall
    of its support against the true one (recovery.support_metrics)."""

    nmse_db: float
    exact_support_match: bool
    iterations: int
    wall_time_s: float
    stages: int
    termination_reason: str | None
    precision: float
    recall: float


@dataclass(frozen=True)
class TrialRecord:
    """One end-to-end trial: the true joint support size and the metrics of
    each estimator, keyed by its ESTIMATORS name."""

    true_sparsity: int
    metrics: dict


@dataclass(frozen=True)
class ResultTable:
    """Column-named rows; the CSV schemas written by the CLI live here."""

    columns: tuple
    rows: tuple

    def to_csv(self, path):
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            writer.writerows(self.rows)

    def to_records(self):
        return [dict(zip(self.columns, row)) for row in self.rows]


def _trial_seeds(seed: int):
    state = np.random.SeedSequence(seed).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def _synthesize(config: SystemConfig, chan_seed: int, ens_seed: int, noise_seed: int):
    """Channel + pilots + noisy measurements for one realisation."""
    chan = draw_multipath(config, chan_seed)
    aset = angular_channel_set(chan, config, pilot_subcarrier_indices(config))
    ensemble = draw_ensemble(config, ens_seed)
    operators = measurement_operators(ensemble)
    # The clean pilots Phi_p h_p, formed once from the support's columns.
    cols = operators.columns(aset.support)
    clean = (cols @ aset.coefficients[..., None])[..., 0]
    sigma2 = calibrate_noise_variance(clean, config.snr_db)
    received = synthesize_received(clean, sigma2, noise_seed)
    return chan, aset, operators, received, sigma2


def _ssamp_threshold(config: SystemConfig) -> float:
    """ssamp's p_th for synthesized channels: the table value times N_US * N_BS.

    The p_th schedule is calibrated for unit-mean-power path gains, and every
    on-grid angular coefficient carries the array gain sqrt(N_US * N_BS), so
    the threshold on squared coefficients carries its square.
    """
    return p_th_for_snr(config.snr_db) * config.n_ant_user * config.n_ant_bs


def _omp_threshold(sigma2: float, received) -> float:
    rows = received.shape[1]
    threshold = sigma2 * rows * (1.0 + OMP_THRESHOLD_MARGIN)
    # Noiseless runs: keep the stop rule reachable under float rounding.
    floor = 1e-24 * float(np.mean(np.abs(received) ** 2)) * rows
    return max(threshold, floor, 1e-300)


def run_trial(config: SystemConfig, seed: int) -> TrialRecord:
    """One paired comparison of ssamp, adaptive OMP and oracle LS.

    All three see the same channel, pilots and noise.  Sub-seeds for the
    channel, the ensemble and the noise are derived deterministically from
    `seed`, so a record is reproducible bit for bit.  snr_db = inf in the
    config runs the trial noiseless.
    """
    chan_seed, ens_seed, noise_seed = _trial_seeds(seed)
    chan, aset, operators, received, sigma2 = _synthesize(
        config, chan_seed, ens_seed, noise_seed
    )
    estimators = {
        "ssamp": lambda: ssamp(received, operators, _ssamp_threshold(config)),
        "adaptive_omp": lambda: adaptive_omp(
            received, operators, _omp_threshold(sigma2, received)
        ),
        "oracle_ls": lambda: oracle_ls(received, operators, aset.support),
    }
    metrics = {}
    for name, estimate in estimators.items():
        start = time.perf_counter()
        est = estimate()
        wall_time_s = time.perf_counter() - start
        # Every estimate is zero off its support and the truth off its own,
        # so the error lives on their union.
        scored = _index_union(est.support, aset.support)
        exact, precision, recall = support_metrics(est.support, aset.support)
        metrics[name] = EstimatorMetrics(
            nmse_db=nmse_db(est.at(scored), aset.at(scored)),
            exact_support_match=exact,
            iterations=est.iterations,
            wall_time_s=wall_time_s,
            stages=est.stages,
            termination_reason=est.termination_reason,
            precision=precision,
            recall=recall,
        )
    return TrialRecord(true_sparsity=aset.sparsity, metrics=metrics)


def _aggregate(records, sweep_var, value) -> list:
    rows = []
    n_trials = len(records)
    for name in ESTIMATORS:
        lin = np.array([10.0 ** (rec.metrics[name].nmse_db / 10.0) for rec in records])
        matches = np.array(
            [rec.metrics[name].exact_support_match for rec in records], dtype=float
        )
        # nmse_db floors at -300 dB, so mean_lin is at least 1e-30.
        mean_lin = float(lin.mean())
        mean_db = 10.0 * np.log10(mean_lin)
        if n_trials > 1:
            stderr_lin = float(lin.std(ddof=1)) / np.sqrt(n_trials)
            stderr_db = 10.0 / np.log(10.0) * stderr_lin / mean_lin
        else:
            stderr_db = 0.0
        rows.append(
            (sweep_var, value, name, mean_db, float(matches.mean()), n_trials, stderr_db)
        )
    return rows


def _fan_out(fn, tasks: list) -> list:
    """[fn(*task) for task in tasks], in order; the tasks may be shared with
    child processes forked from this one.

    Tasks run here one at a time.  After each, the rest are split over this
    process and one forked child per other usable core (os.sched_getaffinity)
    when the tasks run so far, summed, took CPU time under
    MULTICORE_CPU_PER_WALL times their wall time (BLAS was not already
    threading them) and splitting the rest saves more than FORK_S per child.
    Sums, not single tasks, decide: warm tasks outweigh a cold first one,
    and one odd task does not fork.  Until this process has forked here
    (_forked) it may be fresh, and its first task, which then carries
    one-time start-up costs, is left out of the sums.  The children are
    reaped inside the call (_fork_map).
    """
    global _forked
    cores = len(os.sched_getaffinity(0))
    fresh = not _forked
    results = []
    wall, cpu = time.perf_counter(), time.process_time()
    for done, task in enumerate(tasks, 1):
        results.append(fn(*task))
        if fresh and done == 1:
            wall, cpu = time.perf_counter(), time.process_time()
            continue
        left = len(tasks) - done
        workers = min(cores, left)
        if workers < 2:
            continue
        spent_wall, spent_cpu = time.perf_counter() - wall, time.process_time() - cpu
        # Tasks cost about the same, so the split ends after ceil(left /
        # workers) of them.  One costs the mean wall time so far, or the
        # mean CPU time when other processes hold the cores and stretch the
        # wall time.
        saved_s = (left - -(-left // workers)) * min(spent_wall, spent_cpu) / (done - fresh)
        if spent_cpu < MULTICORE_CPU_PER_WALL * spent_wall and saved_s > (workers - 1) * FORK_S:
            break
    rest = tasks[len(results) :]
    if rest:
        _forked = True
        results.extend(_fork_map(fn, rest, workers))
    return results


def _fork_map(fn, tasks: list, workers: int) -> list:
    """[fn(*task) for task in tasks], in order, over this process and
    workers - 1 forked children.  Process i runs the strided share
    tasks[i::workers], so tasks of different cost mix; this one runs share
    0, then reads each child's pickled (ok, results or exception) from a
    pipe and reaps it.  A child's exception is raised here; a child that
    sends nothing it can unpickle raises RuntimeError with its traceback or
    exit status.  Every child is reaped (killed first if need be) before
    this returns or raises, and a child never returns from here: it ends in
    os._exit.
    """
    import pickle
    import signal

    shares = [tasks[i::workers] for i in range(workers)]
    children = {}  # pid -> (share index, read end of its pipe)
    try:
        for i in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(_share_payload(fn, shares[i]))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[pid] = (i, os.fdopen(read_fd, "rb"))
        shares[0] = [fn(*task) for task in shares[0]]
        for pid, (i, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code < 0:
                raise RuntimeError(f"child process {pid} was killed by {signal.Signals(-code).name}")
            if code:
                raise RuntimeError(f"child process {pid} exited with status {code} and no results")
            ok, shares[i] = pickle.loads(data)
            if not ok:
                raise shares[i]
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results = [None] * len(tasks)
    for i, share in enumerate(shares):
        results[i::workers] = share
    return results


def _share_payload(fn, share) -> bytes:
    """A child's pickled (True, [fn(*task) for task in share]), or (False,
    exception) when a task raises.  When that does not pickle, or the
    exception would not unpickle, (False, RuntimeError) carrying the
    traceback as text."""
    import pickle

    try:
        payload = (True, [fn(*task) for task in share])
    except Exception as exc:
        payload = (False, exc)
    try:
        data = pickle.dumps(payload)
        if not payload[0]:
            pickle.loads(data)
        return data
    except Exception as exc:
        import traceback

        failed = exc if payload[0] else payload[1]
        text = "".join(traceback.format_exception(failed))
        return pickle.dumps((False, RuntimeError(f"a child process failed:\n{text}")))


def sweep(
    config: SystemConfig,
    variable: str,
    values,
    n_trials: int,
    base_seed: int,
) -> ResultTable:
    """Paired Monte-Carlo sweep over slot count or SNR.

    `variable` is "slots" or "snr"; the rows name the swept config field
    (n_slots or snr_db) in their sweep_var column; slot counts must be
    integers (8.0 is taken as 8, 8.5 is rejected).  Trial t uses seed
    base_seed + t at every sweep value, so estimator and sweep-point
    comparisons are paired.  The per-trial NMSE ratios are averaged in the
    linear domain and reported in dB; stderr is the delta-method standard
    error of that mean.  The trials of all values may be shared with forked
    child processes (_fan_out), which run whatever run_trial names when
    sweep is called; records come back in task order, so the table is the
    same either way.
    """
    field = _SWEEP_FIELDS.get(variable)
    if field is None:
        raise ValueError(
            f"unknown sweep variable {variable!r}; expected one of "
            f"{sorted(_SWEEP_FIELDS)}"
        )
    values = list(values)
    if field == "n_slots" and not all(float(v).is_integer() for v in values):
        raise ValueError(f"slot counts must be integers, got {values}")
    values = [int(v) if field == "n_slots" else float(v) for v in values]
    if not values:
        raise ValueError("values must be non-empty")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    # Every (value, trial) pair, value-major.
    tasks = [
        (replace(config, **{field: value}), base_seed + t)
        for value in values
        for t in range(n_trials)
    ]
    records = _fan_out(run_trial, tasks)
    rows = []
    for i, value in enumerate(values):
        rows.extend(_aggregate(records[i * n_trials : (i + 1) * n_trials], field, value))
    return ResultTable(columns=MSE_COLUMNS, rows=tuple(rows))


# 16-QAM, Gray mapped: per axis bits (b0, b1) -> level index 2 b0 + (b0 xor b1),
# levels (-3, -1, 1, 3)/sqrt(10) so symbol energy is 1.
_QAM_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)
# Level of each per-axis bit pair, indexed by the pair 2 b0 + b1.
_PAIR_LEVELS = _QAM_LEVELS[[0, 1, 3, 2]]
# A byte's bits, most significant first, are two symbols' (I, Q) bit pairs.
# _BYTE_PAIRS[b] holds byte b's four pairs, in the order of the symbols'
# float parts, and _BYTE_SYMBOLS[b] its two symbols.
_BYTE_PAIRS = (np.arange(256, dtype=np.uint8)[:, None] >> np.array([6, 4, 2, 0], np.uint8)) & 3
_BYTE_SYMBOLS = _PAIR_LEVELS[_BYTE_PAIRS].view(complex)


def qam16_modulate(bits) -> np.ndarray:
    """Map bits (0s and 1s, length divisible by 4) to Gray-coded unit-energy 16-QAM."""
    b = np.asarray(bits)
    if b.size % 4:
        raise ValueError(f"bit count must be a multiple of 4, got {b.size}")
    if b.size and (b.min() < 0 or b.max() > 1):
        raise ValueError(f"bits must be 0 or 1, got values in [{b.min()}, {b.max()}]")
    # packbits zero-pads a trailing half byte; its symbol is dropped.
    payload = np.packbits(b.astype(np.uint8, copy=False))
    return _BYTE_SYMBOLS[payload].ravel()[: b.size // 4]


def _flip_point(k: int) -> float:
    """Smallest float x at which level k + 1 is strictly nearer than level k,
    both distances rounded; found by bisection between the two levels, where
    that test is monotone in x (see _FLIP_POINTS)."""
    lo, hi = float(_QAM_LEVELS[k]), float(_QAM_LEVELS[k + 1])
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            return hi
        if abs(mid - _QAM_LEVELS[k + 1]) < abs(mid - _QAM_LEVELS[k]):
            hi = mid
        else:
            lo = mid


# With a_k = fl(x - level_k): below 2^50 in magnitude the ulp is at most
# 0.25, under half the level spacing, so a_{k+1} < a_k always holds and
# "level k + 1 is nearer" reduces to fl(a_k + a_{k+1}) > 0, which is monotone
# in x: true from flip point k on.  There the number of flip points at or
# below x is the first level argmin over the four distances picks.
_FLIP_POINTS = [_flip_point(k) for k in range(3)]


def _gray_pairs(x, pairs, flags) -> np.ndarray:
    """Nearest-level decisions on the 1-D floats x as Gray bit pairs
    2 b0 + b1, written to the uint8 array pairs and returned; flags is bool
    scratch of shape (2, x.size).  Ties go to the lower level.

    Each float takes three comparisons with the flip points.  That is
    argmin's decision wherever |x| < 2^50; beyond, where rounding makes
    distances tie, it is the outer level on x's side: level 3 from 2^50 and
    at +inf, level 0 from -2^50, at -inf and for NaN.
    """
    # With c_k = (x >= flip point k), the level is c0 + c1 + c2; its Gray
    # pair has b0 = c1 (upper two levels) and b1 = c0 != c2 (inner two).
    c, c2 = flags
    np.greater_equal(x, _FLIP_POINTS[1], out=c)
    np.add(c.view(np.uint8), c.view(np.uint8), out=pairs)
    np.greater_equal(x, _FLIP_POINTS[0], out=c)
    np.greater_equal(x, _FLIP_POINTS[2], out=c2)
    pairs |= np.not_equal(c, c2, out=c).view(np.uint8)
    return pairs


def qam16_hard_bits(symbols) -> np.ndarray:
    """Nearest-level hard decisions back to bits (uint8); inverse of
    qam16_modulate.  Ties go to the lower level (see _gray_pairs)."""
    x = np.ascontiguousarray(symbols, dtype=complex).ravel().view(np.float64)
    pairs = _gray_pairs(x, np.empty(x.size, np.uint8), np.empty((2, x.size), bool))
    return np.stack([pairs >> 1, pairs & 1], axis=1).ravel()


def _los_beams(chan, config: SystemConfig):
    """The two strongest LOS paths (ties to the lower BS index): the (2, 2)
    angular-vector columns of their effective channel, and their AoA bins.

    Stream k is LOS path k of BS m_k.  Its precoder and combiner are
    DFT-grid steering vectors, so combiner a (AoA bin aoa_a) and precoder k
    pick one entry of BS m_k's angular matrix: entry (a, k) is column
    (m_k N_BS + aod_k) N_US + aoa_a of the aggregate angular vector.
    """
    serving = np.argsort(-np.abs(chan.gains[:, 0]), kind="stable")[:2]
    aoa = chan.aoa_bins[serving, 0]
    tx = serving * config.n_ant_bs + chan.aod_bins[serving, 0]
    return tx * config.n_ant_user + aoa[:, None], aoa


def _zf_precoders(h_eff):
    """Zero-forcing precoders with unit average transmit power for each 2x2
    channel of a (..., 2, 2) stack, and their power scales beta (...).

    CSI that misses a serving path reads exact zeros there and gets a rank-1
    pseudo-inverse.  An all-zero subcarrier has an all-zero pseudo-inverse, so
    it transmits nothing, with beta = 1.
    """
    precoders = np.linalg.pinv(h_eff, rcond=1e-10)
    norms = np.linalg.norm(precoders, axis=(-2, -1))
    betas = np.sqrt(2.0) / np.where(norms == 0.0, np.sqrt(2.0), norms)
    return precoders, betas


def _noise_root(aoa):
    """A 2x2 root L with L L^H = C^H C for the combiners C of AoA bins aoa.

    Combined noise C^H n, n ~ CN(0, s I_U), is drawn as sqrt(s) L w with
    w ~ CN(0, I_2).  C holds unitary-DFT columns, so C^H C is I for distinct
    bins and all ones for a shared bin, where both streams get equal noise.
    """
    return np.eye(2) if aoa[0] != aoa[1] else np.full((2, 2), np.sqrt(0.5))


def _complex_noise(rng, w, uniforms, trig):
    """Fill the complex array w with CN(0, 2) samples, N(0, 1) per float
    part, by the Box-Muller transform, and return it.

    One rng.random fill of the float64 scratch uniforms, shape (2,) +
    w.shape, gives radius uniforms u0 and angle uniforms u1, and w =
    sqrt(-2 ln(1 - u0)) exp(2 pi i u1).  1 - u0 lies in (0, 1], so the
    radius is finite, from 0 up to 8.6 for 53-bit uniforms.  The radius is
    float64, formed in place over u0; the angle, its cosine and its sine are
    float32, in the scratch trig of the same shape as uniforms.
    """
    rng.random(out=uniforms)
    radius, turns = uniforms
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    np.multiply(radius, -2.0, out=radius)
    np.sqrt(radius, out=radius)
    angle, cosine = trig
    np.multiply(turns, 2.0 * np.pi, out=angle)
    np.multiply(radius, np.cos(angle, out=cosine), out=w.real)
    np.multiply(radius, np.sin(angle, out=angle), out=w.imag)
    return w


def _ber_errors(config: SystemConfig, seed: int, point: int, real: int, n_vec: int):
    """The bit errors per CSI source, (3,) int64 in CSI_SOURCES order, of
    realisation `real` of SNR point `point`.

    `config` carries the point's SNR, and n_vec symbol vectors ride each
    subcarrier.  The realisation is seeded by SeedSequence(seed,
    spawn_key=(point, real)) alone, so it gives the same counts in any
    process and in any order.

    On each subcarrier the payload bytes are drawn first, then the noise w
    by Box-Muller from one uniform fill (_complex_noise).  Its angle is
    float32: that puts a relative error of about 1e-7 on a noise sample, far
    below what a hard 16-QAM decision can see, while the float64 radius
    uniforms keep the Gaussian tail out to 8.6 sigma (float32 ones would cut
    it at 5.8 sigma).
    """
    # Data-stage buffers, reused on every subcarrier: each payload byte
    # carries two symbols, four float parts and four Gray bit pairs.
    sym = np.empty((2, n_vec), dtype=complex)
    drawn = np.empty(n_vec, dtype=np.uint32)
    uniforms = np.empty((2, 2, n_vec))
    trig = np.empty((2, 2, n_vec), dtype=np.float32)
    w = np.empty((2, n_vec), dtype=complex)
    eta = np.empty((2, n_vec), dtype=complex)
    rx = np.empty((len(CSI_SOURCES), 2, n_vec), dtype=complex)
    rx_parts = rx.view(np.float64)
    noise = np.empty((2, 2 * n_vec))
    decided = np.empty((len(CSI_SOURCES), 4 * n_vec), dtype=np.uint8)
    decided_words = decided.view(np.uint32)  # four pairs, one payload byte
    flags = np.empty((2, rx_parts.size), dtype=bool)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(point, real))
    chan_seed, ens_seed, noise_seed, data_seed = (int(s) for s in ss.generate_state(4))
    chan, aset, operators, received, sigma2 = _synthesize(
        config, chan_seed, ens_seed, noise_seed
    )
    est_ssamp = ssamp(received, operators, _ssamp_threshold(config))
    est_omp = adaptive_omp(received, operators, _omp_threshold(sigma2, received))

    columns, aoa = _los_beams(chan, config)
    # One (P, 2, 2) effective channel per CSI source, in CSI_SOURCES order.
    h_eff = np.stack([source.at(columns) for source in (aset, est_ssamp, est_omp)])
    zf, betas = _zf_precoders(h_eff)
    # H_true zf_k per source, (source, P, 2, 2): beta_k scales the
    # transmit side and the receiver divides it out, so it only
    # scales the noise.
    links = h_eff[0] @ zf
    root = _noise_root(aoa)
    # Data noise is calibrated on the perfect-CSI link and shared by
    # all sources, as are the payload bits.
    beta_true = betas[0]
    inv_betas = 1.0 / betas
    snr_lin = 10.0 ** (config.snr_db / 10.0)
    errors = np.zeros(len(CSI_SOURCES), dtype=np.int64)
    rng = np.random.default_rng(data_seed)
    for p in range(config.n_pilot_subcarriers):
        payload = rng.integers(0, 256, n_vec, dtype=np.uint8)
        # Bytes are always in range; "clip" writes out unbuffered.
        np.take(_BYTE_SYMBOLS, payload, axis=0, out=sym.reshape(n_vec, 2), mode="clip")
        np.take(_BYTE_PAIRS.view(np.uint32), payload, out=drawn, mode="clip")
        sigma_d2 = beta_true[p] ** 2 / snr_lin
        _complex_noise(rng, w, uniforms, trig)
        np.matmul(np.sqrt(sigma_d2 / 2.0) * root, w, out=eta)
        # All CSI sources at once, (source, stream, n_vec), with the
        # per-source arithmetic of a one-source loop.  eta / beta is
        # added as each float part times 1 / beta, which is how numpy
        # divides complex by real, up to the sign of a zero
        # (test_complex_by_real_division_is_reciprocal_multiplication).
        np.matmul(links[:, p], sym, out=rx)
        for k, inv_beta in enumerate(inv_betas[:, p]):
            rx_parts[k] += np.multiply(eta.view(np.float64), inv_beta, out=noise)
        _gray_pairs(rx_parts.ravel(), decided.ravel(), flags)
        np.bitwise_xor(decided_words, drawn, out=decided_words)
        errors += np.bitwise_count(decided_words).sum(axis=1, dtype=np.int64)
    return errors


def ber_experiment(
    config: SystemConfig,
    snr_values,
    n_symbols: int,
    seed: int,
    n_realizations: int = 4,
) -> ResultTable:
    """Downlink BER with perfect, ssamp and adaptive-OMP CSI.

    The two strongest LOS paths across the BSs carry one 16-QAM stream each
    through steering-vector analog stages; the digital stage zero-forces the
    2x2 effective channel read off each CSI source's angular vectors
    (_los_beams), and symbols always travel through the true channel.
    Channel estimation and the data stage run at the same SNR.  Data rides
    the pilot subcarriers, so configs with n_pilot_subcarriers =
    n_subcarriers cover the whole grid.  At least 10^4 symbols per SNR point,
    split over n_realizations channel draws; noise and payloads are shared
    across CSI sources so comparisons are paired.

    The data noise on each subcarrier has variance beta_true^2 / SNR per user
    antenna, beta_true being the perfect-CSI power scale.  Only its two
    combined components reach the streams, so they are drawn directly:
    eta = sigma_d L w with w ~ CN(0, I_2) and L L^H = C^H C (_noise_root).
    w is drawn by the Box-Muller transform from uniforms, with a float32
    angle whose rounding no hard decision can see (_ber_errors).

    Realisations may be shared with forked child processes (_fan_out).
    Each realisation's error counts are integers summed in task order, so
    the table is the same either way.
    """
    if config.n_bs < 2:
        raise ValueError("ber_experiment needs n_bs >= 2 for two LOS streams")
    snr_values = [float(v) for v in snr_values]
    if not snr_values:
        raise ValueError("snr_values must be non-empty")
    if n_symbols < 10**4:
        raise ValueError("n_symbols must be at least 10^4 per SNR point")
    if n_realizations < 1:
        raise ValueError("n_realizations must be positive")

    n_p = config.n_pilot_subcarriers
    # Symbol vectors per (realization, subcarrier); 2 QAM symbols per vector.
    n_vec = -(-n_symbols // (n_realizations * n_p * 2))
    total_symbols = n_realizations * n_p * 2 * n_vec
    total_bits = 4 * total_symbols
    # Every (point, realisation), point-major.
    tasks = [
        (replace(config, snr_db=snr_db), seed, point, real, n_vec)
        for point, snr_db in enumerate(snr_values)
        for real in range(n_realizations)
    ]
    counts = _fan_out(_ber_errors, tasks)
    rows = []
    for point, snr_db in enumerate(snr_values):
        errors = sum(counts[point * n_realizations : (point + 1) * n_realizations])
        for name, count in zip(CSI_SOURCES, errors.tolist()):
            rows.append((snr_db, name, count / total_bits, total_symbols))
    return ResultTable(columns=BER_COLUMNS, rows=tuple(rows))
