"""Shared desk-scale configurations, the synthesis pipeline helper, and the
reference formulas of the system model: the frequency-domain channel and its
angular projection, the BER study's effective channel through the antenna
domain and its expected bit error rate, the per-slot measurement operator and
the operator factors built with dense DFT matrices.

The desk geometry (2 BSs x 2 paths on a 16x4 grid, 8 subcarriers, all
carrying pilots) keeps one full trial in the millisecond range so the
Monte-Carlo tests stay fast.  The benchmark's points are read from
perfbench/, not copied.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from mmwave_scs.channel import SystemConfig, grid_steering_vector, inverse_angular_transform
from mmwave_scs.pilots import KroneckerOperator
from mmwave_scs.simulate import _synthesize

DESK_EXACT = SystemConfig(
    n_ant_bs=16,
    n_chain_bs=4,
    n_ant_user=4,
    n_chain_user=2,
    n_bs=2,
    n_paths=2,
    n_subcarriers=8,
    n_pilot_subcarriers=8,
    n_slots=8,
    max_delay_s=25e-9,
    snr_db=float("inf"),
)
DESK_SNR20 = replace(DESK_EXACT, n_slots=6, snr_db=20.0)
DESK_SNR10 = replace(DESK_SNR20, snr_db=10.0)


def perfbench_module(name):
    """perfbench/<name>.py, loaded from its file: perfbench/ is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = perfbench_module("workloads").WORKLOADS
# The near-published point of the benchmark's trial-wide workload: dim 16,384.
_TRIAL_WIDE = WORKLOADS["trial-wide"]
WIDE = SystemConfig(**_TRIAL_WIDE.config, n_slots=_TRIAL_WIDE.slots[0])


def synth(config, chan_seed, ens_seed, noise_seed):
    """One end-to-end synthesis: (channel set, operators, received, sigma2)."""
    _, aset, ops, received, sigma2 = _synthesize(config, chan_seed, ens_seed, noise_seed)
    return aset, ops, received, sigma2


# The frequency-domain channel and its angular projection, written from the
# system model and kept apart from channel.angular_channel_set, which writes
# each on-grid path straight into its angular entry and is pinned against them.


def delay_to_frequency(channel, config, subcarrier_indices):
    """Per-subcarrier frequency-domain channel matrices.

    Returns an array of shape (len(indices), n_bs, n_ant_user, n_ant_bs) with
    entry [p, m] = sum_l gain_l a_rx(l) a_tx(l)^H exp(-2j pi (xi_p - 1)
    delay_l B / N).  Subcarrier indices are 1-based.
    """
    idx = np.asarray(subcarrier_indices, dtype=int)
    out = np.zeros(
        (idx.size, config.n_bs, config.n_ant_user, config.n_ant_bs), dtype=np.complex128
    )
    delay_scale = config.bandwidth_hz / config.n_subcarriers
    paths = zip(channel.gains, channel.delays_s, channel.aoa_bins, channel.aod_bins)
    for m, link in enumerate(paths):
        for gain, delay_s, aoa, aod in zip(*link):
            a_rx = grid_steering_vector(config.n_ant_user, aoa)
            a_tx = grid_steering_vector(config.n_ant_bs, aod)
            ramp = np.exp(-2j * np.pi * (idx - 1) * delay_s * delay_scale)
            out[:, m] += gain * ramp[:, None, None] * np.outer(a_rx, a_tx.conj())[None]
    return out


def angular_transform(freq_matrices, dft):
    """Project channel matrices onto the angular grids: A_rx^H H A_tx."""
    return dft.rx.conj().T @ freq_matrices @ dft.tx


def stack_angular(angular_matrices):
    """(..., n_bs, n_ant_user, n_ant_bs) angular matrices to the aggregate
    vectors (..., dim): each BS block stacked column-major, BS by BS."""
    mats = np.asarray(angular_matrices)
    return mats.swapaxes(-1, -2).reshape(*mats.shape[:-3], -1)


# The BER study's effective channel by the antenna-domain route, kept apart
# from simulate._los_beams, which reads the same entries off the angular
# vector by index and is pinned against it.


def per_bs_matrices(vectors, config, dft, bs_indices):
    """Angular vectors (P, dim) back to the channel matrices (P, K, U, B) of
    the BSs bs_indices[k]."""
    # Each BS block is its (U, B) angular matrix stacked column-major.
    ang = np.reshape(vectors, (-1, config.n_bs, config.n_ant_bs, config.n_ant_user))
    return inverse_angular_transform(ang[:, bs_indices].swapaxes(-1, -2), dft)


def effective_channels(h_matrices, precoders, combiners):
    """2x2 combined channel per subcarrier for one CSI source: column k is
    combiners^H h_matrices[:, k] precoders[:, k]."""
    return np.einsum("ua,pkub,bk->pak", combiners.conj(), h_matrices, precoders)


# The BER study's expected bit error rate, from the Gaussian tail at the
# decision thresholds, kept apart from the Monte-Carlo data stage that the
# tests check against it.
QAM_LEVELS = np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0)


def exact_ber(link, betas, beta_true, combiners, snr_lin):
    """Expected BER of one CSI source over one realisation's subcarriers.

    Stream a of subcarrier p receives x = (link_p s)_a + n_a / betas_p for
    a uniform pair s of Gray-mapped 16-QAM symbols, where link_p is H_true
    times the source's ZF precoder (P, 2, 2) and n_a ~ CN(0, sigma_d^2
    ||c_a||^2) is user-antenna noise of variance sigma_d^2 = beta_true_p^2 /
    snr_lin through combiner c_a.  Each float part is decided at the
    thresholds 0 (first Gray bit) and +-2/sqrt(10) (second: inner levels),
    so each bit errs with a Gaussian tail probability (ndtr); the result
    averages them over subcarriers, symbol pairs, streams and bits.
    """
    # Every (level I, level Q) index pair of both streams: (256, 2, 2).
    idx = np.stack(np.meshgrid(*[np.arange(4)] * 4, indexing="ij"), -1).reshape(-1, 2, 2)
    symbols = QAM_LEVELS[idx[..., 0]] + 1j * QAM_LEVELS[idx[..., 1]]  # (256, 2)
    mean = np.einsum("pab,sb->psa", link, symbols)  # (P, 256, 2)
    noise_var = beta_true[:, None] ** 2 / snr_lin * np.sum(np.abs(combiners) ** 2, axis=0)
    sigma = (np.sqrt(noise_var / 2.0) / betas[:, None])[:, None, :]  # per float part
    step = 2.0 / np.sqrt(10.0)
    errors = []
    for part, level in ((mean.real, idx[..., 0]), (mean.imag, idx[..., 1])):
        upper = part / sigma  # P(decided level >= 2) = ndtr(upper)
        inner = ndtr((step - part) / sigma) - ndtr((-step - part) / sigma)
        errors.append(np.where(level >= 2, ndtr(-upper), ndtr(upper)))
        errors.append(np.where((level == 1) | (level == 2), 1.0 - inner, inner))
    return float(np.mean(errors))


# The per-slot formula, written from the system model and kept apart from the
# factored pilots.measurement_operators that the tests pin against it.


def combiner_matrix(ensemble, slot, pilot):
    """Two-stage user combiner Z = Z_RF Z_BB for one slot and subcarrier."""
    return ensemble.rf_combiner[slot] @ ensemble.bb_combiner[slot, pilot]


def pilot_vector(ensemble, slot, pilot, bs):
    """Per-BS transmitted pilot f = F_RF s, scaled to unit transmit power."""
    return (
        ensemble.rf_precoder[slot, bs] @ ensemble.eff_training[slot, pilot, bs]
    ) * ensemble.pilot_scale


def slot_measurement(ensemble, dft, slot, pilot):
    """Angular sensing matrix of one slot for one pilot subcarrier.

    Phi = (A_TX^H f per BS, stacked)^T kron (Z^H A_RX), with shape
    (N_chain_US, M * N_BS * N_US).  Column blocks follow the aggregate
    vector layout of channel.angular_channel_set.
    """
    n_bs = ensemble.rf_precoder.shape[1]
    z = combiner_matrix(ensemble, slot, pilot)
    left = z.conj().T @ dft.rx  # (N_chain_US, N_US)
    beams = [
        dft.tx.conj().T @ pilot_vector(ensemble, slot, pilot, m) for m in range(n_bs)
    ]
    right = np.concatenate(beams)  # (M * N_BS,)
    return np.kron(right[None, :], left)


def dense_measurement_operators(ensemble, dft):
    """pilots.measurement_operators with the angular bases as the DFT matrices
    of `dft` (a channel.DftPair): the analog stages times A_RX and A_TX^H as
    dense products, where the package takes an FFT."""
    g, p = ensemble.n_slots, ensemble.n_pilot_subcarriers
    # Z^H A_RX = Z_BB^H (Z_RF^H A_RX)
    rf_rx = ensemble.rf_combiner.conj().swapaxes(-1, -2) @ dft.rx  # (G, N_chain_US, N_US)
    left = ensemble.bb_combiner.conj().swapaxes(-1, -2) @ rf_rx[:, None]
    # A_TX^H f = (A_TX^H F_RF) s * pilot_scale, per BS
    rf_tx = dft.tx.conj().T @ ensemble.rf_precoder  # (G, M, N_BS, N_chain_BS)
    beams = rf_tx[:, None] @ ensemble.eff_training[..., None]  # (G, P, M, N_BS, 1)
    right = beams.reshape(g, p, -1) * ensemble.pilot_scale
    return KroneckerOperator(left, right)
