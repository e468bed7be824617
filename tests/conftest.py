"""Shared desk-scale configurations, the synthesis pipeline helper and the
per-slot reference formula of the measurement operator.

The desk geometry (2 BSs x 2 paths on a 16x4 grid, 8 subcarriers, all
carrying pilots) keeps one full trial in the millisecond range so the
Monte-Carlo tests stay fast.
"""

from dataclasses import replace

import numpy as np

from mmwave_scs.channel import SystemConfig
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


def synth(config, chan_seed, ens_seed, noise_seed):
    """One end-to-end synthesis: (channel set, operators, received, sigma2)."""
    _, _, aset, ops, received, sigma2 = _synthesize(config, chan_seed, ens_seed, noise_seed)
    return aset, ops, received, sigma2


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
    vector layout of channel.aggregate_sparse_vector.
    """
    n_bs = ensemble.rf_precoder.shape[1]
    z = combiner_matrix(ensemble, slot, pilot)
    left = z.conj().T @ dft.rx  # (N_chain_US, N_US)
    beams = [
        dft.tx.conj().T @ pilot_vector(ensemble, slot, pilot, m) for m in range(n_bs)
    ]
    right = np.concatenate(beams)  # (M * N_BS,)
    return np.kron(right[None, :], left)
