"""Shared desk-scale configurations and the synthesis pipeline helper.

The desk geometry (2 BSs x 2 paths on a 16x4 grid, 8 subcarriers, all
carrying pilots) keeps one full trial in the millisecond range so the
Monte-Carlo tests stay fast.
"""

from dataclasses import replace

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
