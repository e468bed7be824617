"""Sparse angular-domain channel synthesis for hybrid-beamforming mmWave links.

A user terminal with a small ULA listens to a handful of base stations, each
with a larger ULA, over an OFDM grid.  Every link carries a few specular paths
(one line-of-sight plus Rician-weighted scatterers), so once both array
responses are projected onto DFT angle grids the per-subcarrier channel matrix
becomes sparse with a support that is shared by all subcarriers.  This module
draws such channels and writes them, per pilot subcarrier, into the joint
sparse vectors that the recovery stage estimates.

Angles are on-grid: every AoA and AoD is a bin of the DFT grids (which fixes
half-wavelength antenna spacing), so each path fills one angular entry and
the vectors are built from the paths directly.
"""

from dataclasses import dataclass, fields
import math

import numpy as np


class ConfigError(ValueError):
    """Invalid config or argument; numerical failures raise plain ValueError."""


def _check_finite(params, names):
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LinkBudgetParams:
    """Scalar inputs of the log-distance link budget."""

    carrier_freq_mhz: float
    path_loss_exponent: float
    distance_km: float
    atmos_atten_db_per_km: float = 0.0
    rain_atten_db_per_km: float = 0.0

    def __post_init__(self):
        _check_finite(self, [f.name for f in fields(self)])
        if self.carrier_freq_mhz <= 0:
            raise ConfigError("carrier_freq_mhz must be positive")
        if self.distance_km <= 0:
            raise ConfigError("distance_km must be positive")
        if self.path_loss_exponent <= 0:
            raise ConfigError("path_loss_exponent must be positive")
        if self.atmos_atten_db_per_km < 0 or self.rain_atten_db_per_km < 0:
            raise ConfigError("attenuation rates must be non-negative")


def path_loss_db(params: LinkBudgetParams) -> float:
    """Log-distance path loss in dB with atmospheric and rain attenuation.

    32.5 + 20 log10(f_MHz) + 10 alpha log10(d_km) + (a_atm + a_rain) d_km.
    """
    return (
        32.5
        + 20.0 * math.log10(params.carrier_freq_mhz)
        + 10.0 * params.path_loss_exponent * math.log10(params.distance_km)
        + (params.atmos_atten_db_per_km + params.rain_atten_db_per_km)
        * params.distance_km
    )


@dataclass(frozen=True)
class SystemConfig:
    """Array, OFDM and training geometry for one multi-BS downlink.

    The defaults are a small setup whose trials run in tens of milliseconds
    (the test suite's desk setups, tests/conftest.py, are smaller still).  The
    large published-style setup (512-antenna BS, 64 subcarriers) is accepted
    too but takes far longer per trial.  Every field annotated int must be a
    positive integer; the float fields are checked by name.
    """

    n_ant_bs: int = 32          # BS ULA size
    n_chain_bs: int = 4         # BS RF chains
    n_ant_user: int = 8         # user ULA size
    n_chain_user: int = 2       # user RF chains
    n_bs: int = 2               # cooperating base stations
    n_paths: int = 4            # paths per BS link (1 LOS + rest NLOS)
    n_subcarriers: int = 16     # OFDM size N
    n_pilot_subcarriers: int = 16
    n_slots: int = 16           # training slots G
    bandwidth_hz: float = 0.25e9
    max_delay_s: float = 50e-9
    rician_k_db: float = 10.0
    snr_db: float = 20.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int and (not isinstance(value, (int, np.integer)) or value < 1):
                raise ConfigError(f"{f.name} must be a positive integer, got {value!r}")
        if self.n_chain_user > self.n_ant_user:
            raise ConfigError(
                f"n_chain_user ({self.n_chain_user}) must be <= "
                f"n_ant_user ({self.n_ant_user})"
            )
        if self.n_chain_bs > self.n_ant_bs:
            raise ConfigError(
                f"n_chain_bs ({self.n_chain_bs}) must be <= "
                f"n_ant_bs ({self.n_ant_bs})"
            )
        if self.n_paths > self.n_ant_bs:
            raise ConfigError(
                f"n_paths ({self.n_paths}) must be <= n_ant_bs ({self.n_ant_bs}): "
                "AoD bins are drawn without replacement"
            )
        # Pilots sit every N / P subcarriers.
        if self.n_subcarriers % self.n_pilot_subcarriers != 0:
            raise ConfigError(
                f"n_pilot_subcarriers ({self.n_pilot_subcarriers}) must divide "
                f"n_subcarriers ({self.n_subcarriers})"
            )
        _check_finite(self, ("bandwidth_hz", "max_delay_s", "rician_k_db"))
        if self.bandwidth_hz <= 0:
            raise ConfigError("bandwidth_hz must be positive")
        if self.max_delay_s < 0:
            raise ConfigError("max_delay_s must be non-negative")
        if np.isnan(self.snr_db) or self.snr_db == -np.inf:
            raise ConfigError(f"snr_db must be a number or inf, got {self.snr_db!r}")
        # Delay spread must fit inside the cyclic prefix implied by the FFT.
        if self.max_delay_s * self.bandwidth_hz >= self.n_subcarriers:
            raise ConfigError(
                f"max_delay_s ({self.max_delay_s}) * bandwidth_hz "
                f"({self.bandwidth_hz}) must be < n_subcarriers "
                f"({self.n_subcarriers})"
            )

    @property
    def angular_dimension(self) -> int:
        """Length of the aggregate angular vector: M * N_BS * N_US."""
        return self.n_bs * self.n_ant_bs * self.n_ant_user


@dataclass(frozen=True)
class MultipathChannel:
    """The specular paths of every BS link as (n_bs, n_paths) arrays; path 0
    of each link is its LOS path.  AoA and AoD are bins of the user and BS
    DFT grids."""

    gains: np.ndarray
    delays_s: np.ndarray
    aoa_bins: np.ndarray
    aod_bins: np.ndarray


@dataclass(frozen=True)
class DftPair:
    """Unitary DFT matrices matched to the receive and transmit arrays."""

    rx: np.ndarray
    tx: np.ndarray


def unitary_dft(n: int) -> np.ndarray:
    """n x n matrix with columns exp(+2j pi k i / n) / sqrt(n)."""
    k = np.arange(n)
    return np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def dft_pair(config: SystemConfig) -> DftPair:
    return DftPair(rx=unitary_dft(config.n_ant_user), tx=unitary_dft(config.n_ant_bs))


def grid_steering_vector(n_antennas: int, grid_position: int) -> np.ndarray:
    """ULA response at a DFT grid bin: column grid_position of unitary_dft(n)
    scaled by sqrt(n)."""
    k = np.arange(n_antennas)
    return np.exp(2j * np.pi * k * grid_position / n_antennas)


def draw_multipath(config: SystemConfig, seed: int) -> MultipathChannel:
    """Draw a Rician multipath channel for every BS link.

    Path 0 of each link is the LOS component with mean power K/(K+1); the
    remaining L-1 paths split 1/(K+1) evenly.  All gains are zero-mean complex
    Gaussian, delays are uniform on [0, max_delay_s].  AoD grid bins are drawn
    without replacement within a link, so the (AoA, AoD) pairs never collide
    and the aggregate sparsity stays exactly n_bs * n_paths; AoA bins
    are drawn independently and may repeat.  n_paths = 1 degenerates to a
    pure-LOS link.
    """
    rng = np.random.default_rng(seed)
    n_paths = config.n_paths
    k_lin = 10.0 ** (config.rician_k_db / 10.0)
    if n_paths == 1:
        powers = np.array([1.0])
    else:
        nlos = 1.0 / ((k_lin + 1.0) * (n_paths - 1))
        powers = np.full(n_paths, nlos)
        powers[0] = k_lin / (k_lin + 1.0)

    shape = (config.n_bs, n_paths)
    gains = np.empty(shape, dtype=np.complex128)
    delays = np.empty(shape)
    aoa = np.empty(shape, dtype=int)
    aod = np.empty(shape, dtype=int)
    std = np.sqrt(powers / 2.0)
    for m in range(config.n_bs):
        gains[m] = std * (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths))
        delays[m] = rng.uniform(0.0, config.max_delay_s, n_paths)
        aoa[m] = rng.integers(0, config.n_ant_user, size=n_paths)
        aod[m] = rng.choice(config.n_ant_bs, size=n_paths, replace=False)
    return MultipathChannel(gains=gains, delays_s=delays, aoa_bins=aoa, aod_bins=aod)


def inverse_angular_transform(angular_matrices: np.ndarray, dft: DftPair) -> np.ndarray:
    """Angular-domain matrices back to antenna-domain ones: A_rx H_a A_tx^H."""
    return dft.rx @ angular_matrices @ dft.tx.conj().T


@dataclass(frozen=True)
class AngularChannelSet:
    """Joint sparse angular vectors of all pilot subcarriers: row p is
    coefficients[p] on the sorted columns `support` and zero elsewhere, so
    every subcarrier shares one support (common-support property)."""

    coefficients: np.ndarray     # (P, K), column k on angular column support[k]
    support: np.ndarray          # (K,) sorted, unique column indices

    @property
    def sparsity(self) -> int:
        return int(self.support.size)

    def at(self, columns) -> np.ndarray:
        """The (P, *columns.shape) entries at an array of angular columns,
        zero off the support."""
        columns = np.asarray(columns, dtype=int)
        pos = np.searchsorted(self.support, columns)
        # Slot K, past the support, holds -1 (no column) and a zero coefficient.
        pos = np.where(np.append(self.support, -1)[pos] == columns, pos, self.support.size)
        zero = np.zeros((len(self.coefficients), 1))
        return np.concatenate([self.coefficients, zero], axis=1)[:, pos]


def angular_channel_set(
    channel: MultipathChannel, config: SystemConfig, subcarrier_indices
) -> AngularChannelSet:
    """Build the joint sparse vectors seen by the recovery stage.

    Row p is the per-BS angular matrices A_rx^H H_m[xi_p] A_tx stacked
    column-major: entry (aoa, aod) of BS m lands at column
    (m * N_BS + aod) * N_US + aoa.  An on-grid path fills exactly that entry,
    with gain * sqrt(N_US * N_BS) * exp(-2j pi (xi_p - 1) delay B / N), and
    paths that share a bin add, in path order.  Subcarrier indices xi are
    1-based and must lie in [1, N], there are at most n_bs links, and every
    bin must lie on its grid.  The support is the set of path columns that
    are nonzero on some subcarrier; every other column is zero by
    construction.
    """
    idx = np.asarray(subcarrier_indices, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("subcarrier_indices must be a non-empty 1-D sequence")
    if idx.min() < 1 or idx.max() > config.n_subcarriers:
        raise ValueError(
            f"subcarrier indices must lie in [1, {config.n_subcarriers}]"
        )
    aoa, aod = channel.aoa_bins, channel.aod_bins
    if aoa.shape[0] > config.n_bs:
        raise ValueError(f"channel has {aoa.shape[0]} links, more than n_bs ({config.n_bs})")
    off_grid = (aoa < 0) | (aoa >= config.n_ant_user) | (aod < 0) | (aod >= config.n_ant_bs)
    if off_grid.any():
        m, l = np.argwhere(off_grid)[0]
        raise ValueError(
            f"link {m} has a path off the angular grids: AoA bin "
            f"{aoa[m, l]}, AoD bin {aod[m, l]}"
        )
    links = np.arange(aoa.shape[0])[:, None]
    columns = ((links * config.n_ant_bs + aod) * config.n_ant_user + aoa).ravel()
    # Normalised delay: tau * B / N cycles per subcarrier step.
    delay_scale = config.bandwidth_hz / config.n_subcarriers
    array_gain = math.sqrt(config.n_ant_user * config.n_ant_bs)
    ramps = np.exp(-2j * np.pi * (idx - 1)[:, None] * channel.delays_s.ravel() * delay_scale)
    unique, slot = np.unique(columns, return_inverse=True)
    coefficients = np.zeros((idx.size, unique.size), dtype=np.complex128)
    np.add.at(coefficients, (slice(None), slot), channel.gains.ravel() * array_gain * ramps)
    nonzero = coefficients.any(axis=0)
    return AngularChannelSet(coefficients=coefficients[:, nonzero], support=unique[nonzero])
