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


def _check_finite(params, names):
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


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
            raise ValueError("carrier_freq_mhz must be positive")
        if self.distance_km <= 0:
            raise ValueError("distance_km must be positive")
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        if self.atmos_atten_db_per_km < 0 or self.rain_atten_db_per_km < 0:
            raise ValueError("attenuation rates must be non-negative")


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
                raise ValueError(f"{f.name} must be a positive integer, got {value!r}")
        if self.n_chain_user > self.n_ant_user:
            raise ValueError(
                f"n_chain_user ({self.n_chain_user}) must be <= "
                f"n_ant_user ({self.n_ant_user})"
            )
        if self.n_chain_bs > self.n_ant_bs:
            raise ValueError(
                f"n_chain_bs ({self.n_chain_bs}) must be <= "
                f"n_ant_bs ({self.n_ant_bs})"
            )
        if self.n_paths > self.n_ant_bs:
            raise ValueError(
                f"n_paths ({self.n_paths}) must be <= n_ant_bs ({self.n_ant_bs}): "
                "AoD bins are drawn without replacement"
            )
        # Pilots sit every N / P subcarriers.
        if self.n_subcarriers % self.n_pilot_subcarriers != 0:
            raise ValueError(
                f"n_pilot_subcarriers ({self.n_pilot_subcarriers}) must divide "
                f"n_subcarriers ({self.n_subcarriers})"
            )
        _check_finite(self, ("bandwidth_hz", "max_delay_s", "rician_k_db"))
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if np.isnan(self.snr_db) or self.snr_db == -np.inf:
            raise ValueError(f"snr_db must be a number or inf, got {self.snr_db!r}")
        # Delay spread must fit inside the cyclic prefix implied by the FFT.
        if self.max_delay_s * self.bandwidth_hz >= self.n_subcarriers:
            raise ValueError(
                f"max_delay_s ({self.max_delay_s}) * bandwidth_hz "
                f"({self.bandwidth_hz}) must be < n_subcarriers "
                f"({self.n_subcarriers})"
            )

    @property
    def angular_dimension(self) -> int:
        """Length of the aggregate angular vector: M * N_BS * N_US."""
        return self.n_bs * self.n_ant_bs * self.n_ant_user


@dataclass(frozen=True)
class PathComponent:
    """One specular path of a BS-to-user link, with its AoA and AoD as bins
    of the user and BS DFT grids."""

    gain: complex
    delay_s: float
    aoa_grid_index: int
    aod_grid_index: int
    is_los: bool


@dataclass(frozen=True)
class MultipathChannel:
    """Per-BS path lists; exactly one LOS path per link."""

    links: tuple

    def __post_init__(self):
        for m, link in enumerate(self.links):
            n_los = sum(1 for path in link if path.is_los)
            if n_los != 1:
                raise ValueError(f"link {m} has {n_los} LOS paths, expected 1")


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

    links = []
    for _ in range(config.n_bs):
        std = np.sqrt(powers / 2.0)
        gains = std * (rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths))
        delays = rng.uniform(0.0, config.max_delay_s, n_paths)
        aoa = rng.integers(0, config.n_ant_user, size=n_paths)
        aod = rng.choice(config.n_ant_bs, size=n_paths, replace=False)
        link = tuple(
            PathComponent(
                gain=complex(gains[l]),
                delay_s=float(delays[l]),
                aoa_grid_index=int(aoa[l]),
                aod_grid_index=int(aod[l]),
                is_los=(l == 0),
            )
            for l in range(n_paths)
        )
        links.append(link)
    return MultipathChannel(links=tuple(links))


def inverse_angular_transform(angular_matrices: np.ndarray, dft: DftPair) -> np.ndarray:
    """Angular-domain matrices back to antenna-domain ones: A_rx H_a A_tx^H."""
    return dft.rx @ angular_matrices @ dft.tx.conj().T


@dataclass(frozen=True)
class AngularChannelSet:
    """Aggregate angular vectors for all pilot subcarriers plus their support.

    `support` is the sorted set of nonzero columns; every subcarrier has
    exactly this support (common-support property).
    """

    vectors: np.ndarray          # (P, n_bs * n_ant_bs * n_ant_user)
    support: np.ndarray          # sorted indices

    @property
    def sparsity(self) -> int:
        return int(self.support.size)


def angular_channel_set(
    channel: MultipathChannel, config: SystemConfig, subcarrier_indices
) -> AngularChannelSet:
    """Build the joint sparse vectors seen by the recovery stage.

    Row p is the per-BS angular matrices A_rx^H H_m[xi_p] A_tx stacked
    column-major: entry (aoa, aod) of BS m lands at column
    (m * N_BS + aod) * N_US + aoa.  An on-grid path fills exactly that entry,
    with gain * sqrt(N_US * N_BS) * exp(-2j pi (xi_p - 1) delay B / N), and
    paths that share a bin add.  Subcarrier indices xi are 1-based and must
    lie in [1, N], and every bin must lie on its grid.  The support is the
    set of path columns that are nonzero on some subcarrier; every other
    column is zero by construction.
    """
    idx = np.asarray(subcarrier_indices, dtype=int)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("subcarrier_indices must be a non-empty 1-D sequence")
    if idx.min() < 1 or idx.max() > config.n_subcarriers:
        raise ValueError(
            f"subcarrier indices must lie in [1, {config.n_subcarriers}]"
        )
    vectors = np.zeros((idx.size, config.angular_dimension), dtype=np.complex128)
    # Normalised delay: tau * B / N cycles per subcarrier step.
    delay_scale = config.bandwidth_hz / config.n_subcarriers
    array_gain = math.sqrt(config.n_ant_user * config.n_ant_bs)
    columns = []
    for m, link in enumerate(channel.links):
        for path in link:
            if not (0 <= path.aoa_grid_index < config.n_ant_user
                    and 0 <= path.aod_grid_index < config.n_ant_bs):
                raise ValueError(
                    f"link {m} has a path off the angular grids: AoA bin "
                    f"{path.aoa_grid_index}, AoD bin {path.aod_grid_index}"
                )
            column = (m * config.n_ant_bs + path.aod_grid_index) * config.n_ant_user
            column += path.aoa_grid_index
            ramp = np.exp(-2j * np.pi * (idx - 1) * path.delay_s * delay_scale)
            vectors[:, column] += path.gain * array_gain * ramp
            columns.append(column)
    columns = np.unique(np.array(columns, dtype=int))
    support = columns[vectors[:, columns].any(axis=0)]
    return AngularChannelSet(vectors=vectors, support=support)
