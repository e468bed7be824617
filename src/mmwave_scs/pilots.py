"""Random-phase pilot ensembles and the stacked angular measurement operators.

During training slot t every BS beams one pilot vector per pilot subcarrier
through its analog/digital chain while the user combines with its own two
stage chain.  All pilot weights are unit-modulus with i.i.d. uniform phases;
analog (RF) stages are frozen across subcarriers within a slot while the
baseband stages vary per subcarrier.  Rewriting the combined slot output in
the angular basis turns the whole slot into a short fat sensing matrix acting
on the aggregate sparse vector, and stacking slots gives the G N_chain-row
operator the recovery stage inverts.  A slot's matrix is the Kronecker
product of the BSs' angular beams and the user's angular combiner, and the
operator is kept as those factors (KroneckerOperator), never as the dense
(P, rows, dim) tensor.  The angular bases are unitary DFTs, so the analog
stages reach the angular grid by FFT; no DFT matrix is built.
"""

from dataclasses import dataclass

import numpy as np

from .channel import SystemConfig

# Products with every subcarrier's matrix run over blocks of subcarriers
# whose complex (block, dim) output fits this many bytes, so a correlation
# forms no (P, dim) temporary: at SystemConfig() (dim 512, P = 16) a block
# is all P subcarriers, at dim 16,384 it is one.  The operator build takes
# the BS precoders to the angular grid in blocks of slots under the same
# cap, so it forms no (G, M, N_BS, N_chain_BS) FFT output beside `right`.
BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class PilotEnsemble:
    """Unit-modulus training weights for all slots, subcarriers and BSs.

    Shapes:
      rf_combiner   (G, N_US, N_chain_US)         shared across subcarriers
      bb_combiner   (G, P, N_chain_US, N_chain_US)
      rf_precoder   (G, M, N_BS, N_chain_BS)      shared across subcarriers
      eff_training  (G, P, M, N_chain_BS)         baseband-precoded pilot
    """

    rf_combiner: np.ndarray
    bb_combiner: np.ndarray
    rf_precoder: np.ndarray
    eff_training: np.ndarray

    @property
    def n_slots(self) -> int:
        return self.rf_combiner.shape[0]

    @property
    def n_pilot_subcarriers(self) -> int:
        return self.bb_combiner.shape[1]

    @property
    def pilot_scale(self) -> float:
        """Transmit normalisation 1/sqrt(N_BS * N_chain_BS)."""
        n_bs_ant = self.rf_precoder.shape[2]
        n_bs_chain = self.rf_precoder.shape[3]
        return 1.0 / np.sqrt(n_bs_ant * n_bs_chain)


def _unit_phases(rng, shape) -> np.ndarray:
    phases = 2j * np.pi * rng.random(shape)
    return np.exp(phases, out=phases)


def draw_ensemble(config: SystemConfig, seed: int) -> PilotEnsemble:
    """Draw every training weight with i.i.d. U[0, 2pi) phases."""
    rng = np.random.default_rng(seed)
    g, p = config.n_slots, config.n_pilot_subcarriers
    return PilotEnsemble(
        rf_combiner=_unit_phases(rng, (g, config.n_ant_user, config.n_chain_user)),
        bb_combiner=_unit_phases(rng, (g, p, config.n_chain_user, config.n_chain_user)),
        rf_precoder=_unit_phases(rng, (g, config.n_bs, config.n_ant_bs, config.n_chain_bs)),
        eff_training=_unit_phases(rng, (g, p, config.n_bs, config.n_chain_bs)),
    )


def _key(subcarriers):
    """The key that selects sorted subcarriers: a slice, which indexes the
    factors as views, when they are consecutive, else the index array."""
    n = len(subcarriers)
    if n and subcarriers[-1] - subcarriers[0] + 1 == n:
        return slice(subcarriers[0], subcarriers[-1] + 1)
    return subcarriers


class KroneckerOperator:
    """Stacked angular sensing matrices of every pilot subcarrier, as factors.

    Slot t's block of subcarrier p's matrix is kron(right[t, p][None, :],
    left[t, p]): the user's angular combiner Z^H A_RX times every BS's
    angular beam A_TX^H f.  Entry (t * N_chain_US + c, b * N_US + u) is
    right[t, p, b] * left[t, p, c, u], and the column blocks follow the
    aggregate vector layout of channel.angular_channel_set.  The factors
    hold G * P * (N_chain_US * N_US + M * N_BS) numbers against the
    P * G * N_chain_US * M * N_BS * N_US of the dense (P, rows, dim) tensor.

      left   (G, P, N_chain_US, N_US)   Z^H A_RX
      right  (G, P, M * N_BS)           A_TX^H f, the BSs' beams stacked

    Products go through the support's columns (columns) and correlations
    through adjoint_abs, the one correlation path, `block` subcarriers at a
    time.  Non-finite factors are rejected when the operator is built, so
    its users need not scan them again.
    """

    def __init__(self, left, right):
        left = np.asarray(left)
        right = np.asarray(right)
        if left.ndim != 4 or right.ndim != 3 or left.shape[:2] != right.shape[:2]:
            raise ValueError(
                "expected left (G, P, N_chain_US, N_US) and right (G, P, M * N_BS), "
                f"got {left.shape} and {right.shape}"
            )
        if not (np.isfinite(left).all() and np.isfinite(right).all()):
            raise ValueError("operators contain non-finite values (NaN or Inf)")
        self.left = left
        self.right = right

    @property
    def shape(self) -> tuple:
        """(P, rows, dim) of the dense tensor this operator stands for."""
        g, p, c, u = self.left.shape
        return p, g * c, self.right.shape[2] * u

    @property
    def nbytes(self) -> int:
        return self.left.nbytes + self.right.nbytes

    @property
    def block(self) -> int:
        """Subcarriers per block: as many as fit BLOCK_BYTES of complex output, 1 to P."""
        p, _, dim = self.shape
        return max(1, min(p, BLOCK_BYTES // (16 * dim)))

    def adjoint_abs(self, r, subcarriers):
        """|Phi_q^H r_i| for q = subcarriers[i], one block of subcarriers at a time.

        `subcarriers` is a sorted index array and r holds one row per entry.
        Yields (i, key, magnitudes) per block of n <= block entries:
        magnitudes (n, dim) holds rows i to i + n, and key selects their
        subcarriers (see _key).  Every block is written into the same two
        (block, dim) buffers, allocated once per call, so a block must be
        used before the next is drawn.  A block's values are
        |right^T (conj(r)^T left)| = |conj(Phi_q^H r_i)| = |Phi_q^H r_i|, which
        needs neither a conjugated copy of right nor a conjugate of the result.
        """
        g, _, c, u = self.left.shape
        n_beams = self.right.shape[2]
        block = self.block
        work = np.empty((block, n_beams * u), dtype=np.complex128)
        out = np.empty((block, n_beams * u))
        slots = np.asarray(r).conj().reshape(-1, g, 1, c)
        left = self.left[:, _key(subcarriers)].transpose(1, 0, 2, 3)
        per_slot = (slots @ left)[:, :, 0]  # (S, G, N_US)
        for i in range(0, len(subcarriers), block):
            n = min(block, len(subcarriers) - i)
            key = _key(subcarriers[i : i + n])
            beams = self.right[:, key].transpose(1, 2, 0)  # (n, M * N_BS, G)
            np.matmul(beams, per_slot[i : i + n], out=work[:n].reshape(n, n_beams, u))
            yield i, key, np.abs(work[:n], out=out[:n])

    def columns(self, support, subcarriers=None) -> np.ndarray:
        """Phi_p[:, support], or Phi_p[:, support[p]] for a (P, K) support: (P, rows, K).

        With `subcarriers` (S indices), the matrices of those subcarriers
        only: (S, rows, K), row i of a 2-D support going with subcarriers[i].
        """
        g, p, c, u = self.left.shape
        beam, rx = np.divmod(np.asarray(support, dtype=int), u)
        sub = (np.arange(p) if subcarriers is None else np.asarray(subcarriers))[:, None]
        right = self.right.transpose(1, 2, 0)[sub, beam]  # (S, K, G)
        left = self.left.transpose(1, 3, 0, 2)[sub, rx]  # (S, K, G, N_chain_US)
        cols = right[..., None] * left
        return cols.transpose(0, 2, 3, 1).reshape(sub.shape[0], g * c, beam.shape[-1])

    def column_norms(self) -> np.ndarray:
        """Euclidean norm of every column of every Phi_p: (P, dim), block by block."""
        g, p, c, u = self.left.shape
        left_sq = np.sum(np.abs(self.left) ** 2, axis=2).transpose(1, 0, 2)  # (P, G, N_US)
        out = np.empty((p, self.right.shape[2], u))
        block = self.block
        for a in range(0, p, block):
            right_sq = np.abs(self.right[:, a : a + block])
            np.square(right_sq, out=right_sq)  # (G, block, M * N_BS)
            np.matmul(right_sq.transpose(1, 2, 0), left_sq[a : a + block], out=out[a : a + block])
        return np.sqrt(out, out=out).reshape(p, -1)

    def dense(self) -> np.ndarray:
        """The (P, rows, dim) tensor; for tests and small geometries only."""
        return self.columns(np.arange(self.shape[2]))


def as_operator(operators) -> KroneckerOperator:
    """A KroneckerOperator as it is; a (P, rows, dim) array as an exact one.

    Any stack of matrices Phi_p is a KroneckerOperator with one slot per row,
    one chain per slot and one beam of value 1: left[t, p, 0] = Phi_p[t] and
    right[t, p] = [1].  Operators given as arrays, such as the tests'
    random ensembles, go through this path.
    """
    if isinstance(operators, KroneckerOperator):
        return operators
    phi = np.asarray(operators, dtype=np.complex128)
    if phi.ndim != 3:
        raise ValueError(f"expected operators (P, rows, dim), got shape {phi.shape}")
    n_pilots, rows, _ = phi.shape
    left = phi.transpose(1, 0, 2)[:, :, None, :]  # (rows, P, 1, dim)
    return KroneckerOperator(left, np.ones((rows, n_pilots, 1)))


def measurement_operators(ensemble: PilotEnsemble) -> KroneckerOperator:
    """The stacked operators of every pilot subcarrier, as Kronecker factors.

    With the user combiner Z = Z_RF Z_BB and the per-BS pilot f = F_RF s
    scaled by pilot_scale, slot t of subcarrier p is
    kron((A_TX^H f per BS, stacked)[None, :], Z^H A_RX).  The angular bases
    are unitary DFTs (channel.unitary_dft), so the subcarrier-independent
    analog stages go to the angular grid by FFT along their antenna axis,
    A^H X = fft(X, norm="ortho"); no DFT matrix is built.  The BS precoders
    go through it in blocks of slots (BLOCK_BYTES), so the build holds the
    factors and one block of FFT output: 4 of 12 slots at dim 16,384.
    """
    g, p = ensemble.n_slots, ensemble.n_pilot_subcarriers
    _, n_bs, n_ant, _ = ensemble.rf_precoder.shape
    # A_TX^H f = (A_TX^H F_RF) s * pilot_scale, per BS.  In C order (G, P,
    # M, N_BS): a strided `right` slows every product with the operator.
    # The product writes straight into it, as (G, M, N_BS, P), and each
    # block's FFT output is freed before the next block's is formed.
    right = np.empty((g, p, n_bs, n_ant), dtype=np.complex128)
    training = ensemble.eff_training.transpose(0, 2, 3, 1)  # (G, M, N_chain_BS, P)
    block = max(1, BLOCK_BYTES // (16 * ensemble.rf_precoder[0].size))
    for t in range(0, g, block):
        slots = slice(t, t + block)
        np.matmul(
            np.fft.fft(ensemble.rf_precoder[slots], axis=2, norm="ortho"),
            training[slots],
            out=right[slots].transpose(0, 2, 3, 1),
        )
    right *= ensemble.pilot_scale
    # Z^H A_RX = Z_BB^H (Z_RF^H A_RX), with Z_RF^H A_RX = (A_RX^H Z_RF)^H
    rx_rf = np.fft.fft(ensemble.rf_combiner, axis=1, norm="ortho")  # (G, N_US, N_chain_US)
    rf_rx = rx_rf.conj().swapaxes(-1, -2)  # (G, N_chain_US, N_US)
    left = ensemble.bb_combiner.conj().swapaxes(-1, -2) @ rf_rx[:, None]
    return KroneckerOperator(left, right.reshape(g, p, -1))


def pilot_subcarrier_indices(config: SystemConfig) -> np.ndarray:
    """Equi-spaced 1-based pilot positions (SystemConfig checks that P divides N)."""
    n, p = config.n_subcarriers, config.n_pilot_subcarriers
    return 1 + (n // p) * np.arange(p)


def _check_clean(clean) -> np.ndarray:
    signal = np.asarray(clean)
    if signal.ndim != 2:
        raise ValueError(f"expected clean pilot signals (P, rows), got shape {signal.shape}")
    return signal


def calibrate_noise_variance(clean, snr_db: float) -> float:
    """Per-entry complex noise variance matching a target pilot SNR.

    `clean` holds the noiseless received pilots Phi_p h_p, shape (P, rows).
    SNR is their energy summed over subcarriers divided by rows * P *
    sigma^2, so sigma^2 = sum_p ||Phi_p h_p||^2 / (rows * P * 10^(SNR/10)).
    Raises when every signal is zero (SNR undefined), when the SNR is NaN,
    when 10^(SNR/10) underflows to zero (SNR = -inf or below about -3,235 dB)
    and when sigma^2 overflows (a finite SNR of about -3,080 dB or below).
    """
    if np.isnan(snr_db):
        raise ValueError(f"SNR {snr_db} dB is not a number: noise variance is undefined")
    signal = _check_clean(clean)
    energy = float(np.sum(np.abs(signal) ** 2))
    if energy == 0.0:
        raise ValueError("all-zero signals: SNR is undefined")
    snr_lin = 10.0 ** (snr_db / 10.0)
    if snr_lin == 0.0:
        raise ValueError(f"SNR {snr_db} dB underflows to zero: noise variance is infinite")
    n_pilots, rows = signal.shape
    sigma2 = energy / (rows * n_pilots * snr_lin)
    if not np.isfinite(sigma2):
        raise ValueError(f"SNR {snr_db} dB gives a non-finite noise variance ({sigma2})")
    return sigma2


def synthesize_received(clean, noise_variance: float, seed: int) -> np.ndarray:
    """Noisy received pilots r_p = Phi_p h_p + CN(0, sigma^2 I); shape (P, rows).

    `clean` holds the noiseless Phi_p h_p.  The noise is drawn subcarrier by
    subcarrier, real parts then imaginary parts, so a seed gives the same
    noise however the clean signal was formed.
    """
    if not 0 <= noise_variance < np.inf:
        raise ValueError(f"noise_variance {noise_variance} is negative or non-finite")
    signal = _check_clean(clean)
    n_pilots, rows = signal.shape
    draws = np.random.default_rng(seed).standard_normal((n_pilots, 2, rows))
    noise = np.sqrt(noise_variance / 2.0) * (draws[:, 0] + 1j * draws[:, 1])
    return signal + noise
