"""Pilot ensembles and stacked measurement operators."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mmwave_scs.channel import DftPair, SystemConfig, dft_pair
from mmwave_scs.pilots import (
    BLOCK_BYTES,
    PilotEnsemble,
    as_operator,
    calibrate_noise_variance,
    draw_ensemble,
    measurement_operators,
    pilot_subcarrier_indices,
    synthesize_received,
)

from conftest import (
    DESK_EXACT,
    DESK_SNR20,
    WIDE,
    combiner_matrix,
    dense_measurement_operators,
    pilot_vector,
    slot_measurement,
    synth,
)


def test_all_stages_unit_modulus():
    ens = draw_ensemble(DESK_EXACT, 0)
    for stage in (ens.rf_combiner, ens.bb_combiner, ens.rf_precoder, ens.eff_training):
        np.testing.assert_allclose(np.abs(stage), 1.0, atol=1e-12)


def test_stage_shapes():
    cfg = DESK_SNR20
    ens = draw_ensemble(cfg, 1)
    g, p = cfg.n_slots, cfg.n_pilot_subcarriers
    # analog stages carry no subcarrier axis; baseband stages do
    assert ens.rf_combiner.shape == (g, cfg.n_ant_user, cfg.n_chain_user)
    assert ens.bb_combiner.shape == (g, p, cfg.n_chain_user, cfg.n_chain_user)
    assert ens.rf_precoder.shape == (g, cfg.n_bs, cfg.n_ant_bs, cfg.n_chain_bs)
    assert ens.eff_training.shape == (g, p, cfg.n_bs, cfg.n_chain_bs)
    assert np.any(ens.bb_combiner[0, 0] != ens.bb_combiner[0, 1])
    assert ens.n_slots == g and ens.n_pilot_subcarriers == p


def test_pilot_scale():
    ens = draw_ensemble(DESK_EXACT, 2)
    assert ens.pilot_scale == pytest.approx(
        1.0 / np.sqrt(DESK_EXACT.n_ant_bs * DESK_EXACT.n_chain_bs)
    )
    f = pilot_vector(ens, 0, 0, 0)
    # each antenna feed sums n_chain_bs unit phasors then scales
    assert np.all(np.abs(f) <= DESK_EXACT.n_chain_bs * ens.pilot_scale + 1e-12)


def test_phases_uniform():
    # pool every training stage at G=220 to get past 1e5 samples
    ens = draw_ensemble(SystemConfig(n_slots=220), 42)
    phases = np.concatenate(
        [
            np.angle(ens.rf_combiner).ravel(),
            np.angle(ens.bb_combiner).ravel(),
            np.angle(ens.rf_precoder).ravel(),
            np.angle(ens.eff_training).ravel(),
        ]
    ) % (2 * np.pi)
    assert phases.size >= 10**5
    result = stats.kstest(phases / (2 * np.pi), "uniform")
    assert result.pvalue > 0.01


def test_ensemble_deterministic():
    a = draw_ensemble(DESK_EXACT, 77)
    b = draw_ensemble(DESK_EXACT, 77)
    np.testing.assert_array_equal(a.rf_combiner, b.rf_combiner)
    np.testing.assert_array_equal(a.eff_training, b.eff_training)


def test_slot_operator_matches_physical_model():
    """The slot operator acting on the aggregate vector must equal combining
    the per-BS channel outputs directly: Z^H sum_m H_m f_m."""
    cfg = DESK_EXACT
    dft = dft_pair(cfg)
    ens = draw_ensemble(cfg, 5)
    rng = np.random.default_rng(6)
    block = cfg.n_ant_user * cfg.n_ant_bs
    for trial in range(100):
        t = int(rng.integers(0, cfg.n_slots))
        p = int(rng.integers(0, cfg.n_pilot_subcarriers))
        ang = rng.standard_normal((cfg.n_bs, cfg.n_ant_user, cfg.n_ant_bs)) + (
            1j * rng.standard_normal((cfg.n_bs, cfg.n_ant_user, cfg.n_ant_bs))
        )
        vec = np.concatenate([ang[m].flatten(order="F") for m in range(cfg.n_bs)])
        z = combiner_matrix(ens, t, p)
        direct = np.zeros(cfg.n_chain_user, dtype=complex)
        for m in range(cfg.n_bs):
            h_freq = dft.rx @ ang[m] @ dft.tx.conj().T
            direct += z.conj().T @ (h_freq @ pilot_vector(ens, t, p, m))
        via_operator = slot_measurement(ens, dft, t, p) @ vec
        np.testing.assert_allclose(via_operator, direct, rtol=1e-10, atol=1e-12)
    assert vec.size == cfg.n_bs * block


def test_slot_operator_selection_row():
    # combiner picking rx antenna i and a pilot hitting tx antenna j reads
    # exactly aggregate entry j * N_US + i, scaled by the pilot normalisation
    n_us, n_bs_ant = 3, 4
    i, j = 1, 2
    ens = PilotEnsemble(
        rf_combiner=np.eye(n_us)[:, [i]][None],
        bb_combiner=np.ones((1, 1, 1, 1)),
        rf_precoder=np.eye(n_bs_ant)[:, [j]][None, None],
        eff_training=np.ones((1, 1, 1, 1)),
    )
    dft_id = DftPair(rx=np.eye(n_us, dtype=complex), tx=np.eye(n_bs_ant, dtype=complex))
    row = slot_measurement(ens, dft_id, 0, 0)
    assert row.shape == (1, n_us * n_bs_ant)
    nonzero = np.flatnonzero(np.abs(row[0]) > 1e-12)
    assert nonzero.tolist() == [j * n_us + i]
    assert row[0, j * n_us + i] == pytest.approx(ens.pilot_scale)


def test_slot_operator_published_scale_shape():
    cfg = SystemConfig(
        n_ant_bs=512, n_chain_bs=8, n_ant_user=32, n_chain_user=2, n_bs=4,
        n_paths=4, n_subcarriers=64, n_pilot_subcarriers=1, n_slots=1,
        max_delay_s=100e-9,
    )
    op = slot_measurement(draw_ensemble(cfg, 1), dft_pair(cfg), 0, 0)
    assert op.shape == (2, 65536)


def test_stacking_order():
    cfg = DESK_EXACT
    dft = dft_pair(cfg)
    ens = draw_ensemble(cfg, 9)
    full = measurement_operators(ens).dense()[0]
    assert full.shape == (cfg.n_slots * cfg.n_chain_user, cfg.angular_dimension)
    chains = cfg.n_chain_user
    for t in (0, 1, cfg.n_slots - 1):
        slot = slot_measurement(ens, dft, t, 0)
        np.testing.assert_allclose(
            full[t * chains : (t + 1) * chains], slot, rtol=0, atol=1e-13 * np.abs(slot).max()
        )


# desk, SystemConfig(), the perfbench trial-wide point and a non-power-of-two
# array: the FFT build against the dense DFT products it replaces.
FFT_GEOMETRIES = {
    "desk": DESK_EXACT,
    "default": SystemConfig(),
    "wide": WIDE,
    "non-power-of-two": replace(DESK_EXACT, n_ant_bs=12, n_ant_user=6),
}


@pytest.mark.parametrize("name", ["desk", "default", "wide"])
def test_synthesized_signal_matches_operator_apply(name):
    """The trial forms Phi_p h_p from the support's columns only; the product
    with the dense operator stays the reference, for the noiseless pilots and
    for the noise variance and noisy pilots formed from them."""
    for seed in range(3):
        seeds = (10 + seed, 20 + seed, 30 + seed)
        cfg = replace(FFT_GEOMETRIES[name], snr_db=float("inf"))
        aset, ops, clean, sigma2 = synth(cfg, *seeds)
        want = np.einsum("prd,pd->pr", ops.dense(), aset.at(np.arange(ops.shape[2])))
        assert sigma2 == 0.0
        assert np.linalg.norm(clean - want) <= 1e-12 * np.linalg.norm(want)
        _, _, received, sigma2 = synth(replace(cfg, snr_db=20.0), *seeds)
        assert sigma2 == pytest.approx(calibrate_noise_variance(want, 20.0), rel=1e-12)
        noisy = synthesize_received(want, sigma2, seeds[2])
        assert np.linalg.norm(received - noisy) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("name", sorted(FFT_GEOMETRIES))
def test_fft_build_matches_dense_dft_products(name):
    cfg = FFT_GEOMETRIES[name]
    for seed in range(3):
        ens = draw_ensemble(cfg, seed)
        op = measurement_operators(ens)
        ref = dense_measurement_operators(ens, dft_pair(cfg))
        for got, want in ((op.left, ref.left), (op.right, ref.right)):
            assert got.shape == want.shape
            assert got.flags.c_contiguous
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_wide_build_holds_one_block_of_precoder_ffts():
    # At the trial-wide point one slot's precoder FFT output, complex
    # (M, N_BS, N_chain_BS), takes 64 KiB and all 12 slots' 768 KiB.  The
    # build holds the factors it returns and one block of slots that fits
    # BLOCK_BYTES.
    ens = draw_ensemble(WIDE, 0)
    slot_bytes = 16 * ens.rf_precoder[0].size
    block_bytes = BLOCK_BYTES // slot_bytes * slot_bytes
    assert block_bytes < ens.n_slots * slot_bytes
    tracemalloc.start()
    try:
        op = measurement_operators(ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= op.nbytes + block_bytes, (
        f"peak {peak} bytes, factors {op.nbytes} and one block {block_bytes}"
    )


def test_operator_entry_statistics():
    # default config: 16 operators of 32 x 512 = 262144 entries
    cfg = SystemConfig()
    ops = measurement_operators(draw_ensemble(cfg, 31)).dense()
    assert ops.shape == (16, 32, 512)
    entries = ops.ravel()
    assert abs(entries.mean()) <= 0.01 * entries.std()
    ratio = entries.real.var() / entries.imag.var()
    assert 0.95 <= ratio <= 1.05


def test_operators_differ_across_subcarriers():
    ops = measurement_operators(draw_ensemble(DESK_EXACT, 12)).dense()
    for p in range(1, ops.shape[0]):
        assert np.max(np.abs(ops[p] - ops[0])) > 1e-6


# Small geometries for the operator properties: every stage size from one
# upward, P = N pilot subcarriers, zero delay spread.
geometries = st.builds(
    lambda ant_bs, chain_bs, ant_user, chain_user, n_bs, slots, pilots: SystemConfig(
        n_ant_bs=ant_bs, n_chain_bs=min(chain_bs, ant_bs), n_ant_user=ant_user,
        n_chain_user=min(chain_user, ant_user), n_bs=n_bs, n_paths=1,
        n_subcarriers=pilots, n_pilot_subcarriers=pilots, n_slots=slots,
        max_delay_s=0.0,
    ),
    st.integers(1, 6), st.integers(1, 3), st.integers(1, 4), st.integers(1, 3),
    st.integers(1, 3), st.integers(1, 4), st.integers(1, 3),
)


def _cnormal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _check_against_dense(op, dense, rng):
    """adjoint_abs, columns and column_norms of `op` against `dense`."""
    n_pilots, rows, dim = op.shape
    r = _cnormal(rng, (n_pilots, rows))
    (_, _, magnitudes), = op.adjoint_abs(r, np.arange(n_pilots))
    np.testing.assert_allclose(magnitudes, np.abs(np.einsum("prd,pr->pd", dense.conj(), r)),
                               rtol=0, atol=1e-12 * np.linalg.norm(dense) * np.linalg.norm(r))
    idx = rng.choice(dim, size=int(rng.integers(0, dim + 1)), replace=False)
    np.testing.assert_array_equal(op.columns(idx), dense[:, :, idx])
    np.testing.assert_allclose(op.column_norms(), np.linalg.norm(dense, axis=1),
                               rtol=1e-12)
    picked = np.array([n_pilots - 1, 0])
    # one support per subcarrier, repeats allowed
    per_sub = rng.integers(0, dim, size=(n_pilots, int(rng.integers(0, dim + 1))))
    gathered = np.stack([dense[q][:, per_sub[q]] for q in range(n_pilots)])
    np.testing.assert_array_equal(op.columns(per_sub), gathered)
    np.testing.assert_array_equal(op.columns(per_sub[picked], picked), gathered[picked])
    np.testing.assert_array_equal(op.columns(idx, picked), dense[picked][:, :, idx])
    assert op.nbytes == op.left.nbytes + op.right.nbytes


class TestKroneckerOperator:
    @settings(max_examples=40, deadline=None)
    @given(geometries, st.integers(0, 2**32 - 1))
    def test_dense_is_the_stacked_slot_formula(self, cfg, seed):
        ens = draw_ensemble(cfg, seed)
        dft = dft_pair(cfg)
        op = measurement_operators(ens)
        formula = np.array(
            [
                np.vstack([slot_measurement(ens, dft, t, p) for t in range(cfg.n_slots)])
                for p in range(cfg.n_pilot_subcarriers)
            ]
        )
        assert op.shape == formula.shape
        dense = op.dense()
        assert np.linalg.norm(dense - formula) <= 1e-13 * np.linalg.norm(formula)

    @settings(max_examples=40, deadline=None)
    @given(geometries, st.integers(0, 2**32 - 1))
    def test_operations_match_the_dense_tensor(self, cfg, seed):
        op = measurement_operators(draw_ensemble(cfg, seed))
        _check_against_dense(op, op.dense(), np.random.default_rng(seed))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_wrapped_array(self, n_pilots, rows, dim, seed):
        rng = np.random.default_rng(seed)
        phi = _cnormal(rng, (n_pilots, rows, dim))
        op = as_operator(phi)
        assert op.shape == phi.shape
        np.testing.assert_array_equal(op.dense(), phi)
        _check_against_dense(op, phi, rng)

    def test_wrapping_rejects_other_ranks(self):
        op = measurement_operators(draw_ensemble(DESK_EXACT, 1))
        assert as_operator(op) is op
        for shape in ((4, 6), (1, 2, 4, 6)):
            with pytest.raises(ValueError, match="expected operators"):
                as_operator(np.ones(shape))

    def test_factor_shapes_validated(self):
        op = measurement_operators(draw_ensemble(DESK_EXACT, 1))
        with pytest.raises(ValueError, match="expected left"):
            type(op)(op.left, op.right[:, :1])

    def test_published_scale_stays_small(self):
        # dim 65,536, P = 64, G = 9: the dense tensor would take 1.2 GB
        cfg = SystemConfig(
            n_ant_bs=512, n_chain_bs=8, n_ant_user=32, n_chain_user=2, n_bs=4,
            n_paths=4, n_subcarriers=64, n_pilot_subcarriers=64, n_slots=9,
            max_delay_s=100e-9,
        )
        op = measurement_operators(draw_ensemble(cfg, 1))
        assert op.shape == (64, 18, 65536)
        assert 64 * 18 * 65536 * 16 > 1.2e9
        assert op.nbytes < 32 * 2**20
        rng = np.random.default_rng(2)
        r = _cnormal(rng, (64, 18))
        # the correlations on random columns, one subcarrier per block,
        # against those columns' own products
        assert op.block == 1
        idx = rng.choice(65536, size=64, replace=False)
        cols = op.columns(idx)
        assert cols.shape == (64, 18, 64)
        want = np.abs(np.einsum("prk,pr->pk", cols.conj(), r))
        for i, _, magnitudes in op.adjoint_abs(r, np.arange(64)):
            np.testing.assert_allclose(magnitudes[0, idx], want[i], rtol=1e-10,
                                       atol=1e-12 * np.abs(want[i]).max())


def test_pilot_subcarrier_indices():
    cfg = DESK_EXACT  # N = P = 8
    np.testing.assert_array_equal(pilot_subcarrier_indices(cfg), np.arange(1, 9))
    half = SystemConfig(n_subcarriers=8, n_pilot_subcarriers=4, max_delay_s=25e-9)
    np.testing.assert_array_equal(pilot_subcarrier_indices(half), [1, 3, 5, 7])
    with pytest.raises(ValueError, match="divide"):
        SystemConfig(n_subcarriers=8, n_pilot_subcarriers=3, max_delay_s=25e-9)


class TestNoiseCalibration:
    def test_zero_db_identity(self):
        rng = np.random.default_rng(0)
        ops = rng.standard_normal((2, 4, 6)) + 1j * rng.standard_normal((2, 4, 6))
        vecs = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        energy = sum(
            float(np.sum(np.abs(ops[p] @ vecs[p]) ** 2)) for p in range(2)
        )
        clean = np.einsum("prd,pd->pr", ops, vecs)
        assert calibrate_noise_variance(clean, 0.0) == pytest.approx(energy / (4 * 2))

    def test_infinite_snr_is_noiseless(self):
        rng = np.random.default_rng(1)
        ops = rng.standard_normal((1, 4, 6)) + 0j
        vecs = rng.standard_normal((1, 6)) + 0j
        assert calibrate_noise_variance(np.einsum("prd,pd->pr", ops, vecs), float("inf")) == 0.0

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(2)
        ops = rng.standard_normal((1, 4, 6)) + 0j
        vecs = rng.standard_normal((1, 6)) + 0j
        clean = np.einsum("prd,pd->pr", ops, vecs)
        sig = [calibrate_noise_variance(clean, s) for s in (0.0, 10.0, 20.0)]
        assert sig[0] > sig[1] > sig[2] > 0.0

    def test_underflowing_snr_rejected(self):
        ops = np.ones((1, 4, 6))
        vecs = np.ones((1, 6))
        for snr_db in (-4000.0, -np.inf):
            with pytest.raises(ValueError, match="underflows to zero"):
                calibrate_noise_variance(np.einsum("prd,pd->pr", ops, vecs), snr_db)

    def test_overflowing_noise_variance_names_the_snr(self):
        # 10^(-310) is subnormal, not zero, and sigma^2 overflows to inf
        with pytest.raises(ValueError, match=r"SNR -3100.0 dB gives a non-finite noise variance"):
            calibrate_noise_variance(np.ones((1, 4)), -3100.0)

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            calibrate_noise_variance(np.ones((1, 4)), np.nan)

    def test_all_zero_signal_rejected(self):
        ops = np.zeros((2, 4, 6))
        vecs = np.zeros((2, 6))
        with pytest.raises(ValueError, match="zero"):
            calibrate_noise_variance(np.einsum("prd,pd->pr", ops, vecs), 10.0)

    def test_empirical_snr(self):
        # realised SNR over 1e4 fresh noise draws stays within 0.1 dB
        cfg = DESK_SNR20
        aset, ops, _, sigma2 = synth(cfg, 77, 78, 0)
        dense, vectors = ops.dense(), aset.at(np.arange(ops.shape[2]))
        signal = sum(
            float(np.sum(np.abs(dense[p] @ vectors[p]) ** 2))
            for p in range(ops.shape[0])
        )
        clean = np.einsum("prd,pd->pr", dense, vectors)
        noise_energy = 0.0
        n_entries = 0
        for draw in range(10**4):
            rec = synthesize_received(clean, sigma2, 50_000 + draw)
            noise_energy += float(np.sum(np.abs(rec - clean) ** 2))
            n_entries += rec.size
        realized = 10.0 * np.log10(
            signal / (ops.shape[1] * ops.shape[0] * noise_energy / n_entries)
        )
        assert abs(realized - 20.0) <= 0.1


class TestSynthesize:
    def test_noiseless_is_exact(self):
        rng = np.random.default_rng(3)
        ops = rng.standard_normal((2, 4, 6)) + 1j * rng.standard_normal((2, 4, 6))
        vecs = rng.standard_normal((2, 6)) + 0j
        rec = synthesize_received(np.einsum("prd,pd->pr", ops, vecs), 0.0, 99)
        # bit-exact: zero variance must add literally nothing
        np.testing.assert_array_equal(rec, np.einsum("prd,pd->pr", ops, vecs))
        np.testing.assert_allclose(
            rec, np.stack([ops[p] @ vecs[p] for p in range(2)]), rtol=1e-13
        )

    def test_zero_channel_noise_variance(self):
        rec = synthesize_received(np.zeros((1, 100_000)), 0.25, 4)
        assert abs(rec.var() / 0.25 - 1.0) <= 0.02
        assert abs(rec.mean()) <= 0.01

    def test_seeded(self):
        clean = np.ones((1, 8), dtype=complex)
        a = synthesize_received(clean, 1.0, 5)
        b = synthesize_received(clean, 1.0, 5)
        c = synthesize_received(clean, 1.0, 6)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_noise_drawn_per_subcarrier(self):
        # real parts then imaginary parts, subcarrier by subcarrier
        op = measurement_operators(draw_ensemble(DESK_SNR20, 3))
        n_pilots, rows, _ = op.shape
        rec = synthesize_received(np.zeros((n_pilots, rows), dtype=np.complex128), 0.5, 8)
        rng = np.random.default_rng(8)
        for p in range(n_pilots):
            noise = 0.5 * (rng.standard_normal(rows) + 1j * rng.standard_normal(rows))
            np.testing.assert_array_equal(rec[p], noise)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            synthesize_received(np.ones((1, 2)), -1.0, 0)

    def test_non_finite_variance_rejected(self):
        for variance in (np.nan, np.inf):
            with pytest.raises(ValueError, match="negative or non-finite"):
                synthesize_received(np.ones((1, 2)), variance, 0)
