"""Channel synthesis: link budget, steering, Rician draws, angular vectors."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mmwave_scs.channel import (
    ConfigError,
    LinkBudgetParams,
    AngularChannelSet,
    MultipathChannel,
    SystemConfig,
    angular_channel_set,
    dft_pair,
    draw_multipath,
    grid_steering_vector,
    inverse_angular_transform,
    path_loss_db,
    unitary_dft,
)
from mmwave_scs.pilots import pilot_subcarrier_indices
from mmwave_scs.recovery import EstimationResult, ssamp
from mmwave_scs.simulate import _ssamp_threshold

from conftest import (
    DESK_EXACT,
    DESK_SNR20,
    WIDE,
    angular_transform,
    delay_to_frequency,
    stack_angular,
    synth,
)


# ---------------------------------------------------------------- link budget


def test_path_loss_urban_macro():
    loss = path_loss_db(LinkBudgetParams(3000.0, 2.2, 1.0))
    assert abs(loss - 102.04) <= 0.01


def test_path_loss_backhaul_with_attenuation():
    loss = path_loss_db(LinkBudgetParams(30000.0, 2.2, 0.1, 0.1, 5.0))
    assert abs(loss - 100.55) <= 0.01


def test_path_loss_access_link():
    loss = path_loss_db(LinkBudgetParams(30000.0, 2.2, 0.03, 0.1, 5.0))
    assert abs(loss - 88.69) <= 0.01


def test_path_loss_reference_point():
    # 1 MHz at 1 km leaves only the fixed 32.5 dB term.
    assert path_loss_db(LinkBudgetParams(1.0, 2.0, 1.0)) == pytest.approx(32.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(carrier_freq_mhz=0.0, path_loss_exponent=2.0, distance_km=1.0),
        dict(carrier_freq_mhz=3000.0, path_loss_exponent=2.0, distance_km=-1.0),
        dict(carrier_freq_mhz=3000.0, path_loss_exponent=0.0, distance_km=1.0),
        dict(
            carrier_freq_mhz=3000.0,
            path_loss_exponent=2.0,
            distance_km=1.0,
            atmos_atten_db_per_km=-0.1,
        ),
    ],
)
def test_link_budget_rejects_bad_params(kwargs):
    with pytest.raises(ValueError):
        LinkBudgetParams(**kwargs)


# ------------------------------------------------------------------- steering


def test_grid_steering_matches_dft_columns():
    n = 8
    f = unitary_dft(n)
    for pos in range(n):
        np.testing.assert_allclose(
            grid_steering_vector(n, pos), np.sqrt(n) * f[:, pos], atol=1e-12
        )


def test_unitary_dft_is_unitary():
    for n in (4, 8, 16):
        f = unitary_dft(n)
        np.testing.assert_allclose(f.conj().T @ f, np.eye(n), atol=1e-12)


# -------------------------------------------------------------- channel draws


def test_draw_is_deterministic():
    a = draw_multipath(DESK_EXACT, 123)
    b = draw_multipath(DESK_EXACT, 123)
    for name in ("gains", "delays_s", "aoa_bins", "aod_bins"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_draw_structure():
    cfg = DESK_EXACT
    chan = draw_multipath(cfg, 7)
    for array in (chan.gains, chan.delays_s, chan.aoa_bins, chan.aod_bins):
        assert array.shape == (cfg.n_bs, cfg.n_paths)
    assert np.all((0.0 <= chan.delays_s) & (chan.delays_s <= cfg.max_delay_s))
    assert np.all((0 <= chan.aoa_bins) & (chan.aoa_bins < cfg.n_ant_user))
    assert np.all((0 <= chan.aod_bins) & (chan.aod_bins < cfg.n_ant_bs))
    # departure bins never collide within a link
    for aods in chan.aod_bins:
        assert np.unique(aods).size == aods.size


def test_single_path_is_pure_los():
    cfg = SystemConfig(n_paths=1)
    chan = draw_multipath(cfg, 3)
    for array in (chan.gains, chan.delays_s, chan.aoa_bins, chan.aod_bins):
        assert array.shape == (cfg.n_bs, 1)


def test_too_many_paths_rejected():
    with pytest.raises(ValueError, match="without replacement"):
        SystemConfig(n_ant_bs=4, n_chain_bs=2, n_paths=5)
    draw_multipath(SystemConfig(n_ant_bs=4, n_chain_bs=2, n_paths=4), 0)  # fills the grid


def test_rician_power_ratio():
    # 25k links of 4 paths: LOS mean power over NLOS mean power ~ K(L-1) = 30.
    chan = draw_multipath(SystemConfig(n_bs=25000, n_paths=4), 5)
    los, nlos = chan.gains[:, 0], chan.gains[:, 1:]
    ratio = np.mean(np.abs(los) ** 2) / np.mean(np.abs(nlos) ** 2)
    assert abs(ratio / 30.0 - 1.0) <= 0.05


# ----------------------------------------------------------- config invariants


def test_config_invariants_name_both_keys():
    with pytest.raises(ValueError) as err:
        SystemConfig(n_chain_user=64, n_ant_user=32)
    assert "n_chain_user" in str(err.value) and "n_ant_user" in str(err.value)
    with pytest.raises(ValueError) as err:
        SystemConfig(n_pilot_subcarriers=32, n_subcarriers=16)
    msg = str(err.value)
    assert "n_pilot_subcarriers" in msg and "n_subcarriers" in msg


def test_config_rejects_delay_beyond_prefix():
    with pytest.raises(ValueError) as err:
        SystemConfig(max_delay_s=100e-9, bandwidth_hz=0.25e9, n_subcarriers=16)
    assert "max_delay_s" in str(err.value)


def test_config_rejects_nonpositive_dimensions():
    with pytest.raises(ValueError, match="n_slots"):
        SystemConfig(n_slots=0)


def test_config_checks_raise_config_error():
    # A ConfigError is a ValueError, so callers that catch ValueError see no change.
    assert issubclass(ConfigError, ValueError)
    for make in (
        lambda: SystemConfig(n_slots=0),
        lambda: SystemConfig(snr_db=float("nan")),
        lambda: SystemConfig(bandwidth_hz=float("inf")),
        lambda: LinkBudgetParams(3000.0, 2.0, -1.0),
    ):
        with pytest.raises(ConfigError):
            make()


def test_config_derived_sizes():
    cfg = DESK_EXACT
    assert cfg.angular_dimension == 2 * 16 * 4
    assert cfg.n_slots * cfg.n_chain_user == 8 * 2
    assert cfg.n_bs * cfg.n_paths == 4


# ------------------------------------------------------ delay-domain -> OFDM


def _channel(*links):
    """A MultipathChannel from per-link (gain, delay_s, aoa, aod) tuples, the
    same number per link; the first path of each link is the LOS one."""
    gains, delays, aoa, aod = np.moveaxis(np.array(links, dtype=complex), -1, 0)
    return MultipathChannel(gains, delays.real, aoa.real.astype(int), aod.real.astype(int))


def _dense(sparse, config):
    """The (P, dim) entries of a channel set or an estimate."""
    return sparse.at(np.arange(config.angular_dimension))


def _all_pilots(cfg):
    return np.arange(1, cfg.n_subcarriers + 1)


class TestDelayToFrequency:
    """The delay-to-OFDM mapping as angular_channel_set carries it out."""

    def test_zero_delay_gives_flat_response(self):
        cfg = DESK_EXACT
        chan = draw_multipath(cfg, 11)
        flat = replace(chan, delays_s=np.zeros_like(chan.delays_s))
        vectors = _dense(angular_channel_set(flat, cfg, _all_pilots(cfg)), cfg)
        for p in range(1, vectors.shape[0]):
            np.testing.assert_array_equal(vectors[p], vectors[0])

    def test_single_path_matrix_is_rank_one(self):
        cfg = SystemConfig(n_paths=1)
        chan = draw_multipath(cfg, 2)
        aset = angular_channel_set(chan, cfg, [1, 5])
        assert aset.sparsity == cfg.n_bs
        blocks = _dense(aset, cfg).reshape(2, cfg.n_bs, cfg.n_ant_bs, cfg.n_ant_user)
        freq = inverse_angular_transform(blocks.swapaxes(-1, -2), dft_pair(cfg))
        s = np.linalg.svd(freq[0, 0], compute_uv=False)
        assert s[0] > 1e-6 and np.all(s[1:] <= 1e-10 * s[0])

    def test_energy_matches_path_gains(self):
        # On-grid departure bins are distinct within a link, so the energy of
        # each link's block is sum |g_l|^2 * N_US * N_BS on every subcarrier.
        cfg = DESK_EXACT
        chan = draw_multipath(cfg, 13)
        vectors = _dense(angular_channel_set(chan, cfg, _all_pilots(cfg)), cfg)
        block = cfg.n_ant_user * cfg.n_ant_bs
        for m, gains in enumerate(chan.gains):
            expect = np.sum(np.abs(gains) ** 2) * cfg.n_ant_user * cfg.n_ant_bs
            got = np.sum(np.abs(vectors[:, m * block : (m + 1) * block]) ** 2, axis=1)
            np.testing.assert_allclose(got, expect, rtol=1e-10)

    def test_index_validation(self):
        chan = draw_multipath(DESK_EXACT, 1)
        for bad in ([0], [DESK_EXACT.n_subcarriers + 1], [], [[1, 2]]):
            with pytest.raises(ValueError, match="subcarrier"):
                angular_channel_set(chan, DESK_EXACT, bad)


# ------------------------------------------------- the frequency-domain model


def test_angular_transform_concentrates_on_grid():
    cfg = DESK_EXACT
    chan = draw_multipath(cfg, 17)
    dft = dft_pair(cfg)
    freq = delay_to_frequency(chan, cfg, [1])
    ang = angular_transform(freq, dft)
    for m in range(cfg.n_bs):
        mat = ang[0, m]
        total = float(np.sum(np.abs(mat) ** 2))
        on_bins = float(np.sum(np.abs(mat[chan.aoa_bins[m], chan.aod_bins[m]]) ** 2))
        assert on_bins >= 0.999 * total


def test_angular_round_trip_and_energy():
    cfg = DESK_EXACT
    chan = draw_multipath(cfg, 19)
    dft = dft_pair(cfg)
    freq = delay_to_frequency(chan, cfg, [1, 3, 5])
    ang = angular_transform(freq, dft)
    np.testing.assert_allclose(
        inverse_angular_transform(ang, dft), freq, atol=1e-10
    )
    np.testing.assert_allclose(
        np.sum(np.abs(ang) ** 2), np.sum(np.abs(freq) ** 2), rtol=1e-10
    )


# Wide is the perfbench trial-wide point (dim 16,384).
SYNTHESIS_GEOMETRIES = {
    "desk": DESK_EXACT,
    "default": SystemConfig(),
    "single-path": SystemConfig(n_paths=1),
    "wide": WIDE,
}


@pytest.mark.parametrize("name", sorted(SYNTHESIS_GEOMETRIES))
def test_channel_set_matches_frequency_reference(name):
    """Writing each path into its angular entry gives the column-major
    angular projection of the frequency-domain model, with the support that
    model shows above 1e-9 of its peak."""
    cfg = SYNTHESIS_GEOMETRIES[name]
    idx = pilot_subcarrier_indices(cfg)
    dft = dft_pair(cfg)
    for seed in range(4 if name == "wide" else 40):
        chan = draw_multipath(cfg, seed)
        aset = angular_channel_set(chan, cfg, idx)
        expect = stack_angular(angular_transform(delay_to_frequency(chan, cfg, idx), dft))
        peak = np.abs(expect).max()
        np.testing.assert_allclose(_dense(aset, cfg), expect, rtol=0, atol=1e-12 * peak)
        reference_support = np.flatnonzero(np.abs(expect).max(axis=0) > 1e-9 * peak)
        np.testing.assert_array_equal(aset.support, reference_support)


def test_aggregate_layout():
    # entry (aoa, aod) of BS m lands at (m * N_BS + aod) * N_US + aoa
    cfg = replace(DESK_EXACT, n_bs=1, n_paths=1)
    aset = angular_channel_set(_channel([(2.0 + 1j, 0.0, 2, 1)]), cfg, [1, 2])
    column = 1 * cfg.n_ant_user + 2
    assert _dense(aset, cfg).shape == (2, cfg.angular_dimension)
    assert aset.support.tolist() == [column]
    # gain times the array gain sqrt(4 * 16), on a zero delay
    assert aset.coefficients.tolist() == [[(2.0 + 1j) * 8.0]] * 2


def test_aggregate_blocks_are_disjoint():
    cfg = replace(DESK_EXACT, n_paths=1)
    chan = _channel([(1.0, 0.0, 1, 3)], [(1.0, 0.0, 1, 3)])
    aset = angular_channel_set(chan, cfg, [1])
    column = 3 * cfg.n_ant_user + 1
    block = cfg.n_ant_user * cfg.n_ant_bs
    assert aset.support.tolist() == [column, block + column]


def test_aggregate_zero_and_bad_input():
    cfg = DESK_EXACT
    idx = _all_pilots(cfg)
    silent = _channel([(0.0, 1e-9, 1, 2), (0.0, 0.0, 3, 4)], [(0.0, 2e-9, 0, 0)] * 2)
    aset = angular_channel_set(silent, cfg, idx)
    assert aset.sparsity == 0 and aset.coefficients.shape == (idx.size, 0)
    assert not _dense(aset, cfg).any()
    # a zero-gain path fills no entry; the others keep theirs
    chan = _channel([(1.0, 1e-9, 1, 2), (0.0, 0.0, 3, 4)], [(0.5j, 2e-9, 0, 0)] * 2)
    aset = angular_channel_set(chan, cfg, idx)
    block = cfg.n_ant_user * cfg.n_ant_bs
    assert aset.support.tolist() == [2 * cfg.n_ant_user + 1, block]
    with pytest.raises(ValueError, match="1-D"):
        angular_channel_set(chan, cfg, idx[None])
    for aoa, aod in ((cfg.n_ant_user, 0), (0, cfg.n_ant_bs), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="off the angular grids"):
            angular_channel_set(_channel([(1.0, 0.0, aoa, aod)]), cfg, idx)
    # A third link would fill columns past the aggregate vector.
    with pytest.raises(ValueError, match="3 links, more than n_bs"):
        angular_channel_set(_channel(*[[(1.0, 0.0, 0, 0)]] * 3), cfg, idx)


def test_paths_sharing_a_bin_add():
    cfg = replace(DESK_EXACT, n_bs=1)
    idx = _all_pilots(cfg)
    first, second = (0.6 - 0.2j, 3e-9, 2, 5), (-0.1 + 0.4j, 17e-9, 2, 5)
    both = angular_channel_set(_channel([first, second]), cfg, idx)
    assert both.support.tolist() == [5 * cfg.n_ant_user + 2]
    alone = [angular_channel_set(_channel([path]), cfg, idx) for path in (first, second)]
    np.testing.assert_array_equal(both.coefficients, alone[0].coefficients + alone[1].coefficients)
    expect = stack_angular(
        angular_transform(delay_to_frequency(_channel([first, second]), cfg, idx), dft_pair(cfg))
    )
    np.testing.assert_allclose(_dense(both, cfg), expect, rtol=0, atol=1e-12 * np.abs(expect).max())


# ------------------------------------------------------- joint channel vectors


def test_channel_set_full_sparsity():
    # 4 BSs x 4 paths on a 16x4 grid: every (AoA, AoD) pair is distinct, so
    # the aggregate support has exactly M * L entries.
    cfg = SystemConfig(
        n_ant_bs=16, n_chain_bs=4, n_ant_user=4, n_chain_user=2, n_bs=4, n_paths=4,
        n_subcarriers=16, n_pilot_subcarriers=16, n_slots=16, max_delay_s=50e-9,
    )
    chan = draw_multipath(cfg, 23)
    aset = angular_channel_set(chan, cfg, pilot_subcarrier_indices(cfg))
    assert aset.sparsity == 16 == cfg.n_bs * cfg.n_paths
    assert aset.coefficients.shape == (16, 16)


def test_channel_set_common_support():
    cfg = DESK_EXACT
    chan = draw_multipath(cfg, 29)
    aset = angular_channel_set(chan, cfg, pilot_subcarrier_indices(cfg))
    assert aset.sparsity <= cfg.n_bs * cfg.n_paths
    for row in _dense(aset, cfg):
        np.testing.assert_array_equal(np.flatnonzero(row), aset.support)


def test_channel_set_deterministic():
    cfg = DESK_EXACT
    idx = pilot_subcarrier_indices(cfg)
    a = angular_channel_set(draw_multipath(cfg, 31), cfg, idx)
    b = angular_channel_set(draw_multipath(cfg, 31), cfg, idx)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    np.testing.assert_array_equal(a.support, b.support)


# -------------------------------------------------- entries off the sparse form


def _dense_reference(sparse, dim):
    out = np.zeros((sparse.coefficients.shape[0], dim), dtype=complex)
    out[:, sparse.support] = sparse.coefficients
    return out


def _sparse_forms():
    """A channel set, an ssamp estimate and an empty one, all at DESK_SNR20."""
    aset, ops, received, _ = synth(DESK_SNR20, 3, 4, 5)
    est = ssamp(received, ops, _ssamp_threshold(DESK_SNR20))
    empty = EstimationResult(np.zeros((ops.shape[0], 0), dtype=complex),
                             np.array([], dtype=int), 0, 0, None)
    return {"truth": aset, "ssamp": est, "empty": empty,
            "empty-set": AngularChannelSet(empty.coefficients, empty.support)}


@pytest.mark.parametrize("name", ["truth", "ssamp", "empty", "empty-set"])
def test_at_matches_dense_reference(name):
    sparse = _sparse_forms()[name]
    dim = DESK_SNR20.angular_dimension
    dense = _dense_reference(sparse, dim)
    off = np.setdiff1d(np.arange(dim), sparse.support)
    rng = np.random.default_rng(8)
    picks = [np.arange(dim), sparse.support, off[:5], rng.integers(0, dim, 9),
             np.concatenate([off[-2:], sparse.support[::-1]]), np.array([], dtype=int)]
    for columns in picks:
        np.testing.assert_array_equal(sparse.at(columns), dense[:, columns])
    # A (2, 2) block of columns, as _los_beams reads the effective channel.
    block = np.array([[off[0], dim - 1], [0, off[1]]])
    if sparse.sparsity:
        block[1, 0] = sparse.support[0]
    got = sparse.at(block)
    assert got.shape == (dense.shape[0], 2, 2)
    np.testing.assert_array_equal(got, dense[:, block])
    assert not sparse.at(off).any()


def test_wide_channel_set_forms_no_subcarrier_by_grid_array():
    # At dim 16,384 and P = 8 a (P, dim) complex array is 2 MiB; the channel
    # set is built on the path columns alone.
    cfg = SYNTHESIS_GEOMETRIES["wide"]
    idx = pilot_subcarrier_indices(cfg)
    chan = draw_multipath(cfg, 0)
    tracemalloc.start()
    try:
        aset = angular_channel_set(chan, cfg, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (idx.size, cfg.angular_dimension) == (8, 16384)
    assert aset.sparsity == cfg.n_bs * cfg.n_paths
    assert peak < idx.size * cfg.angular_dimension * 16, f"peak {peak / 2**20:.2f} MiB"
