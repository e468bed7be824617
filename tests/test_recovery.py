"""Recovery stage: the staged joint pursuit, the OMP baseline, the oracle.

ssamp_reference below is a second, independently written implementation of the
staged pursuit (explicit per-step records, python-loop proxies, lstsq on
sorted index lists).  The equivalence battery pins the packaged ssamp() to it
output-for-output, which is a much stronger check than spot values.
omp_reference is the per-subcarrier OMP loop that adaptive_omp() runs for all
subcarriers at once, with one lstsq per fit.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmwave_scs import pilots, recovery
from mmwave_scs.channel import SystemConfig
from mmwave_scs.pilots import KroneckerOperator, as_operator
from mmwave_scs.recovery import (
    LSTSQ_RCOND,
    P_TH_NOISELESS,
    TERM_MAXITER,
    TERM_RESIDUAL,
    TERM_THRESHOLD,
    _fit,
    _index_union,
    _top_indices,
    adaptive_omp,
    nmse_db,
    oracle_ls,
    p_th_for_snr,
    ssamp,
    support_metrics,
)
from mmwave_scs.simulate import _omp_threshold, _ssamp_threshold, _trial_seeds

from conftest import DESK_EXACT, DESK_SNR20, WIDE, synth


def ssamp_reference(received, operators, p_th, max_iterations=None):
    """Stagewise adaptive pursuit, written independently of the package.

    Returns (estimates, support, reason, passes, stage_targets, stage_traces)
    where stage_traces[j] lists the accepted residual energies while the
    stage target was stage_targets[j].
    """
    y = np.asarray(received, dtype=complex)
    phis = np.asarray(operators, dtype=complex)
    n_vec, rows, dim = phis.shape
    if max_iterations is None:
        max_iterations = 10 * rows

    def fit(idx):
        idx = np.asarray(sorted(idx), dtype=int)
        co = np.stack(
            [
                np.linalg.lstsq(phis[q][:, idx], y[q], rcond=1e-10)[0]
                for q in range(n_vec)
            ]
        )
        resid = np.stack([y[q] - phis[q][:, idx] @ co[q] for q in range(n_vec)])
        return idx, co, resid

    def strongest(energies, count):
        # lowest index wins ties: sort by (-energy, index)
        order = sorted(range(len(energies)), key=lambda i: (-energies[i], i))
        return sorted(order[:count])

    target = 1
    stage_targets = [1]
    stage_traces = [[]]
    prev_support = []
    prev_resid = y.copy()
    prev_energy = float(np.sum(np.abs(y) ** 2))
    best = (np.array([], dtype=int), np.zeros((n_vec, 0), dtype=complex), 0, np.inf)
    reason = TERM_MAXITER
    passes = 0
    while passes < max_iterations:
        passes += 1
        proxy_en = np.zeros(dim)
        for q in range(n_vec):
            proxy_en += np.abs(phis[q].conj().T @ prev_resid[q]) ** 2
        cand = sorted(set(prev_support) | set(strongest(proxy_en, target)))
        _, co_c, _ = fit(cand)
        keep = strongest(list(np.sum(np.abs(co_c) ** 2, axis=0)), target)
        omega = [cand[i] for i in keep]
        idx, co, resid = fit(omega)
        energy = float(np.sum(np.abs(resid) ** 2))
        weakest = float(np.min(np.sum(np.abs(co) ** 2, axis=0))) / n_vec
        if weakest < p_th:
            reason = TERM_THRESHOLD
            break
        if best[3] < energy:
            reason = TERM_RESIDUAL
            break
        if prev_energy <= energy:
            best = (idx, co, target, energy)
            target += 1
            stage_targets.append(target)
            stage_traces.append([])
        else:
            prev_support, prev_resid, prev_energy = list(idx), resid, energy
            stage_traces[-1].append(energy)
    est = np.zeros((n_vec, dim), dtype=complex)
    if best[0].size:
        est[:, best[0]] = best[1]
    return est, best[0], reason, passes, stage_targets, stage_traces


def _adjoint_reference(op, r):
    """Phi_p^H r_p as one product over all P subcarriers: the figures that
    blocks of any size must reproduce bit for bit."""
    g, p, c, u = op.left.shape
    slots = r.conj().reshape(p, g, 1, c)
    per_slot = (slots @ op.left.transpose(1, 0, 2, 3))[:, :, 0]
    return np.conjugate(op.right.transpose(1, 2, 0) @ per_slot).reshape(p, -1)


def _subcarriers(operators, key):
    """The operators of the subcarriers that `key` (a slice or an index
    array) selects; a KroneckerOperator's factors are indexed directly."""
    if isinstance(operators, KroneckerOperator):
        return KroneckerOperator(operators.left[:, key], operators.right[:, key])
    return operators[key]


def omp_reference(received, operators, residual_threshold):
    """OMP one subcarrier at a time, one lstsq per pick.

    Returns (estimates, per-subcarrier sorted supports, picks, reason).
    """
    y = np.asarray(received, dtype=complex)
    op = as_operator(operators)
    n_vec, rows, dim = op.shape
    norms = op.column_norms()
    norms[norms == 0] = np.inf
    est = np.zeros((n_vec, dim), dtype=complex)
    supports, picks, all_below = [], 0, True
    for q in range(n_vec):
        sub, support, resid = _subcarriers(op, slice(q, q + 1)), [], y[q]
        energy = float(np.vdot(resid, resid).real)
        while energy > residual_threshold and len(support) < rows:
            corr = np.abs(_adjoint_reference(sub, resid[None])[0]) / norms[q]
            corr[support] = -1.0  # never re-pick
            support.append(int(np.argmax(corr)))
            cols = sub.columns(sorted(support))[0]
            co = np.linalg.lstsq(cols, y[q], rcond=1e-10)[0]
            resid = y[q] - cols @ co
            energy = float(np.vdot(resid, resid).real)
            picks += 1
        if support:
            est[q, sorted(support)] = co
        supports.append(sorted(support))
        all_below &= energy <= residual_threshold
    return est, supports, picks, TERM_THRESHOLD if all_below else TERM_MAXITER


def _cnormal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_instance(seed, n_vec=None):
    rng = np.random.default_rng(seed)
    if n_vec is None:
        n_vec = int(rng.integers(1, 4))
    rows, dim, spars = 8, 16, int(rng.integers(1, 4))
    phis = (
        rng.standard_normal((n_vec, rows, dim))
        + 1j * rng.standard_normal((n_vec, rows, dim))
    ) / np.sqrt(2)
    supp = rng.choice(dim, spars, replace=False)
    x = np.zeros((n_vec, dim), dtype=complex)
    x[:, supp] = rng.standard_normal((n_vec, spars)) + 1j * rng.standard_normal(
        (n_vec, spars)
    )
    noise = 0.05 * (
        rng.standard_normal((n_vec, rows)) + 1j * rng.standard_normal((n_vec, rows))
    )
    return np.einsum("prd,pd->pr", phis, x) + noise, phis


class _CountingOperator(KroneckerOperator):
    """Records every residual the pursuits correlate against the operator."""

    def __init__(self, op):
        super().__init__(op.left, op.right)
        self.correlated = []

    def adjoint_abs(self, r, subcarriers):
        self.correlated.append(np.array(r))
        return super().adjoint_abs(r, subcarriers)


class TestSsampAgainstReference:
    def test_equivalence_battery(self):
        for s in range(100):
            y, phis = _random_instance(10_000 + s)
            got = ssamp(y, phis, 0.01)
            est, supp, reason, passes, targets, traces = ssamp_reference(y, phis, 0.01)
            assert np.array_equal(got.support, supp), f"seed {s}"
            assert got.termination_reason == reason, f"seed {s}"
            assert got.iterations == passes, f"seed {s}"
            np.testing.assert_allclose(got.at(np.arange(phis.shape[2])), est, atol=1e-8)
            # stage targets grow one at a time
            assert all(b - a == 1 for a, b in zip(targets, targets[1:]))
            # accepted residual energy strictly decreases within (and across) stages
            accepted = [e for trace in traces for e in trace]
            assert all(b < a for a, b in zip(accepted, accepted[1:]))
            # reported support always backs the reported stage count, sorted
            assert got.support.size == got.stages
            assert np.array_equal(got.support, np.sort(got.support))

    def test_one_proxy_per_residual(self):
        # ssamp correlates a residual only when an accepted support changed
        # it: one proxy for the received pilots plus one per accepted pass.
        for s in range(40):
            y, phis = _random_instance(30_000 + s)
            op = _CountingOperator(as_operator(phis))
            got = ssamp(y, op, 0.01)
            est, supp, reason, passes, _, traces = ssamp_reference(y, phis, 0.01)
            assert np.array_equal(got.support, supp), f"seed {s}"
            assert (got.termination_reason, got.iterations) == (reason, passes)
            np.testing.assert_allclose(got.at(np.arange(phis.shape[2])), est, atol=1e-8)
            assert reason != TERM_MAXITER
            assert len(op.correlated) == 1 + sum(len(trace) for trace in traces)
            for i, a in enumerate(op.correlated):
                assert not any(np.array_equal(a, b) for b in op.correlated[i + 1 :])

    def test_single_vector_equivalence(self):
        # P = 1 degenerates to the plain stagewise pursuit; check it explicitly
        for s in range(20):
            y, phis = _random_instance(20_000 + s, n_vec=1)
            got = ssamp(y, phis, 0.01)
            est, supp, reason, passes, _, _ = ssamp_reference(y, phis, 0.01)
            assert np.array_equal(got.support, supp)
            assert got.termination_reason == reason
            assert got.iterations == passes
            np.testing.assert_allclose(got.at(np.arange(phis.shape[2])), est, atol=1e-8)


class TestSsampBehavior:
    def test_noiseless_exact_recovery(self):
        for chan_seed, ens_seed in ((101, 202), (111, 212), (121, 222)):
            aset, ops, received, _ = synth(DESK_EXACT, chan_seed, ens_seed, 0)
            result = ssamp(received, ops, P_TH_NOISELESS)
            assert set(result.support.tolist()) == set(aset.support.tolist())
            every = np.arange(ops.shape[2])
            assert nmse_db(result.at(every), aset.at(every)) <= -60.0
            assert result.termination_reason == TERM_THRESHOLD

    def test_zero_signal_quits_first_pass(self):
        rng = np.random.default_rng(0)
        phis = rng.standard_normal((2, 4, 8)) + 1j * rng.standard_normal((2, 4, 8))
        result = ssamp(np.zeros((2, 4)), phis, 0.01)
        assert result.termination_reason == TERM_THRESHOLD
        assert result.iterations == 1
        assert result.support.size == 0
        assert not result.at(np.arange(phis.shape[2])).any()
        assert result.stages == 0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        phis = rng.standard_normal((2, 8, 16)) + 1j * rng.standard_normal((2, 8, 16))
        x = np.zeros((2, 16), dtype=complex)
        x[:, [2, 9]] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = np.einsum("prd,pd->pr", phis, x) + 0.03 * rng.standard_normal((2, 8))
        gamma = 7.3
        base = ssamp(y, phis, 0.01)
        scaled = ssamp(gamma * y, phis, 0.01 * gamma**2)
        assert np.array_equal(base.support, scaled.support)
        assert base.termination_reason == scaled.termination_reason
        assert base.iterations == scaled.iterations
        every = np.arange(16)
        np.testing.assert_allclose(scaled.at(every), gamma * base.at(every), rtol=1e-9)

    def test_input_validation(self):
        rng = np.random.default_rng(4)
        phis = rng.standard_normal((2, 4, 8)) + 0j
        y = rng.standard_normal((2, 4)) + 0j
        for p_th in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="p_th must be positive and finite"):
                ssamp(y, phis, p_th)
        with pytest.raises(ValueError):
            ssamp(y[0], phis, 0.01)
        with pytest.raises(ValueError, match="mismatch"):
            ssamp(np.zeros((3, 4)), phis, 0.01)

    def test_max_iterations_cap(self, monkeypatch):
        rng = np.random.default_rng(5)
        phis = rng.standard_normal((1, 4, 8)) + 1j * rng.standard_normal((1, 4, 8))
        y = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
        # uncapped, this instance stops on the residual rule after 10 passes
        assert ssamp(y, phis, 1e-30).iterations > 4
        monkeypatch.setattr(recovery, "MAX_PASSES_PER_ROW", 1)  # 4 passes on 4 rows
        result = ssamp(y, phis, 1e-30)
        assert result.iterations == 4
        assert result.termination_reason == TERM_MAXITER

    def test_ls_residual_orthogonality(self):
        # the refit residual must be orthogonal to every selected column
        aset, op, received, _ = synth(DESK_SNR20, 51, 52, 53)
        scale = np.sqrt(DESK_SNR20.n_ant_user * DESK_SNR20.n_ant_bs)
        result = ssamp(received / scale, op, p_th_for_snr(DESK_SNR20.snr_db))
        assert result.support.size > 0
        genie = oracle_ls(received, op, aset.support)
        ops = op.dense()
        for estimate, measurement, support in (
            (result.at(np.arange(ops.shape[2])), received / scale, result.support),
            (genie.at(np.arange(ops.shape[2])), received, aset.support),
        ):
            resid = measurement - np.einsum("prd,pd->pr", ops, estimate)
            for p in range(ops.shape[0]):
                cols = ops[p][:, support]
                bound = 1e-8 * np.linalg.norm(cols, axis=0) * np.linalg.norm(resid[p])
                assert np.all(np.abs(cols.conj().T @ resid[p]) <= bound + 1e-15)


class TestAdaptiveOmp:
    def test_single_atom_exact(self):
        rng = np.random.default_rng(7)
        phis = rng.standard_normal((1, 6, 12)) + 1j * rng.standard_normal((1, 6, 12))
        x = np.zeros((1, 12), dtype=complex)
        x[0, 5] = 2.0 - 1j
        y = np.einsum("prd,pd->pr", phis, x)
        result = adaptive_omp(y, phis, 1e-20)
        assert result.support.tolist() == [5]
        assert result.iterations == 1
        np.testing.assert_allclose(result.at(np.arange(12)), x, atol=1e-10)
        assert result.termination_reason == TERM_THRESHOLD

    def test_zero_received(self):
        rng = np.random.default_rng(8)
        phis = rng.standard_normal((2, 4, 8)) + 0j
        result = adaptive_omp(np.zeros((2, 4)), phis, 1e-12)
        assert result.support.size == 0
        assert not result.at(np.arange(8)).any()

    def test_support_is_per_subcarrier_union(self):
        aset, ops, received, sigma2 = synth(DESK_SNR20, 61, 62, 63)
        result = adaptive_omp(received, ops, _omp_threshold(sigma2, received))
        per_p_union = set()
        for row in result.at(np.arange(ops.shape[2])):
            per_p_union |= set(np.flatnonzero(np.abs(row) > 0).tolist())
        assert set(result.support.tolist()) == per_p_union

    def test_threshold_validation(self):
        for threshold in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="residual_threshold must be positive and finite"):
                adaptive_omp(np.zeros((1, 2)), np.zeros((1, 2, 3)), threshold)


class TestFit:
    """_fit against one lstsq per subcarrier, the minimum-norm LS solution."""

    @staticmethod
    def _lstsq(cols, received):
        return np.stack([np.linalg.lstsq(c, r, rcond=LSTSQ_RCOND)[0]
                         for c, r in zip(cols, received)])

    def test_full_rank(self):
        rng = np.random.default_rng(11)
        cols = _cnormal(rng, (5, 12, 6))
        received = _cnormal(rng, (5, 12))
        np.testing.assert_allclose(_fit(cols, received), self._lstsq(cols, received),
                                   rtol=1e-12)

    def test_more_columns_than_rows(self):
        rng = np.random.default_rng(12)
        cols = _cnormal(rng, (3, 4, 7))
        received = _cnormal(rng, (3, 4))
        coefs = _fit(cols, received)
        np.testing.assert_array_equal(coefs, self._lstsq(cols, received))
        np.testing.assert_allclose(coefs, (np.linalg.pinv(cols) @ received[..., None])[..., 0],
                                   rtol=1e-10)

    def test_nearly_equal_columns(self):
        # block 0 has columns 2 and 3 equal up to 1e-13: lstsq treats it as
        # rank 4 and splits the weight evenly; the other blocks are full rank
        rng = np.random.default_rng(13)
        cols = _cnormal(rng, (3, 10, 5))
        cols[0, :, 3] = cols[0, :, 2] + 1e-13 * _cnormal(rng, 10)
        received = _cnormal(rng, (3, 10))
        coefs = _fit(cols, received)
        reference = self._lstsq(cols, received)
        np.testing.assert_array_equal(coefs[0], reference[0])
        pinv = np.linalg.pinv(cols[0], rcond=LSTSQ_RCOND)
        np.testing.assert_allclose(coefs[0], pinv @ received[0], rtol=1e-8)
        assert abs(coefs[0, 2] - coefs[0, 3]) < 1e-6 * abs(coefs[0, 2])
        np.testing.assert_allclose(coefs[1:], reference[1:], rtol=1e-12)

    def test_empty_block(self):
        assert _fit(np.zeros((2, 3, 0), dtype=complex), np.ones((2, 3))).shape == (2, 0)


# Integer energies make ties frequent; the reference is a stable argsort.
@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=40), st.integers(1, 45))
def test_top_indices_matches_stable_argsort(values, count):
    energy = np.array(values, dtype=float)
    expected = np.sort(np.argsort(-energy, kind="stable")[:count])
    np.testing.assert_array_equal(_top_indices(energy, count), expected)


# Small ranges make repeats frequent; lists come unsorted and may be empty.
@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-5, 40), max_size=12),
    st.lists(st.integers(-5, 40), max_size=12),
)
def test_index_union_matches_union1d(a, b):
    a, b = np.array(a, dtype=np.intp), np.array(b, dtype=np.intp)
    got, expected = _index_union(a, b), np.union1d(a, b)
    np.testing.assert_array_equal(got, expected)
    assert got.dtype == expected.dtype == np.intp


def test_index_union_flattens_and_casts():
    grid = np.array([[3, 1], [1, 0]])
    np.testing.assert_array_equal(_index_union(grid), np.unique(grid))
    small = np.array([9, 2, 2], dtype=np.int32)
    np.testing.assert_array_equal(_index_union(small, small[:1]), [2, 9])
    assert _index_union(small).dtype == np.intp
    assert _index_union(np.array([], dtype=int)).dtype == np.intp


class TestOracleLs:
    def test_noiseless_floor(self):
        aset, ops, received, _ = synth(DESK_EXACT, 71, 72, 0)
        every = np.arange(ops.shape[2])
        # An unsorted (P, K) support with repeats names the same columns.
        shuffled = np.repeat(aset.support[::-1], 2).reshape(2, -1)
        for support in (aset.support, shuffled):
            result = oracle_ls(received, ops, support)
            np.testing.assert_array_equal(result.support, aset.support)
            assert nmse_db(result.at(every), aset.at(every)) <= -100.0
            assert result.termination_reason is None

    def test_empty_support(self):
        rng = np.random.default_rng(0)
        phis = rng.standard_normal((2, 4, 8)) + 1j * rng.standard_normal((2, 4, 8))
        y = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        result = oracle_ls(y, phis, np.array([], dtype=int))
        assert result.coefficients.shape == (2, 0)
        assert not result.at(np.arange(8)).any()

    def test_underdetermined_rejected(self):
        phis = np.zeros((1, 3, 8), dtype=complex)
        with pytest.raises(ValueError, match="underdetermined"):
            oracle_ls(np.zeros((1, 3)), phis, [0, 1, 2, 3])

    def test_out_of_range_rejected(self):
        phis = np.ones((1, 3, 8), dtype=complex)
        with pytest.raises(ValueError, match="range"):
            oracle_ls(np.zeros((1, 3)), phis, [7, 8])

    def test_noiseless_dominance_per_record(self):
        # with no noise the oracle reference is never worse record by
        # record; with noise only in the mean, and individual draws can
        # invert when the pursuit drops a weak atom the oracle is forced to
        # fit (see test_simulate)
        for t in range(20):
            chan_seed, ens_seed, noise_seed = _trial_seeds(1000 + t)
            aset, ops, received, _ = synth(DESK_EXACT, chan_seed, ens_seed, noise_seed)
            genie = oracle_ls(received, ops, aset.support)
            pursuit = ssamp(received, ops, P_TH_NOISELESS)
            every = np.arange(ops.shape[2])
            assert nmse_db(genie.at(every), aset.at(every)) <= (
                nmse_db(pursuit.at(every), aset.at(every)) + 1e-9
            )


@pytest.mark.parametrize(
    "estimate",
    [
        lambda y, ops: ssamp(y, ops, 0.01),
        lambda y, ops: adaptive_omp(y, ops, 1e-6),
        lambda y, ops: oracle_ls(y, ops, [1, 3]),
    ],
    ids=["ssamp", "adaptive_omp", "oracle_ls"],
)
def test_non_finite_input_rejected(estimate):
    aset, op, received, _ = synth(DESK_SNR20, 31, 32, 33)
    for bad in (np.nan, np.inf, -np.inf):
        y = received.copy()
        y[1, 2] = bad
        with pytest.raises(ValueError, match="received pilots contain non-finite"):
            estimate(y, op)
        dense = op.dense().copy()
        dense[0, 3, 5] = bad
        with pytest.raises(ValueError, match="operators contain non-finite"):
            estimate(received, dense)
        right = op.right.copy()
        right[2, 1, 0] = bad
        with pytest.raises(ValueError, match="operators contain non-finite"):
            estimate(received, type(op)(op.left, right))


def test_joint_support_beats_per_subcarrier():
    """Sharing the support across P=8 subcarriers is what makes the pursuit
    work at this SNR; running it per subcarrier almost never recovers the
    support, and the OMP baseline never beats the joint run."""
    cfg = replace(DESK_EXACT, snr_db=10.0)
    p_th = _ssamp_threshold(cfg)
    joint_hits, single_hits, single_total, omp_hits = 0, 0, 0, 0
    for t in range(200):
        chan_seed, ens_seed, noise_seed = _trial_seeds(4000 + t)
        aset, ops, received, sigma2 = synth(cfg, chan_seed, ens_seed, noise_seed)
        truth = set(aset.support.tolist())
        joint = ssamp(received, ops, p_th)
        joint_hits += set(joint.support.tolist()) == truth
        for p in range(received.shape[0]):
            alone = ssamp(received[p : p + 1], _subcarriers(ops, slice(p, p + 1)), p_th)
            single_hits += set(alone.support.tolist()) == truth
            single_total += 1
        omp = adaptive_omp(received, ops, _omp_threshold(sigma2, received))
        omp_hits += set(omp.support.tolist()) == truth
    assert joint_hits / 200 > single_hits / single_total
    assert omp_hits <= joint_hits


def _property_instance(kind, seed):
    """(received, operators, oracle support, p_th, OMP threshold) for one draw.

    "kronecker" is a DESK_SNR20 trial through measurement_operators; "array"
    is a random (P, 8, 16) array, which the estimators wrap.
    """
    if kind == "kronecker":
        aset, ops, received, sigma2 = synth(DESK_SNR20, *_trial_seeds(seed))
        omp_threshold = _omp_threshold(sigma2, received)
        return received, ops, aset.support, _ssamp_threshold(DESK_SNR20), omp_threshold
    received, phis = _random_instance(seed)
    support = np.random.default_rng(seed).choice(phis.shape[2], 2, replace=False)
    # _random_instance's noise has variance 2 * 0.05^2 per entry
    return received, phis, support, 0.01, _omp_threshold(0.005, received)


def _estimate_all(received, operators, support, p_th, omp_threshold):
    return (
        ssamp(received, operators, p_th),
        adaptive_omp(received, operators, omp_threshold),
        oracle_ls(received, operators, support),
    )


operator_kinds = st.sampled_from(["kronecker", "array"])


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(operator_kinds, st.integers(0, 2**32 - 1), st.integers(-8, 8))
    def test_scale_equivariance(self, kind, seed, k):
        # powers of two scale every float operation exactly
        received, ops, support, p_th, omp_threshold = _property_instance(kind, seed)
        base = _estimate_all(received, ops, support, p_th, omp_threshold)
        scaled = _estimate_all(
            received * 2.0**k, ops, support, p_th * 4.0**k, omp_threshold * 4.0**k
        )
        for a, b in zip(base, scaled):
            np.testing.assert_array_equal(b.support, a.support)
            assert b.iterations == a.iterations
            assert b.termination_reason == a.termination_reason
            every = np.arange(ops.shape[2])
            np.testing.assert_array_equal(b.at(every), a.at(every) * 2.0**k)

    # Fixed examples: ssamp's stage tests compare residual energies, and a
    # rounding-level tie (1 DESK_SNR20 draw in 3,000 with supports below the
    # row count) flips with the order of the sums over subcarriers.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(operator_kinds, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_subcarrier_permutation_invariance(self, kind, seed, perm_seed):
        received, ops, support, p_th, omp_threshold = _property_instance(kind, seed)
        perm = np.random.default_rng(perm_seed).permutation(received.shape[0])
        base = _estimate_all(received, ops, support, p_th, omp_threshold)
        permuted = _estimate_all(
            received[perm], _subcarriers(ops, perm), support, p_th, omp_threshold
        )
        pairs = list(zip(base, permuted))
        if max(base[0].support.size, permuted[0].support.size) >= ops.shape[1]:
            pairs = pairs[1:]  # ssamp at the row count: see the test below
        for a, b in pairs:
            np.testing.assert_array_equal(b.support, a.support)
            a_dense = a.at(np.arange(ops.shape[2]))
            np.testing.assert_allclose(
                b.at(np.arange(ops.shape[2])), a_dense[perm], rtol=1e-9,
                atol=1e-12 * np.abs(a_dense).max(),
            )

    # Fixed examples over trial draws.  When ssamp locks the true support, its
    # saved stage is the LS fit on the same columns that oracle_ls fits.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from(["DESK_EXACT", "DESK_SNR20"]), st.integers(0, 2**32 - 1))
    def test_exact_support_is_the_oracle_fit(self, config_name, seed):
        config = {"DESK_EXACT": DESK_EXACT, "DESK_SNR20": DESK_SNR20}[config_name]
        aset, ops, received, _ = synth(config, *_trial_seeds(seed))
        est = ssamp(received, ops, _ssamp_threshold(config))
        assume(np.array_equal(est.support, aset.support))
        oracle = oracle_ls(received, ops, aset.support)
        every = np.arange(ops.shape[2])
        np.testing.assert_array_equal(est.at(every), oracle.at(every))
        if config is DESK_EXACT:
            assert nmse_db(est.at(every), aset.at(every)) <= -60.0

    @settings(max_examples=30, deadline=None)
    @given(operator_kinds, st.integers(0, 2**32 - 1))
    def test_estimates_vanish_off_the_support(self, kind, seed):
        # run_trial scores NMSE on the supports only, which needs this
        instance = _property_instance(kind, seed)
        dim = instance[1].shape[2]
        for est in _estimate_all(*instance):
            dense = est.at(np.arange(dim))
            off = np.ones(dim, dtype=bool)
            off[est.support] = False
            assert not dense[:, off].any()

    @settings(max_examples=30, deadline=None)
    @given(operator_kinds, st.integers(0, 2**32 - 1))
    def test_coefficients_align_with_the_support(self, kind, seed):
        instance = _property_instance(kind, seed)
        n_pilots = instance[0].shape[0]
        for est in _estimate_all(*instance):
            np.testing.assert_array_equal(est.support, np.unique(est.support))
            assert est.coefficients.shape == (n_pilots, est.support.size)

    def test_permutation_beyond_row_count(self):
        """ssamp does not cap its stage sparsity at the row count.  Past it the
        stage fits are minimum-norm with residual energies at the rounding
        floor, so the stage decisions can follow the order of the subcarrier
        sums.  Draw 252 is the first of the 16 in 3,000 DESK_SNR20 draws whose
        support passes the row count; since the operator is built by FFT none
        of the 16 changes under 1,000 permutations, so this one passes unless
        that sensitivity comes back."""
        received, ops, _, p_th, _ = _property_instance("kronecker", 252)
        base = ssamp(received, ops, p_th)
        assert base.support.size > ops.shape[1]
        perm = np.random.default_rng(253).permutation(received.shape[0])
        permuted = ssamp(received[perm], _subcarriers(ops, perm), p_th)
        if not np.array_equal(permuted.support, base.support):
            pytest.xfail("known: reordering the subcarriers changes a support "
                         "larger than the row count")

    # Fixed examples: the reference solves with lstsq, _fit mostly with the
    # normal equations, so a pick decided by rounding could differ.  The
    # 1e-6 threshold scale runs most subcarriers to the row count.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(operator_kinds, st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-6]))
    def test_adaptive_omp_matches_reference(self, kind, seed, threshold_scale):
        received, ops, _, _, omp_threshold = _property_instance(kind, seed)
        threshold = omp_threshold * threshold_scale
        got = adaptive_omp(received, ops, threshold)
        est, supports, picks, reason = omp_reference(received, ops, threshold)
        dense = got.at(np.arange(ops.shape[2]))
        for q, support in enumerate(supports):
            np.testing.assert_array_equal(np.flatnonzero(dense[q]), support)
            # exact zeros on the union columns this subcarrier did not pick
            unpicked = ~np.isin(got.support, support)
            assert not got.coefficients[q, unpicked].any()
        np.testing.assert_array_equal(got.support, sorted(set().union(*supports)))
        assert got.iterations == picks
        assert got.termination_reason == reason
        np.testing.assert_allclose(dense, est, rtol=1e-9)


class TestSubcarrierBlocks:
    """Correlations run over blocks of subcarriers (pilots.BLOCK_BYTES); the
    block size must not change a single bit of any result."""

    @settings(max_examples=60, deadline=None)
    @given(operator_kinds, st.integers(0, 2**32 - 1), st.data())
    def test_blocked_magnitudes_are_the_adjoint_magnitudes(self, kind, seed, data):
        op = as_operator(_property_instance(kind, seed)[1])
        n_pilots, rows, dim = op.shape
        r = _cnormal(np.random.default_rng(seed), (n_pilots, rows))
        chosen = data.draw(st.lists(st.booleans(), min_size=n_pilots, max_size=n_pilots))
        subcarriers = np.flatnonzero(chosen)
        block = data.draw(st.integers(1, n_pilots))
        reference = np.abs(_adjoint_reference(op, r))
        got = np.full((subcarriers.size, dim), np.nan)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pilots, "BLOCK_BYTES", 16 * dim * block)
            for i, key, magnitudes in op.adjoint_abs(r[subcarriers], subcarriers):
                n = len(magnitudes)
                assert 1 <= n <= block and magnitudes.shape == (n, dim)
                np.testing.assert_array_equal(np.arange(n_pilots)[key], subcarriers[i : i + n])
                got[i : i + n] = magnitudes
        np.testing.assert_array_equal(got, reference[subcarriers])

    @settings(max_examples=30, deadline=None)
    @given(operator_kinds, st.integers(0, 2**32 - 1), st.data())
    def test_estimators_do_not_see_the_block_size(self, kind, seed, data):
        received, ops, _, p_th, omp_threshold = _property_instance(kind, seed)
        n_pilots, _, dim = as_operator(ops).shape
        assert as_operator(ops).block == n_pilots  # the default budget holds all P
        base = (ssamp(received, ops, p_th), adaptive_omp(received, ops, omp_threshold))
        fewest = min(2, n_pilots)
        several = data.draw(st.integers(fewest, max(fewest, n_pilots - 1)))
        for block in (1, several, n_pilots):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pilots, "BLOCK_BYTES", 16 * dim * block)
                assert as_operator(ops).block == block
                got = (ssamp(received, ops, p_th), adaptive_omp(received, ops, omp_threshold))
            for a, b in zip(base, got):
                np.testing.assert_array_equal(b.support, a.support)
                assert (b.iterations, b.stages) == (a.iterations, a.stages)
                assert b.termination_reason == a.termination_reason
                np.testing.assert_array_equal(b.coefficients, a.coefficients)


def _peak_bytes(estimate):
    tracemalloc.start()
    try:
        estimate()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_trial_forms_no_subcarrier_by_grid_temporaries():
    # At dim 16,384 and P = 8 a (P, dim) complex array is 2 MiB.  ssamp's
    # peak stays below one (P, dim) float array; adaptive OMP, which holds
    # the (P, dim) float column norms, stays below one complex array.
    _, ops, received, sigma2 = synth(WIDE, *_trial_seeds(0))
    n_pilots, rows, dim = ops.shape
    assert (n_pilots, dim) == (8, 16384)
    threshold = _omp_threshold(sigma2, received)
    peaks = (
        _peak_bytes(lambda: ssamp(received, ops, _ssamp_threshold(WIDE))),
        _peak_bytes(lambda: adaptive_omp(received, ops, threshold)),
    )
    message = "peaks {:.2f} and {:.2f} MiB".format(*(peak / 2**20 for peak in peaks))
    assert peaks[0] < n_pilots * dim * 8, message
    assert peaks[1] < n_pilots * dim * 16, message
    assert ops.block == 1


class TestNmse:
    def test_exact_match_floors(self):
        truth = np.array([[1.0 + 1j, 2.0]])
        assert nmse_db(truth.copy(), truth) == -300.0

    def test_zero_db(self):
        truth = np.ones((1, 4))
        est = truth.copy()
        est[0, 0] += 2.0  # error energy 4 == truth energy 4
        assert nmse_db(est, truth) == pytest.approx(0.0, abs=1e-12)

    def test_minus_twenty_db(self):
        rng = np.random.default_rng(9)
        truth = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        assert nmse_db(1.1 * truth, truth) == pytest.approx(-20.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="mismatch"):
            nmse_db(np.zeros((1, 3)), np.zeros((1, 4)))
        with pytest.raises(ValueError, match="zero"):
            nmse_db(np.ones((1, 3)), np.zeros((1, 3)))


def test_p_th_schedule():
    assert p_th_for_snr(20.0) == 0.01
    assert p_th_for_snr(35.0) == 0.005
    assert p_th_for_snr(30.0) == 0.005
    assert p_th_for_snr(25.0) == 0.008
    assert p_th_for_snr(12.0) == 0.06
    assert p_th_for_snr(10.0) == 0.06
    assert p_th_for_snr(9.0) == 0.06
    assert p_th_for_snr(float("inf")) == P_TH_NOISELESS


def test_support_metrics():
    assert support_metrics([1, 2, 3], [3, 2, 1]) == (True, 1.0, 1.0)
    assert support_metrics([1, 2], [3, 4]) == (False, 0.0, 0.0)
    exact, precision, recall = support_metrics([1, 2, 3, 4], [1, 2, 3])
    assert (exact, recall) == (False, 1.0)
    assert precision == pytest.approx(0.75)
    assert support_metrics([], []) == (True, 1.0, 1.0)
    assert support_metrics([], [1]) == (False, 0.0, 0.0)
