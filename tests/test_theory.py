"""Uniqueness certificates, spark, bridges, minimal supports, overhead formulas."""

from itertools import combinations

import numpy as np
import pytest

from mmwave_scs import theory
from mmwave_scs.channel import SystemConfig
from mmwave_scs.pilots import draw_ensemble, measurement_operators
from mmwave_scs.theory import (
    GmmvInstance,
    bridge_matrices,
    draw_gmmv_instance,
    min_time_slots,
    minimal_supports,
    orthogonal_pilot_overhead,
    run_certificate_battery,
    spark,
    uniqueness_check,
)


# ----------------------------------------------------------------------- spark


def spark_exhaustive(matrix) -> int:
    """The reference: every subset size from 2 up, smallest failing size first."""
    a = np.asarray(matrix)
    m, n = a.shape
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms <= theory.RANK_REL_TOL * norms.max()):
        return 1
    for k in range(2, min(m, n) + 1):
        idx = np.array(list(combinations(range(n), k)))
        s = np.linalg.svd(a[:, idx].transpose(1, 0, 2), compute_uv=False)
        if np.any(s[:, -1] <= theory.RANK_REL_TOL * s[:, 0]):
            return k
    return min(m, n) + 1


def test_spark_matches_exhaustive_search_on_planted_dependencies():
    rng = np.random.default_rng(2024)
    sparks = set()
    for _ in range(150):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 11))
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        kind = rng.integers(3)
        if kind == 1 and n >= 2:
            # one column a combination of d - 1 others: spark at most d
            d = int(rng.integers(2, min(m + 1, n) + 1))
            cols = rng.choice(n, size=d, replace=False)
            a[:, cols[0]] = a[:, cols[1:]] @ rng.standard_normal(d - 1)
        elif kind == 2:
            # rank r: every r + 1 columns are dependent
            rank = int(rng.integers(1, m + 1))
            a = rng.standard_normal((m, rank)) @ a[:rank]
        value = spark(a)
        assert value == spark_exhaustive(a), (m, n, kind)
        sparks.add(value)
    assert len(sparks) >= 5
    # Only the last 7 columns are dependent: of the 11,440 7-subsets, the
    # one that fails lies beyond the first 4,096, in a later SVD batch.
    a = rng.standard_normal((7, 16)) + 1j * rng.standard_normal((7, 16))
    a[:, 15] = a[:, 9:15] @ rng.standard_normal(6)
    assert spark(a) == spark_exhaustive(a) == 7


def test_spark_identity():
    assert spark(np.eye(5)) == 6


def test_spark_parallel_columns():
    assert spark(np.array([[1.0, 2.0], [2.0, 4.0]])) == 2


def test_spark_zero_column():
    assert spark(np.array([[1.0, 0.0], [0.0, 0.0]])) == 1


def test_spark_generic_fat_matrix():
    # a generic 4x8 has every 4-column subset independent: spark = 5
    for s in range(100):
        rng = np.random.default_rng(s)
        a = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        assert spark(a) == 5


def test_spark_guards():
    with pytest.raises(ValueError, match="24"):
        spark(np.ones((2, 25)))
    with pytest.raises(ValueError):
        spark(np.ones(5))


def test_spark_of_training_operator():
    # a real stacked pilot operator on a tiny geometry: G * N_chain = 6 rows,
    # so the spark must land in 2..7; a generic draw realises a mid value
    cfg = SystemConfig(
        n_ant_bs=4, n_chain_bs=2, n_ant_user=4, n_chain_user=2, n_bs=1,
        n_paths=2, n_subcarriers=4, n_pilot_subcarriers=4, n_slots=3,
        max_delay_s=10e-9,
    )
    ops = measurement_operators(draw_ensemble(cfg, 9)).dense()
    assert ops.shape == (4, 6, 16)
    value = spark(ops[0])
    assert 2 <= value <= cfg.n_slots * cfg.n_chain_user + 1


# --------------------------------------------------------------------- bridges


def test_bridge_identity_and_scaling():
    rng = np.random.default_rng(7)
    phi1 = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    idx = np.array([2, 7])
    same = bridge_matrices(np.stack([phi1, phi1]), idx)
    np.testing.assert_allclose(same[1] @ phi1[:, idx], phi1[:, idx], atol=1e-10)
    doubled = bridge_matrices(np.stack([phi1, 2.0 * phi1]), idx)
    np.testing.assert_allclose(doubled[1] @ phi1[:, idx], 2.0 * phi1[:, idx], atol=1e-10)
    assert same.shape == (2, 6, 6)


def test_bridge_reconstructs_support_columns():
    for s in range(20):
        rng = np.random.default_rng(300 + s)
        ops = rng.standard_normal((3, 6, 12)) + 1j * rng.standard_normal((3, 6, 12))
        idx = np.sort(rng.choice(12, 2, replace=False))
        bridge = bridge_matrices(ops, idx)
        for p in range(3):
            lhs = bridge[p] @ ops[0][:, idx]
            scale = np.linalg.norm(ops[p][:, idx])
            assert np.linalg.norm(lhs - ops[p][:, idx]) <= 1e-8 * scale


def test_bridge_rank_deficient_support_rejected():
    rng = np.random.default_rng(11)
    phi1 = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    phi1[:, 5] = phi1[:, 3]  # duplicated column inside the support
    with pytest.raises(ValueError, match="rank-deficient"):
        bridge_matrices(np.stack([phi1, phi1]), np.array([3, 5]))


# ------------------------------------------------------------------ uniqueness


def test_rank_one_when_everything_is_shared():
    inst = draw_gmmv_instance(
        6, 12, 2, 3, seed=0, shared_operator=True, identical_signals=True
    )
    cert = uniqueness_check(inst)
    assert cert.rank_ytilde == 1


def test_rank_reaches_sparsity_with_diverse_operators():
    for s in range(20):
        inst = draw_gmmv_instance(6, 12, 3, 3, seed=100 + s)
        assert uniqueness_check(inst).rank_ytilde == 3


def test_rank_never_exceeds_sparsity():
    # every mapped-back measurement lives in the column span of the support
    rng = np.random.default_rng(13)
    for _ in range(30):
        m = int(rng.integers(5, 9))
        n = int(rng.integers(8, 13))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        inst = draw_gmmv_instance(m, n, s, p, seed=int(rng.integers(2**31)))
        assert uniqueness_check(inst).rank_ytilde <= s


def test_more_vectors_never_hurt_rank():
    for s in range(50):
        diverse = draw_gmmv_instance(6, 12, 3, 4, seed=s, identical_signals=True)
        shared = draw_gmmv_instance(
            6, 12, 3, 4, seed=s, identical_signals=True, shared_operator=True
        )
        assert (
            uniqueness_check(diverse).rank_ytilde
            >= uniqueness_check(shared).rank_ytilde
        )


def test_zero_sparsity_certificate():
    inst = draw_gmmv_instance(6, 12, 0, 3, seed=1)
    cert = uniqueness_check(inst)
    assert cert.rank_ytilde == 0
    assert cert.condition_holds  # 0 < spark - 1


def test_margin_sign_matches_condition():
    for s in range(10):
        inst = draw_gmmv_instance(5, 10, 2, 2, seed=40 + s)
        cert = uniqueness_check(inst)
        margin = cert.spark_phi1 - 1 + cert.rank_ytilde - 2 * inst.sparsity
        assert (margin > 0) == cert.condition_holds


def test_certificate_on_pipeline_operators():
    # stacked training operators with a synthetic common-support signal
    cfg = SystemConfig(
        n_ant_bs=4, n_chain_bs=2, n_ant_user=4, n_chain_user=2, n_bs=1,
        n_paths=2, n_subcarriers=4, n_pilot_subcarriers=4, n_slots=3,
        max_delay_s=10e-9,
    )
    ops = measurement_operators(draw_ensemble(cfg, 15)).dense()
    rng = np.random.default_rng(16)
    support = np.array([2, 9])
    signals = np.zeros((ops.shape[0], ops.shape[2]), dtype=complex)
    signals[:, support] = rng.standard_normal((ops.shape[0], 2)) + (
        1j * rng.standard_normal((ops.shape[0], 2))
    )
    inst = GmmvInstance(
        operators=ops,
        signals=signals,
        measurements=np.einsum("pmn,pn->pm", ops, signals),
        support=support,
    )
    cert = uniqueness_check(inst)
    assert cert.rank_ytilde <= inst.sparsity
    assert 2 <= cert.spark_phi1 <= cfg.n_slots * cfg.n_chain_user + 1


# --------------------------------------------------------------- exhaustive l0


def _instance(operators, signals, support):
    return GmmvInstance(
        operators=operators,
        signals=signals,
        measurements=np.einsum("pmn,pn->pm", operators, signals),
        support=np.array(support, dtype=int),
    )


def _cgauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_l0_single_atom():
    rng = np.random.default_rng(7)
    phi = _cgauss(rng, (2, 5, 8))
    x = np.zeros((2, 8), dtype=complex)
    x[:, 3] = [1.5, -2.0j]
    assert minimal_supports(_instance(phi, x, [3])) == [(3,)]


def test_l0_zero_measurements():
    rng = np.random.default_rng(8)
    phi = _cgauss(rng, (2, 5, 8))
    assert minimal_supports(_instance(phi, np.zeros((2, 8), dtype=complex), [])) == [()]


def test_l0_zero_vector_is_skipped():
    # y_2 = 0 fits every support, so y_1 alone decides
    rng = np.random.default_rng(9)
    phi = _cgauss(rng, (2, 5, 8))
    x = np.zeros((2, 8), dtype=complex)
    x[0, [1, 6]] = [1.0, 1.0j]
    assert minimal_supports(_instance(phi, x, [1, 6])) == [(1, 6)]


def test_l0_tie_returns_every_smallest_support():
    # column 5 duplicates column 3, so (3,) and (5,) explain y equally
    rng = np.random.default_rng(10)
    phi = _cgauss(rng, (2, 5, 8))
    phi[:, :, 5] = phi[:, :, 3]
    x = np.zeros((2, 8), dtype=complex)
    x[:, 3] = [1.0, 2.0]
    assert minimal_supports(_instance(phi, x, [3])) == [(3,), (5,)]


def test_l0_none_up_to_sparsity():
    # generic measurements lie in no span of S = 1 column
    rng = np.random.default_rng(11)
    phi = _cgauss(rng, (2, 5, 8))
    inst = GmmvInstance(
        operators=phi,
        signals=np.zeros((2, 8), dtype=complex),
        measurements=_cgauss(rng, (2, 5)),
        support=np.array([2]),
    )
    assert minimal_supports(inst) == []


def _lstsq_minimal_supports(inst):
    """Reference: one lstsq per support and vector, smallest consistent size."""
    y, tol = inst.measurements, theory.RANK_REL_TOL
    for k in range(inst.sparsity + 1):
        found = [
            combo
            for combo in combinations(range(inst.operators.shape[2]), k)
            if all(
                np.linalg.norm(
                    y[p] - inst.operators[p][:, combo]
                    @ np.linalg.lstsq(inst.operators[p][:, combo], y[p], rcond=tol)[0]
                ) <= tol * np.linalg.norm(y[p])
                for p in range(len(inst.operators))
            )
        ]
        if found:
            return found
    return []


def test_l0_matches_lstsq_reference():
    rng = np.random.default_rng(12)
    for _ in range(40):
        m = int(rng.integers(3, 7))
        n = int(rng.integers(6, 11))
        s = int(rng.integers(0, 4))
        p = int(rng.integers(1, 4))
        inst = draw_gmmv_instance(
            m, n, s, p, seed=int(rng.integers(2**31)),
            shared_operator=bool(rng.integers(2)),
        )
        if s and rng.integers(3) == 0:  # measurements that S columns may not fit
            inst = GmmvInstance(
                inst.operators, inst.signals, _cgauss(rng, (p, m)), inst.support
            )
        assert minimal_supports(inst) == _lstsq_minimal_supports(inst)


def test_l0_size_guards():
    with pytest.raises(ValueError, match="20 columns exceeds the exhaustive limit"):
        minimal_supports(draw_gmmv_instance(4, 20, 2, 1, seed=0))
    with pytest.raises(ValueError, match="sparsity 4 exceeds the exhaustive limit"):
        minimal_supports(draw_gmmv_instance(10, 16, 4, 1, seed=0))


# ------------------------------------------------------------- overhead counts


def test_min_time_slots_examples():
    assert min_time_slots(16, 2) == 9
    assert min_time_slots(0, 4) == 1
    assert min_time_slots(7, 8) == 1


def test_min_time_slots_monotone():
    for chains in (1, 2, 3, 4):
        values = [min_time_slots(s, chains) for s in range(21)]
        assert all(b >= a for a, b in zip(values, values[1:]))


def test_min_time_slots_validation():
    with pytest.raises(ValueError):
        min_time_slots(-1, 2)
    with pytest.raises(ValueError):
        min_time_slots(4, 0)


def test_orthogonal_overhead():
    assert orthogonal_pilot_overhead(64, 4, 32, 512, 2) == 2_097_152
    assert orthogonal_pilot_overhead(1, 1, 1, 1, 1) == 1
    # doubling the combining chains halves an even slot count
    assert orthogonal_pilot_overhead(8, 2, 4, 16, 2) == (
        orthogonal_pilot_overhead(8, 2, 4, 16, 1) // 2
    )
    with pytest.raises(ValueError):
        orthogonal_pilot_overhead(0, 4, 32, 512, 2)


# -------------------------------------------------------------------- instances


def test_instance_flags():
    shared = draw_gmmv_instance(5, 9, 2, 3, seed=2, shared_operator=True)
    assert np.array_equal(shared.operators[0], shared.operators[1])
    ident = draw_gmmv_instance(5, 9, 2, 3, seed=2, identical_signals=True)
    assert np.array_equal(ident.signals[0], ident.signals[1])
    div = draw_gmmv_instance(5, 9, 2, 3, seed=2)
    assert np.any(div.operators[0] != div.operators[1])


def test_instance_invariants():
    inst = draw_gmmv_instance(5, 9, 3, 2, seed=3)
    assert inst.sparsity == 3 and inst.operators.shape[0] == 2
    assert np.array_equal(inst.support, np.sort(inst.support))
    np.testing.assert_allclose(
        inst.measurements, np.einsum("pmn,pn->pm", inst.operators, inst.signals)
    )
    off_support = np.setdiff1d(np.arange(9), inst.support)
    assert not inst.signals[:, off_support].any()
    with pytest.raises(ValueError):
        draw_gmmv_instance(5, 9, 10, 2, seed=0)


def test_battery_validation():
    with pytest.raises(ValueError):
        run_certificate_battery(0, seed=0)


def test_battery_small_run():
    records = run_certificate_battery(5, seed=99)
    assert len(records) == 5
    for rec in records:
        assert rec.certificate_holds


def test_battery_records_a_tie_as_inconsistent(monkeypatch):
    # two minimal supports, the truth among them: the truth is not unique
    def tied(instance):
        truth = tuple(instance.support.tolist())
        return [truth, tuple(i + 1 for i in truth)]

    monkeypatch.setattr(theory, "minimal_supports", tied)
    records = run_certificate_battery(3, seed=99)
    assert len(records) == 3
    assert not any(rec.consistent for rec in records)
