"""Acceptance gate: eight pass/fail criteria printed one line each.

Run with `pytest tests/test_acceptance.py -s` to see the [PRIMARY n] lines.
Criterion 2 encodes a published claim at a tolerance this implementation does
not reach (the staged pursuit censors sub-threshold paths that the genie
bound fits exactly); it is expected to FAIL and is left failing on purpose.
"""

import time
from dataclasses import replace

import numpy as np

from mmwave_scs.channel import (
    LinkBudgetParams,
    angular_channel_set,
    dft_pair,
    draw_multipath,
    path_loss_db,
    unitary_dft,
)
from mmwave_scs.cli import _PATH_LOSS_NOTE
from mmwave_scs.pilots import (
    calibrate_noise_variance,
    draw_ensemble,
    measurement_operators,
    pilot_subcarrier_indices,
    synthesize_received,
)
from mmwave_scs.recovery import P_TH_NOISELESS, nmse_db, oracle_ls, ssamp
from mmwave_scs.simulate import (
    _ssamp_threshold,
    _trial_seeds,
    ber_experiment,
    run_trial,
    sweep,
)
from mmwave_scs.theory import min_time_slots, run_certificate_battery

from conftest import (
    DESK_EXACT,
    DESK_SNR10,
    DESK_SNR20,
    combiner_matrix,
    delay_to_frequency,
    pilot_vector,
    slot_measurement,
    synth,
)
from test_recovery import ssamp_reference, _random_instance


def _report(index, passed, detail):
    print(f"[PRIMARY {index}] {'PASS' if passed else 'FAIL'}: {detail}")


def _mean_db(values_db):
    return 10.0 * np.log10(np.mean([10.0 ** (v / 10.0) for v in values_db]))


def test_primary_1_noiseless_exact_recovery():
    start = time.perf_counter()
    hits = 0
    for t in range(200):
        record = run_trial(DESK_EXACT, 1000 + t)
        m = record.metrics["ssamp"]
        hits += m.exact_support_match and m.nmse_db <= -60.0
    elapsed = time.perf_counter() - start
    rate = hits / 200
    ok = rate >= 0.95 and elapsed < 120.0
    _report(1, ok, f"noiseless exact recovery {hits}/200 ({rate:.1%}), {elapsed:.1f} s")
    assert rate >= 0.95
    assert elapsed < 120.0


def test_primary_2_oracle_gap_at_20db():
    start = time.perf_counter()
    ssamp_db, oracle_db = [], []
    for t in range(200):
        record = run_trial(DESK_SNR20, 3000 + t)
        ssamp_db.append(record.metrics["ssamp"].nmse_db)
        oracle_db.append(record.metrics["oracle_ls"].nmse_db)
    elapsed = time.perf_counter() - start
    gap = _mean_db(ssamp_db) - _mean_db(oracle_db)
    ok = gap <= 1.5 and elapsed < 300.0
    _report(
        2,
        ok,
        f"mean NMSE gap to the oracle LS reference {gap:.2f} dB (tolerance 1.5 dB), "
        f"{elapsed:.1f} s — known shortfall, see README",
    )
    assert elapsed < 300.0
    assert gap <= 1.5


def test_primary_3_beats_omp_at_10db():
    ssamp_db, omp_db = [], []
    for t in range(200):
        record = run_trial(DESK_SNR10, 3000 + t)
        ssamp_db.append(record.metrics["ssamp"].nmse_db)
        omp_db.append(record.metrics["adaptive_omp"].nmse_db)
    margin = _mean_db(omp_db) - _mean_db(ssamp_db)
    ok = _mean_db(ssamp_db) <= _mean_db(omp_db) + 0.5
    _report(3, ok, f"joint pursuit beats per-subcarrier OMP by {margin:.2f} dB")
    assert ok


def test_primary_4_certificates_match_exhaustive_search():
    start = time.perf_counter()
    records = run_certificate_battery(100, seed=4242)
    elapsed = time.perf_counter() - start
    consistent = sum(1 for rec in records if rec.consistent)
    ok = consistent == 100 and elapsed < 60.0
    _report(4, ok, f"{consistent}/100 certificates agree with exhaustive search, {elapsed:.1f} s")
    assert consistent == 100
    assert elapsed < 60.0


def _ssamp_nmse(config, seed):
    """run_trial's ssamp NMSE alone: its synthesis, threshold and scoring
    on the union of supports, without the other two estimators."""
    aset, ops, received, _ = synth(config, *_trial_seeds(seed))
    est = ssamp(received, ops, _ssamp_threshold(config))
    scored = np.union1d(est.support, aset.support)
    return nmse_db(est.at(scored), aset.at(scored))


def test_primary_5_overhead_formula_and_vector_diversity():
    slots = min_time_slots(16, 2)
    many = replace(
        DESK_EXACT,
        n_paths=8,
        n_subcarriers=32,
        n_pilot_subcarriers=32,
        n_slots=slots,
        snr_db=30.0,
    )
    lone = replace(many, n_pilot_subcarriers=1)
    hits_many, hits_lone = 0, 0
    for t in range(500):
        hits_many += _ssamp_nmse(many, 5000 + t) <= -10.0
        hits_lone += _ssamp_nmse(lone, 5000 + t) <= -10.0
    ok = slots == 9 and hits_many > hits_lone
    _report(
        5,
        ok,
        f"min slots {slots} (expected 9); success at G=9: "
        f"P=32 {hits_many}/500 vs P=1 {hits_lone}/500",
    )
    assert slots == 9
    assert hits_many > hits_lone


def test_primary_6_link_budget_values_and_note():
    cases = (
        (LinkBudgetParams(3000.0, 2.2, 1.0), 102.04),
        (LinkBudgetParams(30000.0, 2.2, 0.1, 0.1, 5.0), 100.55),
        (LinkBudgetParams(30000.0, 2.2, 0.03, 0.1, 5.0), 88.69),
    )
    errors = [abs(path_loss_db(params) - expect) for params, expect in cases]
    noted = "102.04" in _PATH_LOSS_NOTE and "192.62" in _PATH_LOSS_NOTE
    ok = max(errors) <= 0.01 and noted
    _report(
        6,
        ok,
        f"formula values within {max(errors):.4f} dB; "
        f"published-value discrepancy documented: {noted}",
    )
    assert max(errors) <= 0.01
    assert noted


def test_primary_7_property_suites():
    failures = []

    # unitarity
    f = unitary_dft(16)
    if not np.allclose(f.conj().T @ f, np.eye(16), atol=1e-12):
        failures.append("unitarity")

    # energy conservation: the angular vectors carry the frequency-domain energy
    aset, ops, received, sigma2 = synth(DESK_SNR20, 901, 902, 903)
    chan = draw_multipath(DESK_SNR20, 901)
    freq = delay_to_frequency(chan, DESK_SNR20, pilot_subcarrier_indices(DESK_SNR20))
    energy = np.sum(np.abs(aset.coefficients) ** 2)
    if not np.isclose(energy, np.sum(np.abs(freq) ** 2), rtol=1e-10):
        failures.append("energy-conservation")

    # Kronecker identity: slot operator == combine-after-channel
    cfg = DESK_EXACT
    dft = dft_pair(cfg)
    ens = draw_ensemble(cfg, 905)
    rng = np.random.default_rng(906)
    for _ in range(10):
        t = int(rng.integers(0, cfg.n_slots))
        p = int(rng.integers(0, cfg.n_pilot_subcarriers))
        ang_mats = rng.standard_normal((cfg.n_bs, cfg.n_ant_user, cfg.n_ant_bs)) + (
            1j * rng.standard_normal((cfg.n_bs, cfg.n_ant_user, cfg.n_ant_bs))
        )
        vec = np.concatenate([ang_mats[m].flatten(order="F") for m in range(cfg.n_bs)])
        z = combiner_matrix(ens, t, p)
        direct = np.zeros(cfg.n_chain_user, dtype=complex)
        for m in range(cfg.n_bs):
            h_freq = dft.rx @ ang_mats[m] @ dft.tx.conj().T
            direct += z.conj().T @ (h_freq @ pilot_vector(ens, t, p, m))
        if not np.allclose(slot_measurement(ens, dft, t, p) @ vec, direct, rtol=1e-10, atol=1e-12):
            failures.append("kronecker-identity")
            break

    # common support across subcarriers
    chan_cs = draw_multipath(cfg, 907)
    aset_cs = angular_channel_set(chan_cs, cfg, pilot_subcarrier_indices(cfg))
    union = set(aset_cs.support.tolist())
    for row in aset_cs.at(np.arange(cfg.angular_dimension)):
        if set(np.flatnonzero(row).tolist()) != union:
            failures.append("common-support")
            break

    # SNR calibration within 0.1 dB (2000 fresh noise draws)
    dense, vectors = ops.dense(), aset.at(np.arange(ops.shape[2]))
    signal = sum(
        float(np.sum(np.abs(dense[p] @ vectors[p]) ** 2)) for p in range(ops.shape[0])
    )
    clean = np.einsum("prd,pd->pr", dense, vectors)
    noise_energy, n_entries = 0.0, 0
    for draw in range(2000):
        rec = synthesize_received(clean, sigma2, 70_000 + draw)
        noise_energy += float(np.sum(np.abs(rec - clean) ** 2))
        n_entries += rec.size
    realized = 10.0 * np.log10(
        signal / (ops.shape[1] * ops.shape[0] * noise_energy / n_entries)
    )
    if abs(realized - 20.0) > 0.1:
        failures.append("snr-calibration")

    # joint pursuit degenerates to the single-vector pursuit at P = 1
    for s in range(20):
        y, phis = _random_instance(30_000 + s, n_vec=1)
        got = ssamp(y, phis, 0.01)
        est, supp, reason, passes, _, _ = ssamp_reference(y, phis, 0.01)
        if not (
            np.array_equal(got.support, supp)
            and got.termination_reason == reason
            and got.iterations == passes
            and np.allclose(got.at(np.arange(phis.shape[2])), est, atol=1e-8)
        ):
            failures.append("single-vector-equivalence")
            break

    # oracle dominance: per record noiseless, in the mean at 20 dB
    for t in range(10):
        a2, o2, r2, _ = synth(DESK_EXACT, 910 + t, 920 + t, 0)
        every = np.arange(o2.shape[2])
        genie = nmse_db(oracle_ls(r2, o2, a2.support).at(every), a2.at(every))
        pursuit = nmse_db(ssamp(r2, o2, P_TH_NOISELESS).at(every), a2.at(every))
        if genie > pursuit + 1e-9:
            failures.append("oracle-dominance-noiseless")
            break
    lin_s, lin_o = [], []
    for t in range(60):
        record = run_trial(DESK_SNR20, 3000 + t)
        lin_s.append(10.0 ** (record.metrics["ssamp"].nmse_db / 10.0))
        lin_o.append(10.0 ** (record.metrics["oracle_ls"].nmse_db / 10.0))
    if np.mean(lin_o) > np.mean(lin_s):
        failures.append("oracle-dominance-mean")

    # bit-identical reruns
    t1 = sweep(DESK_SNR20, "snr", [15.0], 4, 77)
    t2 = sweep(DESK_SNR20, "snr", [15.0], 4, 77)
    if t1.rows != t2.rows:
        failures.append("rerun-reproducibility")

    ok = not failures
    detail = "8/8 property suites green" if ok else f"failing: {', '.join(failures)}"
    _report(7, ok, detail)
    assert not failures


def test_primary_8_ber_ordering():
    start = time.perf_counter()
    table = ber_experiment(
        DESK_EXACT, [0.0, 5.0, 10.0, 15.0, 20.0], 10**5, 808, n_realizations=4
    )
    elapsed = time.perf_counter() - start
    ber = {}
    for snr_db, source, value, symbols in table.rows:
        ber.setdefault(snr_db, {})[source] = value
        assert symbols >= 10**5
    ordered = all(
        ber[s]["perfect"] <= ber[s]["ssamp"] <= ber[s]["adaptive_omp"]
        for s in ber
    )
    improving = ber[20.0]["ssamp"] < ber[0.0]["ssamp"]
    ok = ordered and improving and elapsed < 600.0
    _report(
        8,
        ok,
        "joint-CSI BER below OMP-CSI and above perfect-CSI at all "
        f"{len(ber)} SNR points, {elapsed:.1f} s",
    )
    assert ordered
    assert improving
    assert elapsed < 600.0
