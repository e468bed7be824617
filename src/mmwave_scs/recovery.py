"""Joint sparse recovery of the angular channel vectors.

The estimators here all consume the same data: one received pilot vector and
one stacked sensing matrix per pilot subcarrier, with the unknown vectors
sharing a common support.  ssamp() walks through sparsity stages and selects
support jointly from the energy summed across subcarriers; adaptive_omp()
treats every subcarrier on its own and serves as the weak baseline;
oracle_ls() is the genie-aided reference fit on the true support, not a
bound on the others.
"""

from dataclasses import dataclass

import numpy as np

from .channel import AngularChannelSet
from .pilots import as_operator

# Least-squares cutoff: singular values below LSTSQ_RCOND times the largest
# are treated as zero (minimum-norm solutions on rank-deficient blocks).
LSTSQ_RCOND = 1e-10
# Normal equations lose about cond(Gram) * eps of relative accuracy; blocks
# whose Gram matrix is worse conditioned than this take the lstsq path.
GRAM_COND_LIMIT = 1e6

TERM_THRESHOLD = "weakest-coefficient-below-threshold"
TERM_RESIDUAL = "residual-increase-vs-last-stage"
TERM_MAXITER = "max-iterations"

# ssamp stops after this many passes per measurement row.
MAX_PASSES_PER_ROW = 10

# Termination threshold schedule: measured knee points on the SNR grid.
_P_TH_TABLE = ((10.0, 0.06), (15.0, 0.02), (20.0, 0.01), (25.0, 0.008), (30.0, 0.005))

# Without injected noise the overshoot coefficients sit at numerical-precision
# level, so the stop threshold only has to clear that floor while staying far
# below any plausible true coefficient energy.
P_TH_NOISELESS = 1e-12


@dataclass(frozen=True)
class EstimationResult(AngularChannelSet):
    """Output of one recovery run over all pilot subcarriers: the estimates
    in the form of the true channel set, with how the run went."""

    iterations: int
    stages: int
    termination_reason: str | None


def _index_union(*arrays) -> np.ndarray:
    """Sorted, de-duplicated union of integer index arrays (flattened), as np.intp;
    empty for no arrays.

    np.union1d and np.unique give the same values, but in numpy 2.4 their
    masked-array check imports numpy.ma on first use.  Supports are small
    (hundreds of indices at most), where Python's set is the cheap route.
    """
    merged = np.concatenate(arrays, axis=None).tolist() if arrays else []
    return np.array(sorted(set(merged)), dtype=np.intp)


def _top_indices(energy: np.ndarray, count: int) -> np.ndarray:
    """Sorted indices of the `count` largest entries; ties go to the lowest index."""
    if count >= energy.size:
        return np.arange(energy.size)
    cutoff = np.partition(energy, -count)[-count]
    above = np.flatnonzero(energy > cutoff)
    ties = np.flatnonzero(energy == cutoff)[: count - above.size]
    return _index_union(above, ties)


def _fit(cols, received):
    """Per-subcarrier minimum-norm LS coefficients on a (P, rows, K) column block.

    The normal equations solve all blocks at once; blocks with K > rows or a
    Gram matrix whose 1-norm condition number reaches GRAM_COND_LIMIT are
    solved again by lstsq with cutoff LSTSQ_RCOND.
    """
    n_pilots, rows, k = cols.shape
    herm = cols.conj().swapaxes(1, 2)
    gram = herm @ cols
    with np.errstate(all="ignore"):
        try:
            inverse = np.linalg.inv(gram)
        except np.linalg.LinAlgError:  # an exactly singular block
            inverse = np.full_like(gram, np.inf)
        coefs = (inverse @ (herm @ received[..., None]))[..., 0]
        cond = np.abs(gram).sum(axis=1).max(axis=1, initial=0.0)
        cond *= np.abs(inverse).sum(axis=1).max(axis=1, initial=0.0)
    for p in np.flatnonzero(~(cond < GRAM_COND_LIMIT) | (k > rows)):
        coefs[p] = np.linalg.lstsq(cols[p], received[p], rcond=LSTSQ_RCOND)[0]
    return coefs


def _residual(received, cols, coefs):
    return received - (cols @ coefs[..., None])[..., 0]


def _check_inputs(received, operators):
    """(received as complex (P, rows), operator); rejects bad shapes and non-finite
    pilots (the operator checks its own factors when it is built)."""
    r = np.asarray(received, dtype=np.complex128)
    op = as_operator(operators)
    if r.ndim != 2:
        raise ValueError(f"expected received pilots (P, rows), got shape {r.shape}")
    if r.shape != op.shape[:2]:
        raise ValueError(f"shape mismatch: received {r.shape} vs operators {op.shape}")
    if not np.isfinite(r).all():
        raise ValueError("received pilots contain non-finite values (NaN or Inf)")
    return r, op


def ssamp(received, operators, p_th: float) -> EstimationResult:
    """Stage-adaptive joint greedy recovery with a common support.

    Starting at sparsity 1, each pass correlates every subcarrier's residual
    with its own sensing matrix, merges the strongest T proxy bins (energy
    summed over subcarriers) into the working support, prunes back to the T
    jointly strongest after a least-squares fit, and refits.  A stage ends
    when the residual stops shrinking; the stage estimate is saved and T grows
    by one.  The loop quits when the weakest surviving coefficient falls below
    p_th (sparsity overshoot) or when a new stage makes the residual worse
    than the previous stage's, and returns the last saved stage estimate.
    It also quits after MAX_PASSES_PER_ROW passes per measurement row.

    T is not capped at the row count: a stage may fit more columns than
    there are rows, and that fit is the minimum-norm one (cutoff
    LSTSQ_RCOND), so the returned support can be larger than the rows.

    p_th compares against sum_p |c_lmin|^2 / P, so it lives on the squared
    scale of the coefficients: synthesized on-grid coefficients carry the
    array gain sqrt(N_US * N_BS), so simulate._ssamp_threshold passes
    p_th_for_snr times N_US * N_BS.  `operators` is a KroneckerOperator or a
    (P, rows, dim) array.
    """
    r, op = _check_inputs(received, operators)
    if not 0 < p_th < np.inf:
        raise ValueError(f"p_th must be positive and finite, got {p_th}")
    n_pilots, rows, dim = op.shape
    max_passes = MAX_PASSES_PER_ROW * rows
    subcarriers = np.arange(n_pilots)

    sparsity = 1  # T, the target support size of the current stage
    # Last accepted support, its coefficients and its residuals.
    support = np.array([], dtype=int)
    support_coefs = None
    residuals = r
    residual_energy = float(np.sum(np.abs(r) ** 2))
    # Last saved stage estimate, returned when the loop quits.
    saved_support = support
    saved_coefs = np.zeros((n_pilots, 0), dtype=np.complex128)
    saved_residual_energy = np.inf
    # Joint proxy energy of `residuals`, recomputed only when they change.
    proxy_energy = np.empty(dim)
    stale = True
    passes = 0
    reason = TERM_MAXITER
    while passes < max_passes:
        passes += 1
        if stale:
            # Residual correlations, energy summed over subcarriers in
            # subcarrier order, as np.sum(axis=0) adds them.
            proxy_energy.fill(0.0)
            for _, _, block in op.adjoint_abs(residuals, subcarriers):
                for row in np.square(block, out=block):
                    proxy_energy += row
            stale = False
        gamma = _top_indices(proxy_energy, sparsity)
        union = _index_union(support, gamma)
        trial = _fit(op.columns(union), r)
        keep = _top_indices(np.sum(np.abs(trial) ** 2, axis=0), sparsity)
        omega = union[keep]
        if np.array_equal(omega, support):
            # Pruned back to the accepted support, whose fit is already known.
            coefs, residual, res_energy = support_coefs, residuals, residual_energy
        else:
            cols = op.columns(omega)
            coefs = _fit(cols, r)
            residual = _residual(r, cols, coefs)
            res_energy = float(np.sum(np.abs(residual) ** 2))

        if np.sum(np.abs(coefs) ** 2, axis=0).min() / n_pilots < p_th:
            reason = TERM_THRESHOLD
            break
        if saved_residual_energy < res_energy:
            reason = TERM_RESIDUAL
            break
        if residual_energy <= res_energy:
            # Stage exhausted: keep its estimate and try a larger sparsity.
            saved_support, saved_coefs = omega, coefs
            saved_residual_energy = res_energy
            sparsity += 1
        else:
            support, support_coefs = omega, coefs
            residuals, residual_energy = residual, res_energy
            stale = True

    return EstimationResult(
        coefficients=saved_coefs,
        support=saved_support.copy(),
        iterations=passes,
        stages=sparsity - 1,  # the last saved stage's sparsity
        termination_reason=reason,
    )


def adaptive_omp(received, operators, residual_threshold: float) -> EstimationResult:
    """Per-subcarrier orthogonal matching pursuit, no joint support sharing.

    Each subcarrier greedily adds its own best-correlated column and refits
    until the residual energy drops to residual_threshold or the support
    reaches the row count; the subcarriers still picking advance together,
    one pick per step.  The reported support is the union across
    subcarriers, which for a common-sparsity channel is exactly what a
    per-subcarrier scheme gets wrong.
    """
    r, op = _check_inputs(received, operators)
    if not 0 < residual_threshold < np.inf:
        raise ValueError(
            f"residual_threshold must be positive and finite, got {residual_threshold}"
        )
    n_pilots, rows, dim = op.shape
    col_norms = op.column_norms()
    col_norms[col_norms == 0] = np.inf
    block_rows = np.arange(op.block)[:, None]
    res_energy = np.sum(np.abs(r) ** 2, axis=1)
    # The subcarriers still picking, with their data, picks and residuals.
    active = np.flatnonzero(res_energy > residual_threshold)
    r_act = r[active]
    picks = np.zeros((active.size, 0), dtype=int)
    residual = r_act
    finished = []  # (subcarriers, their sorted supports, their coefficients)
    while active.size:
        best = np.empty(active.size, dtype=int)
        for i, key, corr in op.adjoint_abs(residual, active):
            n = len(corr)
            corr /= col_norms[key]
            corr[block_rows[:n], picks[i : i + n]] = -1.0  # never re-pick
            best[i : i + n] = np.argmax(corr, axis=1)
        picks = np.column_stack([picks, best])
        support = np.sort(picks, axis=1)
        cols = op.columns(support, active)
        coefs = _fit(cols, r_act)
        residual = _residual(r_act, cols, coefs)
        res_energy[active] = np.sum(np.abs(residual) ** 2, axis=1)
        done = (res_energy[active] <= residual_threshold) | (picks.shape[1] == rows)
        if done.any():
            finished.append((active[done], support[done], coefs[done]))
            keep = ~done
            active, picks, residual, r_act = active[keep], picks[keep], residual[keep], r_act[keep]
    union = _index_union(*(support for _, support, _ in finished))
    # Each subcarrier's coefficients on the union, exactly zero on the
    # columns it did not pick.
    coefficients = np.zeros((n_pilots, union.size), dtype=np.complex128)
    for subcarriers, support, coefs in finished:
        coefficients[subcarriers[:, None], np.searchsorted(union, support)] = coefs
    all_below = bool(np.all(res_energy <= residual_threshold))
    return EstimationResult(
        coefficients=coefficients,
        support=union,
        iterations=sum(support.size for _, support, _ in finished),
        stages=int(union.size),
        termination_reason=TERM_THRESHOLD if all_below else TERM_MAXITER,
    )


def oracle_ls(received, operators, true_support) -> EstimationResult:
    """Genie-aided least squares on the true support: a reference, not a
    bound.  Near K = rows the unregularised fit amplifies noise, and a
    pruned estimate can beat it."""
    r, op = _check_inputs(received, operators)
    support = _index_union(np.asarray(true_support, dtype=int))
    rows, dim = op.shape[1], op.shape[2]
    if support.size > rows:
        raise ValueError(
            f"support size {support.size} exceeds measurement rows {rows}; "
            "oracle LS would be underdetermined"
        )
    if support.size and (support.min() < 0 or support.max() >= dim):
        raise ValueError("support indices out of range")
    return EstimationResult(
        coefficients=_fit(op.columns(support), r),
        support=support,
        iterations=0,
        stages=int(support.size),
        termination_reason=None,
    )


def nmse_db(estimates, truth) -> float:
    """10 log10(sum ||err||^2 / sum ||truth||^2), floored at -300 dB."""
    est = np.asarray(estimates)
    tru = np.asarray(truth)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {tru.shape}")
    denom = float(np.sum(np.abs(tru) ** 2))
    if denom == 0.0:
        raise ValueError("true signal has zero energy: NMSE undefined")
    num = float(np.sum(np.abs(est - tru) ** 2))
    if num == 0.0:
        return -300.0
    return max(10.0 * np.log10(num / denom), -300.0)


def p_th_for_snr(snr_db: float) -> float:
    """Termination threshold for a working SNR (nearest listed point below).

    Listed points: 10 dB -> 0.06, 15 -> 0.02, 20 -> 0.01, 25 -> 0.008,
    >= 30 -> 0.005.  Below 10 dB the 10 dB value applies.  An infinite SNR
    (noiseless runs) maps to P_TH_NOISELESS instead of the 30 dB knee: the
    schedule separates true coefficients from noise-level ones, and with no
    noise that boundary drops to the numerical floor.
    """
    if np.isinf(snr_db) and snr_db > 0:
        return P_TH_NOISELESS
    value = _P_TH_TABLE[0][1]
    for snr_point, p_th in _P_TH_TABLE:
        if snr_db >= snr_point:
            value = p_th
    return value


def support_metrics(estimated, true):
    """(exact_match, precision, recall) between two index sets.

    Empty-versus-empty compares as a full match; a metric whose denominator
    set is empty while the other is not reports the vacuous value (1.0 for
    recall with an empty true set, 0.0 precision/recall for an empty estimate
    against a nonempty truth).
    """
    est = set(int(i) for i in np.asarray(estimated, dtype=int).ravel())
    tru = set(int(i) for i in np.asarray(true, dtype=int).ravel())
    exact = est == tru
    hits = len(est & tru)
    precision = hits / len(est) if est else (1.0 if not tru else 0.0)
    recall = hits / len(tru) if tru else 1.0
    return exact, precision, recall
