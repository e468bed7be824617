"""Brute-force checks of the joint-recovery uniqueness condition.

For P sparse vectors sharing a support but observed through P different
sensing matrices, a unique minimum-support solution is guaranteed when
2S < spark(Phi_1) - 1 + rank(Ytilde), where Ytilde collects the measurements
mapped back through per-matrix bridge transforms.  Everything here is
exhaustive and only meant for instances small enough to enumerate: spark by
subset search, the l0 problem by support enumeration, plus the closed-form
training-overhead formulas the condition motivates.
"""

from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

# Rank decisions in this module: singular values below RANK_REL_TOL times the
# largest are zero.
RANK_REL_TOL = 1e-8

# run_certificate_battery draws at most this many instances per requested one.
MAX_ATTEMPTS_FACTOR = 50

SPARK_MAX_COLUMNS = 24
L0_MAX_COLUMNS = 16
L0_MAX_SPARSITY = 3


@dataclass(frozen=True)
class GmmvInstance:
    """P jointly sparse vectors observed through P distinct matrices."""

    operators: np.ndarray     # (P, m, n)
    signals: np.ndarray       # (P, n), common support
    measurements: np.ndarray  # (P, m)
    support: np.ndarray       # sorted true support

    @property
    def sparsity(self) -> int:
        return int(self.support.size)


@dataclass(frozen=True)
class UniquenessCertificate:
    spark_phi1: int
    rank_ytilde: int
    condition_holds: bool


def draw_gmmv_instance(
    m: int,
    n: int,
    sparsity: int,
    n_vectors: int,
    seed: int,
    shared_operator: bool = False,
    identical_signals: bool = False,
) -> GmmvInstance:
    """Random Gaussian instance with a common support drawn uniformly."""
    if sparsity > n:
        raise ValueError("sparsity cannot exceed the column count")
    rng = np.random.default_rng(seed)

    def cgauss(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    if shared_operator:
        op = cgauss((m, n))
        operators = np.broadcast_to(op, (n_vectors, m, n)).copy()
    else:
        operators = cgauss((n_vectors, m, n))
    support = np.sort(rng.choice(n, size=sparsity, replace=False)) if sparsity else np.array([], dtype=int)
    signals = np.zeros((n_vectors, n), dtype=np.complex128)
    if sparsity:
        if identical_signals:
            coefs = cgauss(sparsity)
            signals[:, support] = coefs
        else:
            signals[:, support] = cgauss((n_vectors, sparsity))
    measurements = np.einsum("pmn,pn->pm", operators, signals)
    return GmmvInstance(
        operators=operators,
        signals=signals,
        measurements=measurements,
        support=support.astype(int),
    )


def _numerical_rank(matrix: np.ndarray) -> int:
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_REL_TOL * s[0]))


def _has_dependent_subset(a: np.ndarray, k: int) -> bool:
    """Whether some k columns of `a` fail the RANK_REL_TOL test.

    Batched SVDs of at most 4096 subsets each, stopping at the first batch
    that fails: at 24 columns one size alone has up to 2.7 million subsets.
    """
    subsets = combinations(range(a.shape[1]), k)
    while idx := list(islice(subsets, 4096)):
        s = np.linalg.svd(a[:, np.array(idx)].transpose(1, 0, 2), compute_uv=False)
        if np.any(s[:, -1] <= RANK_REL_TOL * s[:, 0]):
            return True
    return False


def spark(matrix) -> int:
    """Smallest number of linearly dependent columns, by subset search.

    Returns min(rows, cols) + 1 when every subset that fits in the row space
    is independent (e.g. n + 1 for an identity, rows + 1 for a generic fat
    matrix).  Refuses matrices with more than SPARK_MAX_COLUMNS columns.

    While k <= rows, adding a column never raises the smallest singular
    value nor lowers the largest (interlacing), so once some k-subset fails
    the rank test some (k + 1)-subset does too.  The largest size is tested
    first, which settles the generic case alone; otherwise the smallest
    failing size is found by bisection.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("spark needs a non-empty 2-D matrix")
    m, n = a.shape
    if n > SPARK_MAX_COLUMNS:
        raise ValueError(
            f"{n} columns exceeds the exhaustive-search limit ({SPARK_MAX_COLUMNS})"
        )
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms <= RANK_REL_TOL * norms.max()):
        return 1  # a (numerically) zero column is dependent on its own
    lo, hi = 2, min(m, n)
    if hi < lo or not _has_dependent_subset(a, hi):
        return hi + 1
    while lo < hi:  # the smallest failing size lies in [lo, hi]
        mid = (lo + hi) // 2
        if _has_dependent_subset(a, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def bridge_matrices(operators, support) -> np.ndarray:
    """Minimum-Frobenius bridges Psi_p with (Phi_p)_support = Psi_p (Phi_1)_support.

    Solved by Psi_p = (Phi_p)_S pinv((Phi_1)_S).  Raises when the support
    columns of Phi_1 are rank-deficient, in which case no exact bridge of
    this form exists and the uniqueness check is not evaluable.
    """
    ops = np.asarray(operators)
    idx = np.asarray(support, dtype=int)
    base = ops[0][:, idx]
    if _numerical_rank(base) < idx.size:
        raise ValueError(
            "support columns of the first operator are rank-deficient; "
            "bridge matrices are not evaluable"
        )
    return ops[:, :, idx] @ np.linalg.pinv(base, rcond=RANK_REL_TOL)


def uniqueness_check(instance: GmmvInstance) -> UniquenessCertificate:
    """Evaluate 2S < spark(Phi_1) - 1 + rank(Ytilde) on one instance.

    Ytilde's first column is y_1 raw; later columns are pinv(Psi_p) y_p,
    which maps each measurement back into Phi_1 coordinates.
    """
    bridge = bridge_matrices(instance.operators, instance.support)
    y = instance.measurements
    mapped = np.linalg.pinv(bridge[1:], rcond=RANK_REL_TOL) @ y[1:, :, None]
    ytilde = np.column_stack([y[0], *mapped[..., 0]])
    spark_phi1 = spark(instance.operators[0])
    rank_ytilde = _numerical_rank(ytilde)
    holds = 2 * instance.sparsity < spark_phi1 - 1 + rank_ytilde
    return UniquenessCertificate(
        spark_phi1=spark_phi1,
        rank_ytilde=rank_ytilde,
        condition_holds=holds,
    )


def minimal_supports(instance: GmmvInstance):
    """Every smallest common support consistent with all measurements.

    A support is consistent when each nonzero y_p lies in the span of the
    selected columns of its own operator: the minimum-norm residual (pinv
    cutoff RANK_REL_TOL) is at most RANK_REL_TOL times ||y_p||.  Sizes 1..S
    are searched in turn, every support of one size for every y_p at once,
    and the sorted index tuples of the first size that has any are
    returned: [()] when every y_p is zero, [] when no support up to S fits.
    The minimal support is unique when exactly one tuple comes back.
    """
    n = instance.operators.shape[2]
    s_max = instance.sparsity
    if n > L0_MAX_COLUMNS:
        raise ValueError(f"{n} columns exceeds the exhaustive limit ({L0_MAX_COLUMNS})")
    if s_max > L0_MAX_SPARSITY:
        raise ValueError(
            f"sparsity {s_max} exceeds the exhaustive limit ({L0_MAX_SPARSITY})"
        )
    y = instance.measurements
    norms = np.linalg.norm(y, axis=1)
    keep = norms != 0.0
    if not keep.any():
        return [()]
    ops, y, norms = instance.operators[keep], y[keep, :, None], norms[keep]  # P' vectors
    for k in range(1, s_max + 1):
        idx = np.array(list(combinations(range(n), k)))
        blocks = ops[:, :, idx].transpose(2, 0, 1, 3)  # (n_subsets, P', m, k)
        coefs = np.linalg.pinv(blocks, rcond=RANK_REL_TOL) @ y
        residuals = np.linalg.norm(y - blocks @ coefs, axis=(2, 3))  # (n_subsets, P')
        fits = np.all(residuals <= RANK_REL_TOL * norms, axis=1)
        if fits.any():
            return [tuple(combo) for combo in idx[fits].tolist()]
    return []


def min_time_slots(sparsity: int, n_chains: int) -> int:
    """Fewest training slots for identifiability: ceil((S_a + 1) / chains)."""
    if sparsity < 0:
        raise ValueError("sparsity must be non-negative")
    if n_chains < 1:
        raise ValueError("n_chains must be positive")
    return -(-(sparsity + 1) // n_chains)


def orthogonal_pilot_overhead(
    n_pilot: int, n_bs: int, n_ant_user: int, n_ant_bs: int, n_chain_user: int
) -> int:
    """Slot count an orthogonal (non-compressive) design would need.

    ceil(N_g * M * N_US * N_BS / N_chain_US); the size of this number against
    min_time_slots is the whole point of the compressive design.
    """
    values = (n_pilot, n_bs, n_ant_user, n_ant_bs, n_chain_user)
    if any(v < 1 for v in values):
        raise ValueError("all inputs must be positive integers")
    total = n_pilot * n_bs * n_ant_user * n_ant_bs
    return -(-total // n_chain_user)


@dataclass(frozen=True)
class CertificateRecord:
    """One battery row, its fields in theory_check.csv column order: the
    instance's number and shape, its certificate, and whether exhaustive
    search found exactly one minimal support, equal to the truth."""

    instance: int
    m: int
    n: int
    sparsity: int
    n_vectors: int
    spark_phi1: int
    rank_ytilde: int
    certificate_holds: bool
    consistent: bool


def run_certificate_battery(n_instances: int, seed: int):
    """Random instances whose certificate holds, cross-checked against l0.

    Draws random shapes (m in 4..8, n in 8..16, S in 1..3, P in 1..4), keeps
    instances where the uniqueness condition holds, and verifies on each that
    exhaustive search returns exactly one minimal support equal to the truth.
    Returns a list of CertificateRecord.
    """
    if n_instances < 1:
        raise ValueError("n_instances must be positive")
    rng = np.random.default_rng(seed)
    records = []
    attempts = 0
    limit = MAX_ATTEMPTS_FACTOR * n_instances
    while len(records) < n_instances and attempts < limit:
        attempts += 1
        m = int(rng.integers(4, 9))
        n = int(rng.integers(8, 17))
        s = int(rng.integers(1, 4))
        n_vec = int(rng.integers(1, 5))
        inst = draw_gmmv_instance(m, n, s, n_vec, seed=int(rng.integers(2**32)))
        cert = uniqueness_check(inst)
        if not cert.condition_holds:
            continue
        records.append(
            CertificateRecord(
                instance=len(records),
                m=m,
                n=n,
                sparsity=s,
                n_vectors=n_vec,
                spark_phi1=cert.spark_phi1,
                rank_ytilde=cert.rank_ytilde,
                certificate_holds=True,
                consistent=minimal_supports(inst) == [tuple(inst.support.tolist())],
            )
        )
    if len(records) < n_instances:
        raise RuntimeError(
            f"only {len(records)} certified instances found in {attempts} attempts"
        )
    return records
