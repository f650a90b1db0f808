"""End-to-end low-rank approximation of sparse non-negative matrices.

Two stages: a planner that permutes rows and columns so a well-conditioned
dense block lands in the top-left corner and reports how many leading
singular values the column-norm heuristic predicts are recoverable, and a
driver that zeroes the bottom-right block D and returns the top singular
values of the remainder R0 with a certified error of twice the operator
norm of D.

R0 = [[A, B], [C, 0]] has rank at most 2k, and the driver solves it from
its factors R0 = X Y^T, X = [[A, I], [C, 0]], Y^T = [[I, 0], [0, B]]: a thin
QR of each factor, then one SVD of the 2k x 2k core (Halko, Martinsson and
Tropp, arXiv:0909.4061, section 5). The block-rotation sweeps of
``blockdiag.top_singular_values`` reach the same values and stay as the
reference that ``verify pipeline`` checks this path against.

Nothing here inverts the pivot A, so the driver solves the requested split
whatever A is. R - R0 is D padded with zeros, so by Weyl's inequality
|sigma_j(R) - sigma_j(R0)| <= ||D||: the reported 2 * ||D|| bounds
|sigma_j(R) - values_j| for any A, up to the solve's rounding. When the gap
certificate sigma_i([A; C]) >= ||B|| holds, interlacing gives
sigma_i(R0) >= ||B|| >= sigma_{k+1}(R0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockdiag import GapCertificate, gap_certificate
from .matcore import BlockPartition, MatrixError, as_matrix, operator_norm
from .randmat import moment_ratio

DENSE_LIMIT = 2000          # larger column counts are rejected


@dataclass(frozen=True)
class PartitionPlan:
    """Row/column permutations plus the feasibility diagnosis.

    ``i_star`` is the largest rank i < k whose column norm clears the
    size-based threshold; ``xi_ratio`` is the moment ratio of the leading
    columns' size-to-squared-norm sequence, flagged when it exceeds the
    homogeneity cap 1 + m / (c_max * k).
    """

    column_permutation: np.ndarray
    row_permutation: np.ndarray
    k: int
    i_star: int
    threshold: float
    xi_ratio: float
    xi_ratio_flagged: bool

    def apply(self, r) -> np.ndarray:
        r = as_matrix(r)
        return r[np.ix_(self.row_permutation, self.column_permutation)]

    def to_json(self) -> dict:
        return {"column_permutation": self.column_permutation.tolist(),
                "row_permutation": self.row_permutation.tolist(),
                "k": self.k, "i_star": self.i_star, "threshold": self.threshold,
                "xi_ratio": self.xi_ratio,
                "xi_ratio_flagged": bool(self.xi_ratio_flagged)}


def _feasibility(r: np.ndarray, k: int, alpha: float) -> tuple[int, float]:
    """(i_star, threshold) for an already-permuted matrix at split k."""
    n = r.shape[1]
    col_norms = np.linalg.norm(r, axis=0)
    factor = np.sqrt(1.0 + np.sqrt(1.0 + 1.0 / alpha))
    if k >= n:
        return k - 1, 0.0
    right = r[:, k:]
    size_next = float(r[:, k].sum())
    max_row_size = float(right.sum(axis=1).max()) if right.size else 0.0
    threshold = factor * np.sqrt(size_next * max_row_size)
    i_star = 0
    for i in range(k - 1, 0, -1):
        if col_norms[i - 1] >= threshold:
            i_star = i
            break
    return i_star, float(threshold)


def _candidate_splits(n: int) -> list[int]:
    if n <= 2:
        return [1]
    grid = np.unique(np.geomspace(1, n - 1, num=min(n - 1, 24)).round().astype(int))
    return [int(k) for k in grid if 1 <= k < n]


def plan_partition(r, k: int | None = None, alpha: float = 1.0) -> PartitionPlan:
    """Permute a non-negative matrix for block approximation.

    Columns are sorted by descending norm and rows by descending size (sum).
    With ``k`` given, reports the feasibility index at that split; otherwise
    scans a logarithmic grid of splits and keeps the one maximizing the
    feasibility index (ties broken toward the smallest split).
    """
    r = as_matrix(r)
    if np.any(r < 0):
        raise MatrixError("planner requires a non-negative matrix")
    if alpha <= 0:
        raise MatrixError("shape parameter alpha must be positive")
    m, n = r.shape
    col_perm = np.argsort(-np.linalg.norm(r, axis=0), kind="stable")
    row_perm = np.argsort(-r.sum(axis=1), kind="stable")
    pr = r[np.ix_(row_perm, col_perm)]

    if k is not None:
        if not (1 <= k < max(n, 2)):
            raise MatrixError(f"need 1 <= k < n, got k={k}, n={n}")
        best_k, (best_i, best_thr) = k, _feasibility(pr, k, alpha)
    else:
        best_k, best_i, best_thr = None, -1, 0.0
        for cand in _candidate_splits(n):
            i_star, thr = _feasibility(pr, cand, alpha)
            if i_star > best_i:
                best_k, best_i, best_thr = cand, i_star, thr

    norms_left = np.linalg.norm(pr[:, :best_k], axis=0)
    sizes_left = pr[:, :best_k].sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        xi = np.where(norms_left > 0, sizes_left / norms_left**2, 0.0)
    if np.all(xi > 0):
        xi_ratio = moment_ratio(xi)
    else:
        xi_ratio = float("inf")
    cap = 1.0 + m / (max(float(sizes_left.max()), 1e-300) * best_k)
    return PartitionPlan(column_permutation=col_perm, row_permutation=row_perm,
                         k=best_k, i_star=best_i, threshold=best_thr,
                         xi_ratio=xi_ratio, xi_ratio_flagged=bool(xi_ratio > cap))


class PipelineError(RuntimeError):
    """Approximation refused (only past ``DENSE_LIMIT``); carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class ApproxReport:
    """Certified top singular values after dropping the bottom-right block.

    ``values`` are the top singular values of R0, from its rank-<=2k factors
    with no iteration. ``k`` is always the requested split, ``warnings``
    empty, ``iterations`` 0 and ``converged`` True; these fields keep the
    report in the same schema as one from the block-rotation reference path.
    """

    rank: int
    k: int
    values: np.ndarray
    error_bound: float          # 2 * ||D||, for any pivot A
    norm_d: float
    certificate: GapCertificate
    converged: bool
    iterations: int
    warnings: list[str] = field(default_factory=list)
    oracle_values: np.ndarray | None = None
    oracle_deviations: np.ndarray | None = None

    def to_json(self) -> dict:
        out = {"rank": self.rank, "k": self.k, "values": self.values.tolist(),
               "error_bound": self.error_bound, "norm_d": self.norm_d,
               "certificate": self.certificate.to_json(),
               "converged": bool(self.converged), "iterations": self.iterations,
               "warnings": list(self.warnings)}
        if self.oracle_values is not None:
            out["oracle_values"] = self.oracle_values.tolist()
            out["oracle_deviations"] = self.oracle_deviations.tolist()
        return out


def algorithm2(r, k: int, i: int, oracle: bool = False) -> ApproxReport:
    """Top ``i`` singular values of ``r`` with a certified error bound.

    Zeroes the bottom-right block D of the (k, k) partition, solves the
    remainder R0 = X Y^T from thin QR factors of X and Y and one SVD of the
    2k x 2k core, and reports its leading values together with the bound
    2 * ||D||, which holds for any pivot A, singular or not: the split is
    never changed. ``oracle`` adds a direct SVD comparison to the report.
    """
    r = as_matrix(r)
    m, n = r.shape
    if n > DENSE_LIMIT:
        raise PipelineError(f"dense driver limited to {DENSE_LIMIT} columns, got {n}")
    p = BlockPartition(r, k)
    norm_d = operator_norm(p.d)
    cert = gap_certificate(BlockPartition(p.zero_d(), k), i)
    # R0 = X Y^T with X = [[A, I], [C, 0]] and Y^T = [[I, 0], [0, B]].
    x = np.hstack([p.left_band(), np.eye(m, k)])
    yt = np.zeros((2 * k, n))
    yt[:k, :k] = np.eye(k)
    yt[k:, k:] = p.b
    core = np.linalg.qr(x, mode="r") @ np.linalg.qr(yt.T, mode="r").T
    values = np.linalg.svd(core, compute_uv=False)[:i]
    report = ApproxReport(rank=i, k=k, values=values,
                          error_bound=2.0 * norm_d, norm_d=norm_d,
                          certificate=cert, converged=True, iterations=0)
    if oracle:
        true = np.linalg.svd(r, compute_uv=False)[:i]
        report.oracle_values = true
        report.oracle_deviations = np.abs(true - report.values)
    return report
