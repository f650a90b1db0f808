"""End-to-end low-rank approximation of sparse non-negative matrices.

Two stages: a planner that permutes rows and columns so a well-conditioned
dense block lands in the top-left corner and reports how many leading
singular values the column-norm heuristic predicts are recoverable, and a
driver that zeroes the bottom-right block D and returns the top singular
values of the remainder R0 with a certified error of twice an upper bound
on the operator norm of D. ``approximate`` runs both, as the CLI does.

R0 = [[A, B], [C, 0]] has rank at most 2k. With thin QR factors C = Q_C R_C
and B^T = Q_B R_B, R0 = diag(I, Q_C) [[A, R_B^T], [R_C, 0]] diag(I, Q_B^T),
so sigma(R0) is the spectrum of that core of side at most 2k (the rank-<=2k
factored solve of Halko, Martinsson and Tropp, arXiv:0909.4061, section 5),
built by ``matcore.r0_core`` for ``bounds`` too. The block-rotation sweeps
of ``blockdiag.top_singular_values`` reach the same values and stay as the
reference that ``verify pipeline`` checks this path against.

Nothing here inverts the pivot A, so the driver solves the requested split
whatever A is. R - R0 is D padded with zeros, so by Weyl's inequality
|sigma_j(R) - sigma_j(R0)| <= ||D||: the reported 2 * norm_d bounds
|sigma_j(R) - values_j| for any A, up to the solve's rounding. ``norm_d``
is a certified upper bound on ||D||_2: ``matcore.certified_norm``'s
Collatz-Wielandt bound for a non-negative D, else LAPACK's padded sigma_1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import (BlockPartition, JsonReport, MatrixError, as_matrix, certified_norm,
                      pow2_scale, r0_core)

DENSE_LIMIT = 2000          # larger column counts are rejected
THRESHOLD_FACTOR = math.sqrt(1.0 + math.sqrt(2.0))  # sqrt(1 + sqrt(1 + 1/alpha)), alpha = 1


@dataclass(frozen=True)
class PartitionPlan(JsonReport):
    """Row/column permutations plus the feasibility diagnosis.

    ``i_star`` is the largest rank i < k whose column norm clears the
    size-based threshold. ``transposed`` says the plan permutes and splits
    R^T, as it does for a wide R (see ``_oriented``).
    """

    column_permutation: np.ndarray
    row_permutation: np.ndarray
    k: int
    i_star: int
    threshold: float
    transposed: bool

    def apply(self, r) -> np.ndarray:
        r = as_matrix(r)
        if self.transposed:
            r = r.T
        return r[np.ix_(self.row_permutation, self.column_permutation)]


def _oriented(r) -> tuple[np.ndarray, bool]:
    """``(R, False)``, or ``(R^T, True)`` when R has fewer rows than columns.

    A partition needs m >= n, and sigma(R) = sigma(R^T), so a wide matrix is
    planned and solved through its transpose.
    """
    r = as_matrix(r)
    return (r.T, True) if r.shape[0] < r.shape[1] else (r, False)


def _candidate_splits(n: int) -> list[int]:
    if n <= 2:
        return [1]
    grid = np.unique(np.geomspace(1, n - 1, num=min(n - 1, 24)).round().astype(int))
    return [int(k) for k in grid if 1 <= k < n]


def _right_max_row_sums(r: np.ndarray, col_perm: np.ndarray, splits: list[int]) -> np.ndarray:
    """Largest row sum of the columns col_perm[k:], for each ascending k.

    One product with a 0/1 matrix sums each row over the columns between
    consecutive splits; accumulating those from the largest split down
    gives every right block's row sums in one pass over r.
    """
    edges = np.asarray(splits + [r.shape[1]])
    groups = np.zeros((r.shape[1], len(splits)))
    for g, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        groups[col_perm[lo:hi], g] = 1.0
    sums = np.cumsum((r @ groups)[:, ::-1], axis=1)[:, ::-1]
    return sums.max(axis=0)


def plan_partition(r, k: int | None = None) -> PartitionPlan:
    """Permute a non-negative matrix for block approximation.

    Columns are sorted by descending norm and rows by descending size (sum).
    With ``k`` given, reports the feasibility index at that split; otherwise
    scans a logarithmic grid of splits and keeps the one maximizing the
    feasibility index (ties broken toward the smallest split). At split k,
    the threshold is THRESHOLD_FACTOR times the square root of column k's
    size and the largest row size of columns k and up, and the index is the
    largest i < k whose column norm clears it. Every figure is read through
    the permutations; the permuted matrix is never built. A wide matrix is
    planned through its transpose, so ``k`` splits R^T.

    R is planned as ``matcore.pow2_scale(R)`` gives it and ``threshold``
    scaled back, so no square overflows or underflows, and the plan of 2^e R
    is the plan of R with ``threshold`` times 2^e.
    """
    r, transposed = _oriented(r)
    if r.min() < 0.0:
        raise MatrixError("planner requires a non-negative matrix")
    r, e = pow2_scale(r)
    n = r.shape[1]
    col_norms = np.linalg.norm(r, axis=0)
    col_perm = np.argsort(-col_norms, kind="stable")
    row_perm = np.argsort(-r.sum(axis=1), kind="stable")
    if k is not None and not (1 <= k < max(n, 2)):
        raise MatrixError(f"need 1 <= k < n, got k={k}, n={n}")
    splits = [k] if k is not None else _candidate_splits(n)
    norms, sizes = col_norms[col_perm], r.sum(axis=0)[col_perm]
    if n == 1:          # no right block to bound
        best_k, best_i, best_thr = 1, 0, 0.0
    else:
        best_k, best_i, best_thr = None, -1, 0.0
        for cand, max_row in zip(splits, _right_max_row_sums(r, col_perm, splits)):
            thr = float(THRESHOLD_FACTOR * np.sqrt(sizes[cand] * max_row))
            clear = np.flatnonzero(norms[: cand - 1] >= thr)
            i_star = int(clear[-1]) + 1 if clear.size else 0
            if i_star > best_i:
                best_k, best_i, best_thr = cand, i_star, thr
    return PartitionPlan(column_permutation=col_perm, row_permutation=row_perm,
                         k=best_k, i_star=best_i, threshold=float(np.ldexp(best_thr, e)),
                         transposed=transposed)


class PipelineError(MatrixError):
    """Approximation refused (only past ``DENSE_LIMIT``), a typed input
    error; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class ApproxReport(JsonReport):
    """Certified top singular values after dropping the bottom-right block.

    ``values`` are the top ``i`` singular values of R0, from its
    rank-<=2k factors with no iteration, zero past the factors' side;
    ``k`` is always the requested split.
    ``norm_d`` is a certified upper bound on ||D||_2 and ``error_bound`` is
    twice it, so |sigma_j(R) - values_j| <= error_bound for any pivot A.
    ``norm_d_method`` says how the bound was taken: ``"collatz-wielandt"``
    (a non-negative m' x n' block D, power iteration on D^T D padded by
    gamma_{m'+n'} for rounding, never below ||D||_2 and within about 1e-12
    of it) or ``"svd"`` (``np.linalg.norm(D, 2)`` padded by
    gamma_{max(m', n')}, taken for a signed D and when the iteration would
    need more pairs than its cap, about one SVD's cost).
    ``norm_d_iterations`` counts the iteration's matrix-vector pairs,
    including those run before it gave way to the SVD.
    """

    k: int
    values: np.ndarray
    error_bound: float          # 2 * norm_d, for any pivot A
    norm_d: float
    norm_d_method: str
    norm_d_iterations: int
    oracle_values: np.ndarray | None = None
    oracle_deviations: np.ndarray | None = None

    def oracle_margin(self) -> float:
        """error_bound + 1e-9 sigma_1(R) - max_j |sigma_j(R) - values_j|,
        which is >= 0 when the oracle lies within the bound; needs a report
        made with ``oracle``. The 1e-9 sigma_1(R) term absorbs the rounding
        of both SVDs."""
        return (self.error_bound + 1e-9 * float(self.oracle_values[0])
                - float(self.oracle_deviations.max()))


def algorithm2(r, k: int, i: int, oracle: bool = False) -> ApproxReport:
    """Top ``i`` singular values of ``r`` with a certified error bound,
    for any 1 <= i <= n.

    Zeroes the bottom-right block D of the (k, k) partition, takes thin QR
    factors C = Q_C R_C and B^T = Q_B R_B, and reads sigma(R0) from the
    core [[A, R_B^T], [R_C, 0]] of side at most 2k; nothing of size m x n
    is built. Values past the core's side are sigma_j(R0) = 0. Reports the
    leading values with the bound 2 * norm_d, which holds for any pivot A,
    singular or not: the split is never changed.
    ``oracle`` adds a direct SVD comparison to the report.
    """
    # Checked before BlockPartition validates r, so a too-wide r is refused
    # for its width rather than as a wide partition.
    shape = np.shape(r)
    if len(shape) == 2 and shape[1] > DENSE_LIMIT:
        raise PipelineError(f"dense driver limited to {DENSE_LIMIT} columns, got {shape[1]}")
    p = BlockPartition(r, k)
    if not (1 <= i <= p.n):
        raise MatrixError(f"need 1 <= i <= n, got i={i}, n={p.n}")
    core = r0_core(p, np.linalg.qr(p.c, mode="r"), np.linalg.qr(p.b.T, mode="r"))
    norm_d = certified_norm(p.d)
    values = np.linalg.svd(core, compute_uv=False)[:i]
    values = np.pad(values, (0, i - values.size))   # sigma_j(R0) = 0 past the core's side
    report = ApproxReport(k=k, values=values,
                          error_bound=2.0 * norm_d.value, norm_d=norm_d.value,
                          norm_d_method=norm_d.method,
                          norm_d_iterations=norm_d.iterations)
    if oracle:
        true = np.linalg.svd(p.base, compute_uv=False)[:i]
        report.oracle_values = true
        report.oracle_deviations = np.abs(true - report.values)
    return report


def approximate(r, k: int, i: int, oracle: bool = False) -> ApproxReport:
    """Plan, then solve: ``algorithm2(plan_partition(r, k).apply(r), k, i)``.

    The planner's order puts the large columns and rows in the pivot, so the
    dropped block D, and with it the error bound, is small. The planner
    needs non-negative entries; a signed matrix is solved in its stored
    order, where the bound holds just the same. A wide matrix
    (fewer rows than columns) is solved through its transpose, planned or
    not (``_oriented``), so ``k`` splits R^T, as in ``plan_partition``.
    This is the ``approx`` command's path.
    """
    r, _ = _oriented(r)
    if r.min() >= 0.0:
        r = plan_partition(r, k=k).apply(r)
    return algorithm2(r, k=k, i=i, oracle=oracle)
