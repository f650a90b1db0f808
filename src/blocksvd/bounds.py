"""Deterministic singular-value perturbation bounds for zeroing the
bottom-right block of a partitioned matrix.

Conventions. R is the partitioned matrix, R0 the same matrix with its
bottom-right block D zeroed. Truncation errors ||R - R_i|| are evaluated as
sigma_{i+1}(R) rather than by forming the rank-i approximant.

Indexing note. The slice bound for the gap |sigma_i(R) - sigma_i(R0)| is
computed with factor slices starting at row/column i (inclusive). The
derivation bounds the rank-(i-1) truncation errors, whose values are the
i-th singular values; the plane-rotation worked example (mu = c bounding the
sigma_2 gap) pins this pairing down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .givens import _check_pivot
from .matcore import (BlockPartition, MatrixError, as_matrix, numerical_rank,
                      operator_norm)


@dataclass(frozen=True)
class BoundReport:
    """An interval [lower, upper] for value i of a k-split, and its oracle."""

    formula: str
    i: int
    k: int
    lower: float
    upper: float
    oracle: float | None = None

    @property
    def slack(self) -> float | None:
        if self.oracle is None:
            return None
        return float(min(self.oracle - self.lower, self.upper - self.oracle))

    @property
    def contains_oracle(self) -> bool:
        if self.oracle is None:
            return True
        return self.lower - 1e-10 <= self.oracle <= self.upper + 1e-10

    def to_json(self) -> dict:
        return {"formula": self.formula, "i": self.i, "k": self.k,
                "lower": self.lower, "upper": self.upper,
                "oracle": self.oracle, "slack": self.slack}


@dataclass(frozen=True)
class SpectralPartition(BlockPartition):
    """A BlockPartition that keeps what the bound functions read, each
    computed on first use: one full ``np.linalg.svd`` of R and one of R0,
    ``(u, s, vt)``, whose ``s`` are ``sigma_r`` and ``sigma_r0``; the
    spectra of B and C; and ||D||. Each bound function takes one in place of
    a plain partition, so passing the same one to several computes each
    once. It holds a read-only copy of the matrix, so nothing can go
    stale."""

    def __post_init__(self):
        super().__post_init__()
        base = self.base.copy()
        base.flags.writeable = False
        object.__setattr__(self, "base", base)

    @cached_property
    def svd_r(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.linalg.svd(self.base)

    @cached_property
    def svd_r0(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.linalg.svd(self.zero_d())

    @property
    def sigma_r(self) -> np.ndarray:
        return self.svd_r[1]

    @property
    def sigma_r0(self) -> np.ndarray:
        return self.svd_r0[1]

    @cached_property
    def sigma_b(self) -> np.ndarray:
        return np.linalg.svd(self.b, compute_uv=False)

    @cached_property
    def sigma_c(self) -> np.ndarray:
        return np.linalg.svd(self.c, compute_uv=False)

    @cached_property
    def norm_d(self) -> float:
        return operator_norm(self.d)


def _spectral(p: BlockPartition) -> SpectralPartition:
    return p if isinstance(p, SpectralPartition) else SpectralPartition(p.base, p.k)


def _sigma(s: np.ndarray, i: int) -> float:
    """sigma_i (1-based) of the spectrum s; zero past its end."""
    return float(s[i - 1]) if i <= s.size else 0.0


def weyl_gap_bounds(p: BlockPartition, i: int) -> list[BoundReport]:
    """Two-sided Weyl estimates for rank-i truncation errors of R vs R0.

    First report: |sigma_{i+1}(R) - sigma_{i+1}(R0)| <= ||D||.
    Second: ||R - R0_i|| within 2||D|| of sigma_{i+1}(R), oracle-evaluated.
    """
    p = _spectral(p)
    nd = p.norm_d
    tr = _sigma(p.sigma_r, i + 1)     # ||R - R_i||
    tr0 = _sigma(p.sigma_r0, i + 1)   # ||R0 - R0_i||
    rep4 = BoundReport("Weyl-gap", i, p.k, lower=tr0 - nd, upper=tr0 + nd, oracle=tr)
    # Distance from R to the rank-i approximant of R0.
    u0, s0, vt0 = p.svd_r0
    top = s0[:i]
    r0i = (u0[:, : top.size] * top) @ vt0[: top.size]
    cross = operator_norm(p.base - r0i)
    rep5 = BoundReport("Weyl-cross", i, p.k, lower=cross - 2 * nd,
                       upper=cross + 2 * nd, oracle=tr)
    return [rep4, rep5]


def small_rank_bounds(p: BlockPartition, i: int) -> list[BoundReport]:
    """Bounds exploiting rank(R0) <= 2k."""
    p = _spectral(p)
    nd = p.norm_d
    off = min(float(p.sigma_b[0]), float(p.sigma_c[0]))
    reports = [
        BoundReport("small-rank-R0", p.k, p.k, lower=0.0, upper=off,
                    oracle=_sigma(p.sigma_r0, p.k + 1)),
        BoundReport("small-rank-R", p.k, p.k, lower=0.0, upper=off + nd,
                    oracle=_sigma(p.sigma_r, p.k + 1)),
    ]
    if i >= 2 * p.k:
        reports.append(BoundReport("rank-cap", i, p.k, lower=0.0, upper=nd,
                                   oracle=_sigma(p.sigma_r, i + 1)))
    return reports


def _mu_slice(svd_factors, d: np.ndarray, i: int, k: int) -> float:
    """min of the two slice norms for the gap at index i (1-based; slices
    from i on), ||D V[k:, i-1:]|| and ||U[k:, i-1:]^T D||, from the full SVD
    factors ``(u, s, vt)`` of R or R0."""
    u, _, vt = svd_factors
    return min(operator_norm(d @ vt[i - 1 :, k:].T), operator_norm(u[k:, i - 1 :].T @ d))


def mu_bounds(p: BlockPartition, i: int) -> BoundReport:
    """Slice-norm bound on |sigma_i(R) - sigma_i(R0)|.

    mu for each of R and R0 is the smaller of the two slice norms of the
    zeroed block against that matrix's own SVD factors; the report's upper
    bound, mu_bar, is the max of the two mu values. For i > 2k it doubles
    as an absolute bound since sigma_i(R0) = 0.
    """
    if not (1 <= i <= p.n):
        raise MatrixError(f"need 1 <= i <= n, got i={i}")
    p = _spectral(p)
    mu_bar = max(_mu_slice(p.svd_r, p.d, i, p.k), _mu_slice(p.svd_r0, p.d, i, p.k))
    gap = abs(_sigma(p.sigma_r, i) - _sigma(p.sigma_r0, i))
    return BoundReport("slice-mu", i, p.k, lower=0.0, upper=mu_bar, oracle=gap)


def example1_sigma2(c: float, s: float) -> float:
    """Closed-form smallest singular value of a plane rotation with its
    bottom-right cosine zeroed. Reference for tests."""
    h = (1.0 + s * s) / 2.0
    return float(np.sqrt(h - np.sqrt(h * h - s**4)))


def kernel_restricted_norm(d, kmat) -> float:
    """||D restricted to ker K||: norm of D times an orthonormal kernel basis
    of K; zero when K has full column rank."""
    d = as_matrix(d)
    kmat = as_matrix(kmat)
    if d.shape[1] != kmat.shape[1]:
        raise MatrixError(f"columns of D ({d.shape[1]}) must match columns of K ({kmat.shape[1]})")
    _, s, vt = np.linalg.svd(kmat)
    rank = numerical_rank(s)
    if rank >= kmat.shape[1]:
        return 0.0
    basis = vt[rank:].T
    return operator_norm(d @ basis)


def theorem2_bounds(p: BlockPartition) -> list[BoundReport]:
    """Block-Givens bounds on sigma_{k+1} of R0 and of R.

    The reports carry the min-form bound and the weaker closed-form bound
    for R0, the corrected bound for R, and, when the partition is square
    with n = m = 2k and invertible blocks, the symmetric two-term bound.
    Raises SingularBlockError when the pivot block A fails the rotations'
    singularity test.
    """
    p = _spectral(p)
    a, b, c, d = p.a, p.b, p.c, p.d
    sa = np.linalg.svd(a, compute_uv=False)
    _check_pivot(sa)
    aib = np.linalg.solve(a, b)
    cai = np.linalg.solve(a.T, c.T).T
    nb, nc, nd = float(p.sigma_b[0]), float(p.sigma_c[0]), p.norm_d
    rank_b, rank_c = numerical_rank(p.sigma_b), numerical_rank(p.sigma_c)
    sig_aib = np.linalg.svd(aib, compute_uv=False)
    sig_cai = np.linalg.svd(cai, compute_uv=False)
    n_aib, n_cai = float(sig_aib[0]), float(sig_cai[0])
    nu1 = 1.0 / np.sqrt(1.0 + float(sig_aib[rank_b - 1]) ** 2) if rank_b else 1.0
    nu2 = 1.0 / np.sqrt(1.0 + float(sig_cai[rank_c - 1]) ** 2) if rank_c else 1.0
    dker_b = kernel_restricted_norm(d, b)
    dtker_ct = kernel_restricted_norm(d.T, c.T)
    rho1 = nu1 * nd + (1.0 - nu1) * dker_b
    rho2 = nu2 * nd + (1.0 - nu2) * dtker_ct
    branch_c = n_cai / np.sqrt(1.0 + n_cai**2) * nb
    branch_b = n_aib / np.sqrt(1.0 + n_aib**2) * nc
    r0_min = min(branch_c, branch_b)
    r0_closed = nb * nc / np.sqrt(sa[-1] ** 2 + max(nb, nc) ** 2) if max(nb, nc) > 0 else 0.0
    r_bound = min(branch_c + rho2, branch_b + rho1)
    reports = [
        BoundReport("Thm2-R0-min", p.k, p.k, 0.0, float(r0_min), oracle=_sigma(p.sigma_r0, p.k + 1)),
        BoundReport("Thm2-R0-closed", p.k, p.k, 0.0, float(r0_closed), oracle=_sigma(p.sigma_r0, p.k + 1)),
        BoundReport("Thm2-R", p.k, p.k, 0.0, float(r_bound), oracle=_sigma(p.sigma_r, p.k + 1)),
    ]
    k = p.k
    if p.m == p.n == 2 * k and rank_b == k and rank_c == k:
        na = float(sa[0])
        sk_a = float(sa[-1])
        sk_b = float(p.sigma_b[-1])
        sk_c = float(p.sigma_c[-1])
        term_b = nb * nc / np.sqrt(sk_a**2 + nb**2) + na * nd / np.sqrt(na**2 + sk_b**2)
        term_c = nb * nc / np.sqrt(sk_a**2 + nc**2) + na * nd / np.sqrt(na**2 + sk_c**2)
        reports.append(BoundReport("Cor5", k, k, 0.0, float(min(term_b, term_c)),
                                   oracle=_sigma(p.sigma_r, k + 1)))
    return reports
