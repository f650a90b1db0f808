"""Deterministic singular-value perturbation bounds for zeroing the
bottom-right block of a partitioned matrix.

Conventions. R is the partitioned matrix, R0 the same matrix with its
bottom-right block D zeroed. Truncation errors ||R - R_i|| are evaluated as
sigma_{i+1}(R) rather than by forming the rank-i approximant.

Indexing note. The slice bound for the gap |sigma_i(R) - sigma_i(R0)| reads
the singular vectors from the i-th on (inclusive): both slices project out
the first i - 1 singular vectors, left and right. The derivation bounds the
rank-(i-1) truncation errors, whose values are the i-th singular values;
the plane-rotation worked example (mu = c bounding the sigma_2 gap) pins
this pairing down. The three families that take i raise MatrixError unless
1 <= i <= n, before they read any spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import (BlockPartition, CheckReport, JsonReport, MatrixError, as_matrix,
                      cos_sin, numerical_rank, operator_norm, r0_core, ratio_svd)

BOUND_TOL = 1e-10    # containment slack, relative to the scale of the values bounded


@dataclass(frozen=True)
class BoundReport(JsonReport):
    """An interval [lower, upper] for value i of a k-split, and its oracle."""

    formula: str
    i: int
    k: int
    lower: float
    upper: float
    oracle: float

    @property
    def slack(self) -> float:
        """The oracle's distance inside [lower, upper]: negative outside, NaN if any is."""
        return float(np.minimum(self.oracle - self.lower, self.upper - self.oracle))

    def to_json(self) -> dict:
        return {**super().to_json(), "slack": self.slack}


def containment(reports, scale: float) -> CheckReport:
    """Each report's slack under its formula, passing down to -BOUND_TOL *
    scale. ``scale`` is the size of the values bounded: sigma_1(R) for the
    partition families, the largest expected-Gram eigenvalue for Theorem 3,
    so that no verdict depends on the units of the matrix."""
    rep = CheckReport()
    for r in reports:
        rep.add(r.formula, r.slack, BOUND_TOL * scale)
    return rep


@dataclass(frozen=True)
class SpectralPartition(BlockPartition):
    """A BlockPartition that keeps what the bound functions read, each
    computed on first use: thin SVD factors ``(u, s, vt)`` of R (m x n,
    n x n) and of R0 (m x r, r x n, r <= 2k: the core's, ``r0_core``, mapped
    through reduced QRs of C and B^T; no R0 is formed), whose ``s`` are
    ``sigma_r`` and ``sigma_r0``; the spectra of B and C; and ||D||. Each
    bound function takes one in place of a plain partition, so passing the
    same one to several computes each once. It holds a read-only copy of
    the matrix, so nothing can go stale."""

    def __post_init__(self):
        super().__post_init__()
        base = self.base.copy()
        base.flags.writeable = False
        object.__setattr__(self, "base", base)

    @cached_property
    def svd_r(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.linalg.svd(self.base, full_matrices=False)

    @cached_property
    def svd_r0(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        q_c, r_c = np.linalg.qr(self.c)
        q_b, r_b = np.linalg.qr(self.b.T)
        u, s, vt = np.linalg.svd(r0_core(self, r_c, r_b), full_matrices=False)
        return (np.vstack([u[: self.k], q_c @ u[self.k :]]), s,
                np.hstack([vt[:, : self.k], vt[:, self.k :] @ q_b.T]))

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


def _check_index(p: BlockPartition, i: int):
    """Raise MatrixError unless 1 <= i <= n, before any spectrum is read."""
    if not (1 <= i <= p.n):
        raise MatrixError(f"need 1 <= i <= n, got i={i}")


def weyl_gap_bounds(p: BlockPartition, i: int) -> list[BoundReport]:
    """Two-sided Weyl estimates for rank-i truncation errors of R vs R0.

    First report: |sigma_{i+1}(R) - sigma_{i+1}(R0)| <= ||D||.
    Second: ||R - R0_i|| within 2||D|| of sigma_{i+1}(R), oracle-evaluated.
    """
    _check_index(p, i)
    p = _spectral(p)
    nd = p.norm_d
    tr = _sigma(p.sigma_r, i + 1)     # ||R - R_i||
    tr0 = _sigma(p.sigma_r0, i + 1)   # ||R0 - R0_i||
    rep4 = BoundReport("Weyl-gap", i, p.k, lower=tr0 - nd, upper=tr0 + nd, oracle=tr)
    # Distance from R to the rank-i approximant of R0.
    u0, s0, vt0 = p.svd_r0
    r0i = (u0[:, :i] * s0[:i]) @ vt0[:i]
    cross = operator_norm(p.base - r0i)
    rep5 = BoundReport("Weyl-cross", i, p.k, lower=cross - 2 * nd,
                       upper=cross + 2 * nd, oracle=tr)
    return [rep4, rep5]


def small_rank_bounds(p: BlockPartition, i: int) -> list[BoundReport]:
    """Bounds exploiting rank(R0) <= 2k; the rank cap only when i >= 2k."""
    _check_index(p, i)
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
    """min of the two slice norms for the gap at index i (1-based; vectors
    from i on), ||(I - U_j U_j^T) [0; D]|| and ||[0 D] (I - V_j V_j^T)||,
    U_j and V_j the first j = min(i - 1, numerical rank) singular vectors
    of the thin SVD factors ``(u, s, vt)`` of R or R0: ||U[k:, i-1:]^T D||
    and ||D V[k:, i-1:]|| for full U and V, but past the rank, where those
    read an arbitrary null-space basis, a function of the matrix alone."""
    u, s, vt = svd_factors
    j = min(i - 1, numerical_rank(s))
    left = u[:, :j] @ (u[k:, :j].T @ d)     # U_j U_j^T [0; D]
    left[k:] -= d                            # minus [0; D]: same norm
    right = (d @ vt[:j, k:].T) @ vt[:j]      # [0 D] V_j V_j^T
    right[:, k:] -= d
    return min(operator_norm(left), operator_norm(right))


def mu_bounds(p: BlockPartition, i: int) -> BoundReport:
    """Slice-norm bound on |sigma_i(R) - sigma_i(R0)|.

    mu for each of R and R0 is the smaller of the two slice norms of the
    zeroed block against that matrix's own SVD factors; the report's upper
    bound, mu_bar, is the max of the two mu values. Past rank(R0) <= 2k it
    doubles as an absolute bound on sigma_i(R), since sigma_i(R0) = 0.
    """
    _check_index(p, i)
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
    """||D restricted to ker K||, as ||D - (D V_r) V_r^T|| with V_r the thin
    orthonormal row-space basis of K; zero when K has full column rank."""
    d = as_matrix(d)
    kmat = as_matrix(kmat)
    if d.shape[1] != kmat.shape[1]:
        raise MatrixError(f"columns of D ({d.shape[1]}) must match columns of K ({kmat.shape[1]})")
    _, s, vt = np.linalg.svd(kmat, full_matrices=False)
    rank = numerical_rank(s)
    if rank >= kmat.shape[1]:
        return 0.0
    vr = vt[:rank].T
    return operator_norm(d - (d @ vr) @ vr.T)


def theorem2_bounds(p: BlockPartition) -> list[BoundReport]:
    """Block-Givens bounds on sigma_{k+1} of R0 and of R.

    The reports carry the min-form bound and the weaker closed-form bound
    for R0, the corrected bound for R, and, when the partition is square
    with n = m = 2k and invertible blocks, the symmetric two-term bound.
    Raises SingularBlockError when A fails ``matcore.check_pivot``. The
    spectra of A^{-1}B and A^{-T}C^T come from ``matcore.ratio_svd``, the
    route the rotations take, values only, scaled so that no ratio
    overflows. Each cosine and sine is a ``matcore.cos_sin`` angle, of
    tangent a ratio singular value over its scale or a ratio of block
    norms, so no square overflows.
    """
    p = _spectral(p)
    a, b, c, d = p.a, p.b, p.c, p.d
    sa = np.linalg.svd(a, compute_uv=False)
    sig_aib, adj_b = ratio_svd(a, b, sa)
    sig_cai, adj_c = ratio_svd(a.T, c.T, sa)
    nb, nc, nd = float(p.sigma_b[0]), float(p.sigma_c[0]), p.norm_d
    rank_b, rank_c = numerical_rank(p.sigma_b), numerical_rank(p.sigma_c)
    nu1 = cos_sin(float(sig_aib[rank_b - 1]), adj_b)[0] if rank_b else 1.0
    nu2 = cos_sin(float(sig_cai[rank_c - 1]), adj_c)[0] if rank_c else 1.0
    dker_b = kernel_restricted_norm(d, b)
    dtker_ct = kernel_restricted_norm(d.T, c.T)
    rho1 = nu1 * nd + (1.0 - nu1) * dker_b
    rho2 = nu2 * nd + (1.0 - nu2) * dtker_ct
    branch_c = cos_sin(float(sig_cai[0]), adj_c)[1] * nb
    branch_b = cos_sin(float(sig_aib[0]), adj_b)[1] * nc
    r0_min = min(branch_c, branch_b)
    r0_closed = nb * (nc / np.hypot(sa[-1], max(nb, nc))) if max(nb, nc) > 0 else 0.0
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
        term_b = nc * cos_sin(nb, sk_a)[1] + nd * cos_sin(sk_b, na)[0]
        term_c = nb * cos_sin(nc, sk_a)[1] + nd * cos_sin(sk_c, na)[0]
        reports.append(BoundReport("Cor5", k, k, 0.0, float(min(term_b, term_c)),
                                   oracle=_sigma(p.sigma_r, k + 1)))
    return reports
