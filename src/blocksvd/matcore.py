"""Dense numerical substrate: input validation, block partitions and the
rank-<=2k core of the zeroed-D matrix R0, the one singular-pivot rule
``check_pivot``, the one angle rule ``cos_sin``, the one ratio rule
``ratio_svd`` (the spectrum of A^{-1}B, overflow-free), norms (the one
block norm ``operator_norm``, a certified upper bound and the Schur
test), numerical rank, the one check report, for the Lemma 11, (S1) and Ky
Fan diagnostics, bound containment and the ``verify`` suites, and the one
JSON rule, ``JsonReport``: a report's JSON is its dataclass fields.

Blocks are plain 0-based numpy slices; callers that need singular vectors
take ``np.linalg.svd``'s ``(u, s, vt)`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

RANK_TOL = 1e-12     # numerical rank: singular values above RANK_TOL * sigma_1
SINGULARITY_TOL = 1e-13  # a pivot is singular when sigma_min <= SINGULARITY_TOL * sigma_1


class MatrixError(ValueError):
    """Raised on malformed matrix inputs (shape, non-finite entries, ranges)."""


class SingularBlockError(MatrixError):
    """A pivot block A failed ``check_pivot``; ``trace`` is the sweeps'
    trace so far when ``block_diagonalize`` raises it, else None."""

    def __init__(self, sigma_min: float, trace=None):
        super().__init__(f"pivot block is numerically singular (sigma_min={sigma_min:.3e})")
        self.sigma_min = sigma_min
        self.trace = trace


class JsonReport:
    """Base of the report dataclasses, and the one JSON rule: ``to_json``
    is the fields by name, in declaration order. Arrays and numpy scalars
    become Python values, lists go item by item, a nested report becomes
    its own JSON, and a ``None`` field is left out."""

    def to_json(self) -> dict:
        return {f.name: _json_value(v) for f in fields(self)
                if (v := getattr(self, f.name)) is not None}


def _json_value(v):
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    if isinstance(v, list):
        return [_json_value(x) for x in v]
    return v.to_json() if isinstance(v, JsonReport) else v


@dataclass(frozen=True)
class CheckItem(JsonReport):
    """One named check: whether it passed and its signed margin."""

    name: str
    passed: bool
    margin: float


@dataclass
class CheckReport(JsonReport):
    """A list of named checks; passes when every one does."""

    checks: list[CheckItem] = field(default_factory=list)

    def add(self, name: str, margin: float, tol: float = 0.0):
        """Record ``margin`` under ``name``; the one verdict rule: pass when
        margin >= -tol, so NaN fails. The one worst-case rule: a later add
        of a name keeps its item in place with the least margin (NaN if
        either is), passing only if every add of that name passed."""
        item = CheckItem(name, bool(float(margin) >= -tol), float(margin))
        for j, c in enumerate(self.checks):
            if c.name == name:
                least = item.margin if math.isnan(item.margin) else min(c.margin, item.margin)
                self.checks[j] = CheckItem(name, c.passed and item.passed, least)
                return
        self.checks.append(item)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"all_passed": self.all_passed, **super().to_json()}


def as_matrix(m) -> np.ndarray:
    """Validate and return a 2-D float array with finite entries."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise MatrixError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise MatrixError(f"matrix must be at least 1x1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise MatrixError("matrix has non-finite entries")
    return a


@dataclass(frozen=True)
class BlockPartition:
    """An m x n matrix (m >= n) with a k x k leading block A.

    Blocks: A = base[:k, :k], B = base[:k, k:], C = base[k:, :k],
    D = base[k:, k:].
    """

    base: np.ndarray
    k: int

    def __post_init__(self):
        base = as_matrix(self.base)
        object.__setattr__(self, "base", base)
        m, n = base.shape
        if m < n:
            raise MatrixError(f"partition requires m >= n, got {m}x{n}")
        if not (1 <= self.k < n):
            raise MatrixError(f"split k={self.k} out of range for {m}x{n}")

    @property
    def m(self) -> int:
        return self.base.shape[0]

    @property
    def n(self) -> int:
        return self.base.shape[1]

    @property
    def a(self) -> np.ndarray:
        return self.base[: self.k, : self.k]

    @property
    def b(self) -> np.ndarray:
        return self.base[: self.k, self.k :]

    @property
    def c(self) -> np.ndarray:
        return self.base[self.k :, : self.k]

    @property
    def d(self) -> np.ndarray:
        return self.base[self.k :, self.k :]

    def zero_d(self) -> np.ndarray:
        """The matrix with its bottom-right block zeroed."""
        r0 = self.base.copy()
        r0[self.k :, self.k :] = 0.0
        return r0

    def left_band(self) -> np.ndarray:
        """First k columns."""
        return self.base[:, : self.k]

    def right_band(self) -> np.ndarray:
        """Last n - k columns."""
        return self.base[:, self.k :]


def r0_core(p: BlockPartition, r_c: np.ndarray, r_b: np.ndarray) -> np.ndarray:
    """The core [[A, R_B^T], [R_C, 0]], of side at most 2k, from thin QRs
    C = Q_C R_C and B^T = Q_B R_B: R0 = diag(I, Q_C) core diag(I, Q_B^T)."""
    k = p.k
    core = np.zeros((k + r_c.shape[0], k + r_b.shape[0]))
    core[:k, :k] = p.a
    core[:k, k:] = r_b.T
    core[k:, :k] = r_c
    return core


def operator_norm(m) -> float:
    """||m||_2 as s * sqrt(lambda_max(Y^T Y)), Y = m / s, s = max|m|, with
    the Gram matrix on the smaller side; 0.0 for an empty or zero block.

    With max|Y| = 1 the Gram matrix has an entry of at least 1, so squaring
    can neither overflow nor lose lambda_max to underflow. Forming it and
    eigvalsh each err by a few units of roundoff relative to lambda_max =
    ||Y||^2, so the norm is within about 1e-15 relative of the SVD's, on
    either side of it. Small singular values would lose their accuracy to
    the squaring: spectra (sigma(A_t), the left band, the gap certificate's
    left side) stay values-only SVDs, and ``certified_norm``'s fallback
    pads the SVD's norm.
    """
    a = np.asarray(m, dtype=float)
    s = float(np.abs(a).max()) if a.size else 0.0
    if s == 0.0:
        return 0.0
    y = a / s
    g = y.T @ y if y.shape[0] >= y.shape[1] else y @ y.T
    return s * float(np.sqrt(np.linalg.eigvalsh(g)[-1]))


UNIT_ROUNDOFF = np.finfo(float).eps / 2
CW_TOL = 1e-12       # stop once the upper bound is within CW_TOL of the lower
# A values-only SVD of an m x n block (m >= n) takes 4 m n^2 - 4 n^3 / 3
# flops and one pair of matrix-vector products 4 m n, at about half the SVD's
# speed per flop: with one BLAS thread one SVD took as long as 25 pairs at
# 180 x 60 and 107 pairs at 570 x 270, 0.42 and 0.40 pairs per column of the
# smaller side. Capping the iteration at that crossover, 0.4 n pairs, keeps a
# successful run under one SVD, and one that gives up (and then pays for the
# SVD) under two.
CW_PAIRS_PER_COLUMN = 0.4
# Smallest (Mx)_i the rounding pad covers: far enough from the subnormal
# range that underflow adds less than the pad's relative error.
_SAFE_MIN = np.finfo(float).tiny / UNIT_ROUNDOFF


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u)."""
    return n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)


@dataclass(frozen=True)
class NormBound:
    """A certified upper bound ``value`` on the operator norm.

    ``method`` is ``"collatz-wielandt"`` or ``"svd"`` (LAPACK's sigma_1,
    padded by gamma_p); ``iterations`` counts the matrix-vector pairs
    the Collatz-Wielandt iteration ran, also when it gave up and the SVD was
    taken.
    """

    value: float
    method: str
    iterations: int


def collatz_wielandt_bound(d: np.ndarray, max_pairs: float) -> tuple[float | None, int]:
    """Certified upper bound on ||d||_2 for a non-negative ``d``, or None.

    Power iteration on M = d^T d from x = 1. For M >= 0 and any x > 0, the
    Collatz-Wielandt ratio max_i (Mx)_i / x_i bounds lambda_max(M) =
    ||d||^2 from above, and the Rayleigh quotient bounds it from below; the
    iteration stops when the two agree to CW_TOL. Columns of d that are
    zero only add a zero block to M, so the ratio is taken on the others.
    Each (Mx)_i is a sum of non-negative products, so its computed value is
    within a factor gamma_{m+n} of the exact one, and the bound is padded by
    that (plus the division and square root) before it is returned.

    Returns (None, pairs) when the bound cannot be certified cheaply: a
    component of Mx vanishes or leaves the normal range, a value overflows,
    the gap stops shrinking, or the gap's geometric rate predicts more than
    ``max_pairs`` pairs. Returns (bound, pairs) otherwise.
    """
    m, n = d.shape
    x = np.ones(n)
    support, prev, pairs = slice(None), None, 0
    # A product that overflows (or meets inf * 0) is the give-up signal
    # below, caught by the range and finiteness tests, not a fault.
    with np.errstate(over="ignore", invalid="ignore"):
        while pairs + 1 <= max_pairs:
            y = d.T @ (d @ x)
            pairs += 1
            if pairs == 1 and not (y > 0).all():
                # From x = 1, y_i = 0 exactly when column i is zero, unless it
                # underflowed; the zero columns stay zero in every later y.
                nonzero = d.any(axis=0)
                if not np.array_equal(y > 0, nonzero):
                    return None, pairs
                if not nonzero.any():
                    return 0.0, pairs
                support = np.flatnonzero(nonzero)
            ys, xs = y[support], x[support]
            if not ys.min() >= _SAFE_MIN:
                return None, pairs
            ub = float(np.max(ys / xs))
            rq = float(xs @ ys) / float(xs @ xs)
            if not np.isfinite(ub) or not np.isfinite(rq):
                return None, pairs
            gap = (ub - rq) / ub
            if gap <= CW_TOL:
                # (Mx)_i <= fl(y_i) / (1 - gamma_{m+n}); the division, the
                # square root and the final product add three roundings.
                return float(np.sqrt(ub) * (1.0 + _gamma(m + n + 4))), pairs
            if prev is not None:
                if gap >= prev:
                    return None, pairs
                if pairs + np.log(CW_TOL / gap) / np.log(gap / prev) > max_pairs:
                    return None, pairs
            prev = gap
            x = y / ys.max()
    return None, pairs


def certified_norm(m) -> NormBound:
    """Certified upper bound on the operator norm of ``m``.

    Non-negative matrices try ``collatz_wielandt_bound`` within the pairs
    one SVD costs (CW_PAIRS_PER_COLUMN per column of the smaller side);
    a signed matrix, or one the iteration gives up on, gets ``"svd"``:
    LAPACK's sigma_1, ``np.linalg.norm(m, 2)`` (0.0 when empty), padded by
    gamma_p, p the larger dimension, for its backward error.
    """
    a = np.asarray(m, dtype=float)
    pairs = 0
    if a.size and a.min() >= 0.0:
        bound, pairs = collatz_wielandt_bound(a, CW_PAIRS_PER_COLUMN * min(a.shape))
        if bound is not None:
            return NormBound(bound, "collatz-wielandt", pairs)
    padded = float(np.linalg.norm(a, 2)) * (1.0 + _gamma(max(a.shape))) if a.size else 0.0
    return NormBound(padded, "svd", pairs)


def numerical_rank(sigma) -> int:
    """Count of singular values above RANK_TOL * sigma_1, from a descending
    spectrum; 0 for an empty or all-zero one."""
    if sigma.size == 0 or sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > RANK_TOL * sigma[0]))


def check_pivot(sigma) -> None:
    """Raise SingularBlockError when sigma_min <= SINGULARITY_TOL * sigma_1
    for a pivot block's descending spectrum ``sigma``: a ratio, unit-free."""
    if sigma[-1] <= SINGULARITY_TOL * sigma[0]:
        raise SingularBlockError(float(sigma[-1]))


def cos_sin(opposite, adjacent):
    """(cos, sin) of the angle of tangent opposite / adjacent, as (adjacent,
    opposite) / h, h = hypot(opposite, adjacent) > 0: no square is formed,
    so no tangent overflows. Every block-Givens angle comes from here."""
    h = np.hypot(opposite, adjacent)
    return adjacent / h, opposite / h


def ratio_svd(a: np.ndarray, off: np.ndarray, sigma_a, factors: bool = False):
    """The ratio a^{-1} off times adj: its singular values ``(sigma, adj)``,
    or with ``factors`` its thin SVD ``(u, sigma, v, adj)``. ``sigma_a``,
    a's descending spectrum, must pass ``check_pivot``. adj = 2^-e, e >= 0
    the least for which frexp exponents put ||off||_F / sigma_min(a) * adj
    below 2^900, so neither the solve nor the SVD can overflow; a ratio up
    to 2^898 has e = 0. The angle of tangent sigma_j(a^{-1} off) is
    ``cos_sin(sigma[j], adj)``. e stops at 1074, so adj > 0 and a zero
    sigma_j keeps the angle 0."""
    check_pivot(sigma_a)
    s, e = float(np.abs(off).max()), 0
    if s > 0.0:   # ||off||_F < 2^top and sigma_min(a) >= 2^(low - 1)
        top = math.frexp(s)[1] + math.frexp(float(np.linalg.norm(off / s)))[1]
        low = math.frexp(float(sigma_a[-1]))[1]
        e = min(max(top - low + 1 - 900, 0), 1074)
    x, adj = np.linalg.solve(a, np.ldexp(off, -e) if e else off), math.ldexp(1.0, -e)
    if not factors:
        return np.linalg.svd(x, compute_uv=False), adj
    u, sig, vt = np.linalg.svd(x, full_matrices=False)
    return u, sig, vt.T, adj


def schur_test_bound(m) -> float:
    """sqrt(||M||_inf * ||M||_1); always >= the operator norm."""
    a = as_matrix(m)
    row = np.abs(a).sum(axis=1).max()
    col = np.abs(a).sum(axis=0).max()
    return float(np.sqrt(row * col))
