"""Block-Givens rotations in closed form and the block-rotation decomposition.

A right rotation built from the partition (A, B) annihilates the top-right
block of R when applied on the right; the left counterpart, built from
(A, C), annihilates the bottom-left block when applied on the left. Every
trig block comes from one primitive, the thin SVD U diag(sigma) V^T of
A^{-1}B (resp. A^{-T}C^T): cos = I - U diag(1 - c) U^T on the k-side,
I - V diag(1 - c) V^T on the other, sin = U diag(s) V^T, with
c = (1 + sigma^2)^(-1/2), s = sigma c and 1 - c = s^2 / (1 + c), which has
no cancellation. The constructed rotation is orthogonal to machine
precision regardless of the conditioning of A.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import (BlockPartition, MatrixError, as_matrix, check_pivot, numerical_rank,
                      operator_norm)

ORTH_TOL = 1e-10         # block_rotation_decompose: ||Q^T Q - I|| per dimension
TRIG_TOL = 1e-12         # block_rotation_decompose: sines above this are non-trivial


@dataclass(frozen=True)
class BlockGivens:
    """An orthogonal rotation with a designated split, kept in thin form.

    ``side`` is "right" (acts on columns, annihilates B) or "left" (acts on
    rows, annihilates C); ``dim`` is its order. ``u`` (k x r), ``v``
    ((dim-k) x r) and ``ratio_sigma`` are the thin SVD of A^{-1}B (right)
    or A^{-T}C^T (left), r = min(k, dim - k); ``apply`` rotates through
    them in O(r) work per entry. ``off_block`` is the off-block the
    rotation annihilates, as it was. ``degenerate`` marks an identity
    rotation (the off-block was already zero).

    The paper's trig blocks are ``cos_ab`` (k x k), ``cos_ba``
    ((dim-k) x (dim-k)) and ``sin_ab`` (k x (dim-k)); a right rotation is
    [[cos_ab, -sin_ab], [sin_ab^T, cos_ba]], and a left one the transpose
    of the right rotation of (A^T, C^T). ``matrix``, the dense dim x dim
    rotation, and ``off_rank``, the numerical rank of ``off_block``, are
    computed on first access.
    """

    side: str
    k: int
    dim: int
    u: np.ndarray
    v: np.ndarray
    ratio_sigma: np.ndarray
    off_block: np.ndarray
    degenerate: bool

    def apply(self, x: np.ndarray) -> None:
        """Overwrite x with G @ x (left) or x @ G (right)."""
        if self.degenerate:
            return
        if self.side == "left":
            # G_L @ x = (x^T @ G_L^T)^T, and G_L^T has a right rotation's form.
            x = x.T
        _, s, omc = _trig(self.ratio_sigma)
        head, tail = x[:, : self.k], x[:, self.k :]
        hu, tv = head @ self.u, tail @ self.v
        head += (tv * s - hu * omc) @ self.u.T
        tail -= (hu * s + tv * omc) @ self.v.T

    @property
    def cos_ab(self) -> np.ndarray:
        _, _, omc = _trig(self.ratio_sigma)
        return np.eye(self.k) - (self.u * omc) @ self.u.T

    @property
    def cos_ba(self) -> np.ndarray:
        _, _, omc = _trig(self.ratio_sigma)
        return np.eye(self.dim - self.k) - (self.v * omc) @ self.v.T

    @property
    def sin_ab(self) -> np.ndarray:
        _, s, _ = _trig(self.ratio_sigma)
        return (self.u * s) @ self.v.T

    @cached_property
    def matrix(self) -> np.ndarray:
        g = np.eye(self.dim)
        self.apply(g)
        return g

    @cached_property
    def off_rank(self) -> int:
        return numerical_rank(np.linalg.svd(self.off_block, compute_uv=False))


@dataclass(frozen=True)
class BlockRotationFactors:
    """CS-type factorization of a partitioned orthogonal matrix.

    Q = diag(q1, q2) @ middle @ diag(q1p, q2p) where the middle factor is
    identity except for paired diagonal cosine/sine blocks. ``c`` and ``s``
    hold the non-trivial diagonal pairs (s > 0); r and l count the trivial
    directions on each side of the split.
    """

    q1: np.ndarray
    q2: np.ndarray
    q1p: np.ndarray
    q2p: np.ndarray
    c: np.ndarray
    s: np.ndarray
    r: int
    l: int
    middle: np.ndarray

    def assemble(self) -> np.ndarray:
        import scipy.linalg  # imported here: slow to load, as in block_rotation_decompose
        return (scipy.linalg.block_diag(self.q1, self.q2) @ self.middle
                @ scipy.linalg.block_diag(self.q1p, self.q2p))


def _ratio_svd(a: np.ndarray, b: np.ndarray):
    """Thin SVD (u, sigma, v) of A^{-1} b: u @ diag(sigma) @ v.T."""
    u, sig, vt = np.linalg.svd(np.linalg.solve(a, b), full_matrices=False)
    return u, sig, vt.T


def _trig(sig: np.ndarray):
    """(cos, sin, 1 - cos) for ratio singular values sig."""
    c = 1.0 / np.sqrt(1.0 + sig**2)
    s = sig * c
    return c, s, s * s / (1.0 + c)


def block_trig(a, b) -> BlockGivens:
    """Right rotation for the pair (A, B), A invertible k x k; its trig
    blocks are ``cos_ab``, ``cos_ba`` and ``sin_ab``."""
    a = as_matrix(a)
    b = as_matrix(b)
    k = a.shape[0]
    if a.shape[1] != k:
        raise MatrixError(f"A must be square, got {a.shape}")
    if b.shape[0] != k:
        raise MatrixError(f"B must have {k} rows, got {b.shape}")
    sigma_a = np.linalg.svd(a, compute_uv=False)
    check_pivot(sigma_a)
    return _rotation("right", a, b, b, k + b.shape[1], sigma_a)


def _rotation(side: str, a: np.ndarray, off: np.ndarray, off_block: np.ndarray,
              dim: int, sigma_a=None) -> BlockGivens:
    """Rotation of ``side`` and order ``dim`` from the thin SVD of
    a^{-1} off, recording ``off_block`` as the block it annihilates. The
    singularity test on a uses sigma_a, the spectrum of a when the caller
    has it, and runs only when off is nonzero."""
    k = a.shape[0]
    if not off.any():
        r = min(k, dim - k)
        return BlockGivens(side=side, k=k, dim=dim, u=np.zeros((k, r)),
                           v=np.zeros((dim - k, r)), ratio_sigma=np.zeros(r),
                           off_block=off_block.copy(), degenerate=True)
    check_pivot(np.linalg.svd(a, compute_uv=False) if sigma_a is None else sigma_a)
    u, sig, v = _ratio_svd(a, off)
    return BlockGivens(side=side, k=k, dim=dim, u=u, v=v, ratio_sigma=sig,
                       off_block=off_block.copy(), degenerate=False)


def _build_rotation(p: BlockPartition, side: str, sigma_a=None) -> BlockGivens:
    """Rotation of ``side`` for p; sigma_a as in ``_rotation``."""
    if side == "right":
        return _rotation(side, p.a, p.b, p.b, p.n, sigma_a)
    # (C A^{-1})^T = A^{-T} C^T: the transposed pair (A^T, C^T).
    return _rotation(side, p.a.T, p.c.T, p.c, p.m, sigma_a)


def build_right_rotation(p: BlockPartition) -> BlockGivens:
    """n x n rotation G_R with (R @ G_R)[:k, k:] = 0."""
    return _build_rotation(p, "right")


def build_left_rotation(p: BlockPartition) -> BlockGivens:
    """m x m rotation G_L with (G_L @ R)[k:, :k] = 0."""
    return _build_rotation(p, "left")


def householder_block(a: float, v) -> np.ndarray:
    """Orthogonal matrix mapping (a, v) to (sqrt(a^2 + ||v||^2), 0, ..., 0).

    The k = 1 case of a right rotation: the transpose of the rotation of
    the pair ([a], v^T), with row 0 negated when a < 0.
    """
    if a == 0:
        raise MatrixError("householder_block requires a != 0")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1:
        raise MatrixError("v must be a vector")
    if not (np.isfinite(a) and np.isfinite(v).all()):
        raise MatrixError("householder_block needs finite a and v")
    h = _rotation("right", np.array([[float(a)]]), v[None, :], v[None, :],
                  v.size + 1).matrix.T
    if a < 0:
        h[0, :] = -h[0, :]
    return h


def rotation_weight(g: BlockGivens) -> float:
    """Weight omega of the rotation's block structure; 1.0 when degenerate.

    Closed form from the singular values of A^{-1}B (right) or C A^{-1}
    (left): max of the smallest non-trivial cosine and the largest sine.
    """
    if g.degenerate:
        return 1.0
    sig = g.ratio_sigma
    r = g.off_rank
    if r == 0:
        return 1.0
    s_r = sig[r - 1]
    s_1 = sig[0]
    return float(max(1.0 / np.sqrt(1.0 + s_r**2), s_1 / np.sqrt(1.0 + s_1**2)))


def block_rotation_decompose(q, k: int) -> BlockRotationFactors:
    """CS-type decomposition of a square orthogonal matrix at split k.

    Returns block-diagonal orthogonal side factors and the diagonal
    cosine/sine pairs of the middle factor. Sign convention: sines are
    non-negative, cosines carry the sign.
    """
    q = as_matrix(q)
    n = q.shape[0]
    if q.shape[1] != n:
        raise MatrixError("input must be square")
    if not (1 <= k < n):
        raise MatrixError(f"split k={k} out of range for n={n}")
    dev = operator_norm(q.T @ q - np.eye(n))
    if dev > ORTH_TOL * n:
        raise MatrixError(f"input is not orthogonal within tolerance (deviation {dev:.3e})")
    import scipy.linalg  # imported here: slow to load, and only the CS path uses it
    (u1, u2), theta, (v1h, v2h) = scipy.linalg.cossin(q, p=k, q=k, separate=True)
    # theta holds min(k, n-k) angles in [0, pi/2]; angles ~0 are trivial
    # identity directions. The middle factor is recovered by sandwiching,
    # which respects whatever block layout LAPACK chose.
    middle = scipy.linalg.block_diag(u1, u2).T @ q @ scipy.linalg.block_diag(v1h, v2h).T
    cos_all = np.cos(theta)
    sin_all = np.sin(theta)
    nontrivial = sin_all > TRIG_TOL
    c = cos_all[nontrivial]
    s = sin_all[nontrivial]
    r = k - int(np.count_nonzero(nontrivial))
    l = (n - k) - int(np.count_nonzero(nontrivial))
    return BlockRotationFactors(q1=u1, q2=u2, q1p=v1h, q2p=v2h, c=c, s=s,
                                r=r, l=l, middle=middle)
