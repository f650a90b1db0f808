"""Alternating block-Givens sweeps driving a partitioned matrix to block
diagonal form, with per-iteration tracing, convergence diagnostics, and
certified extraction of top singular values."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import (BlockPartition, CheckReport, JsonReport, MatrixError, SingularBlockError,
                      _gamma, as_matrix, cos_sin, operator_norm, pow2_scale)
from .givens import _build_rotation

SWEEP_TOL = 1e-12       # stop once both off-blocks are below SWEEP_TOL * ||R||
MAX_SWEEPS = 1000       # ... or after this many rotations, unconverged
LEMMA11_TOL = 1e-9      # slack of every Lemma 11 check, relative to the bands' norms
KYFAN_TOL = 1e-10       # slack of both Ky Fan partial-sum margins, fractions of ||y||_F^2


@dataclass(frozen=True)
class SweepRecord(JsonReport):
    """State of the iterate R_t after t rotations. ||A_t|| and
    sigma_k(A_t) are ``sigma_a[0]`` and ``sigma_a[-1]``."""

    t: int
    sigma_a: np.ndarray          # all singular values of A_t, descending
    norm_b: float
    norm_c: float
    norm_d: float
    sigma_left_band: np.ndarray  # singular values of R_t[:, :k]
    norm_right_band: float       # ||R_t[:, k:]||
    degenerate: bool


@dataclass
class SweepTrace:
    """The records of R_0, R_1, ... for a k-split of an n-column matrix."""

    k: int
    n: int      # columns of the partition; n - k is the trailing block's width
    records: list[SweepRecord] = field(default_factory=list)

    def append_state(self, t: int, p: BlockPartition, degenerate: bool = False):
        """Record R_t. The spectra sigma_a and sigma_left_band come from
        values-only SVDs, since the rotation's singularity test and the gap
        check read their small values; that is one SVD when C_t = 0 and two
        otherwise. The four norms (B_t, C_t, D_t and the right band) come
        from ``operator_norm``, the top eigenvalue of the scaled Gram matrix
        on the block's smaller side. An exactly zero block, as
        each step leaves the off-block it annihilates, costs nothing: its
        norm is 0.0, with C_t = 0 the left band [A_t; 0] has the spectrum of
        A_t, and with B_t = 0 the right band [0; D_t] has the norm of D_t."""
        sa = np.linalg.svd(p.a, compute_uv=False)
        c_zero, b_zero = not p.c.any(), not p.b.any()
        norm_d = operator_norm(p.d)
        self.records.append(SweepRecord(
            t=t,
            sigma_a=sa,
            norm_b=0.0 if b_zero else operator_norm(p.b),
            norm_c=0.0 if c_zero else operator_norm(p.c),
            norm_d=norm_d,
            sigma_left_band=sa if c_zero else np.linalg.svd(p.left_band(), compute_uv=False),
            norm_right_band=norm_d if b_zero else operator_norm(p.right_band()),
            degenerate=degenerate,
        ))


@dataclass
class BlockDiagResult:
    """Outcome of ``block_diagonalize``: the last iterate R_t and its trace.

    ``final`` is R_t itself; ``a_inf`` and ``d_inf`` are views of its
    pivot and trailing blocks, not copies. The trace's last record holds
    sigma(A_t), and ``spectrum`` is sigma(R) of the input, whose largest
    value scales the stopping test. The rotations are applied in place and
    not kept.
    """

    trace: SweepTrace
    converged: bool
    iterations: int
    final: np.ndarray     # the last iterate R_t
    spectrum: np.ndarray  # singular values of the input R, descending

    @property
    def a_inf(self) -> np.ndarray:
        return self.final[: self.trace.k, : self.trace.k]

    @property
    def d_inf(self) -> np.ndarray:
        return self.final[self.trace.k:, self.trace.k:]

    def spectrum_deviation(self) -> float:
        """max |sort(sigma(A_t) u sigma(D_t)) - sigma(R)|: how far the
        block spectrum of the last iterate is from that of the input."""
        got = np.sort(np.concatenate([
            self.trace.records[-1].sigma_a,
            np.linalg.svd(self.d_inf, compute_uv=False)]))[::-1]
        return float(np.abs(got[: self.spectrum.size] - self.spectrum).max())


def block_diagonalize(p: BlockPartition) -> BlockDiagResult:
    """Alternate left/right rotations until both off-blocks are annihilated.

    The first step eliminates C (left rotation). Stops when
    max(||B_t||, ||C_t||) <= SWEEP_TOL * ||R||, or unconverged after
    MAX_SWEEPS rotations; raises SingularBlockError, with the trace so far,
    when a rotation meets a singular A_t (named in the message once a
    rotation has changed it: the first left rotation gives A_1 the spectrum
    of the left band [A; C]). Each rotation acts on the iterate through its
    rank-r coupling, r <= k, never as a dense product.
    """
    k = p.k
    spectrum = np.linalg.svd(p.base, compute_uv=False)
    limit = SWEEP_TOL * float(spectrum[0])    # SWEEP_TOL * ||R||_2
    cur = BlockPartition(p.base.copy(), k)  # the iterate, rotated in place
    trace = SweepTrace(k=k, n=p.n)
    trace.append_state(0, cur)
    rec = trace.records[0]
    converged = rec.norm_b <= limit and rec.norm_c <= limit
    t = 0
    while not converged and t < MAX_SWEEPS:
        side = ("left", "right")[t % 2]
        try:
            g = _build_rotation(cur, side, rec.sigma_a)
        except SingularBlockError as exc:
            exc.trace = trace
            if any(not r.degenerate for r in trace.records[1:]):
                # A_t is no longer the input's A: name the iterate that failed
                exc.args = (f"pivot block A_{t} of the sweeps is numerically singular "
                            f"(sigma_min={exc.sigma_min:.3e}, sigma_1={rec.sigma_a[0]:.3e})",)
            raise
        g.apply(cur.base)
        # Exact annihilation of the targeted block, not just small residual.
        if side == "left":
            cur.base[k:, :k] = 0.0
        else:
            cur.base[:k, k:] = 0.0
        t += 1
        trace.append_state(t, cur, degenerate=g.degenerate)
        rec = trace.records[-1]
        converged = rec.norm_b <= limit and rec.norm_c <= limit
    return BlockDiagResult(trace=trace, converged=converged, iterations=t,
                           final=cur.base, spectrum=spectrum)


def check_lemma11(trace: SweepTrace) -> CheckReport:
    """Diagnostic report on monotonicity, band preservation, contraction and
    gap preservation along a sweep trace. Each check's slack is LEMMA11_TOL
    times max(||[A_0; C_0]||, ||[B_0; D_0]||), so no verdict depends on the
    units of R. The factors of (iv) are proved for one trailing column
    (n = k + 1) only; elsewhere (iv) reports its margin and passes. Never raises."""
    recs = trace.records
    tol = LEMMA11_TOL * max(float(recs[0].sigma_left_band[0]), recs[0].norm_right_band)
    rep = CheckReport()
    # (i) singular values of the pivot block never decrease
    rep.add("i_pivot_monotone", min((np.min(nxt.sigma_a - prev.sigma_a)
                                     for prev, nxt in zip(recs, recs[1:])), default=0.0), tol)
    if len(recs) >= 2:
        r1 = recs[1]
        # (ii) first left step zeroes C and preserves the left-band spectrum
        spec_dev = float(np.max(np.abs(r1.sigma_a - recs[0].sigma_left_band[:len(r1.sigma_a)])))
        rep.add("ii_first_step", -max(r1.norm_c, spec_dev), tol)
        # (iii) right-band norm unchanged by the first (left) step
        rep.add("iii_right_band_norm", -abs(r1.norm_right_band - recs[0].norm_right_band), tol)
    # (iv) contraction factors, checked from each recorded t >= 1
    margins = []
    for prev, nxt in zip(recs[1:], recs[2:]):
        off = prev.norm_b if prev.norm_b >= prev.norm_c else prev.norm_c
        norm_a, sigma_k_a = float(prev.sigma_a[0]), float(prev.sigma_a[-1])
        # D-contraction: ||D|| times the cosine of the angle of tangent off / ||A||
        if norm_a > 0:
            margins.append(prev.norm_d * cos_sin(off, norm_a)[0] - nxt.norm_d)
        # new off-block: ||D|| times the sine of the angle of tangent off / sigma_k(A)
        if off > 0 or sigma_k_a > 0:
            new_off = nxt.norm_c if prev.norm_b >= prev.norm_c else nxt.norm_b
            margins.append(prev.norm_d * cos_sin(off, sigma_k_a)[1] - new_off)
    rep.add("iv_contraction", min(margins, default=0.0),
            tol if trace.n == trace.k + 1 else np.inf)
    # (v) gap preservation once it holds at t = 0
    sig0 = recs[0].sigma_left_band
    gap_idx = [i for i in range(len(sig0)) if sig0[i] >= recs[0].norm_right_band]
    rep.add("v_gap_preserved", min((rec.sigma_left_band[i] - rec.norm_right_band
                                    for rec in recs[1:] for i in gap_idx), default=0.0), tol)
    return rep


@dataclass(frozen=True)
class GapCertificate(JsonReport):
    """The gap condition sigma_i([A; C]) >= ||[B; D]|| of a k-split, its
    two sides and its verdict."""

    i: int
    sigma_i_left: float
    norm_right: float
    certified: bool

    @classmethod
    def from_record(cls, rec: SweepRecord, i: int, m: int) -> "GapCertificate":
        """Both sides as ``rec`` measured them, for 1 <= i <= k:
        ``sigma_left_band[i - 1]`` and ``norm_right_band`` of an m-row
        iterate's two bands.

        ``certified`` needs a zero right band, or the gap to survive a pad
        of gamma_m sigma_1(left) and gamma_m ||right|| (``_gamma``):
        LAPACK's backward-error model for computed singular values, not a
        Rump-rigorous enclosure. The sides are reported unpadded.
        """
        sigma_left, norm_right = rec.sigma_left_band, rec.norm_right_band
        low = sigma_left[i - 1] - _gamma(m) * sigma_left[0]
        high = norm_right * (1.0 + _gamma(m))
        return cls(i=i, sigma_i_left=float(sigma_left[i - 1]), norm_right=norm_right,
                   certified=bool(norm_right == 0.0 or low >= high))


def top_singular_values(p: BlockPartition, i: int):
    """Top i singular values of R via block diagonalization.

    Returns (values, certificate, result). The values are the top i of
    sigma(A_t) from the trace's last record, the same SVD that the last
    sweep recorded. The certificate's two sides are the trace's first
    record, the bands of R itself (``GapCertificate.from_record``): whether
    sigma(A_t) holds R's top i values, as the sweeps keep the gap (Lemma 11
    (v)). When it fails the values are still returned, uncertified. Raises
    MatrixError for an i outside 1..k.
    """
    if not (1 <= i <= p.k):
        raise MatrixError(f"need 1 <= i <= k, got i={i}, k={p.k}")
    res = block_diagonalize(p)
    cert = GapCertificate.from_record(res.trace.records[0], i, p.m)
    return res.trace.records[-1].sigma_a[:i], cert, res


def kyfan_column_bounds(y, i: int) -> CheckReport:
    """Partial-sum comparison at index i between squared singular values and
    squared column norms (columns sorted by descending norm): ``head``,
    sum_{j<=i} sigma_j^2 - sum_{j<=i} ||y_j||^2, and ``tail``,
    sum_{j>i} ||y_j||^2 - sum_{j>i} sigma_j^2, each >= 0 by Ky Fan. Both
    are reported as fractions of ||y||_F^2 (0 for a zero y), so they are
    unit-free, and pass down to -KYFAN_TOL. The squares are taken of
    ``pow2_scale(y)``, so none overflows or underflows."""
    y = as_matrix(y)
    q = y.shape[1]
    if not (1 <= i <= q):
        raise MatrixError(f"need 1 <= i <= {q}, got {i}")
    y = pow2_scale(y)[0]
    sig2 = np.linalg.svd(y, compute_uv=False) ** 2
    sig2 = np.concatenate([sig2, np.zeros(max(0, q - sig2.size))])
    col2 = np.sort((y**2).sum(axis=0))[::-1]
    frob2 = float(col2.sum()) or 1.0    # a zero y has zero sums
    rep = CheckReport()
    rep.add("head", (sig2[:i].sum() - col2[:i].sum()) / frob2, KYFAN_TOL)
    rep.add("tail", (col2[i:].sum() - sig2[i:q].sum()) / frob2, KYFAN_TOL)
    return rep
