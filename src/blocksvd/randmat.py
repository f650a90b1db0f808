"""Sparse non-negative random matrices with permutation-invariant columns.

Column profiles fix per-column sizes (coordinate sums) and either exact
norms or expected squared norms. The expected Gram matrix of such an
ensemble is available in closed form, and its spectrum is sandwiched by
the sorted (expected) squared norms up to factors involving the density
and the size moment ratio.

All samplers are exchangeable in the coordinates by construction, hence
invariant under the permutation group. Randomness is driven by named
streams derived from (seed, *key) so every draw is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundReport, containment
# moment_ratio lives in matcore, so the planner does not load this module;
# it stays importable from here.
from .matcore import CheckReport, MatrixError, moment_ratio

DEFAULT_SLACK_C = 4.0    # multiplier on the L/m slack terms
MAX_DRAWS = 10**4        # rejection draws per column before SamplerStarvation
SIZE_TOL = 1e-12


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a named substream of a non-negative base seed."""
    _check_count("seed", seed, 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _check_count(name: str, value: int, least: int) -> None:
    if value < least:
        raise MatrixError(f"{name} must be at least {least}, got {value}")


# ---------------------------------------------------------------------------
# Profiles and their statistics
# ---------------------------------------------------------------------------

def _checked_sizes(m: int, sizes) -> np.ndarray:
    """``sizes`` as a float vector, after checking that m >= 1 and that the
    sizes are a non-empty vector of finite, positive numbers."""
    if not m >= 1:
        raise MatrixError(f"need m >= 1 rows, got {m}")
    sizes = np.asarray(sizes, dtype=float)
    if sizes.ndim != 1 or sizes.size < 1:
        raise MatrixError("sizes must be a non-empty vector")
    if not np.all(np.isfinite(sizes) & (sizes > 0)):
        raise MatrixError("sizes must be finite and positive")
    return sizes


@dataclass(frozen=True)
class ColumnProfile:
    """Fixed column sizes plus exact norms or expected squared norms.

    Exactly one of ``norms`` and ``expected_sq_norms`` must be given. ``L``
    is the maximal number of nonzero entries per column; when unknown it
    defaults to the ceiling of the largest size, clipped to m (exact for
    zero-one columns, a heuristic otherwise).
    """

    m: int
    sizes: np.ndarray
    norms: np.ndarray | None = None
    expected_sq_norms: np.ndarray | None = None
    L: int | None = None

    def __post_init__(self):
        sizes = _checked_sizes(self.m, self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if (self.norms is None) == (self.expected_sq_norms is None):
            raise MatrixError("exactly one of norms / expected_sq_norms required")
        if self.norms is not None:
            norms = np.asarray(self.norms, dtype=float)
            object.__setattr__(self, "norms", norms)
            if norms.shape != sizes.shape:
                raise MatrixError("norms must match sizes in length")
            if not np.all(np.isfinite(norms) & (norms > 0)):
                raise MatrixError("norms must be finite and positive")
            if np.any(norms > sizes + SIZE_TOL):
                raise MatrixError("infeasible profile: a norm exceeds its size")
        else:
            w = np.asarray(self.expected_sq_norms, dtype=float)
            object.__setattr__(self, "expected_sq_norms", w)
            if w.shape != sizes.shape:
                raise MatrixError("expected_sq_norms must match sizes in length")
            if not np.all(np.isfinite(w) & (w > 0)):
                raise MatrixError("expected_sq_norms must be finite and positive")
        if self.L is None:
            object.__setattr__(self, "L", int(min(self.m, math.ceil(sizes.max()))))

    @property
    def k(self) -> int:
        return self.sizes.size

    @property
    def c_max(self) -> float:
        return float(self.sizes.max())

    def sq_norms(self) -> np.ndarray:
        """Exact or expected squared norms, whichever the profile carries."""
        if self.norms is not None:
            return self.norms**2
        return self.expected_sq_norms

    def xi(self) -> np.ndarray:
        """Size-to-squared-norm ratios."""
        return self.sizes / self.sq_norms()


def density(profile: ColumnProfile) -> float:
    """Average entry mass: sum of sizes over m*k."""
    return float(profile.sizes.sum() / (profile.m * profile.k))


def check_S1(profile: ColumnProfile) -> CheckReport:
    """Structural conditions: squared norms dominate sizes, bounded maximal
    size, and a moment-ratio cap on the size-to-squared-norm sequence.
    Consequence inequalities are reported alongside."""
    rep = CheckReport()
    w = profile.sq_norms()
    rep.add("sq_norm_ge_size", np.min(w - profile.sizes), SIZE_TOL)
    rep.add("max_size_le_m", profile.m - profile.c_max)
    xi = profile.xi()
    cap = 1.0 + profile.m / (profile.c_max * profile.k)
    rep.add("xi_moment_ratio_cap", cap - moment_ratio(xi), SIZE_TOL)
    # consequences of the conditions above
    rep.add("xi_le_one", 1.0 - xi.max(), SIZE_TOL)
    rep.add("xi_norm_le_sqrt_k", np.sqrt(profile.k) - np.linalg.norm(xi), SIZE_TOL)
    ratio = profile.sizes**2 / (profile.m * w)
    rep.add("size_sq_ratio_le_L_over_m", profile.L / profile.m - ratio.max(), SIZE_TOL)
    xi2 = np.sqrt(np.mean(xi**2))
    rep.add("weighted_gap_sum_le_m", profile.m - np.sum((xi2 - xi) * profile.sizes), SIZE_TOL)
    return rep


# ---------------------------------------------------------------------------
# Expected Gram matrix and spectrum sandwich
# ---------------------------------------------------------------------------

def expected_gram(profile: ColumnProfile) -> np.ndarray:
    """E(X^T X) as a k x k array: the (expected) squared norms w on the
    diagonal, s_i s_j / m off it. It equals D_k (H_k + e_k u_k^T / m) with
    D_k = diag(w), H_k = diag(1 - s^2/(m w)), e_k = s/w and u_k = s."""
    g = np.outer(profile.sizes, profile.sizes) / profile.m
    np.fill_diagonal(g, profile.sq_norms())
    return g


def _sandwich(profile: ColumnProfile, delta: float, rho: float, slack_c: float,
              formula: str) -> list[BoundReport]:
    """Theorem 3's per-index sandwich on the expected Gram spectrum, for a
    density delta and a size moment ratio rho.

    lower = (1 + rho + c*L/m)^(-1) * w_(i), upper = (1 + k*delta*rho) *
    w_(i), with w_(i) the i-th largest (expected) squared norm; the
    expected-norm mode adds the slack c*L/m to the upper factor as well.
    Oracle values are the eigenvalues of the expected Gram matrix.
    """
    slack = slack_c * profile.L / profile.m
    w_sorted = np.sort(profile.sq_norms())[::-1]
    sig = np.linalg.eigvalsh(expected_gram(profile))[::-1]
    upper_factor = 1.0 + profile.k * delta * rho
    if profile.norms is None:
        upper_factor += slack
    lower_factor = 1.0 / (1.0 + rho + slack)
    return [
        BoundReport(formula, i + 1, profile.k,
                    lower=float(lower_factor * w_sorted[i]),
                    upper=float(upper_factor * w_sorted[i]),
                    oracle=float(sig[i]))
        for i in range(profile.k)
    ]


def theorem3_bounds(profile: ColumnProfile, slack_c: float = DEFAULT_SLACK_C) -> list[BoundReport]:
    """Theorem 3's sandwich at the profile's density and size moment ratio."""
    return _sandwich(profile, density(profile), moment_ratio(profile.sizes), slack_c, "Thm3")


# ---------------------------------------------------------------------------
# Column samplers
# ---------------------------------------------------------------------------

class SamplerStarvation(RuntimeError):
    """No draw was accepted in MAX_DRAWS attempts."""


def sample_column_binary(m: int, l: int, rng: np.random.Generator) -> np.ndarray:
    """Indicator of a uniformly random l-subset of the m coordinates."""
    if not (1 <= l <= m):
        raise MatrixError(f"need 1 <= l <= m, got l={l}, m={m}")
    x = np.zeros(m)
    x[rng.choice(m, size=l, replace=False)] = 1.0
    return x


def sample_column_fixed_size(m: int, s: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the scaled simplex {x >= 0, sum x = s}.

    Unit exponentials normalized to the target size: exchangeable and
    exactly uniform on the simplex.
    """
    if s <= 0:
        raise MatrixError("size must be positive")
    e = rng.standard_exponential(m)
    return s * e / e.sum()


def sample_column_fixed_size_norm(m: int, s: float, b: float,
                                  rng: np.random.Generator) -> np.ndarray:
    """Non-negative vector with exact size s and norm b.

    Draw uniform on the simplex, then scale the radial part around the
    center point until the norm matches; reject draws whose scaled point
    leaves the positive orthant, raising SamplerStarvation after MAX_DRAWS
    rejections. Coordinate-symmetric by construction.
    """
    if s <= 0:
        raise MatrixError("size must be positive")
    lo = s / np.sqrt(m)
    if not (lo - SIZE_TOL <= b <= s + SIZE_TOL):
        raise MatrixError(f"infeasible (size, norm): need {lo:.6g} <= b <= {s:.6g}, got {b:.6g}")
    center = np.full(m, s / m)
    target_r2 = max(b * b - s * s / m, 0.0)
    if target_r2 == 0.0:
        return center.copy()
    target_r = np.sqrt(target_r2)
    for _ in range(MAX_DRAWS):
        x = sample_column_fixed_size(m, s, rng)
        r = x - center
        nr = np.linalg.norm(r)
        if nr == 0.0:
            continue
        y = center + (target_r / nr) * r
        if np.all(y >= 0.0):
            return y
    raise SamplerStarvation(
        f"no acceptance in {MAX_DRAWS} draws for (m={m}, s={s}, b={b})")


@dataclass(frozen=True)
class RandomColumnModel:
    """A k-column ensemble: kind is "binary", "fixed-size" or
    "fixed-size-and-norm". Needs m >= 1 and finite, positive sizes, whole
    numbers no larger than m for binary columns. Norms are required for
    the last kind, whose sampler uses them, and refused for the others;
    they match the sizes in length."""

    kind: str
    m: int
    sizes: np.ndarray
    norms: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("binary", "fixed-size", "fixed-size-and-norm"):
            raise MatrixError(f"unknown model kind {self.kind!r}")
        sizes = _checked_sizes(self.m, self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if self.kind == "binary" and not np.all((sizes == np.floor(sizes)) & (sizes <= self.m)):
            raise MatrixError(f"binary sizes must be whole numbers <= m={self.m}")
        if (self.kind == "fixed-size-and-norm") != (self.norms is not None):
            raise MatrixError("norms are required for a fixed-size-and-norm model "
                              "and refused for any other kind")
        if self.norms is not None:
            norms = np.asarray(self.norms, dtype=float)
            object.__setattr__(self, "norms", norms)
            if norms.shape != sizes.shape:
                raise MatrixError("norms must match sizes in length")

    @property
    def k(self) -> int:
        return self.sizes.size

    def profile(self) -> ColumnProfile:
        if self.kind == "binary":
            return ColumnProfile(m=self.m, sizes=self.sizes,
                                 norms=np.sqrt(self.sizes),
                                 L=int(self.sizes.max()))
        if self.kind == "fixed-size-and-norm":
            return ColumnProfile(m=self.m, sizes=self.sizes, norms=self.norms, L=self.m)
        # fixed-size: each column's norm is random, and this model does not
        # supply the expected squares, so the caller builds the profile
        raise MatrixError("fixed-size model has no intrinsic norm profile; "
                          "build a ColumnProfile with expected_sq_norms instead")

    def sample_column(self, j: int, trial: int) -> np.ndarray:
        rng = stream(self.seed, trial, j)
        if self.kind == "binary":
            return sample_column_binary(self.m, int(self.sizes[j]), rng)
        if self.kind == "fixed-size":
            return sample_column_fixed_size(self.m, float(self.sizes[j]), rng)
        return sample_column_fixed_size_norm(self.m, float(self.sizes[j]),
                                             float(self.norms[j]), rng)

    def sample_matrix(self, trial: int) -> np.ndarray:
        cols = [self.sample_column(j, trial) for j in range(self.k)]
        return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentCheck:
    """An empirical moment, its closed form, and the empirical standard error."""

    empirical: float
    formula: float
    se: float


@dataclass(frozen=True)
class Lemma13Report:
    """Lemma 13's inner-product mean and variance, each against its formula."""

    mean: MomentCheck
    variance: MomentCheck


def _model_sq_norm(model: RandomColumnModel, samples: np.ndarray) -> float:
    """The squared norm of a single-column model: its fixed norm squared, its
    size for a zero-one column, else the mean of the sampled squares."""
    if model.norms is not None:
        return float(model.norms[0] ** 2)
    if model.kind == "binary":
        return float(model.sizes[0])
    return float(samples.mean())


def lemma13_stats(model_x: RandomColumnModel, model_y: RandomColumnModel,
                  trials: int) -> Lemma13Report:
    """Empirical inner-product moments of two independent single-column
    models against the closed forms. Norm-varying models are compared
    against the expectation-substituted variance."""
    if model_x.m != model_y.m:
        raise MatrixError("models must share the row count")
    if model_x.k != 1 or model_y.k != 1:
        raise MatrixError("lemma13_stats works on single-column models")
    _check_count("trials", trials, 2)
    m = model_x.m
    _check_count("m", m, 2)  # the variance formula divides by m - 1
    dots = np.empty(trials)
    sqx = np.empty(trials)
    sqy = np.empty(trials)
    for t in range(trials):
        x = model_x.sample_column(0, t)
        y = model_y.sample_column(0, 2 * trials + t)  # disjoint stream keys
        dots[t] = x @ y
        sqx[t] = x @ x
        sqy[t] = y @ y
    sx, sy = float(model_x.sizes[0]), float(model_y.sizes[0])
    mean_formula = sx * sy / m
    wx, wy = _model_sq_norm(model_x, sqx), _model_sq_norm(model_y, sqy)
    var_formula = (wx - sx * sx / m) * (wy - sy * sy / m) / (m - 1)
    mean_emp = float(dots.mean())
    var_emp = float(dots.var(ddof=1))
    mean_se = float(dots.std(ddof=1) / np.sqrt(trials))
    centered = (dots - mean_emp) ** 2
    var_se = float(centered.std(ddof=1) / np.sqrt(trials))
    return Lemma13Report(mean=MomentCheck(mean_emp, mean_formula, mean_se),
                         variance=MomentCheck(var_emp, var_formula, var_se))


@dataclass(frozen=True)
class EmpiricalGramReport:
    """Mean sampled Gram matrix against E(X^T X), its largest gap and error."""

    g_hat: np.ndarray
    g: np.ndarray
    max_abs_dev: float
    max_se: float


def empirical_gram(model: RandomColumnModel, trials: int) -> EmpiricalGramReport:
    """Average of X^T X over trials against the expected Gram matrix of
    ``model.profile()`` (a MatrixError for a fixed-size model, which has none)."""
    profile = model.profile()
    _check_count("trials", trials, 1)
    k = model.k
    acc = np.zeros((k, k))
    acc2 = np.zeros((k, k))
    for t in range(trials):
        x = model.sample_matrix(t)
        gt = x.T @ x
        acc += gt
        acc2 += gt**2
    g_hat = acc / trials
    var = np.maximum(acc2 / trials - g_hat**2, 0.0)
    se = np.sqrt(var / trials)
    g = expected_gram(profile)
    return EmpiricalGramReport(g_hat=g_hat, g=g,
                               max_abs_dev=float(np.abs(g_hat - g).max()),
                               max_se=float(se.max()))


@dataclass
class FluctuationReport:
    """Mean sampled sigma_i^2(X) against sigma_i(E X^T X), with the
    fluctuation band and the partial-sum (Ky Fan style) head margins."""

    frak_n: float
    band_fro: float            # sqrt((k-1)/(m-1)) * frak_n
    sigma_g: np.ndarray
    e_sigma2: np.ndarray
    e_sigma2_se: np.ndarray
    kyfan_head_margins: np.ndarray   # E sum_{j<=i} sigma_j^2(X) - sum sigma_j(G)


def radial_norms(profile: ColumnProfile) -> np.ndarray:
    """||r_i||: distance of each column from its simplex center."""
    return np.sqrt(np.maximum(profile.sq_norms() - profile.sizes**2 / profile.m, 0.0))


def fluctuation_frak_n(profile: ColumnProfile) -> float:
    r = radial_norms(profile)
    total = float((r**2).sum())
    return float(sum(r[p] * np.sqrt(total - r[p] ** 2) for p in range(r.size)))


def fluctuation_bounds(model: RandomColumnModel, trials: int) -> FluctuationReport:
    """Monte Carlo comparison of E(sigma_i^2(X)) with the spectrum of the
    expected Gram matrix of ``model.profile()`` (a MatrixError for a
    fixed-size model), plus partial-sum head margins in expectation."""
    profile = model.profile()
    _check_count("trials", trials, 1)
    m, k = profile.m, profile.k
    _check_count("m", m, 2)  # the band divides by m - 1
    frak_n = fluctuation_frak_n(profile)
    sigma_g = np.sort(np.linalg.eigvalsh(expected_gram(profile)))[::-1]
    sig2 = np.empty((trials, k))
    for t in range(trials):
        x = model.sample_matrix(t)
        s = np.linalg.svd(x, compute_uv=False)
        row = np.zeros(k)
        row[: s.size] = s**2
        sig2[t] = row
    e_sigma2 = sig2.mean(axis=0)
    se = sig2.std(axis=0, ddof=1) / np.sqrt(trials) if trials > 1 else np.zeros(k)
    heads = np.cumsum(e_sigma2) - np.cumsum(sigma_g)
    return FluctuationReport(
        frak_n=frak_n,
        band_fro=float(np.sqrt((k - 1) / (m - 1)) * frak_n),
        sigma_g=sigma_g, e_sigma2=e_sigma2, e_sigma2_se=se,
        kyfan_head_margins=heads)


# ---------------------------------------------------------------------------
# Gamma-distributed column sizes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaSpec:
    """Gamma(alpha, rate beta) column sizes, truncated below at ``a``."""

    alpha: float
    beta: float
    a: float = 1.0

    def __post_init__(self):
        # chained comparisons, so that NaN fails each check as well as inf
        if not 1.0 <= self.alpha < math.inf:
            raise MatrixError(f"shape alpha must be finite and >= 1, got {self.alpha}")
        if not 0.0 < self.beta < math.inf:
            raise MatrixError(f"rate beta must be finite and positive, got {self.beta}")
        if not 0.0 <= self.a < math.inf:
            raise MatrixError(f"truncation point a must be finite and non-negative, got {self.a}")


def sample_sizes_truncated_gamma(k: int, spec: GammaSpec,
                                 rng: np.random.Generator) -> np.ndarray:
    """k i.i.d. draws from the left-truncated gamma density.

    Rejection from the untruncated gamma; the acceptance probability is
    1 - F(a), close to one for the small-beta regime of interest. Raises
    SamplerStarvation once MAX_DRAWS draws in a row are rejected.
    """
    out = np.empty(k)
    filled = 0
    rejected = 0  # draws since the last accepted batch
    while filled < k:
        batch = rng.gamma(spec.alpha, 1.0 / spec.beta, size=max(2 * (k - filled), 16))
        keep = batch[batch >= spec.a]
        take = min(keep.size, k - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
        rejected = 0 if take else rejected + batch.size
        if rejected >= MAX_DRAWS:
            raise SamplerStarvation(f"no draw reached a={spec.a} in {rejected} draws "
                                    f"(alpha={spec.alpha}, beta={spec.beta})")
    return out


def gamma_rho_prediction(spec: GammaSpec) -> float:
    """Leading-order moment ratio sqrt(1 + 1/alpha) of the truncated law."""
    return float(np.sqrt(1.0 + 1.0 / spec.alpha))


@dataclass
class Corollary10Report:
    """Corollary 10's sandwich on one resample and its containment over all
    resamples."""

    reports: list[BoundReport]            # per-index, representative resample
    containment_fraction: float
    precondition_ok: bool


def _binaryized_profile(sizes: np.ndarray, m: int) -> ColumnProfile:
    s = np.clip(np.ceil(sizes), 1, m)
    return ColumnProfile(m=m, sizes=s, expected_sq_norms=s.copy(), L=int(s.max()))


def corollary10_bounds(m: int, k: int, spec: GammaSpec, resamples: int,
                       seed: int = 0) -> Corollary10Report:
    """Theorem 3's sandwich at the gamma law's predicted density
    alpha/(m*beta) and moment ratio sqrt(1 + 1/alpha), in place of the
    sample ones, evaluated over independent size resamples.

    Sizes are drawn from the truncated gamma law and rounded up to integers
    (zero-one column semantics, so expected squared norms equal sizes).
    Containment is reported as the fraction of resamples where every index
    lies inside its interval, by ``bounds.containment`` at the largest
    expected-Gram eigenvalue.
    """
    _check_count("resamples", resamples, 1)
    delta_formula = spec.alpha / (m * spec.beta)
    rho = gamma_rho_prediction(spec)
    contained = 0
    precond = spec.a == 1.0 and spec.alpha >= 1.0 and spec.beta <= 1.0 / np.sqrt(k)
    for t in range(resamples):
        sizes = sample_sizes_truncated_gamma(k, spec, stream(seed, t))
        prof = _binaryized_profile(sizes, m)
        sandwich = _sandwich(prof, delta_formula, rho, DEFAULT_SLACK_C, "Cor10")
        contained += containment(sandwich, max(r.oracle for r in sandwich)).all_passed
        if t == 0:
            reports = sandwich
    return Corollary10Report(
        reports=reports,
        containment_fraction=contained / resamples,
        precondition_ok=precond)
