"""Self-verification suites: randomized invariant checks for every module.

Each suite runs a batch of checks and returns a ``CheckReport`` of signed
margins (non-negative means the invariant holds with room to spare). Each
draw adds its margin where it measures it, so a check's margin is the least
over the draws it judged (``CheckReport.add``), a NaN margin fails it, and a
check that judged no draw fails with margin -1.0. Reports are deterministic
for a fixed seed and serialize to JSON for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blockdiag as bd
from . import bounds as bn
from . import givens as gv
from . import matcore as mc
from . import pipeline as pl
from . import randmat as rm

PIVOT_FLOOR = 1e-3     # least sigma_min(A) of a random partition


@dataclass
class VerifyReport:
    """One suite's checks, or every suite's under "all", by suite name; passes when all do."""

    suite: str
    seed: int
    trials: int
    reports: dict[str, mc.CheckReport]

    @property
    def passed(self) -> bool:
        return all(r.all_passed for r in self.reports.values())

    def to_json(self) -> dict:
        return {"suite": self.suite, "seed": self.seed, "trials": self.trials,
                "passed": self.passed,
                "checks": [{"suite": name, **c.to_json()}
                           for name, rep in self.reports.items() for c in rep.checks]}


def _random_partition(rng: np.random.Generator) -> mc.BlockPartition:
    """Random partition with a non-degenerate pivot block."""
    m = int(rng.integers(4, 12))
    n = int(rng.integers(3, m + 1))
    k = int(rng.integers(1, n))
    while True:
        r = rng.standard_normal((m, n))
        if np.linalg.svd(r[:k, :k], compute_uv=False)[-1] >= PIVOT_FLOOR:
            return mc.BlockPartition(r, k)


def verify_matcore(seed: int, trials: int) -> mc.CheckReport:
    rep = mc.CheckReport()
    rng = rm.stream(seed, 0)
    for _ in range(trials):
        a = rng.standard_normal((int(rng.integers(1, 10)), int(rng.integers(1, 10))))
        norm, exact = mc.operator_norm(a), np.linalg.norm(a, 2)
        rep.add("schur_bound_dominates_norm", mc.schur_test_bound(a) - norm, tol=1e-12)
        rep.add("operator_norm_matches_svd", 1e-13 * exact - abs(norm - exact))
    return rep


def verify_givens(seed: int, trials: int) -> mc.CheckReport:
    rep = mc.CheckReport()
    rng = rm.stream(seed, 1)
    scales = rm.stream(seed, 1, 1)   # its own stream, so it shifts none of rng's draws
    for _ in range(trials):
        p = _random_partition(rng)
        norm_r = mc.operator_norm(p.base)
        for build, off in ((gv.build_right_rotation, "b"), (gv.build_left_rotation, "c")):
            g = build(p)
            dim = g.matrix.shape[0]
            orth = mc.operator_norm(g.matrix.T @ g.matrix - np.eye(dim))
            rep.add("rotation_orthogonality", 1e-11 * dim - orth)
            if g.side == "right":
                rotated = mc.BlockPartition(p.base @ g.matrix, p.k)
                resid = mc.operator_norm(rotated.b)
            else:
                rotated = mc.BlockPartition(g.matrix @ p.base, p.k)
                resid = mc.operator_norm(rotated.c)
            rep.add("off_block_annihilation", 1e-10 * norm_r - resid)
            w = gv.rotation_weight(g)
            rep.add("rotation_weight_in_unit_interval", min(w, 1.0 - w + 1e-15))
        q = np.linalg.qr(rng.standard_normal((p.n, p.n)))[0]
        kk = min(p.k, p.n - p.k) if p.n > p.k else max(p.n - 1, 1)
        fac = gv.block_rotation_decompose(q, kk)
        rep.add("cs_decomposition_reassembles", 1e-10 - mc.operator_norm(fac.assemble() - q))
        rep.add("extreme_ratio_rotations", _extreme_ratio_margin(p, scales))
    return rep


def _extreme_ratio_margin(p: mc.BlockPartition, rng: np.random.Generator) -> float:
    """With B and C of p scaled by 2^e, e drawn from [-600, 600] for each,
    the least room of either rotation's residual block under 1e-10 times
    its band (the top k rows for B, the left k columns for C); -1.0 when
    an angle is not finite."""
    k, r = p.k, p.base.copy()
    eb, ec = rng.integers(-600, 601, size=2)
    r[:k, k:], r[k:, :k] = np.ldexp(r[:k, k:], eb), np.ldexp(r[k:, :k], ec)
    q = mc.BlockPartition(r, k)
    gr, gl = gv.build_right_rotation(q), gv.build_left_rotation(q)
    if not (np.isfinite(gr.ratio_sigma).all() and np.isfinite(gl.ratio_sigma).all()):
        return -1.0
    return 1e-10 - max(mc.operator_norm((r @ gr.matrix)[:k, k:]) / mc.operator_norm(r[:k]),
                       mc.operator_norm((gl.matrix @ r)[k:, :k]) / mc.operator_norm(r[:, :k]))


def verify_blockdiag(seed: int, trials: int) -> mc.CheckReport:
    rep = mc.CheckReport()
    rng = rm.stream(seed, 2)
    lem, kyfan = [], []   # verdicts of the reports whose failures are counted
    for _ in range(trials):
        m = int(rng.integers(6, 14))
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k + 1, m + 1))
        r = rng.standard_normal((m, n))
        r[:, :k] *= 10.0  # leading-block gap so sweeps contract
        p = mc.BlockPartition(r, k)
        sig_left = np.linalg.svd(p.left_band(), compute_uv=False)
        if (np.linalg.svd(p.a, compute_uv=False)[-1] < 1e-3
                or sig_left[-1] < 2.0 * mc.operator_norm(p.right_band())):
            continue
        res = bd.block_diagonalize(p)
        norm_r = float(res.spectrum[0])
        last = res.trace.records[-1]
        rep.add("sweeps_converge", bd.SWEEP_TOL * norm_r - max(last.norm_b, last.norm_c))
        rep.add("spectrum_preserved", 1e-9 * norm_r - res.spectrum_deviation())
        kyfan.append(bd.kyfan_column_bounds(r, min(k, n)).all_passed)
        # contraction diagnostics are checked on square splits one short of
        # full, where every stated factor is provably attained
        k2 = int(rng.integers(2, 8))
        r2 = rng.standard_normal((k2 + 1, k2 + 1))
        r2[:, :k2] *= 10.0
        p2 = mc.BlockPartition(r2, k2)
        if np.linalg.svd(p2.a, compute_uv=False)[-1] < 1e-2:
            continue
        lem.append(bd.check_lemma11(bd.block_diagonalize(p2).trace).all_passed)
    _fail_unjudged(rep, "sweeps_converge", "spectrum_preserved")
    for name, verdicts in (("sweep_diagnostics_hold", lem), ("column_norm_partial_sums", kyfan)):
        rep.add(name, -verdicts.count(False) if verdicts else -1.0)
    return rep


def _fail_unjudged(rep: mc.CheckReport, *names: str):
    """Fail each of ``names`` that no draw added, with margin -1.0."""
    for name in names:
        if name not in {c.name for c in rep.checks}:
            rep.add(name, -1.0)


def verify_bounds(seed: int, trials: int) -> mc.CheckReport:
    rep = mc.CheckReport()
    rng = rm.stream(seed, 3)
    for _ in range(trials):   # margins are slack / sigma_1(R)
        p = _random_partition(rng)
        p = bn.SpectralPartition(p.base, p.k)
        scale = float(p.sigma_r[0])
        i = int(rng.integers(1, p.k + 1))
        for r in bn.weyl_gap_bounds(p, i):
            rep.add("gap_bounds_contain_oracle", r.slack / scale, tol=bn.BOUND_TOL)
        rep.add("slice_bound_contains_gap", bn.mu_bounds(p, i).slack / scale, tol=bn.BOUND_TOL)
        for r in bn.theorem2_bounds(p):
            rep.add("zeroed_block_value_bounds", r.slack / scale, tol=bn.BOUND_TOL)
    oracle = float(np.linalg.svd(np.array([[0.6, -0.8], [0.8, 0.0]]),
                                 compute_uv=False)[1])
    rep.add("closed_form_reference_value",
            1e-12 - abs(bn.example1_sigma2(0.6, 0.8) - oracle))
    return rep


def verify_theorem3(seed: int, trials: int) -> mc.CheckReport:
    rep = mc.CheckReport()
    # hand case: m=4, two binary columns of size 2
    prof = rm.ColumnProfile(m=4, sizes=np.array([2.0, 2.0]), norms=np.sqrt([2.0, 2.0]))
    g = rm.expected_gram(prof)
    rep.add("hand_case_gram_exact", -float(np.abs(g - np.array([[2.0, 1.0], [1.0, 2.0]])).max()),
            tol=1e-12)
    reps = rm.theorem3_bounds(prof, slack_c=0.0)
    rep.add("hand_case_upper", min(r.upper - r.oracle for r in reps), tol=1e-12)
    rep.add("hand_case_lower_tight", -abs(reps[-1].lower - reps[-1].oracle), tol=1e-12)
    rng = rm.stream(seed, 4)
    for _ in range(max(trials // 10, 1)):   # margins are slack / largest expected-Gram eigenvalue
        m, k = 500, 20
        sizes = rng.integers(5, 60, size=k).astype(float)
        prof = rm.ColumnProfile(m=m, sizes=sizes, norms=np.sqrt(sizes), L=int(sizes.max()))
        if not rm.check_S1(prof).all_passed:
            continue
        reps = rm.theorem3_bounds(prof)
        rep.add("random_profiles_contained",
                min(r.slack for r in reps) / max(r.oracle for r in reps), tol=bn.BOUND_TOL)
    _fail_unjudged(rep, "random_profiles_contained")
    return rep


def verify_corollaries(seed: int, trials: int) -> mc.CheckReport:
    rep = mc.CheckReport()
    mx = rm.RandomColumnModel("binary", m=4, sizes=np.array([2.0]), seed=seed)
    my = rm.RandomColumnModel("binary", m=4, sizes=np.array([2.0]), seed=seed + 1)
    lem = rm.lemma13_stats(mx, my, trials=max(trials * 20, 2000))
    rep.add("inner_product_mean", 4.0 * lem.mean.se - abs(lem.mean.empirical - lem.mean.formula))
    rep.add("inner_product_variance",
            4.0 * lem.variance.se - abs(lem.variance.empirical - lem.variance.formula))
    model = rm.RandomColumnModel("binary", m=4, sizes=np.array([2.0, 2.0]), seed=seed + 2)
    fl = rm.fluctuation_bounds(model, trials=max(trials * 10, 1000))
    band = fl.band_fro + 4.0 * float(fl.e_sigma2_se.max())
    rep.add("spectrum_fluctuation_band",
            band - float(np.abs(fl.e_sigma2 - fl.sigma_g).max()))
    rep.add("partial_sum_head", float(fl.kyfan_head_margins.min())
            + 4.0 * float(fl.e_sigma2_se.sum()))
    return rep


def verify_gamma(seed: int, trials: int) -> mc.CheckReport:
    rep = mc.CheckReport()
    rng = rm.stream(seed, 5)
    for alpha, beta, name in ((4.0, 0.05, "rho_alpha_4"), (1.0, 0.01, "rho_alpha_1")):
        spec = rm.GammaSpec(alpha=alpha, beta=beta)
        draws = rm.sample_sizes_truncated_gamma(max(trials * 10, 10000), spec, rng)
        rho = rm.moment_ratio(draws)
        rep.add(name, 0.02 * rm.gamma_rho_prediction(spec)
                - abs(rho - rm.gamma_rho_prediction(spec)))
        rep.add(name + "_truncation_valid", float(np.min(draws) - spec.a), tol=0.0)
    c10 = rm.corollary10_bounds(m=400, k=16, spec=rm.GammaSpec(alpha=2.0, beta=0.05),
                                resamples=max(trials // 20, 5), seed=seed)
    rep.add("sandwich_containment_fraction", c10.containment_fraction - 0.95)
    return rep


def verify_pipeline(seed: int, trials: int) -> mc.CheckReport:
    rep = mc.CheckReport()
    # Hand case at k = 1: the column norms 3, sqrt 5, sqrt 2 keep
    # the columns in order; column 1 has size 1 + 2 = 3 and the largest row
    # sum of columns 1 and 2 is 2 + 1 = 3, so the threshold is
    # sqrt(1 + sqrt 2) * sqrt(3 * 3).
    hand = np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 1.0]])
    want = 3.0 * np.sqrt(1.0 + np.sqrt(2.0))
    got = pl.plan_partition(hand, k=1).threshold
    rep.add("threshold_factor_value", 1e-12 * want - abs(got - want), tol=0.0)
    rng = rm.stream(seed, 6)
    r = np.abs(rng.standard_normal((30, 12)))
    plan = pl.plan_partition(r, k=4)
    pr = plan.apply(r)
    plan2 = pl.plan_partition(pr, k=4)
    ident = (np.array_equal(plan2.column_permutation, np.arange(12))
             and np.array_equal(plan2.row_permutation, np.arange(30)))
    rep.add("planner_idempotent", 0.0 if ident else -1.0)
    runs = max(trials // 100, 3)
    for _ in range(runs):
        r = rng.standard_normal((60, 24))
        r[:, :8] *= 5.0
        r[8:, 8:] *= 0.01
        report = pl.algorithm2(r, k=8, i=4, oracle=True)
        norm_r = float(report.oracle_values[0])
        rep.add("certified_error_sound", report.oracle_margin())
        p0 = mc.BlockPartition(mc.BlockPartition(r, report.k).zero_d(), report.k)
        rotations = bd.top_singular_values(p0, 4)[0]
        rep.add("direct_matches_rotations",
                1e-10 * norm_r - float(np.abs(report.values - rotations).max()))
    # The README's recipe at 5% density, kept where matcore.check_pivot
    # refuses the 20x20 pivot; most draws are, so 20 per run is ample, and
    # finding fewer than runs of them fails the check.
    rng = rm.stream(seed, 7)
    found = draws = 0
    while found < runs and draws < 20 * runs:
        draws += 1
        r = np.abs(rng.standard_normal((200, 80))) * (rng.random((200, 80)) < 0.05)
        r[:, :20] *= 10.0
        pr = pl.plan_partition(r, k=20).apply(r)
        try:
            mc.check_pivot(np.linalg.svd(pr[:20, :20], compute_uv=False))
            continue
        except mc.SingularBlockError:
            found += 1
        report = pl.algorithm2(pr, k=20, i=5, oracle=True)
        rep.add("singular_pivot_sound", report.oracle_margin())
        rep.add("norm_d_certified", _norm_d_margin(report, pr, 20))
    if found < runs:
        rep.add("singular_pivot_sound", -1.0)
    # The recipe at its README density, where the iteration certifies ||D||.
    for _ in range(runs):
        r = np.abs(rng.standard_normal((200, 80))) * (rng.random((200, 80)) < 0.3)
        r[:, :20] *= 10.0
        pr = pl.plan_partition(r, k=20).apply(r)
        report = pl.algorithm2(pr, k=20, i=5)
        rep.add("norm_d_certified", _norm_d_margin(report, pr, 20))
    # The paper's regime: zero-one columns of truncated-gamma sizes. The
    # bound is about 1.2 sigma_1 there, so this checks containment only.
    rng = rm.stream(seed, 8)
    for _ in range(runs):
        sizes = rm.sample_sizes_truncated_gamma(60, rm.GammaSpec(1.5, 0.05), rng)
        r = np.column_stack([rm.sample_column_binary(300, int(s), rng)
                             for s in np.clip(np.ceil(sizes), 1, 300)])
        rep.add("zero_one_regime_sound",
                pl.approximate(r, k=10, i=5, oracle=True).oracle_margin())
    return rep


def _norm_d_margin(report: pl.ApproxReport, r: np.ndarray, k: int) -> float:
    """Relative room of norm_d inside [||D||_2, ||D||_2 (1 + 1e-9)]."""
    exact = np.linalg.norm(r[k:, k:], 2)
    if exact == 0.0:
        return 0.0 if report.norm_d == 0.0 else -1.0
    return min(report.norm_d - exact, exact * (1 + 1e-9) - report.norm_d) / exact


_RUNNERS = {
    "matcore": verify_matcore,
    "givens": verify_givens,
    "blockdiag": verify_blockdiag,
    "bounds": verify_bounds,
    "theorem3": verify_theorem3,
    "corollaries": verify_corollaries,
    "gamma": verify_gamma,
    "pipeline": verify_pipeline,
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str, seed: int = 0, trials: int = 100) -> VerifyReport:
    """Run one named suite, or every suite under "all", at a non-negative
    seed and at least one trial."""
    if trials < 1:
        raise mc.MatrixError(f"trials must be at least 1, got {trials}")
    if name != "all" and name not in _RUNNERS:
        raise mc.MatrixError(f"unknown suite {name!r}; choose from {SUITES + ('all',)}")
    names = SUITES if name == "all" else (name,)
    return VerifyReport(name, seed, trials, {sub: _RUNNERS[sub](seed, trials) for sub in names})
