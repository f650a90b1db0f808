"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Every criterion is a separate test; the printed line summarizes the worst
observed margin so a log of this file alone documents the run.
"""

import itertools
import time

import numpy as np

from blocksvd import blockdiag as bd
from blocksvd import bounds as bo
from blocksvd import givens as gv
from blocksvd import matcore as mc
from blocksvd import pipeline as pl
from blocksvd import randmat as rm

RNG = np.random.default_rng(20268)


def report(num: int, label: str, passed: bool, detail: str):
    line = f"criterion {num:2d} [{label}]: {'PASS' if passed else 'FAIL'} ({detail})"
    print("\n" + line)
    assert passed, line


def test_criterion_01_block_givens_correctness():
    t0 = time.perf_counter()
    worst_orth, worst_ann = 0.0, 0.0
    for _ in range(1000):
        m = int(RNG.integers(3, 41))
        n = int(RNG.integers(2, min(m, 30) + 1))
        k = int(RNG.integers(1, min(8, n - 1) + 1))
        p = mc.BlockPartition(RNG.standard_normal((m, n)), k)
        for build, side in ((gv.build_right_rotation, "right"),
                            (gv.build_left_rotation, "left")):
            try:
                g = build(p)
            except mc.SingularBlockError:
                continue
            q = g.matrix
            orth = mc.operator_norm(q.T @ q - np.eye(q.shape[0])) / n
            rot = p.base @ q if side == "right" else q @ p.base
            blk = rot[: p.k, p.k:] if side == "right" else rot[p.k:, : p.k]
            ann = mc.operator_norm(blk) / mc.operator_norm(p.base)
            worst_orth = max(worst_orth, orth)
            worst_ann = max(worst_ann, ann)
    elapsed = time.perf_counter() - t0
    ok = worst_orth <= 1e-11 and worst_ann <= 1e-10 and elapsed < 10.0
    report(1, "block-Givens correctness", ok,
           f"orth {worst_orth:.2e} <= 1e-11*n, annihilation {worst_ann:.2e} "
           f"<= 1e-10*||R||, {elapsed:.1f}s < 10s")


def test_criterion_02_algorithm1_convergence():
    # square instances one column wider than the pivot block: the family on
    # which every contraction-factor diagnostic is provably valid
    worst_off, worst_spec, worst_margin = 0.0, 0.0, np.inf
    converged = 0
    for _ in range(500):
        k = int(RNG.integers(1, 7))
        n = k + 1
        r = RNG.standard_normal((n, n))
        r[:, :k] *= 10.0
        p = mc.BlockPartition(r, k)
        norm = mc.operator_norm(r)
        res = bd.block_diagonalize(p)
        if res.converged and res.iterations <= 200:
            converged += 1
        fp = mc.BlockPartition(res.final, k)
        worst_off = max(worst_off, max(mc.operator_norm(fp.b),
                                       mc.operator_norm(fp.c)) / norm)
        got = np.sort(np.concatenate([
            np.linalg.svd(res.a_inf, compute_uv=False),
            np.linalg.svd(res.d_inf, compute_uv=False)]))[::-1]
        want = np.linalg.svd(r, compute_uv=False)
        worst_spec = max(worst_spec, float(np.max(np.abs(got - want))) / norm)
        rep = bd.check_lemma11(res.trace)
        for item in rep.checks:
            if item.name in ("i_pivot_monotone", "iv_contraction"):
                worst_margin = min(worst_margin, item.margin)
    ok = (converged == 500 and worst_off <= 1e-12 and worst_spec <= 1e-9
          and worst_margin >= -1e-9)
    report(2, "alternating sweep convergence", ok,
           f"{converged}/500 converged within 200 sweeps, off {worst_off:.2e} <= 1e-12*||R||, "
           f"spectrum {worst_spec:.2e} <= 1e-9*||R||, "
           f"lemma margins >= {worst_margin:.2e}")


def test_criterion_03_slice_bound():
    worst_gap, worst_refine = -np.inf, -np.inf
    for _ in range(1000):
        m = int(RNG.integers(3, 16))
        n = int(RNG.integers(2, min(m, 12) + 1))
        k = int(RNG.integers(1, n))
        p = mc.BlockPartition(RNG.standard_normal((m, n)), k)
        i = int(RNG.integers(1, n + 1))
        rep = bo.mu_bounds(p, i)
        worst_gap = max(worst_gap, rep.oracle - rep.upper)
        worst_refine = max(worst_refine, rep.upper - mc.operator_norm(p.d))
    closed = bo.example1_sigma2(0.6, 0.8)
    oracle = float(np.linalg.svd(np.array([[0.6, -0.8], [0.8, 0.0]]),
                                 compute_uv=False)[-1])
    ref_dev = abs(closed - oracle)
    ok = worst_gap <= 1e-10 and worst_refine <= 1e-12 and ref_dev <= 1e-12
    report(3, "slice bound on singular value gaps", ok,
           f"gap - mu_bar <= {worst_gap:.2e}, mu_bar - ||D|| <= {worst_refine:.2e}, "
           f"reference sigma_2 = {closed:.10f} vs oracle dev {ref_dev:.2e}")


def test_criterion_04_block_givens_bounds():
    contained = 0
    tried = 0
    for _ in range(1000):
        m = int(RNG.integers(4, 14))
        n = int(RNG.integers(3, min(m, 10) + 1))
        k = int(RNG.integers(1, n))
        p = mc.BlockPartition(RNG.standard_normal((m, n)), k)
        try:
            reports = bo.theorem2_bounds(p)
        except mc.MatrixError:
            continue
        tried += 1
        scale = np.linalg.norm(p.base, 2)
        if bo.containment(reports, scale).all_passed:
            contained += 1
    scalar = mc.BlockPartition(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
    reports = bo.theorem2_bounds(scalar)
    rep = reports[0]
    slack = rep.upper - rep.oracle
    scalar_ok = (abs(rep.upper - 1.0 / np.sqrt(2.0)) <= 1e-12
                 and abs(rep.oracle - 0.6180339887498949) <= 1e-12
                 and abs(slack - 0.089) <= 5e-4)
    ok = tried >= 900 and contained == tried and scalar_ok
    report(4, "pivot-block coupling bounds", ok,
           f"{contained}/{tried} contained; scalar bound {rep.upper:.4f} vs "
           f"oracle {rep.oracle:.4f}, slack {slack:.4f}")


def test_criterion_05_expected_gram_sandwich():
    sizes = np.array([2.0, 2.0])
    prof = rm.ColumnProfile(m=4, sizes=sizes, norms=np.sqrt(sizes), L=2)
    reports = rm.theorem3_bounds(prof, slack_c=0.0)
    hand_ok = (abs(reports[0].upper - 4.0) <= 1e-12
               and abs(reports[0].oracle - 3.0) <= 1e-12
               and abs(reports[1].lower - 1.0) <= 1e-12
               and abs(reports[1].oracle - 1.0) <= 1e-12)
    contained = 0
    for _ in range(100):
        ells = RNG.integers(5, 51, size=40).astype(float)
        big = rm.ColumnProfile(m=2000, sizes=ells, norms=np.sqrt(ells),
                               L=int(ells.max()))
        if not rm.check_S1(big).all_passed:
            continue
        reps = rm.theorem3_bounds(big, slack_c=4.0)
        scale = np.linalg.eigvalsh(rm.expected_gram(big))[-1]
        if bo.containment(reps, scale).all_passed:
            contained += 1
    ok = hand_ok and contained == 100
    report(5, "expected-Gram spectrum sandwich", ok,
           f"hand case upper 4 >= 3, lower tight at 1 (slack 0): {hand_ok}; "
           f"{contained}/100 large profiles contained with slack 4*L/m")


def test_criterion_06_inner_product_law():
    t0 = time.perf_counter()
    cols = []
    for idx in itertools.combinations(range(4), 2):
        x = np.zeros(4)
        x[list(idx)] = 1.0
        cols.append(x)
    dots = [x @ y for x in cols for y in cols]
    counts = {v: dots.count(v) for v in (0.0, 1.0, 2.0)}
    law_ok = counts == {0.0: 6, 1.0: 24, 2.0: 6}
    mx = rm.RandomColumnModel("binary", 4, sizes=[2.0], seed=601)
    my = rm.RandomColumnModel("binary", 4, sizes=[2.0], seed=602)
    rep = rm.lemma13_stats(mx, my, trials=100000)
    elapsed = time.perf_counter() - t0
    ok = (law_ok and rep.mean.formula == 1.0
          and abs(rep.variance.formula - 1.0 / 3.0) <= 1e-14
          and abs(rep.mean.empirical - rep.mean.formula) <= 3.0 * rep.mean.se
          and abs(rep.variance.empirical - rep.variance.formula) <= 3.0 * rep.variance.se
          and elapsed < 30.0)
    report(6, "inner-product moment law", ok,
           f"exact law {{1/6, 4/6, 1/6}}: {law_ok}; mean "
           f"{rep.mean.empirical:.4f} vs 1, var {rep.variance.empirical:.4f} "
           f"vs 1/3, both within 3 SE; {elapsed:.1f}s < 30s")


def test_criterion_07_fluctuation_band():
    cols = []
    for idx in itertools.combinations(range(4), 2):
        x = np.zeros(4)
        x[list(idx)] = 1.0
        cols.append(x)
    sig2 = np.array([np.linalg.svd(np.column_stack([x, y]), compute_uv=False) ** 2
                     for x in cols for y in cols])
    e_sig2 = sig2.mean(axis=0)   # exact: all 36 matrices equally likely
    sizes = np.array([2.0, 2.0])
    prof = rm.ColumnProfile(m=4, sizes=sizes, norms=np.sqrt(sizes), L=2)
    frak_n = rm.fluctuation_frak_n(prof)
    sigma_g = np.sort(np.linalg.eigvalsh(rm.expected_gram(prof)))[::-1]
    band = np.sqrt(1.0 / 3.0) * frak_n
    dev = float(np.max(np.abs(e_sig2 - sigma_g)))
    ok = abs(frak_n - 2.0) <= 1e-12 and dev <= band
    report(7, "spectrum fluctuation band", ok,
           f"exact E(sigma_i^2) dev {dev:.4f} <= band {band:.4f} with "
           f"fluctuation measure {frak_n:.1f}")


def test_criterion_08_gamma_moment_ratio():
    spec4 = rm.GammaSpec(alpha=4.0, beta=0.05)
    rho4 = rm.moment_ratio(rm.sample_sizes_truncated_gamma(10000, spec4, rm.stream(801)))
    dev4 = abs(rho4 - np.sqrt(1.25)) / np.sqrt(1.25)
    spec1 = rm.GammaSpec(alpha=1.0, beta=0.01)
    rho1 = rm.moment_ratio(rm.sample_sizes_truncated_gamma(10000, spec1, rm.stream(802)))
    dev1 = abs(rho1 - np.sqrt(2.0)) / np.sqrt(2.0)
    ok = dev4 <= 0.02 and dev1 <= 0.02
    report(8, "gamma size moment ratio", ok,
           f"alpha=4: rho {rho4:.4f} vs {np.sqrt(1.25):.4f} ({dev4:.2%}); "
           f"alpha=1: rho {rho1:.4f} vs {np.sqrt(2.0):.4f} ({dev1:.2%})")


def test_criterion_09_planner_threshold_factor():
    factor = float(np.sqrt(1.0 + np.sqrt(2.0)) / 10.0)
    dev = abs(factor - 0.1554)
    ok = dev < 5e-5  # agreement to 4 significant digits
    report(9, "planner threshold factor", ok,
           f"sqrt(1+sqrt(2))/10 = {factor:.6f} vs 0.1554 (dev {dev:.1e})")


def test_criterion_10_certified_approximation():
    worst_ratio = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        m, n, k = 200, 80, 20
        r = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.4)
        r[:, :k] *= 10.0
        r[k:, k:] = 0.0
        d = rng.standard_normal((m - k, n - k))
        r[k:, k:] = d / np.linalg.norm(d, 2) * (0.01 * np.linalg.norm(r, 2))
        rep = pl.algorithm2(r, k=k, i=8, oracle=True)
        worst_ratio = max(worst_ratio,
                          float(rep.oracle_deviations.max()) / rep.error_bound)
    ok = worst_ratio <= 1.0
    report(10, "certified low-rank approximation", ok,
           f"max |sigma_j - reported| / (2||D||) = {worst_ratio:.3f} <= 1 "
           f"over 20 sparse 200x80 instances")
