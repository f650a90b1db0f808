import itertools

import numpy as np
import pytest

from blocksvd import matcore as mc
from blocksvd import randmat as rm

RNG = np.random.default_rng(99)


def binary_profile(m, sizes):
    sizes = np.asarray(sizes, dtype=float)
    return rm.ColumnProfile(m=m, sizes=sizes, norms=np.sqrt(sizes),
                            L=int(sizes.max()))


def two_subsets(m, l):
    cols = []
    for idx in itertools.combinations(range(m), l):
        x = np.zeros(m)
        x[list(idx)] = 1.0
        cols.append(x)
    return cols


class TestProfileAndStats:
    def test_density_hand_cases(self):
        assert rm.density(binary_profile(4, [4, 4])) == 1.0
        assert rm.density(binary_profile(4, [2, 2])) == 0.5
        assert rm.density(binary_profile(100, [1])) == pytest.approx(0.01)

    def test_moment_ratio_constant(self):
        assert rm.moment_ratio([3.0, 3.0, 3.0]) == pytest.approx(1.0, abs=1e-15)

    def test_moment_ratio_123(self):
        assert rm.moment_ratio([1.0, 2.0, 3.0]) == pytest.approx(np.sqrt(14.0 / 3.0) / 2.0, abs=1e-14)

    def test_moment_ratio_arithmetic_limit(self):
        k = 20000
        got = rm.moment_ratio(np.arange(1.0, k + 1.0))
        assert got == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-3)

    def test_moment_ratio_rejects_bad_input(self):
        with pytest.raises(mc.MatrixError):
            rm.moment_ratio([])
        with pytest.raises(mc.MatrixError):
            rm.moment_ratio([1.0, -1.0])

    @pytest.mark.parametrize("kwargs", [
        dict(m=0, sizes=[1.0], norms=[1.0], L=1),
        dict(m=4, sizes=[np.nan], norms=[1.0], L=1),
        dict(m=4, sizes=[np.inf], norms=[1.0], L=1),
        dict(m=4, sizes=[2.0], norms=[np.nan]),
        dict(m=4, sizes=[2.0], expected_sq_norms=[np.nan]),
        dict(m=4, sizes=[2.0], expected_sq_norms=[np.inf]),
        dict(m=4, sizes=[2.0], norms=[0.0]),
        dict(m=4, sizes=[2.0, 1.0], expected_sq_norms=[-1.0, 1.0]),
    ], ids=["m0", "size-nan", "size-inf", "norm-nan", "sq-norm-nan", "sq-norm-inf",
            "norm-zero", "sq-norm-negative"])
    def test_profile_rejects_bad_input(self, kwargs):
        with pytest.raises(mc.MatrixError):
            rm.ColumnProfile(**kwargs)

    def test_profile_json_roundtrip(self):
        prof = binary_profile(10, [3, 5])
        back = rm.ColumnProfile.from_json(prof.to_json())
        assert back.m == prof.m
        np.testing.assert_array_equal(back.sizes, prof.sizes)
        np.testing.assert_array_equal(back.norms, prof.norms)
        assert back.L == prof.L


class TestConditionS1:
    def test_zero_one_profile_passes(self):
        rep = rm.check_S1(binary_profile(4, [2, 2]))
        assert rep.all_passed
        rho = rm.moment_ratio(binary_profile(4, [2, 2]).sizes)
        assert rho == pytest.approx(1.0, abs=1e-15)

    def test_norm_too_small_fails(self):
        prof = rm.ColumnProfile(m=4, sizes=np.array([2.0]), norms=np.array([1.0]), L=4)
        rep = rm.check_S1(prof)
        assert not rep.all_passed

    def test_random_binary_suite(self):
        for _ in range(100):
            m = int(RNG.integers(4, 40))
            k = int(RNG.integers(1, 6))
            sizes = RNG.integers(1, m + 1, size=k)
            rep = rm.check_S1(binary_profile(m, sizes))
            assert rep.all_passed, rep.to_json()


class TestExpectedGram:
    def test_single_column(self):
        prof = binary_profile(5, [3])
        fac = rm.expected_gram(prof)
        assert fac.g.shape == (1, 1)
        assert fac.g[0, 0] == pytest.approx(3.0, abs=1e-14)

    def test_binary_hand_case(self):
        fac = rm.expected_gram(binary_profile(4, [2, 2]))
        np.testing.assert_allclose(fac.g, [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(fac.g)), [1.0, 3.0], atol=1e-12)

    def test_factorization_reproduces_gram(self):
        for _ in range(50):
            m = int(RNG.integers(5, 50))
            k = int(RNG.integers(1, 6))
            sizes = RNG.integers(1, m + 1, size=k)
            fac = rm.expected_gram(binary_profile(m, sizes))
            rebuilt = fac.d_k @ (fac.h_k + np.outer(fac.e_k, fac.u_k) / m)
            assert mc.operator_norm(rebuilt - fac.g) <= 1e-12 * max(1.0, mc.operator_norm(fac.g))

    def test_sparse_limit_diagonal(self):
        prof = binary_profile(10000, [2, 3, 2])
        fac = rm.expected_gram(prof)
        off = fac.g - np.diag(np.diag(fac.g))
        assert mc.operator_norm(off) <= 1e-2


class TestTheorem3Bounds:
    def test_hand_case_tight_lower(self):
        reports = rm.theorem3_bounds(binary_profile(4, [2, 2]), slack_c=0.0)
        assert reports[0].upper == pytest.approx(4.0, abs=1e-12)
        assert reports[0].oracle == pytest.approx(3.0, abs=1e-12)
        assert reports[1].lower == pytest.approx(1.0, abs=1e-12)
        assert reports[1].oracle == pytest.approx(1.0, abs=1e-12)
        assert all(rep.contains_oracle for rep in reports)

    def test_single_column_collapses(self):
        reports = rm.theorem3_bounds(binary_profile(9, [4]), slack_c=0.0)
        rep = reports[0]
        assert rep.oracle == pytest.approx(4.0, abs=1e-12)
        assert rep.upper >= 4.0 >= rep.lower
        assert rep.lower == pytest.approx(4.0 / 2.0, abs=1e-12)

    def test_random_binary_containment(self):
        for _ in range(50):
            m = int(RNG.integers(50, 300))
            k = int(RNG.integers(2, 10))
            sizes = RNG.integers(2, max(3, m // 10), size=k)
            reports = rm.theorem3_bounds(binary_profile(m, sizes))
            assert all(rep.contains_oracle for rep in reports)


class TestSamplers:
    def test_binary_full_and_single(self):
        rng = rm.stream(0)
        np.testing.assert_array_equal(rm.sample_column_binary(5, 5, rng), np.ones(5))
        x = rm.sample_column_binary(7, 1, rng)
        assert x.sum() == 1.0 and set(np.unique(x)) <= {0.0, 1.0}

    def test_binary_uniform_over_subsets(self):
        m, l, draws = 4, 2, 60000
        rng = rm.stream(1)
        counts = {}
        for _ in range(draws):
            x = rm.sample_column_binary(m, l, rng)
            key = tuple(np.nonzero(x)[0])
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        expected = draws / 6.0
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # chi-square with 5 dof: 0.995 quantile is 16.75
        assert chi2 < 16.75

    def test_fixed_size_exact_sum_and_mean(self):
        rng = rm.stream(2)
        draws = np.array([rm.sample_column_fixed_size(5, 10.0, rng) for _ in range(20000)])
        assert np.max(np.abs(draws.sum(axis=1) - 10.0)) <= 1e-11
        assert np.all(draws >= 0.0)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - 2.0) <= 4 * se)

    def test_fixed_size_two_coordinates_uniform_marginal(self):
        from scipy import stats
        rng = rm.stream(3)
        first = np.array([rm.sample_column_fixed_size(2, 1.0, rng)[0] for _ in range(5000)])
        assert stats.kstest(first, "uniform").pvalue > 1e-3

    def test_fixed_size_norm_center_deterministic(self):
        m, s = 4, 2.0
        b = s / np.sqrt(m)
        x = rm.sample_column_fixed_size_norm(m, s, b, rm.stream(4))
        np.testing.assert_allclose(x, np.full(m, 0.5), atol=1e-12)

    def test_fixed_size_norm_exactness(self):
        rng = rm.stream(5)
        for _ in range(200):
            x = rm.sample_column_fixed_size_norm(4, 2.0, np.sqrt(2.0), rng)
            assert x.sum() == pytest.approx(2.0, abs=1e-11)
            assert np.linalg.norm(x) == pytest.approx(np.sqrt(2.0), rel=1e-12)
            assert np.all(x >= -1e-15)

    def test_fixed_size_norm_two_point_set(self):
        rng = rm.stream(6)
        b = np.sqrt(0.58)
        lo = 0.5 - np.sqrt(b * b / 2.0 - 0.25)
        seen = set()
        for _ in range(50):
            x = rm.sample_column_fixed_size_norm(2, 1.0, b, rng)
            seen.add(round(float(x.min()), 10))
        assert seen == {round(lo, 10)}

    def test_fixed_size_norm_infeasible_rejected(self):
        with pytest.raises(mc.MatrixError):
            rm.sample_column_fixed_size_norm(4, 2.0, 0.5, rm.stream(7))  # b < s/sqrt(m)
        with pytest.raises(mc.MatrixError):
            rm.sample_column_fixed_size_norm(4, 2.0, 3.0, rm.stream(7))  # b > s

    def test_permutation_invariant_mean(self):
        model = rm.RandomColumnModel("fixed-size-and-norm", 6,
                                     sizes=[3.0], norms=[np.sqrt(2.4)], seed=11)
        draws = np.array([model.sample_column(0, t) for t in range(20000)])
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - 0.5) <= 4 * se)

    def test_streams_reproducible(self):
        model = rm.RandomColumnModel("binary", 10, sizes=[4.0, 6.0], seed=3)
        np.testing.assert_array_equal(model.sample_matrix(5), model.sample_matrix(5))
        assert not np.array_equal(model.sample_matrix(5), model.sample_matrix(6))

    @pytest.mark.parametrize("kind, m, sizes, norms", [
        ("binary", 0, [1.0], None),
        ("fixed-size", np.nan, [1.0], None),
        ("fixed-size", 4, [], None),
        ("fixed-size", 4, [[1.0]], None),
        ("fixed-size", 4, [np.nan], None),
        ("fixed-size", 4, [np.inf], None),
        ("fixed-size", 4, [-1.0], None),
        ("binary", 4, [np.nan], None),
        ("binary", 4, [2.5], None),
        ("binary", 4, [5.0], None),
        ("fixed-size-and-norm", 4, [2.0, 2.0], [1.0]),
    ], ids=["m-zero", "m-nan", "no-sizes", "sizes-not-a-vector", "size-nan", "size-inf",
            "size-negative", "binary-size-nan", "binary-size-fraction",
            "binary-size-above-m", "norms-length"])
    def test_model_rejects_bad_input(self, kind, m, sizes, norms):
        with pytest.raises(mc.MatrixError):
            rm.RandomColumnModel(kind, m, sizes=sizes, norms=norms)


class TestLemma13:
    def test_binary_exact_law(self):
        # all 36 pairs of two-subsets of a 4-set: the inner product takes
        # value 0 with probability 1/6, 1 with 4/6 and 2 with 1/6
        cols = two_subsets(4, 2)
        dots = [x @ y for x in cols for y in cols]
        assert np.mean(dots) == pytest.approx(1.0, abs=1e-14)
        assert np.var(dots) == pytest.approx(1.0 / 3.0, abs=1e-14)
        counts = {v: dots.count(v) for v in (0.0, 1.0, 2.0)}
        assert counts == {0.0: 6, 1.0: 24, 2.0: 6}

    def test_binary_monte_carlo(self):
        mx = rm.RandomColumnModel("binary", 4, sizes=[2.0], seed=21)
        my = rm.RandomColumnModel("binary", 4, sizes=[2.0], seed=22)
        rep = rm.lemma13_stats(mx, my, trials=20000)
        assert rep.mean.formula == pytest.approx(1.0, abs=1e-14)
        assert rep.variance.formula == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert rep.mean.within(4.0)
        assert rep.variance.within(4.0)

    def test_center_columns_zero_variance(self):
        m = 5
        b = 2.0 / np.sqrt(m)
        mx = rm.RandomColumnModel("fixed-size-and-norm", m, sizes=[2.0],
                                  norms=[b], seed=31)
        my = rm.RandomColumnModel("fixed-size-and-norm", m, sizes=[2.0],
                                  norms=[b], seed=32)
        rep = rm.lemma13_stats(mx, my, trials=50)
        assert rep.variance.formula == pytest.approx(0.0, abs=1e-12)
        assert rep.variance.empirical == pytest.approx(0.0, abs=1e-12)

    def test_fixed_size_and_norm_moments(self):
        m = 50
        s, b = 10.0, 2.0
        mx = rm.RandomColumnModel("fixed-size-and-norm", m, sizes=[s], norms=[b], seed=41)
        my = rm.RandomColumnModel("fixed-size-and-norm", m, sizes=[s], norms=[b], seed=42)
        rep = rm.lemma13_stats(mx, my, trials=20000)
        assert rep.mean.within(4.0)
        assert rep.variance.within(4.0)

    def test_needs_two_trials(self):
        mx = rm.RandomColumnModel("binary", 4, sizes=[2.0], seed=21)
        for trials in (0, 1):
            with pytest.raises(mc.MatrixError):
                rm.lemma13_stats(mx, mx, trials=trials)

    def test_needs_two_rows(self):
        mx = rm.RandomColumnModel("binary", 1, sizes=[1.0], seed=21)
        with pytest.raises(mc.MatrixError, match="m must be at least 2"):
            rm.lemma13_stats(mx, mx, trials=10)


class TestEmpiricalGram:
    def test_center_columns_exact(self):
        m = 4
        sizes = [2.0, 2.0]
        norms = [1.0, 1.0]  # = s/sqrt(m): deterministic center columns
        model = rm.RandomColumnModel("fixed-size-and-norm", m, sizes=sizes,
                                     norms=norms, seed=51)
        prof = rm.ColumnProfile(m=m, sizes=np.array(sizes), norms=np.array(norms), L=m)
        rep = rm.empirical_gram(model, prof, trials=1)
        assert rep.max_abs_dev <= 1e-12

    def test_binary_gram_convergence(self):
        model = rm.RandomColumnModel("binary", 4, sizes=[2.0, 2.0], seed=52)
        rep = rm.empirical_gram(model, model.profile(), trials=20000)
        assert rep.max_abs_dev <= 5 * max(rep.max_se, 1e-12)

    def test_needs_a_trial(self):
        model = rm.RandomColumnModel("binary", 4, sizes=[2.0, 2.0], seed=52)
        with pytest.raises(mc.MatrixError):
            rm.empirical_gram(model, model.profile(), trials=0)


class TestFluctuationBounds:
    def test_center_columns_zero_band(self):
        m = 4
        prof = rm.ColumnProfile(m=m, sizes=np.array([2.0, 2.0]),
                                norms=np.array([1.0, 1.0]), L=m)
        model = rm.RandomColumnModel("fixed-size-and-norm", m, sizes=[2.0, 2.0],
                                     norms=[1.0, 1.0], seed=61)
        rep = rm.fluctuation_bounds(prof, model, trials=3)
        assert rep.frak_n == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(rep.e_sigma2 - rep.sigma_g)) <= 1e-12

    def test_binary_hand_case_frak_n(self):
        prof = binary_profile(4, [2, 2])
        assert rm.fluctuation_frak_n(prof) == pytest.approx(2.0, abs=1e-12)
        model = rm.RandomColumnModel("binary", 4, sizes=[2.0, 2.0], seed=62)
        rep = rm.fluctuation_bounds(prof, model, trials=5000)
        band = np.sqrt(1.0 / 3.0) * 2.0
        assert rep.band_fro == pytest.approx(band, abs=1e-12)
        assert rep.containment(band, n_se=4.0)
        assert np.all(rep.kyfan_head_margins >= -4 * rep.e_sigma2_se.cumsum())

    def test_medium_case_containment(self):
        m, k = 200, 8
        sizes = RNG.integers(4, 20, size=k).astype(float)
        prof = binary_profile(m, sizes)
        model = rm.RandomColumnModel("binary", m, sizes=sizes, seed=63)
        rep = rm.fluctuation_bounds(prof, model, trials=2000)
        assert rep.containment(rep.band_fro, n_se=4.0)

    def test_needs_a_trial(self):
        model = rm.RandomColumnModel("binary", 4, sizes=[2.0, 2.0], seed=62)
        with pytest.raises(mc.MatrixError):
            rm.fluctuation_bounds(model.profile(), model, trials=0)

    def test_needs_two_rows(self):
        model = rm.RandomColumnModel("binary", 1, sizes=[1.0, 1.0], seed=62)
        with pytest.raises(mc.MatrixError, match="m must be at least 2"):
            rm.fluctuation_bounds(model.profile(), model, trials=10)


class TestEnsembleMismatch:
    # a profile and a model of different ensembles, in either function
    @pytest.mark.parametrize("call", [rm.empirical_gram, rm.fluctuation_bounds],
                             ids=["empirical_gram", "fluctuation_bounds"])
    @pytest.mark.parametrize("m, sizes, message", [
        (50, [2.0, 2.0], "differ in m: profile has 4, model has 50"),
        (4, [2.0, 2.0, 2.0], "differ in column count: profile has 2, model has 3"),
    ], ids=["m", "columns"])
    def test_rejected(self, call, m, sizes, message):
        model = rm.RandomColumnModel("binary", m, sizes=sizes, seed=64)
        with pytest.raises(mc.MatrixError, match=message):
            call(profile=binary_profile(4, [2, 2]), model=model, trials=10)


class TestGamma:
    def test_spec_validation(self):
        with pytest.raises(mc.MatrixError):
            rm.GammaSpec(alpha=0.5, beta=0.1)
        with pytest.raises(mc.MatrixError):
            rm.GammaSpec(alpha=1.0, beta=0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "a"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_spec_rejects_non_finite(self, field, value):
        # with a NaN parameter no draw passes the truncation test, so the sampler would never return
        kwargs = dict(alpha=2.0, beta=0.1, a=1.0)
        kwargs[field] = value
        with pytest.raises(mc.MatrixError):
            rm.GammaSpec(**kwargs)

    def test_unreachable_truncation_starves(self):
        spec = rm.GammaSpec(alpha=2.0, beta=0.1, a=1e6)
        with pytest.raises(rm.SamplerStarvation):
            rm.sample_sizes_truncated_gamma(4, spec, rm.stream(74))
        with pytest.raises(rm.SamplerStarvation):
            rm.corollary10_bounds(m=100, k=4, spec=spec, resamples=1)

    def test_exponential_mean(self):
        spec = rm.GammaSpec(alpha=1.0, beta=0.1)
        draws = rm.sample_sizes_truncated_gamma(100000, spec, rm.stream(71))
        assert np.all(draws >= 1.0)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 11.0) <= 3 * se

    def test_rho_predictions(self):
        assert rm.gamma_rho_prediction(rm.GammaSpec(1.0, 0.01)) == pytest.approx(np.sqrt(2.0))
        assert rm.gamma_rho_prediction(rm.GammaSpec(4.0, 0.05)) == pytest.approx(np.sqrt(1.25))

    def test_empirical_rho_alpha_4(self):
        spec = rm.GammaSpec(alpha=4.0, beta=0.05)
        draws = rm.sample_sizes_truncated_gamma(10000, spec, rm.stream(72))
        rho = rm.moment_ratio(draws)
        assert abs(rho - np.sqrt(1.25)) <= 0.02 * np.sqrt(1.25)

    def test_empirical_rho_alpha_1(self):
        spec = rm.GammaSpec(alpha=1.0, beta=0.01)
        draws = rm.sample_sizes_truncated_gamma(10000, spec, rm.stream(73))
        rho = rm.moment_ratio(draws)
        assert abs(rho - np.sqrt(2.0)) <= 0.02 * np.sqrt(2.0)


class TestCorollary10:
    def test_containment_fraction(self):
        spec = rm.GammaSpec(alpha=1.0, beta=0.1)
        rep = rm.corollary10_bounds(m=2000, k=50, spec=spec, resamples=50, seed=81)
        assert rep.precondition_ok
        assert rep.containment_fraction >= 0.95

    def test_density_estimate(self):
        spec = rm.GammaSpec(alpha=2.0, beta=0.05)
        m, k = 400, 16
        rng = rm.stream(82)
        deltas = []
        for _ in range(200):
            sizes = rm.sample_sizes_truncated_gamma(k, spec, rng)
            deltas.append(sizes.sum() / (m * k))
        deltas = np.asarray(deltas)
        target = spec.alpha / (m * spec.beta)
        se = deltas.std(ddof=1) / np.sqrt(deltas.size)
        assert abs(deltas.mean() - target) <= 3 * se + 0.1 * target

    def test_factors_are_theorem3_at_gamma_predictions(self):
        # Corollary 10's closed-form factors, 1 + (k/(m beta)) sqrt(alpha(alpha+1))
        # and 1 + sqrt(1 + 1/alpha), plus the slack c L/m on both sides
        m, k, seed = 300, 12, 84
        spec = rm.GammaSpec(alpha=2.5, beta=0.05)
        rep = rm.corollary10_bounds(m=m, k=k, spec=spec, resamples=3, seed=seed)
        sizes = np.clip(np.ceil(rm.sample_sizes_truncated_gamma(k, spec, rm.stream(seed, 0))), 1, m)
        w = np.sort(sizes)[::-1]
        slack = rm.DEFAULT_SLACK_C * sizes.max() / m
        upper = 1.0 + (k / (m * spec.beta)) * np.sqrt(spec.alpha * (spec.alpha + 1.0)) + slack
        lower = 1.0 + np.sqrt(1.0 + 1.0 / spec.alpha) + slack
        np.testing.assert_allclose([r.upper for r in rep.reports], upper * w, rtol=1e-15)
        np.testing.assert_allclose([r.lower for r in rep.reports], w / lower, rtol=1e-15)

    def test_needs_a_resample(self):
        with pytest.raises(mc.MatrixError):
            rm.corollary10_bounds(m=100, k=4, spec=rm.GammaSpec(alpha=1.0, beta=0.1), resamples=0)

    def test_single_column_trivial(self):
        spec = rm.GammaSpec(alpha=1.0, beta=0.1)
        rep = rm.corollary10_bounds(m=500, k=1, spec=spec, resamples=20, seed=83)
        assert rep.containment_fraction == 1.0
