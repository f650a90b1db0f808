import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksvd import blockdiag as bd
from blocksvd import pipeline as pl
from blocksvd.matcore import BlockPartition, MatrixError

RNG = np.random.default_rng(515)


def synthetic_sparse(m, n, rng, scale=1.0):
    x = np.abs(rng.standard_normal((m, n))) * (rng.random((m, n)) < 0.3)
    x[:, : n // 4] *= 10.0 * scale
    return x


def planted_low_rank(m, n, k, d_frac, rng):
    """Matrix with a dominant left band and a bottom-right block of norm
    d_frac * ||R||."""
    r = rng.standard_normal((m, n))
    r[:, :k] *= 10.0
    r[k:, k:] = 0.0
    if d_frac > 0.0:
        d = rng.standard_normal((m - k, n - k))
        r[k:, k:] = d / np.linalg.norm(d, 2) * (d_frac * np.linalg.norm(r, 2))
    return r


def dense_feasibility(r: np.ndarray, k: int) -> tuple[int, float]:
    """(i_star, threshold) at split k of an already-permuted matrix, from its
    dense blocks: the planner's figures before it read them through the
    permutations, kept as the reference."""
    n = r.shape[1]
    col_norms = np.linalg.norm(r, axis=0)
    factor = np.sqrt(1.0 + np.sqrt(2.0))
    if k >= n:
        return k - 1, 0.0
    right = r[:, k:]
    size_next = float(r[:, k].sum())
    max_row_size = float(right.sum(axis=1).max()) if right.size else 0.0
    threshold = factor * np.sqrt(size_next * max_row_size)
    i_star = 0
    for i in range(k - 1, 0, -1):
        if col_norms[i - 1] >= threshold:
            i_star = i
            break
    return i_star, float(threshold)


def dense_scan(pr: np.ndarray) -> tuple[int, int, float]:
    """(k, i_star, threshold) of the split scan on the permuted copy."""
    best = (None, -1, 0.0)
    for k in pl._candidate_splits(pr.shape[1]):
        i_star, thr = dense_feasibility(pr, k)
        if i_star > best[1]:
            best = (k, i_star, thr)
    return best


class TestPlanPartition:
    def test_rejects_negative_entries(self):
        with pytest.raises(MatrixError):
            pl.plan_partition(np.array([[1.0, -1.0]]))

    def test_sorted_output(self):
        r = np.abs(RNG.standard_normal((20, 10)))
        plan = pl.plan_partition(r, k=4)
        pr = plan.apply(r)
        norms = np.linalg.norm(pr, axis=0)
        assert np.all(np.diff(norms) <= 1e-12)
        sizes = pr.sum(axis=1)
        assert np.all(np.diff(sizes) <= 1e-12)

    def test_idempotent(self):
        r = np.abs(RNG.standard_normal((15, 8)))
        plan = pl.plan_partition(r, k=3)
        again = pl.plan_partition(plan.apply(r), k=3)
        np.testing.assert_array_equal(again.column_permutation, np.arange(8))
        np.testing.assert_array_equal(again.row_permutation, np.arange(15))
        assert again.i_star == plan.i_star

    def test_threshold_factor_hand_case(self):
        # sqrt(1 + sqrt(1 + 1/alpha)) at alpha = 1, with row sizes at one
        # percent of the reference column size:
        # threshold = sqrt(1 + sqrt(2)) * sqrt(s * s/100) = 0.1554 * s to four digits
        factor = pl.THRESHOLD_FACTOR
        assert factor == np.sqrt(1.0 + np.sqrt(2.0))
        s = 100.0
        threshold = factor * np.sqrt(s * (s / 100.0))
        assert threshold / s == pytest.approx(0.1554, abs=5e-5)
        assert factor / 10.0 == pytest.approx(0.15538, abs=1e-5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("e", [-1000, -600, 511, 600, 1000])
    @pytest.mark.parametrize("k", [None, 20], ids=["scan", "k20"])
    def test_same_plan_at_any_power_of_two(self, e, k):
        # at 2^511 and past, the squared column norms overflowed; at 2^-600
        # they underflowed, and either way the column order changed. No
        # figure but the threshold carries the units of R.
        r = synthetic_sparse(200, 80, np.random.default_rng(41))
        want = pl.plan_partition(r, k=k).to_json()
        want["threshold"] = float(np.ldexp(want["threshold"], e))
        assert pl.plan_partition(np.ldexp(r, e), k=k).to_json() == want

    def test_no_copy_at_ordinary_scale(self, monkeypatch):
        r = synthetic_sparse(200, 80, np.random.default_rng(41))
        real_ldexp, scaled = np.ldexp, []

        def ldexp(x, *args, **kwargs):
            scaled.append(np.ndim(x))
            return real_ldexp(x, *args, **kwargs)

        monkeypatch.setattr(np, "ldexp", ldexp)
        pl.plan_partition(r)
        monkeypatch.undo()
        assert 2 not in scaled

    def test_full_split_trivial_threshold(self):
        r = np.abs(np.diag([5.0, 3.0, 1.0]))
        plan = pl.plan_partition(r, k=2)
        assert plan.threshold >= 0.0
        assert plan.i_star <= plan.k

    def test_kgrid_scan_matches_brute_force(self):
        rng = np.random.default_rng(77)
        r = synthetic_sparse(400, 60, rng)
        plan = pl.plan_partition(r)
        pr = pl.plan_partition(r, k=plan.k).apply(r)
        best = -1
        for k in pl._candidate_splits(60):
            i_star, _ = dense_feasibility(pr, k)
            best = max(best, i_star)
        assert plan.i_star == best

    def test_fixed_k_feasibility_brute_force(self):
        rng = np.random.default_rng(78)
        r = synthetic_sparse(400, 60, rng)
        k = 20
        plan = pl.plan_partition(r, k=k)
        pr = plan.apply(r)
        col_norms = np.linalg.norm(pr, axis=0)
        thr = plan.threshold
        want = 0
        for i in range(k - 1, 0, -1):
            if col_norms[i - 1] >= thr:
                want = i
                break
        assert plan.i_star == want

    def test_json_fields(self):
        plan = pl.plan_partition(np.abs(RNG.standard_normal((6, 4))), k=2)
        d = plan.to_json()
        assert set(d) == {"column_permutation", "row_permutation", "k", "i_star",
                          "threshold", "transposed"}
        assert d["transposed"] is False

    def test_wide_input_planned_through_its_transpose(self):
        rng = np.random.default_rng(29)
        r = synthetic_sparse(100, 40, rng)
        plan = pl.plan_partition(r.T, k=10)
        assert plan.transposed
        tall = pl.plan_partition(r, k=10)
        assert not tall.transposed
        for name in ("column_permutation", "row_permutation"):
            np.testing.assert_array_equal(getattr(plan, name), getattr(tall, name))
        assert (plan.k, plan.i_star, plan.threshold) == (tall.k, tall.i_star, tall.threshold)
        np.testing.assert_array_equal(plan.apply(r.T), tall.apply(r))


class TestAlgorithm2:
    def test_zero_d_exact(self):
        rng = np.random.default_rng(11)
        r = planted_low_rank(30, 20, 5, 0.0, rng)
        rep = pl.algorithm2(r, k=5, i=5, oracle=True)
        assert rep.error_bound <= 1e-9 * np.linalg.norm(r, 2)
        assert float(rep.oracle_deviations.max()) <= 1e-9 * np.linalg.norm(r, 2)

    def test_certificate_bound_sound(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            r = planted_low_rank(60, 40, 8, 0.01, rng)
            rep = pl.algorithm2(r, k=8, i=5, oracle=True)
            norm_r = np.linalg.norm(r, 2)
            assert rep.error_bound == pytest.approx(2 * rep.norm_d, abs=1e-12)
            assert float(rep.oracle_deviations.max()) <= rep.error_bound + 1e-9 * norm_r

    def test_oracle_margin(self):
        rng = np.random.default_rng(12)
        r = planted_low_rank(60, 40, 8, 0.01, rng)
        rep = pl.algorithm2(r, k=8, i=5, oracle=True)
        want = (rep.error_bound + 1e-9 * np.linalg.norm(r, 2)
                - float(np.abs(np.linalg.svd(r, compute_uv=False)[:5] - rep.values).max()))
        assert rep.oracle_margin() == want >= 0.0
        rep.oracle_deviations = rep.oracle_deviations + rep.error_bound + 1e-8 * rep.oracle_values[0]
        assert rep.oracle_margin() < 0.0

    def test_bound_scales_with_dropped_block(self):
        rng = np.random.default_rng(13)
        r = planted_low_rank(50, 30, 6, 0.01, rng)
        rep = pl.algorithm2(r, k=6, i=4)
        norm_r = np.linalg.norm(r, 2)
        assert rep.error_bound <= 0.021 * norm_r  # 2 * 0.01 plus rounding

    def test_ill_conditioned_pivot_keeps_requested_k(self):
        rng = np.random.default_rng(14)
        r = planted_low_rank(30, 20, 4, 0.01, rng)
        # the 6x6 pivot reaches past the rank-4 content, so it is nearly
        # singular (sigma_min(A) is about 4e-4 ||R||); the split stays at 6
        rep = pl.algorithm2(r, k=6, i=3, oracle=True)
        assert rep.k == 6

    def test_pivot_between_spectral_and_frobenius_thresholds_kept(self):
        # sigma_k(A) = 5e-10 with ||R||_2 = 1 and ||R||_F = sqrt(99): the pivot
        # fails a test scaled by ||R||_F, so only the exact ||R||_2 keeps it.
        r = np.eye(100)
        r[9, 9] = 5e-10
        assert 1e-10 * np.linalg.norm(r, 2) < 5e-10 < 1e-10 * np.linalg.norm(r)
        rep = pl.algorithm2(r, k=10, i=3)
        assert rep.k == 10

    def test_too_wide_rejected(self):
        with pytest.raises(pl.PipelineError) as exc:
            pl.algorithm2(np.ones((3, 2001)), k=2, i=1)
        assert isinstance(exc.value, MatrixError)

    def test_report_json(self):
        rng = np.random.default_rng(15)
        r = planted_low_rank(20, 15, 4, 0.01, rng)
        rep = pl.algorithm2(r, k=4, i=3, oracle=True)
        d = rep.to_json()
        assert {"rank", "k", "values", "error_bound", "certificate",
                "norm_d", "norm_d_method", "norm_d_iterations",
                "oracle_values", "oracle_deviations"} <= set(d)


def zero_pivot():
    """Only D is nonzero: at k=3, A, B and C are all zero."""
    r = np.zeros((6, 6))
    r[3:, 3:] = np.eye(3)
    return r


def empty_row_pivot():
    """k=6 pivot with an empty row, so A is singular."""
    r = planted_low_rank(30, 20, 5, 0.01, np.random.default_rng(17))
    r[5, :6] = 0.0
    return r


def zero_block(r, k, block):
    """A copy of r with B = r[:k, k:] or C = r[k:, :k] zeroed."""
    r = r.copy()
    if block == "b":
        r[:k, k:] = 0.0
    else:
        r[k:, :k] = 0.0
    return r


def assert_same_certificate(got, want, norm_r):
    """approx's certificate, read from its core, against the reference read
    from R0's bands: the same index and flag, each side within 1e-14 ||R||."""
    assert (got.i, got.certified) == (want.i, want.certified)
    np.testing.assert_allclose([got.sigma_i_left, got.norm_right],
                               [want.sigma_i_left, want.norm_right],
                               rtol=0.0, atol=1e-14 * norm_r)


class TestDirectMatchesRotations:
    """The factored R0 solve against the block-rotation reference path."""

    @pytest.mark.parametrize("name, r, k, i, want_k", [
        ("tall", planted_low_rank(120, 30, 6, 0.01, np.random.default_rng(16)),
         6, 4, 6),
        ("square_2k_ge_n", planted_low_rank(80, 80, 40, 0.01, np.random.default_rng(18)),
         40, 5, 40),
        ("tall_2k_ge_n", planted_low_rank(30, 20, 12, 0.01, np.random.default_rng(19)),
         12, 4, 12),
        ("zero_d", planted_low_rank(30, 20, 5, 0.0, np.random.default_rng(20)),
         5, 5, 5),
        ("short_c", planted_low_rank(24, 20, 15, 0.01, np.random.default_rng(21)),
         15, 5, 15),
        ("zero_c", zero_block(planted_low_rank(30, 20, 5, 0.01, np.random.default_rng(22)),
                              5, "c"), 5, 4, 5),
        ("zero_b", zero_block(planted_low_rank(30, 20, 5, 0.01, np.random.default_rng(23)),
                              5, "b"), 5, 4, 5),
    ])
    def test_same_report(self, name, r, k, i, want_k):
        rep = pl.algorithm2(r, k=k, i=i)
        assert rep.k == want_k
        p = BlockPartition(r, rep.k)
        values, cert, res = bd.top_singular_values(BlockPartition(p.zero_d(), rep.k), i)
        assert res.converged
        assert_same_certificate(rep.certificate, cert, np.linalg.norm(r, 2))
        assert rep.error_bound == 2.0 * np.linalg.norm(p.d, 2)
        np.testing.assert_allclose(rep.values, values, rtol=0.0,
                                   atol=1e-10 * np.linalg.norm(r, 2))


class TestSingularPivot:
    """A singular pivot is solved at the requested split. The rotations need
    an invertible pivot, so sigma(R0) comes from a dense SVD here."""

    @pytest.mark.parametrize("name, r, k, i", [
        ("zero_pivot", zero_pivot(), 3, 2),
        ("empty_pivot_row", empty_row_pivot(), 6, 3),
    ])
    def test_solved_at_requested_k(self, name, r, k, i):
        rep = pl.algorithm2(r, k=k, i=i, oracle=True)
        assert rep.k == k
        norm_r = np.linalg.norm(r, 2)
        p = BlockPartition(r, k)
        assert np.linalg.svd(p.a, compute_uv=False)[-1] <= 1e-12 * norm_r
        exact = np.linalg.norm(p.d, 2)
        assert exact <= rep.norm_d <= exact * (1 + 1e-12)
        assert rep.error_bound == 2.0 * rep.norm_d
        assert float(rep.oracle_deviations.max()) <= rep.error_bound + 1e-9 * norm_r
        r0 = p.zero_d()
        np.testing.assert_allclose(rep.values, np.linalg.svd(r0, compute_uv=False)[:i],
                                   rtol=0.0, atol=1e-10 * norm_r)
        assert_same_certificate(rep.certificate, bd.gap_certificate(BlockPartition(r0, k), i),
                                norm_r)


class TestPlannerMatchesDenseReference:
    """The planner reads its figures through the permutations; the dense
    reference builds the permuted copy. Small integer entries make the sums
    exact in any order, so ties in norms, sizes and thresholds are real."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_split_and_threshold(self, m, n, seed):
        rng = np.random.default_rng(seed)
        m, n = max(m, n), min(m, n)
        r = rng.integers(0, 4, size=(m, n)).astype(float) * (rng.random((m, n)) < 0.4)
        r[rng.random(m) < 0.1] = 0.0          # empty rows
        r[:, rng.random(n) < 0.1] = 0.0       # empty columns
        scan = pl.plan_partition(r)
        assert (scan.k, scan.i_star, scan.threshold) == dense_scan(scan.apply(r))
        k = int(rng.integers(1, n))
        plan = pl.plan_partition(r, k=k)
        assert (plan.i_star, plan.threshold) == dense_feasibility(plan.apply(r), k)


class TestCertifiedNormD:
    KINDS = ("sparse", "zero", "zero_lines", "rank_one", "block_diagonal")

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(2, 40), st.integers(0, 40),
           st.integers(0, 2**32 - 1))
    @example("zero", 10, 5, 3)
    @example("sparse", 2, 0, 0)                # D is 1 x 1
    @example("rank_one", 20, 2, 15)            # k = 16, m - k = 6 < k
    @example("block_diagonal", 40, 40, 4)
    @example("zero_lines", 30, 30, 2)
    def test_norm_d_never_below_exact(self, kind, n, extra_rows, seed):
        m = n + extra_rows
        k = 1 + seed % (n - 1)                 # m - k < k when k > m / 2
        rng = np.random.default_rng(seed)
        r = np.abs(rng.standard_normal((m, n))) * (rng.random((m, n)) < 0.5)
        d = r[k:, k:]
        if kind == "zero":
            d[:] = 0.0
        elif kind == "zero_lines":
            d[rng.random(m - k) < 0.3] = 0.0
            d[:, rng.random(n - k) < 0.3] = 0.0
        elif kind == "rank_one":
            d[:] = np.outer(rng.random(m - k), rng.random(n - k))
        elif kind == "block_diagonal":
            h, w = (m - k) // 2, (n - k) // 2
            d[:h, w:] = 0.0
            d[h:, :w] = 0.0
        rep = pl.algorithm2(r, k=k, i=1)
        exact = np.linalg.norm(d, 2)
        assert exact <= rep.norm_d <= exact * (1 + 1e-9)
        assert rep.error_bound == 2.0 * rep.norm_d
        if rep.norm_d_method == "svd":
            assert rep.norm_d == np.linalg.norm(d, 2)

    def test_signed_d_takes_exact_svd(self):
        r = planted_low_rank(60, 40, 8, 0.01, np.random.default_rng(21))
        rep = pl.algorithm2(r, k=8, i=4)
        assert (rep.norm_d_method, rep.norm_d_iterations) == ("svd", 0)
        assert rep.error_bound == 2.0 * np.linalg.norm(BlockPartition(r, 8).d, 2)

    def test_readme_recipe_takes_iteration(self):
        rng = np.random.default_rng(0)
        r = np.abs(rng.standard_normal((600, 300))) * (rng.random((600, 300)) < 0.3)
        r[:, :30] *= 10.0
        rep = pl.approximate(r, k=30, i=10)
        d = BlockPartition(pl.plan_partition(r, k=30).apply(r), 30).d
        exact = np.linalg.norm(d, 2)
        assert rep.norm_d_method == "collatz-wielandt"
        assert 1 <= rep.norm_d_iterations <= 0.25 * 270
        assert exact <= rep.norm_d <= exact * (1 + 1e-9)


class TestCompactCore:
    """sigma(R0) from [[A, R_B^T], [R_C, 0]] against a dense SVD of R0."""

    @pytest.mark.parametrize("name, r, k, i", [
        ("tall", planted_low_rank(120, 30, 6, 0.01, np.random.default_rng(22)), 6, 6),
        ("m_minus_k_below_k", planted_low_rank(12, 10, 8, 0.01, np.random.default_rng(23)), 8, 8),
        ("n_minus_k_below_k", planted_low_rank(40, 20, 15, 0.01, np.random.default_rng(24)), 15, 10),
        ("singular_pivot", empty_row_pivot(), 6, 6),
        ("sparse_nonneg", synthetic_sparse(200, 80, np.random.default_rng(25)), 20, 20),
    ])
    def test_matches_dense_svd_of_r0(self, name, r, k, i):
        rep = pl.algorithm2(r, k=k, i=i)
        want = np.linalg.svd(BlockPartition(r, k).zero_d(), compute_uv=False)[:i]
        np.testing.assert_allclose(rep.values, want, rtol=0.0,
                                   atol=1e-10 * np.linalg.norm(r, 2))


class TestApproximate:
    def test_plans_then_solves(self):
        rng = np.random.default_rng(26)
        r = synthetic_sparse(200, 80, rng)[rng.permutation(200)][:, rng.permutation(80)]
        rep = pl.approximate(r, k=20, i=5)
        want = pl.algorithm2(pl.plan_partition(r, k=20).apply(r), k=20, i=5)
        assert rep.to_json() == want.to_json()
        assert rep.error_bound < pl.algorithm2(r, k=20, i=5).error_bound

    def test_signed_input_solved_in_stored_order(self):
        r = planted_low_rank(60, 40, 8, 0.01, np.random.default_rng(27))
        assert pl.approximate(r, k=8, i=4).to_json() == pl.algorithm2(r, k=8, i=4).to_json()
        assert pl.approximate(r.T, k=8, i=4).to_json() == pl.algorithm2(r, k=8, i=4).to_json()

    def test_wide_input_solved_through_its_transpose(self):
        rng = np.random.default_rng(28)
        r = synthetic_sparse(100, 40, rng).T          # 40 x 100
        rep = pl.approximate(r, k=10, i=4, oracle=True)
        assert rep.to_json() == pl.approximate(r.T, k=10, i=4, oracle=True).to_json()
        true = np.linalg.svd(r, compute_uv=False)[:4]
        assert np.abs(true - rep.values).max() <= rep.error_bound + 1e-9 * true[0]
