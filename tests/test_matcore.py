"""Tests for the dense matrix substrate."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from blocksvd import blockdiag as bd
from blocksvd import matcore as mc
from blocksvd import pipeline as pl

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


finite_matrices = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
    elements=st.floats(-1.0, 1.0),
)


class TestBlockPartition:
    def test_blocks_tile_base(self):
        r = np.arange(20, dtype=float).reshape(5, 4)
        p = mc.BlockPartition(r, 2)
        assert p.a.shape == (2, 2)
        assert p.b.shape == (2, 2)
        assert p.c.shape == (3, 2)
        assert p.d.shape == (3, 2)
        np.testing.assert_array_equal(np.block([[p.a, p.b], [p.c, p.d]]), r)

    def test_zero_d_keeps_other_blocks(self):
        r = np.arange(20, dtype=float).reshape(5, 4)
        p = mc.BlockPartition(r, 2)
        r0 = p.zero_d()
        np.testing.assert_array_equal(r0[:2], r[:2])
        np.testing.assert_array_equal(r0[2:, :2], r[2:, :2])
        assert np.all(r0[2:, 2:] == 0)

    def test_bands(self):
        r = np.arange(20, dtype=float).reshape(5, 4)
        p = mc.BlockPartition(r, 2)
        np.testing.assert_array_equal(p.left_band(), r[:, :2])
        np.testing.assert_array_equal(p.right_band(), r[:, 2:])

    @pytest.mark.parametrize("k", [0, 4, 5])
    def test_invalid_split_rejected(self, k):
        with pytest.raises(mc.MatrixError):
            mc.BlockPartition(np.ones((5, 4)), k)

    def test_wide_matrix_rejected(self):
        with pytest.raises(mc.MatrixError):
            mc.BlockPartition(np.ones((3, 5)), 2)

    @pytest.mark.parametrize("m, message", [
        (np.ones(3), "expected a 2-D matrix, got ndim=1"),
        (np.ones((0, 3)), "matrix must be at least 1x1, got shape (0, 3)"),
    ], ids=["1-D", "0x3"])
    def test_as_matrix_refuses(self, m, message):
        with pytest.raises(mc.MatrixError, match=re.escape(message)):
            mc.as_matrix(m)


class TestNorms:
    def test_operator_norm_cases(self):
        assert mc.operator_norm(np.zeros((2, 3))) == 0.0
        assert mc.operator_norm(np.diag([3.0, 2.0, 1.0])) == pytest.approx(3.0)
        assert mc.operator_norm(np.array([[1.0, 1.0], [0.0, 1.0]])) == pytest.approx(GOLDEN)

    def test_schur_bound_cases(self):
        assert mc.schur_test_bound(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)
        assert mc.schur_test_bound(np.ones((2, 2))) == pytest.approx(2.0)
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert mc.schur_test_bound(m) == pytest.approx(2.0)
        assert mc.schur_test_bound(m) >= mc.operator_norm(m)

    @settings(max_examples=100, deadline=None)
    @given(finite_matrices)
    def test_schur_bound_dominates(self, m):
        assert mc.schur_test_bound(m) >= mc.operator_norm(m) - 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("e", [-600, 600])
    def test_schur_bound_dominates_at_extreme_scales(self, e):
        # unscaled, the sums' product underflowed to 0.0 at 2^-600, below
        # the norm 1.3e-180, and overflowed at 2^600
        m = np.ldexp(np.array([[1.0, 2.0], [3.0, 4.0]]), e)
        assert mc.schur_test_bound(m) == np.ldexp(np.sqrt(42.0), e)
        assert mc.schur_test_bound(m) >= mc.operator_norm(m)


def _mixed_magnitudes():
    x = np.where(np.random.default_rng(5).random((30, 12)) < 0.5, 1.0, 1e-180)
    x[:, 3] = 1e-180        # a column with no entry above 1e-180
    return x


class TestOperatorNorm:
    @pytest.mark.parametrize("x", [
        pytest.param(np.outer(np.arange(1.0, 8.0), np.arange(1.0, 5.0)), id="rank-one"),
        pytest.param(np.random.default_rng(1).standard_normal((60, 14)), id="tall"),
        pytest.param(np.random.default_rng(2).standard_normal((9, 50)), id="wide"),
        pytest.param(np.random.default_rng(3).random((25, 25)), id="square"),
        pytest.param(1e-200 * np.random.default_rng(4).standard_normal((40, 10)), id="1e-200"),
        pytest.param(1e200 * np.random.default_rng(4).standard_normal((10, 40)), id="1e200"),
        pytest.param(_mixed_magnitudes(), id="1-and-1e-180"),
    ])
    def test_matches_svd_norm(self, x):
        want = np.linalg.norm(x, 2)
        assert abs(mc.operator_norm(x) - want) <= 1e-13 * want

    def test_zero_and_empty_blocks(self):
        assert mc.operator_norm(np.zeros((6, 3))) == 0.0
        assert mc.operator_norm(np.zeros((3, 6))) == 0.0
        assert mc.operator_norm(np.ones((4, 5))[4:, :]) == 0.0


NONNEG_KINDS = ("sparse", "zero", "zero_lines", "rank_one", "block_diagonal")


def nonneg_block(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    """A non-negative m x n matrix of one structural kind."""
    rng = np.random.default_rng(seed)
    d = rng.random((m, n)) * (rng.random((m, n)) < 0.5)
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "rank_one":
        return np.outer(rng.random(m), rng.random(n))
    if kind == "zero_lines":
        d[rng.random(m) < 0.3] = 0.0
        d[:, rng.random(n) < 0.3] = 0.0
    if kind == "block_diagonal":  # reducible: x loses weight on the weaker block
        d[: m // 2, n // 2 :] = 0.0
        d[m // 2 :, : n // 2] = 0.0
    return d


class TestCertifiedNorm:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(NONNEG_KINDS), st.integers(1, 40), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    def test_collatz_wielandt_bound_brackets_norm(self, kind, m, n, seed):
        d = nonneg_block(kind, m, n, seed)
        bound, pairs = mc.collatz_wielandt_bound(d, 10**6)
        exact = np.linalg.norm(d, 2)
        assert pairs >= 1
        if bound is not None:
            assert exact <= bound <= exact * (1 + 1e-9)
        if kind == "zero":
            assert bound == 0.0

    def test_signed_takes_exact_svd(self):
        d = np.random.default_rng(4).standard_normal((30, 20))
        nb = mc.certified_norm(d)
        assert (nb.method, nb.iterations) == ("svd", 0)
        assert nb.value == np.linalg.norm(d, 2) * (1 + mc._gamma(30))

    def test_dense_positive_takes_iteration(self):
        d = np.random.default_rng(5).random((300, 100))
        nb = mc.certified_norm(d)
        exact = np.linalg.norm(d, 2)
        assert nb.method == "collatz-wielandt"
        assert 1 <= nb.iterations <= 25
        assert exact <= nb.value <= exact * (1 + 1e-12)

    def test_zero_columns_iterate_on_support(self):
        d = np.random.default_rng(7).random((300, 100))
        d[:, ::7] = 0.0
        d[::5] = 0.0
        nb = mc.certified_norm(d)
        exact = np.linalg.norm(d, 2)
        assert nb.method == "collatz-wielandt"
        assert exact <= nb.value <= exact * (1 + 1e-12)

    def test_slow_iteration_falls_back_to_svd(self):
        # Nearly equal leading eigenvalues of D^T D: the gap shrinks too
        # slowly to finish within one SVD's cost of 0.4 * 40 = 16 pairs.
        d = np.eye(100, 40) + 0.01 * np.random.default_rng(6).random((100, 40))
        nb = mc.certified_norm(d)
        assert nb.method == "svd"
        assert 1 <= nb.iterations <= 10
        assert nb.value == np.linalg.norm(d, 2) * (1 + mc._gamma(100))

    def test_underflowed_first_pair_takes_svd(self):
        # Column 7 alone touches rows 20..29, at 1e-170: its entry of
        # D^T D 1 is 10 * 1e-340, which underflows to 0 although the column
        # is not zero, so the iteration gives up after one pair.
        d = np.zeros((30, 8))
        d[:20, :7] = np.random.default_rng(8).random((20, 7))
        d[20:, 7] = 1e-170
        nb = mc.certified_norm(d)
        assert (nb.method, nb.iterations) == ("svd", 1)
        assert nb.value == np.linalg.norm(d, 2) * (1 + mc._gamma(30))

    def test_subnormal_iterate_takes_svd(self):
        # D^T D 1 = (1, 1, 1e-320): the third entry is subnormal, below the
        # least iterate whose ratio keeps full precision, so the iteration
        # gives up after one pair although no entry is zero.
        nb = mc.certified_norm(np.diag([1.0, 1.0, 1e-160]))
        assert (nb.method, nb.iterations) == ("svd", 1)
        assert nb.value == 1.0 * (1 + mc._gamma(3))

    def test_small_block_skips_iteration(self):
        # one SVD of a 2 x 2 block costs less than one pair of products;
        # its sigma_1 is padded by gamma_2 for LAPACK's rounding
        nb = mc.certified_norm(np.eye(2))
        assert (nb.value, nb.method, nb.iterations) == (1 + mc._gamma(2), "svd", 0)

    def test_zero_block_is_exact(self):
        nb = mc.certified_norm(np.zeros((20, 8)))
        assert (nb.value, nb.method, nb.iterations) == (0.0, "collatz-wielandt", 1)


W = mc.SCALE_EXP


def _recipe(seed: int = 0) -> np.ndarray:
    """README's 200 x 80 recipe: |N(0, 1)| at 30% density, first 20 columns x10."""
    rng = np.random.default_rng(seed)
    r = np.abs(rng.standard_normal((200, 80))) * (rng.random((200, 80)) < 0.3)
    r[:, :20] *= 10.0
    return r


class TestScaleRule:
    @pytest.mark.parametrize("e", [-W, -20, 0, 20, W - 1])
    def test_window_is_used_as_is(self, e):
        m = np.ldexp(np.array([[1.0, -1.5], [0.25, 0.0]]), e)
        y, got = mc.pow2_scale(m)
        assert y is m and got == 0

    @pytest.mark.parametrize("m", [np.zeros((3, 2)), np.ones((0, 4))], ids=["zero", "empty"])
    def test_zero_and_empty_are_used_as_is(self, m):
        y, e = mc.pow2_scale(m)
        assert y is m and e == 0

    @pytest.mark.parametrize("e", [-1074, -1030, -(W + 2), W + 1, 1022])
    def test_outside_is_scaled_into_one_two(self, e):
        # at -1074 and -1030 every entry is subnormal
        m = np.ldexp(np.array([[3.0, -2.0], [1.0, 0.0]]), e)
        y, got = mc.pow2_scale(m)
        assert 1.0 <= np.abs(y).max() < 2.0
        np.testing.assert_array_equal(np.ldexp(y, got), m)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("e", [-1000, -600, -(W + 1), -(W - 1), -20, 20, W - 1, W + 1, 511, 1000])
    def test_results_scale_with_the_input(self, e):
        r = _recipe()
        d, signed = r[20:, 20:], np.random.default_rng(1).standard_normal((40, 25))
        assert mc.certified_norm(d).method == "collatz-wielandt"
        for m in (d, signed, r):
            s = np.ldexp(m, e)
            assert mc.operator_norm(s) == np.ldexp(mc.operator_norm(m), e)
            assert mc.schur_test_bound(s) == np.ldexp(mc.schur_test_bound(m), e)
            want, got = mc.certified_norm(m), mc.certified_norm(s)
            assert got == mc.NormBound(float(np.ldexp(want.value, e)), want.method, want.iterations)
            assert (bd.kyfan_column_bounds(s, 5).to_json()
                    == bd.kyfan_column_bounds(m, 5).to_json())
        plan = pl.plan_partition(r).to_json()
        plan["threshold"] = float(np.ldexp(plan["threshold"], e))
        assert pl.plan_partition(np.ldexp(r, e)).to_json() == plan
        want, got = pl.approximate(r, k=20, i=5), pl.approximate(np.ldexp(r, e), k=20, i=5)
        assert (got.norm_d, got.error_bound) == (np.ldexp(want.norm_d, e),
                                                np.ldexp(want.error_bound, e))
        assert ((got.norm_d_method, got.norm_d_iterations)
                == (want.norm_d_method, want.norm_d_iterations))
        # LAPACK rescales the core past about 2^+-459, by factors that are
        # not powers of two
        assert np.abs(np.ldexp(got.values, -e) - want.values).max() <= 1e-15 * want.values[0]

    @pytest.mark.parametrize("call", [
        mc.operator_norm, mc.certified_norm,
        lambda r: mc.ratio_svd(r[:20, :20], r[:20, 20:],
                               np.linalg.svd(r[:20, :20], compute_uv=False), factors=True)],
        ids=["operator_norm", "certified_norm", "ratio_svd"])
    def test_no_copy_at_ordinary_scale(self, monkeypatch, call):
        r = _recipe()
        r[np.arange(20), np.arange(20)] += 1.0     # a nonsingular pivot
        real_ldexp, scaled = np.ldexp, []

        def ldexp(x, *args, **kwargs):
            scaled.append(np.ndim(x))
            return real_ldexp(x, *args, **kwargs)

        monkeypatch.setattr(np, "ldexp", ldexp)
        call(r)
        monkeypatch.undo()
        assert 2 not in scaled


class TestCheckReport:
    def test_add_passes_down_to_minus_tol(self):
        rep = mc.CheckReport()
        rep.add("at_tol", np.float64(-0.5), tol=0.5)
        rep.add("past_tol", -0.5 - 1e-12, tol=0.5)
        rep.add("no_tol", 0.0)
        assert [(c.passed, type(c.margin)) for c in rep.checks] == [
            (True, float), (False, float), (True, float)]
        assert not rep.all_passed

    def test_repeated_name_keeps_least_margin_in_place(self):
        rep = mc.CheckReport()
        rep.add("repeated", 1.0)
        rep.add("between", 0.0)
        rep.add("repeated", 0.25)
        rep.add("repeated", np.float64(3.0))
        assert [(c.name, c.passed, c.margin) for c in rep.checks] == [
            ("repeated", True, 0.25), ("between", True, 0.0)]
        assert type(rep.checks[0].margin) is float

    def test_failing_add_keeps_name_failing(self):
        rep = mc.CheckReport()
        rep.add("x", -0.5, tol=1.0)
        rep.add("x", -0.75, tol=0.5)
        rep.add("x", 2.0)
        assert [(c.name, c.passed, c.margin) for c in rep.checks] == [("x", False, -0.75)]
        assert not rep.all_passed

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_nan_add_makes_margin_nan_and_fails(self, at):
        margins = [1.0, 2.0, 3.0]
        margins[at] = float("nan")
        rep = mc.CheckReport()
        for margin in margins:
            rep.add("x", margin)
        (item,) = rep.checks
        assert np.isnan(item.margin) and not item.passed
        assert not rep.all_passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tangent", [0.0, 1e-200, 1.0, 1e200])
def test_cos_sin_needs_no_square(tangent):
    # 1e200 squared overflows and 1e-200 squared underflows; hypot does neither
    c, s = mc.cos_sin(tangent, 1.0)
    assert np.isfinite(c) and np.isfinite(s) and c > 0.0 and s >= 0.0
    assert abs(c * c + s * s - 1.0) <= 4 * np.finfo(float).eps
    assert s == pytest.approx(tangent * c, rel=1e-15)
    np.testing.assert_array_equal(mc.cos_sin(np.array([tangent]), 1.0), [[c], [s]])


class TestRatioSvd:
    def test_finite_ratio_is_the_plain_solve(self):
        rng = np.random.default_rng(28)
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 5))
        sa = np.linalg.svd(a, compute_uv=False)
        u, sig, v, adj = mc.ratio_svd(a, b, sa, factors=True)
        want = np.linalg.svd(np.linalg.solve(a, b), full_matrices=False)
        assert adj == 1.0
        np.testing.assert_array_equal(u, want[0])
        np.testing.assert_array_equal(sig, want[1])
        np.testing.assert_array_equal(v, want[2].T)
        values, adj = mc.ratio_svd(a, b, sa)
        np.testing.assert_array_equal(
            values, np.linalg.svd(np.linalg.solve(a, b), compute_uv=False))
        assert adj == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("e", [900, 1500, 2000])
    def test_ratio_beyond_float_max_is_scaled(self, e):
        # a = 2^-(e/2), off = 2^(e/2) [1 2]: the ratio is 2^e sqrt(5), kept
        # as sigma / adj; past 2^1974, adj stops at the least double
        a = np.ldexp(np.eye(1), -(e // 2))
        off = np.ldexp(np.array([[1.0, 2.0]]), e - e // 2)
        sig, adj = mc.ratio_svd(a, off, np.linalg.svd(a, compute_uv=False))
        assert 0.0 < adj < 1.0 and np.isfinite(sig).all()
        assert sig[0] < 2.0**900 or adj == 2.0**-1074
        assert np.log2(sig[0]) - np.log2(adj) == pytest.approx(e + np.log2(5.0) / 2, abs=1e-12)
        c, s = mc.cos_sin(sig, adj)
        assert s[0] == pytest.approx(1.0) and 0.0 <= c[0] < 1e-200

    def test_singular_pivot_refused(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(mc.SingularBlockError):
            mc.ratio_svd(a, np.ones((2, 1)), np.linalg.svd(a, compute_uv=False))


class TestSpectralInequalities:
    """Eigenvalue-shift and Weyl comparisons backing the bound modules."""

    def test_eigenvalue_shift(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a, b = rng.standard_normal((2, n, n))
            s1, s2 = a @ a.T, b @ b.T
            lhs = np.sort(np.linalg.eigvalsh(s1 + s2))
            rhs = np.sort(np.linalg.eigvalsh(s1)) + np.linalg.eigvalsh(s2).min()
            assert np.all(lhs >= rhs - 1e-10)

    def test_weyl_additive(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            x, y = rng.standard_normal((2, 5, 4))
            dx = np.linalg.svd(x + y, compute_uv=False) - np.linalg.svd(x, compute_uv=False)
            assert np.all(dx <= np.linalg.norm(y, 2) + 1e-10)
