"""Tests for block-Givens rotation construction and decomposition."""

import numpy as np
import pytest

from blocksvd import bounds as bo
from blocksvd import givens as gv
from blocksvd import matcore as mc

RNG = np.random.default_rng(42)


def random_partition(rng, m, n, k):
    while True:
        r = rng.standard_normal((m, n))
        if np.linalg.svd(r[:k, :k], compute_uv=False)[-1] > 1e-2:
            return mc.BlockPartition(r, k)


class TestBlockTrig:
    def test_scalar_zero_off_block(self):
        t = gv.block_trig(np.array([[1.0]]), np.array([[0.0]]))
        assert t.cos_ab[0, 0] == pytest.approx(1.0)
        assert t.sin_ab[0, 0] == pytest.approx(0.0)
        assert t.cos_ba[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("b,cos,sin", [(1.0, 1 / np.sqrt(2), 1 / np.sqrt(2)),
                                           (2.0, 1 / np.sqrt(5), 2 / np.sqrt(5))])
    def test_scalar_plane_rotation(self, b, cos, sin):
        t = gv.block_trig(np.array([[1.0]]), np.array([[b]]))
        assert t.cos_ab[0, 0] == pytest.approx(cos, abs=1e-14)
        assert t.cos_ba[0, 0] == pytest.approx(cos, abs=1e-14)
        assert abs(t.sin_ab[0, 0]) == pytest.approx(sin, abs=1e-14)

    def test_annihilation_identity(self):
        # -A sin(A,B) + B cos(B,A) = 0 defines the trig blocks
        for _ in range(50):
            k, nk = int(RNG.integers(1, 5)), int(RNG.integers(1, 5))
            a = RNG.standard_normal((k, k)) + 3 * np.eye(k)
            b = RNG.standard_normal((k, nk))
            t = gv.block_trig(a, b)
            resid = mc.operator_norm(-a @ t.sin_ab + b @ t.cos_ba)
            assert resid <= 1e-12 * max(mc.operator_norm(a), mc.operator_norm(b))

    def test_pythagorean_block_identity(self):
        for _ in range(50):
            k, nk = int(RNG.integers(1, 5)), int(RNG.integers(1, 5))
            a = RNG.standard_normal((k, k)) + 3 * np.eye(k)
            b = RNG.standard_normal((k, nk))
            t = gv.block_trig(a, b)
            resid = t.cos_ab @ t.cos_ab + t.sin_ab @ t.sin_ab.T - np.eye(k)
            assert mc.operator_norm(resid) <= 1e-12

    def test_cos_ba_invertible(self):
        for _ in range(50):
            p = random_partition(RNG, 8, 6, 3)
            t = gv.block_trig(p.a, p.b)
            assert np.linalg.svd(t.cos_ba, compute_uv=False)[-1] > 0

    def test_singular_a_rejected(self):
        with pytest.raises(mc.SingularBlockError):
            gv.block_trig(np.zeros((2, 2)), np.ones((2, 1)))

    def test_matrix_is_the_right_rotation(self):
        # block_trig is the right rotation of the pair: its matrix is
        # [[cos_ab, -sin_ab], [sin_ab^T, cos_ba]], and it is the rotation
        # build_right_rotation makes for any partition with the same A and B
        for _ in range(30):
            p = random_partition(RNG, int(RNG.integers(5, 10)), 5, int(RNG.integers(1, 5)))
            t = gv.block_trig(p.a, p.b)
            want = np.block([[t.cos_ab, -t.sin_ab], [t.sin_ab.T, t.cos_ba]])
            np.testing.assert_allclose(t.matrix, want, rtol=0, atol=1e-14)
            np.testing.assert_array_equal(t.matrix, gv.build_right_rotation(p).matrix)


class TestRotations:
    def test_right_identity_when_b_zero(self):
        g = gv.build_right_rotation(mc.BlockPartition(np.eye(2), 1))
        assert g.degenerate
        np.testing.assert_array_equal(g.matrix, np.eye(2))

    def test_right_hand_case(self):
        p = mc.BlockPartition(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
        g = gv.build_right_rotation(p)
        want = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(g.matrix), np.abs(want), atol=1e-14)
        rotated = p.base @ g.matrix
        assert abs(rotated[0, 1]) <= 1e-14
        assert abs(rotated[0, 0]) == pytest.approx(np.sqrt(2.0))

    def test_left_hand_case(self):
        p = mc.BlockPartition(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
        g = gv.build_left_rotation(p)
        rotated = g.matrix @ p.base
        assert abs(rotated[1, 0]) <= 1e-14
        assert abs(rotated[0, 0]) == pytest.approx(np.sqrt(2.0))

    def test_random_suite_orthogonal_and_annihilating(self):
        for _ in range(200):
            m = int(RNG.integers(3, 12))
            n = int(RNG.integers(2, m + 1))
            k = int(RNG.integers(1, n))
            p = random_partition(RNG, m, n, k)
            norm_r = mc.operator_norm(p.base)
            gr = gv.build_right_rotation(p)
            gl = gv.build_left_rotation(p)
            assert mc.operator_norm(gr.matrix.T @ gr.matrix - np.eye(n)) <= 1e-11 * n
            assert mc.operator_norm(gl.matrix.T @ gl.matrix - np.eye(m)) <= 1e-11 * m
            assert mc.operator_norm((p.base @ gr.matrix)[:k, k:]) <= 1e-10 * norm_r
            assert mc.operator_norm((gl.matrix @ p.base)[k:, :k]) <= 1e-10 * norm_r

    def test_spectrum_preserved_by_both_sides(self):
        p = random_partition(RNG, 9, 7, 3)
        gr = gv.build_right_rotation(p)
        gl = gv.build_left_rotation(p)
        got = np.linalg.svd(gl.matrix @ p.base @ gr.matrix, compute_uv=False)
        want = np.linalg.svd(p.base, compute_uv=False)
        np.testing.assert_allclose(got, want, atol=1e-10 * want[0])

    def test_left_top_block_is_stacked_root(self):
        # top-left of the left-rotated matrix carries sigma of [A; C]
        for _ in range(30):
            p = random_partition(RNG, 8, 5, 2)
            gl = gv.build_left_rotation(p)
            got = np.linalg.svd((gl.matrix @ p.base)[: p.k, : p.k], compute_uv=False)
            want = np.linalg.svd(np.vstack([p.a, p.c]), compute_uv=False)
            np.testing.assert_allclose(got, want, atol=1e-10 * max(want[0], 1.0))

    def test_right_top_block_is_band_root(self):
        for _ in range(30):
            p = random_partition(RNG, 8, 5, 2)
            gr = gv.build_right_rotation(p)
            got = np.linalg.svd((p.base @ gr.matrix)[: p.k, :], compute_uv=False)
            want = np.linalg.svd(np.hstack([p.a, p.b]), compute_uv=False)
            np.testing.assert_allclose(got[: p.k], want, atol=1e-10 * max(want[0], 1.0))


class TestHouseholder:
    def test_zero_tail_gives_identity(self):
        np.testing.assert_allclose(gv.householder_block(1.0, np.zeros(3)), np.eye(4),
                                   atol=1e-14)

    def test_all_ones(self):
        h = gv.householder_block(1.0, np.ones(3))
        image = h @ np.array([1.0, 1.0, 1.0, 1.0])
        assert image[0] == pytest.approx(2.0)
        assert np.linalg.norm(image[1:]) <= 1e-12

    def test_pythagorean_triple(self):
        h = gv.householder_block(3.0, np.array([4.0]))
        image = h @ np.array([3.0, 4.0])
        np.testing.assert_allclose(image, [5.0, 0.0], atol=1e-12)
        assert h[0, 0] == pytest.approx(3.0 / 5.0)

    def test_orthogonality(self):
        for _ in range(50):
            v = RNG.standard_normal(int(RNG.integers(1, 8)))
            a = float(RNG.standard_normal()) or 1.0
            h = gv.householder_block(a, v)
            assert mc.operator_norm(h.T @ h - np.eye(h.shape[0])) <= 1e-12

    def test_zero_pivot_rejected(self):
        with pytest.raises(mc.MatrixError):
            gv.householder_block(0.0, np.ones(2))

    @pytest.mark.parametrize("a,v", [(1.0, [np.nan]), (1.0, [0.0, np.inf]), (np.inf, [1.0])])
    def test_non_finite_rejected(self, a, v):
        with pytest.raises(mc.MatrixError, match="finite"):
            gv.householder_block(a, v)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_transposed_k1_right_rotation(self, sign):
        for _ in range(20):
            v = RNG.standard_normal(int(RNG.integers(1, 6)))
            a = sign * (0.1 + abs(float(RNG.standard_normal())))
            want = gv.block_trig(np.array([[a]]), v[None, :]).matrix.T.copy()
            if a < 0:
                want[0, :] = -want[0, :]
            h = gv.householder_block(a, v)
            np.testing.assert_array_equal(h, want)
            image = h @ np.concatenate([[a], v])
            assert image[0] == pytest.approx(np.hypot(a, np.linalg.norm(v)))
            assert np.linalg.norm(image[1:]) <= 1e-12 * abs(image[0])


class TestRotationWeight:
    def test_scalar_balanced(self):
        p = mc.BlockPartition(np.array([[1.0, 1.0], [0.0, 0.0]]), 1)
        g = gv.build_right_rotation(p)
        assert gv.rotation_weight(g) == pytest.approx(1 / np.sqrt(2))

    def test_scalar_steep(self):
        p = mc.BlockPartition(np.array([[1.0, 2.0], [0.0, 0.0]]), 1)
        g = gv.build_right_rotation(p)
        assert gv.rotation_weight(g) == pytest.approx(2 / np.sqrt(5))

    def test_degenerate_weight_is_one(self):
        g = gv.build_right_rotation(mc.BlockPartition(np.eye(2), 1))
        assert gv.rotation_weight(g) == 1.0

    def test_strictly_below_one_for_genuine_rotations(self):
        for _ in range(100):
            p = random_partition(RNG, 7, 5, 2)
            w = gv.rotation_weight(gv.build_right_rotation(p))
            assert 0.0 < w < 1.0


class TestBlockRotationDecompose:
    def test_identity_trivial_blocks(self):
        fac = gv.block_rotation_decompose(np.eye(5), 2)
        assert fac.c.size == 0 and fac.s.size == 0
        assert fac.r == 2 and fac.l == 3

    def test_plane_rotation(self):
        th = 0.7
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        fac = gv.block_rotation_decompose(q, 1)
        assert abs(fac.c[0]) == pytest.approx(np.cos(th))
        assert abs(fac.s[0]) == pytest.approx(np.sin(th))

    def test_matches_rotation_weight(self):
        p = mc.BlockPartition(np.array([[1.0, 2.0], [0.0, 0.0]]), 1)
        g = gv.build_right_rotation(p)
        fac = gv.block_rotation_decompose(g.matrix, 1)
        extremes = max(np.abs(fac.c).max(initial=0.0), np.abs(fac.s).max(initial=0.0))
        assert extremes == pytest.approx(gv.rotation_weight(g), abs=1e-10)

    def test_reassembly_and_dimension_balance(self):
        for _ in range(100):
            n = int(RNG.integers(2, 10))
            k = int(RNG.integers(1, n))
            q = np.linalg.qr(RNG.standard_normal((n, n)))[0]
            fac = gv.block_rotation_decompose(q, k)
            assert mc.operator_norm(fac.assemble() - q) <= 1e-10
            assert k - fac.r == (n - k) - fac.l
            if fac.c.size:
                cs = fac.c ** 2 + fac.s ** 2
                np.testing.assert_allclose(cs, np.ones(fac.c.size), atol=1e-12)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(mc.MatrixError):
            gv.block_rotation_decompose(np.ones((3, 3)), 1)


def test_stacked_selection_norm_bound():
    # x and y are complementary column blocks of the bottom rows of an
    # orthogonal matrix, so their row Grams sum to the identity; picking a
    # leading column block from x and a disjoint later block from y then
    # never exceeds the larger of the two norms
    for _ in range(100):
        n, k = 10, 3
        q = np.linalg.qr(RNG.standard_normal((n, n)))[0]
        x = q[k:, :k]
        y = q[k:, k:]
        j = int(RNG.integers(0, k + 1))
        i = int(RNG.integers(k, n - k + 1))
        cols = [x[:, t] for t in range(j)]
        cols += [y[:, t] for t in range(k + j, i)]
        if not cols:
            continue
        p = np.column_stack(cols)
        assert mc.operator_norm(p) <= max(mc.operator_norm(x), mc.operator_norm(y)) + 1e-12


def test_off_rank_counts_the_off_block():
    # rank-one B and C: off_rank is their numerical rank, not the number
    # of singular values of the ratio
    rng = np.random.default_rng(5)
    k = 3
    r = rng.standard_normal((8, 6))
    r[:k, k:] = np.outer(rng.standard_normal(k), rng.standard_normal(3))
    r[k:, :k] = np.outer(rng.standard_normal(5), rng.standard_normal(k))
    p = mc.BlockPartition(r + 5.0 * np.eye(8, 6), k)
    for g in (gv.build_right_rotation(p), gv.build_left_rotation(p)):
        assert g.ratio_sigma.size == k
        assert g.off_rank == 1
        s_1 = g.ratio_sigma[0]
        assert gv.rotation_weight(g) == pytest.approx(
            max(1.0, s_1) / np.sqrt(1.0 + s_1**2), rel=1e-14)


# A tangent of 1e160, far above sqrt(float max): in B (the right rotation's
# ratio) and in C (the left one's). Squaring it overflows. One of 1e600,
# above float max, overflows when the ratio itself is formed.
HUGE_RATIO = [np.array([[1.0, 1e160], [1.0, 1.0], [0.5, 2.0]]),
              np.array([[1.0, 1.0], [1e160, 1.0], [0.5, 2.0]]),
              np.array([[1e-300, 1e300], [1.0, 1.0], [0.5, 2.0]]),
              np.array([[1e-300, 1.0], [1e300, 1.0], [0.5, 2.0]])]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r", HUGE_RATIO, ids=["B", "C", "B-past-max", "C-past-max"])
def test_huge_ratio_rotations_annihilate(r):
    p = mc.BlockPartition(r, 1)
    norm_r = np.linalg.norm(r, 2)
    gr, gl = gv.build_right_rotation(p), gv.build_left_rotation(p)
    assert np.abs((r @ gr.matrix)[:1, 1:]).max() <= 1e-12 * norm_r
    assert np.abs((gl.matrix @ r)[1:, :1]).max() <= 1e-12 * norm_r
    for g in (gr, gl):
        assert not g.degenerate
        assert 0.0 < gv.rotation_weight(g) <= 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_householder_beyond_float_max():
    h = gv.householder_block(1e-300, [1e300])
    np.testing.assert_allclose(h.T @ h, np.eye(2), atol=1e-15)
    image = h @ np.array([1e-300, 1e300])
    assert image[0] == pytest.approx(np.hypot(1e-300, 1e300), rel=1e-15)
    assert abs(image[1]) <= 1e-15 * image[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_scales_give_finite_angles_and_bounds():
    # The pivot, B and C each scaled by its own 2^e, e in [-600, 600], so
    # ratios reach 2^+-1200; scaling a block keeps the pivot's conditioning,
    # so none is refused.
    rng = np.random.default_rng(2028)
    for _ in range(400):
        m = int(rng.integers(4, 12))
        n = int(rng.integers(3, m + 1))
        k = int(rng.integers(1, n))
        r = random_partition(rng, m, n, k).base
        for rows, cols in ((slice(None, k), slice(None, k)), (slice(None, k), slice(k, None)),
                           (slice(k, None), slice(None, k))):
            r[rows, cols] = np.ldexp(r[rows, cols], int(rng.integers(-600, 601)))
        p = mc.BlockPartition(r, k)
        for g in (gv.build_right_rotation(p), gv.build_left_rotation(p)):
            c, s = mc.cos_sin(g.ratio_sigma, g.adj)
            assert np.isfinite(c).all() and np.isfinite(s).all()
        assert np.isfinite([rep.upper for rep in bo.theorem2_bounds(p)]).all()
