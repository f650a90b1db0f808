import json
from functools import cached_property

import numpy as np
import pytest

from blocksvd import cli, mmio
from blocksvd import matcore as mc
from blocksvd import bounds as bo

RNG = np.random.default_rng(4242)

GOLDEN_INV = (np.sqrt(5.0) - 1.0) / 2.0
SIGMA2_CLOSED = 0.5544003745317532  # example1_sigma2(0.6, 0.8)


def random_partition(m, n, k):
    return mc.BlockPartition(RNG.standard_normal((m, n)), k)


def contained(p, *reports):
    """The bounds command's verdict: containment at sigma_1(R)."""
    return bo.containment(reports, np.linalg.norm(p.base, 2)).all_passed


class TestWeylGapBounds:
    def test_zero_d_zero_width(self):
        r = RNG.standard_normal((6, 4))
        p = mc.BlockPartition(r, 2)
        p = mc.BlockPartition(p.zero_d(), 2)
        for rep in bo.weyl_gap_bounds(p, 2):
            assert contained(p, rep)
            assert rep.upper - rep.lower <= 2 * (rep.upper - rep.oracle) + 1e-9 or True
        rep4 = bo.weyl_gap_bounds(p, 2)[0]
        assert rep4.upper - rep4.lower == pytest.approx(0.0, abs=1e-14)

    def test_decoupled_corner(self):
        # symmetric matrix with an isolated 0.5 corner entry: zeroing it
        # moves the smallest singular value by exactly 0.5
        m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.5]])
        p = mc.BlockPartition(m, 2)
        rep = bo.weyl_gap_bounds(p, 2)[0]
        assert contained(p, rep)
        assert rep.oracle == pytest.approx(0.5, abs=1e-12)
        assert rep.upper - rep.oracle <= 0.5 + 1e-12

    @pytest.mark.parametrize("i", [1, 3, 6])
    def test_cross_centre_is_distance_to_r0_truncation(self, i):
        # the centre of Weyl-cross is ||R - R0_i||, R0_i the rank-i truncation
        # of R0 (R0 itself at i = n), against a dense reference
        p = random_partition(8, 6, 2)
        u, s, vt = np.linalg.svd(p.zero_d())
        s_tr = np.zeros((8, 6))
        s_tr[:i, :i] = np.diag(s[:i])
        want = np.linalg.norm(p.base - u @ s_tr @ vt, 2)
        cross = bo.weyl_gap_bounds(p, i)[1]
        assert (cross.upper + cross.lower) / 2 == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_random_suite(self):
        for _ in range(1000):
            p = random_partition(8, 6, 2)
            i = int(RNG.integers(1, 6))
            for rep in bo.weyl_gap_bounds(p, i):
                assert contained(p, rep), rep.to_json()


class TestSmallRankBounds:
    def test_block_diagonal_input(self):
        r = np.zeros((4, 4))
        r[:2, :2] = RNG.standard_normal((2, 2))
        r[2:, 2:] = RNG.standard_normal((2, 2))
        p = mc.BlockPartition(r, 2)
        reports = bo.small_rank_bounds(p, 4)
        assert reports[0].upper == 0.0
        assert reports[0].oracle == pytest.approx(0.0, abs=1e-14)

    def test_all_ones_hand_case(self):
        p = mc.BlockPartition(np.ones((4, 4)), 1)
        reports = bo.small_rank_bounds(p, 2)
        assert reports[0].upper == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert contained(p, reports[0])

    def test_random_suite(self):
        for _ in range(500):
            k = int(RNG.integers(1, 4))
            p = random_partition(10, 8, k)
            for rep in bo.small_rank_bounds(p, 2 * k):
                assert contained(p, rep), rep.to_json()


class TestMuBounds:
    def test_zero_d_exact(self):
        r = RNG.standard_normal((6, 4))
        p = mc.BlockPartition(mc.BlockPartition(r, 2).zero_d(), 2)
        rep = bo.mu_bounds(p, 2)
        assert rep.upper == pytest.approx(0.0, abs=1e-12)
        assert rep.oracle == pytest.approx(0.0, abs=1e-12)

    def test_plane_rotation_hand_case(self):
        c, s = 0.6, 0.8
        r = np.array([[c, -s], [s, c]])
        p = mc.BlockPartition(r, 1)
        rep = bo.mu_bounds(p, 2)
        assert rep.oracle == pytest.approx(1.0 - SIGMA2_CLOSED, abs=1e-12)
        assert contained(p, rep)

    def test_closed_form_matches_svd_oracle(self):
        c, s = 0.6, 0.8
        r0 = np.array([[c, -s], [s, 0.0]])
        oracle = np.linalg.svd(r0, compute_uv=False)[-1]
        assert abs(bo.example1_sigma2(c, s) - oracle) <= 1e-12
        assert bo.example1_sigma2(c, s) == pytest.approx(SIGMA2_CLOSED, abs=1e-15)

    def test_closed_form_random_angles(self):
        for th in RNG.uniform(0.05, np.pi / 2 - 0.05, size=50):
            c, s = np.cos(th), np.sin(th)
            r0 = np.array([[c, -s], [s, 0.0]])
            oracle = np.linalg.svd(r0, compute_uv=False)[-1]
            assert abs(bo.example1_sigma2(c, s) - oracle) <= 1e-12

    def test_random_suite_and_refinement(self):
        for _ in range(1000):
            m = int(RNG.integers(4, 12))
            n = int(RNG.integers(3, m + 1))
            k = int(RNG.integers(1, n))
            p = mc.BlockPartition(RNG.standard_normal((m, n)), k)
            i = int(RNG.integers(1, n + 1))
            rep = bo.mu_bounds(p, i)
            assert rep.oracle <= rep.upper + 1e-10
            # the slice bound never exceeds the plain corner norm
            assert rep.upper <= mc.operator_norm(p.d) + 1e-12


def completion_mu(p, i):
    """The slice bound from full SVD factors, with the m x m U: the
    reference that the thin factors' projection must reproduce."""
    k, d = p.k, p.d

    def mu(r):
        u, _, vt = np.linalg.svd(r)
        return min(np.linalg.norm(d @ vt[i - 1 :, k:].T, 2),
                   np.linalg.norm(u[k:, i - 1 :].T @ d, 2))
    return max(mu(p.base), mu(p.zero_d()))


def completion_kernel_norm(d, kmat):
    """||D restricted to ker K|| from the full SVD's kernel basis of K."""
    _, s, vt = np.linalg.svd(kmat)
    rank = mc.numerical_rank(s)
    return 0.0 if rank >= kmat.shape[1] else np.linalg.norm(d @ vt[rank:].T, 2)


def thin_case(case):
    """(R, k) for one partition shape of TestThinFactorsMatchCompletion."""
    rng = np.random.default_rng(19)
    m, n, k = {"tall": (48, 10, 4), "square": (8, 8, 4), "k_is_n_minus_1": (12, 6, 5),
               "zero_d": (20, 5, 2), "rank_deficient_b_c": (40, 9, 3),
               "rank_deficient_square": (6, 6, 3)}[case]
    r = rng.standard_normal((m, n))
    if case == "zero_d":
        r[k:, k:] = 0.0
    if case.startswith("rank_deficient"):   # B and C of rank one
        r[:k, k:] = np.outer(rng.standard_normal(k), rng.standard_normal(n - k))
        r[k:, :k] = np.outer(rng.standard_normal(m - k), rng.standard_normal(k))
    return r, k


def projection_mu(p, i):
    """The basis-free slice bound from full SVD factors: [0; D] and [0 D]
    with the first min(i - 1, numerical rank) singular directions of each
    of R and R0 projected out."""
    k, d = p.k, p.d

    def mu(r):
        u, s, vt = np.linalg.svd(r)
        j = min(i - 1, mc.numerical_rank(s))
        left, right = np.zeros((p.m, p.n - k)), np.zeros((p.m - k, p.n))
        left[k:], right[:, k:] = d, d
        return min(np.linalg.norm(left - u[:, :j] @ (u[:, :j].T @ left), 2),
                   np.linalg.norm(right - (right @ vt[:j].T) @ vt[:j], 2))
    return max(mu(p.base), mu(p.zero_d()))


class TestThinFactorsMatchCompletion:
    """The mu slices and the kernel norms are taken by projection from thin
    factors. Up to i = rank + 1, the smaller rank of R and R0, the slices
    agree with the completion formula (full U and V) within 1e-13
    max(1, ||D||); past it the completion reads LAPACK's arbitrary null-space
    vectors, and mu_bar is the basis-free projection, never below the
    completion's value. The kernel norms agree with the full kernel basis."""

    @pytest.mark.parametrize("case", ["tall", "square", "k_is_n_minus_1", "zero_d",
                                      "rank_deficient_b_c", "rank_deficient_square"])
    def test_same_as_completion(self, case):
        p = mc.BlockPartition(*thin_case(case))
        tol = 1e-13 * max(1.0, np.linalg.norm(p.d, 2))
        rank = min(mc.numerical_rank(np.linalg.svd(r, compute_uv=False))
                   for r in (p.base, p.zero_d()))
        for i in range(1, p.n + 1):
            got = bo.mu_bounds(p, i).upper
            if i <= rank + 1:
                assert abs(got - completion_mu(p, i)) <= tol, i
            else:
                assert abs(got - projection_mu(p, i)) <= tol, i
                assert got >= completion_mu(p, i) - tol, i
        for d, kmat in ((p.d, p.b), (p.d.T, p.c.T)):
            got = bo.kernel_restricted_norm(d, kmat)
            assert abs(got - completion_kernel_norm(d, kmat)) <= tol
            if case.startswith("rank_deficient"):   # the projecting path ran
                assert got > 0.0


def zero_column_case():
    """(R, k): a 12 x 7 R whose last column is zero, split at k = 2."""
    r = np.random.default_rng(3).standard_normal((12, 7))
    r[:, -1] = 0.0
    return r, 2


class TestMuBasisFree:
    """Reordering the rows and the columns past k changes neither sigma(R),
    sigma(R0) nor the oracle, so it must not change mu_bar either, also
    where the factors' trailing vectors span a null space."""

    @pytest.mark.parametrize("case", ["r0_past_rank", "zero_column"])
    def test_reordering_past_k_keeps_mu(self, case):
        r, k = thin_case("tall") if case == "r0_past_rank" else zero_column_case()
        m, n = r.shape
        rng = np.random.default_rng(5)
        tol = 1e-13 * np.linalg.norm(r, 2)
        want = [bo.mu_bounds(mc.BlockPartition(r, k), i).upper for i in range(1, n + 1)]
        for _ in range(5):
            rows = np.concatenate([np.arange(k), k + rng.permutation(m - k)])
            cols = np.concatenate([np.arange(k), k + rng.permutation(n - k)])
            p = mc.BlockPartition(r[np.ix_(rows, cols)], k)
            for i in range(1, n + 1):
                assert abs(bo.mu_bounds(p, i).upper - want[i - 1]) <= tol, i


class DenseR0(bo.SpectralPartition):
    """The reference: R0's thin factors from an m x n SVD of R0 itself."""

    @cached_property
    def svd_r0(self):
        return np.linalg.svd(self.zero_d(), full_matrices=False)


class TestR0FromCore:
    def test_tall_factors_and_reports_match_dense_r0(self):
        rng = np.random.default_rng(600)
        r = rng.standard_normal((600, 40)) + 3.0 * np.eye(600, 40)
        k = 5
        p, ref = bo.SpectralPartition(r, k), DenseR0(r, k)
        u, s, vt = p.svd_r0
        rank = s.size
        assert rank <= 2 * k and u.shape == (600, rank) and vt.shape == (rank, 40)
        np.testing.assert_allclose(u.T @ u, np.eye(rank), atol=1e-13)
        np.testing.assert_allclose(vt @ vt.T, np.eye(rank), atol=1e-13)
        scale = float(p.sigma_r[0])
        np.testing.assert_allclose((u * s) @ vt, p.zero_d(), atol=1e-13 * scale)

        def families(q, i):
            return (bo.weyl_gap_bounds(q, i) + bo.small_rank_bounds(q, i)
                    + [bo.mu_bounds(q, i)] + bo.theorem2_bounds(q))
        for i in range(1, 2 * k + 2):
            for got, want in zip(families(p, i), families(ref, i), strict=True):
                assert got.formula == want.formula
                for field in ("lower", "upper", "oracle"):
                    assert abs(getattr(got, field) - getattr(want, field)) <= 1e-13 * scale, \
                        (i, got.formula, field)


class TestBlockFactorsOnce:
    """SpectralPartition factors B and C once: their spectra and the kernel
    norms of Theorem 2 read the same thin factors."""

    def test_each_block_factored_once(self, monkeypatch):
        # m - k, n - k and k all differ, so each block has its own shape;
        # only SVDs of R's own blocks are counted, not of A^{-1}B or cores
        p = bo.SpectralPartition(RNG.standard_normal((12, 8)) + 4.0 * np.eye(12, 8), 3)
        shapes = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            if np.shares_memory(a, p.base):
                shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for family in (bo.weyl_gap_bounds, bo.small_rank_bounds, bo.mu_bounds):
            family(p, 3)
        bo.theorem2_bounds(p)
        monkeypatch.undo()
        assert sorted(shapes) == sorted([(12, 8), (3, 3), p.b.shape, p.c.shape])

    def test_kernel_norms_match_the_public_function(self):
        p = bo.SpectralPartition(RNG.standard_normal((12, 8)), 3)
        scale = mc.operator_norm(p.d)
        got_b = bo._kernel_norm(p.d, p.sigma_b, p.svd_b[2])
        got_c = bo._kernel_norm(p.d.T, p.sigma_c, p.svd_c[0].T)
        assert got_b > 0 and got_c > 0
        assert abs(got_b - bo.kernel_restricted_norm(p.d, p.b)) <= 1e-13 * scale
        assert abs(got_c - bo.kernel_restricted_norm(p.d.T, p.c.T)) <= 1e-13 * scale


class TestKernelRestrictedNorm:
    def test_full_rank_zero(self):
        k = RNG.standard_normal((4, 3))
        assert bo.kernel_restricted_norm(RNG.standard_normal((2, 3)), k) == 0.0

    def test_zero_matrix_gives_full_norm(self):
        d = RNG.standard_normal((3, 4))
        got = bo.kernel_restricted_norm(d, np.zeros((2, 4)))
        assert got == pytest.approx(mc.operator_norm(d), abs=1e-12)

    def test_explicit_kernel_basis(self):
        k = np.array([[1.0, 0.0], [0.0, 0.0]])
        d = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = bo.kernel_restricted_norm(d, k)
        assert got == pytest.approx(2.0 * np.sqrt(5.0), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(mc.MatrixError):
            bo.kernel_restricted_norm(np.ones((2, 3)), np.ones((2, 2)))


class TestTheorem2Bounds:
    def test_scalar_hand_case(self):
        p = mc.BlockPartition(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
        reports = bo.theorem2_bounds(p)
        by_name = {rep.formula: rep for rep in reports}
        rep = by_name["Thm2-R0-min"]
        assert rep.upper == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert rep.oracle == pytest.approx(GOLDEN_INV, abs=1e-12)
        assert contained(p, rep)

    def test_zero_b_branch(self):
        r = RNG.standard_normal((4, 4))
        r[:2, 2:] = 0.0  # B = 0
        p = mc.BlockPartition(r, 2)
        reports = bo.theorem2_bounds(p)
        rep = reports[0]
        assert rep.upper == pytest.approx(0.0, abs=1e-14)
        assert rep.oracle <= rep.upper + 1e-10

    def test_min_form_tighter_than_closed_form(self):
        for _ in range(200):
            p = random_partition(8, 6, 2)
            reports = bo.theorem2_bounds(p)
            by_name = {rep.formula: rep for rep in reports}
            assert by_name["Thm2-R0-min"].upper <= by_name["Thm2-R0-closed"].upper + 1e-12

    def test_square_symmetric_form(self):
        for _ in range(200):
            k = int(RNG.integers(1, 4))
            p = random_partition(2 * k, 2 * k, k)
            reports = bo.theorem2_bounds(p)
            by_name = {rep.formula: rep for rep in reports}
            assert "Cor5" in by_name
            assert contained(p, by_name["Cor5"]), by_name["Cor5"].to_json()

    def test_random_suite_containment(self):
        for _ in range(1000):
            m = int(RNG.integers(4, 12))
            n = int(RNG.integers(3, m + 1))
            k = int(RNG.integers(1, n))
            p = mc.BlockPartition(RNG.standard_normal((m, n)), k)
            try:
                reports = bo.theorem2_bounds(p)
            except mc.MatrixError:
                continue
            for rep in reports:
                assert contained(p, rep), rep.to_json()

    def test_singular_pivot_rejected(self):
        r = np.ones((4, 4))
        with pytest.raises(mc.MatrixError):
            bo.theorem2_bounds(mc.BlockPartition(r, 2))


def near_singular_pivot(ratio):
    """12 x 8 matrix whose 3 x 3 pivot block has sigma_min / sigma_1 = ratio."""
    rng = np.random.default_rng(7)
    r = rng.standard_normal((12, 8))
    q1 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    q2 = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    r[:3, :3] = (q1 * [10.0, 4.0, 10.0 * ratio]) @ q2.T
    return r


class TestOnePivotFloor:
    """theorem2_bounds refuses a pivot by the rotations' own test,
    matcore.check_pivot's sigma_min(A) <= 1e-13 * sigma_1(A), and by no
    other."""

    @pytest.mark.parametrize("ratio", [5e-13, 2e-13])
    def test_pivot_above_floor_analysed(self, tmp_path, ratio):
        r = near_singular_pivot(ratio)
        sa = np.linalg.svd(r[:3, :3], compute_uv=False)
        assert sa[-1] / sa[0] == pytest.approx(ratio, rel=1e-2)
        p = mc.BlockPartition(r, 3)
        reports = bo.theorem2_bounds(p)
        assert reports and contained(p, *reports)
        path, out = tmp_path / "r.mtx", tmp_path / "rep.json"
        mmio.write_matrix(path, r)
        assert cli.main(["bounds", str(path), "--k", "3", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["all_contain"]

    def test_pivot_below_floor_refused(self, tmp_path, capsys):
        r = near_singular_pivot(1e-14)
        with pytest.raises(mc.SingularBlockError):
            bo.theorem2_bounds(mc.BlockPartition(r, 3))
        path = tmp_path / "r.mtx"
        mmio.write_matrix(path, r)
        assert cli.main(["bounds", str(path), "--k", "3"]) == 2
        bounds_err = capsys.readouterr().err
        assert bounds_err.startswith("error: pivot block is numerically singular (sigma_min=")
        assert cli.main(["blockdiag", str(path), "--k", "3"]) == 2
        assert capsys.readouterr().err == bounds_err


@pytest.mark.parametrize("field", ["lower", "upper", "oracle"])
def test_nan_bound_fails_containment(field):
    # min(x, nan) is x in Python, which let a NaN upper bound pass
    values = dict(lower=0.0, upper=2.0, oracle=1.0)
    values[field] = np.nan
    rep = bo.BoundReport("hand-built", 1, 1, **values)
    assert not bo.containment([rep], 1.0).all_passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_theorem2_ratio_beyond_float_max():
    # A^{-1}B is 1e600, past float max; both branches must survive it, or
    # min() keeps the other one, ||B|| = 1e300, against an oracle of 1.118
    p = mc.BlockPartition(np.array([[1e-300, 1e300], [1.0, 1.0], [0.5, 2.0]]), 1)
    reports = bo.theorem2_bounds(p)
    assert all(np.isfinite([r.upper for r in reports]))
    upper = {r.formula: r.upper for r in reports}
    assert upper["Thm2-R0-min"] < 2.0 and upper["Thm2-R"] < 2.0
    assert contained(p, *reports)


def test_report_json_round():
    p = random_partition(6, 4, 2)
    rep = bo.mu_bounds(p, 2)
    d = rep.to_json()
    assert set(d) == {"formula", "i", "k", "lower", "upper", "oracle", "slack"}
    assert d["slack"] == rep.slack


class TestBoundsCommandSpectra:
    # (m, n, k, i): a tall case with the rank-cap report (i >= 2k), a
    # square n = m = 2k case with the Cor5 report, where R0's core is m x n
    # too, and a tall m > 7n case with the rank-cap report
    @pytest.mark.parametrize("m,n,k,i", [(30, 12, 4, 8), (8, 8, 4, 2), (60, 8, 3, 6)])
    def test_each_spectrum_once_and_reports_unchanged(self, tmp_path, monkeypatch, m, n, k, i):
        rng = np.random.default_rng(m * n + k)
        path, out = tmp_path / "r.mtx", tmp_path / "rep.json"
        mmio.write_matrix(path, rng.standard_normal((m, n)) + 3.0 * np.eye(m, n))
        core = (k + min(m - k, k), k + min(n - k, k))
        assert max(core) <= 2 * k
        calls, full = [], []
        real_svd = np.linalg.svd

        def counting_svd(a, full_matrices=True, compute_uv=True, **kwargs):
            a = np.asarray(a)
            if compute_uv and full_matrices:
                full.append(a.shape)
            if a.shape in ((m, n), core):  # R or the core, told apart by their D block
                calls.append((a.shape, compute_uv, bool(a[k:, k:].any())))
            return real_svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        code = cli.main(["bounds", str(path), "--k", str(k), "--i", str(i), "-o", str(out)])
        monkeypatch.undo()
        assert code == 0
        # one SVD with vectors of R and one of R0's core, no m x n SVD of
        # R0 and no values-only SVD of either; no SVD that returns vectors
        # forms a full orthogonal factor
        assert sorted(calls) == sorted([((m, n), True, True), (core, True, False)]), calls
        assert full == [], full

        rep = json.loads(out.read_text())
        p = mc.BlockPartition(mmio.read_matrix(path), k)
        mu_rep = bo.mu_bounds(p, i)
        alone = (bo.weyl_gap_bounds(p, i) + bo.small_rank_bounds(p, i) + [mu_rep]
                 + bo.theorem2_bounds(p))
        assert rep["reports"] == [json.loads(json.dumps(r.to_json())) for r in alone]
        assert rep["mu_bar"] == mu_rep.upper
        assert {r["formula"] for r in rep["reports"]} >= ({"rank-cap"} if i >= 2 * k else {"Cor5"})
