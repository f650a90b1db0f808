import json

import numpy as np
import pytest

from blocksvd import cli, mmio
from blocksvd import matcore as mc
from blocksvd import bounds as bo
from blocksvd import givens as gv

RNG = np.random.default_rng(4242)

GOLDEN_INV = (np.sqrt(5.0) - 1.0) / 2.0
SIGMA2_CLOSED = 0.5544003745317532  # example1_sigma2(0.6, 0.8)


def random_partition(m, n, k):
    return mc.BlockPartition(RNG.standard_normal((m, n)), k)


class TestWeylGapBounds:
    def test_zero_d_zero_width(self):
        r = RNG.standard_normal((6, 4))
        p = mc.BlockPartition(r, 2)
        p = mc.BlockPartition(p.zero_d(), 2)
        for rep in bo.weyl_gap_bounds(p, 2):
            assert rep.contains_oracle
            assert rep.upper - rep.lower <= 2 * (rep.upper - rep.oracle) + 1e-9 or True
        rep4 = bo.weyl_gap_bounds(p, 2)[0]
        assert rep4.upper - rep4.lower == pytest.approx(0.0, abs=1e-14)

    def test_decoupled_corner(self):
        # symmetric matrix with an isolated 0.5 corner entry: zeroing it
        # moves the smallest singular value by exactly 0.5
        m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.5]])
        p = mc.BlockPartition(m, 2)
        rep = bo.weyl_gap_bounds(p, 2)[0]
        assert rep.contains_oracle
        assert rep.oracle == pytest.approx(0.5, abs=1e-12)
        assert rep.upper - rep.oracle <= 0.5 + 1e-12

    @pytest.mark.parametrize("i", [1, 3, 6, 8])
    def test_cross_centre_is_distance_to_r0_truncation(self, i):
        # the centre of Weyl-cross is ||R - R0_i||, R0_i the rank-i truncation
        # of R0 (R0 itself once i >= n), against a dense reference
        p = random_partition(8, 6, 2)
        u, s, vt = np.linalg.svd(p.zero_d())
        s_tr = np.zeros((8, 6))
        s_tr[: min(i, 6), : min(i, 6)] = np.diag(s[:i])
        want = np.linalg.norm(p.base - u @ s_tr @ vt, 2)
        cross = bo.weyl_gap_bounds(p, i)[1]
        assert (cross.upper + cross.lower) / 2 == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_random_suite(self):
        for _ in range(1000):
            p = random_partition(8, 6, 2)
            i = int(RNG.integers(1, 6))
            for rep in bo.weyl_gap_bounds(p, i):
                assert rep.contains_oracle, rep.to_json()


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
        assert reports[0].contains_oracle

    def test_random_suite(self):
        for _ in range(500):
            k = int(RNG.integers(1, 4))
            p = random_partition(10, 8, k)
            for rep in bo.small_rank_bounds(p, 2 * k):
                assert rep.contains_oracle, rep.to_json()


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
        assert rep.contains_oracle

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
        assert rep.contains_oracle

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
            assert by_name["Cor5"].contains_oracle, by_name["Cor5"].to_json()

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
                assert rep.contains_oracle, rep.to_json()

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
    sigma_min(A) <= 1e-13 * max(sigma_1(A), 1), and by no other."""

    @pytest.mark.parametrize("ratio", [5e-13, 2e-13])
    def test_pivot_above_floor_analysed(self, tmp_path, ratio):
        r = near_singular_pivot(ratio)
        sa = np.linalg.svd(r[:3, :3], compute_uv=False)
        assert sa[-1] / sa[0] == pytest.approx(ratio, rel=1e-2)
        reports = bo.theorem2_bounds(mc.BlockPartition(r, 3))
        assert reports and all(rep.contains_oracle for rep in reports)
        path, out = tmp_path / "r.mtx", tmp_path / "rep.json"
        mmio.write_matrix(path, r)
        assert cli.main(["bounds", str(path), "--k", "3", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["all_contain"]

    def test_pivot_below_floor_refused(self, tmp_path, capsys):
        r = near_singular_pivot(1e-14)
        with pytest.raises(gv.SingularBlockError):
            bo.theorem2_bounds(mc.BlockPartition(r, 3))
        path = tmp_path / "r.mtx"
        mmio.write_matrix(path, r)
        assert cli.main(["bounds", str(path), "--k", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: pivot block is numerically singular")
        assert cli.main(["blockdiag", str(path), "--k", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: pivot block singular mid-run")


def test_report_json_round():
    p = random_partition(6, 4, 2)
    rep = bo.mu_bounds(p, 2)
    d = rep.to_json()
    assert set(d) == {"formula", "i", "k", "lower", "upper", "oracle", "slack"}
    assert d["slack"] == rep.slack


class TestBoundsCommandSpectra:
    # (m, n, k, i): a tall case with the rank-cap report (i >= 2k), and a
    # square n = m = 2k case with the Cor5 report
    @pytest.mark.parametrize("m,n,k,i", [(30, 12, 4, 8), (8, 8, 4, 2)])
    def test_each_spectrum_once_and_reports_unchanged(self, tmp_path, monkeypatch, m, n, k, i):
        rng = np.random.default_rng(m * n + k)
        path, out = tmp_path / "r.mtx", tmp_path / "rep.json"
        mmio.write_matrix(path, rng.standard_normal((m, n)) + 3.0 * np.eye(m, n))
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            a = np.asarray(a)
            if a.shape == (m, n):  # R or R0, told apart by their D block
                calls.append((kwargs.get("compute_uv", True), bool(a[k:, k:].any())))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        code = cli.main(["bounds", str(path), "--k", str(k), "--i", str(i), "-o", str(out)])
        monkeypatch.undo()
        assert code == 0
        # one full SVD of R, one of R0, and no values-only SVD of either
        assert sorted(calls) == [(True, False), (True, True)], calls

        rep = json.loads(out.read_text())
        p = mc.BlockPartition(mmio.read_matrix(path), k)
        mu_rep = bo.mu_bounds(p, i)
        alone = (bo.weyl_gap_bounds(p, i) + bo.small_rank_bounds(p, i) + [mu_rep]
                 + bo.theorem2_bounds(p))
        assert rep["reports"] == [json.loads(json.dumps(r.to_json())) for r in alone]
        assert rep["mu_bar"] == mu_rep.upper
        assert {r["formula"] for r in rep["reports"]} >= ({"rank-cap"} if i >= 2 * k else {"Cor5"})
