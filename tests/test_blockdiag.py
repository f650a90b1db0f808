import dataclasses
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from blocksvd import matcore as mc
from blocksvd import blockdiag as bd

RNG = np.random.default_rng(20260826)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def random_partition(m, n, k, scale_left=1.0):
    r = RNG.standard_normal((m, n))
    r[:, :k] *= scale_left
    return mc.BlockPartition(r, k)


def square_gap_partition(k):
    # square instances one column wider than the pivot block, with a
    # dominant pivot; the one-dimensional trailing block keeps every
    # contraction-factor diagnostic exact
    n = k + 1
    r = RNG.standard_normal((n, n))
    r[:, :k] *= 10.0
    return mc.BlockPartition(r, k)


class TestBlockDiagonalize:
    def test_already_block_diagonal(self):
        p = mc.BlockPartition(np.diag([3.0, 1.0]), 1)
        res = bd.block_diagonalize(p)
        assert res.converged
        assert res.iterations == 0

    def test_golden_ratio_hand_case(self):
        p = mc.BlockPartition(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
        res = bd.block_diagonalize(p)
        assert res.converged
        assert abs(res.a_inf[0, 0]) == pytest.approx(GOLDEN, abs=1e-12)
        assert abs(res.d_inf[0, 0]) == pytest.approx(GOLDEN - 1.0, abs=1e-12)

    def test_random_spectrum_conserved(self):
        for _ in range(20):
            p = random_partition(20, 12, 4, scale_left=4.0)
            res = bd.block_diagonalize(p)
            if not res.converged:
                continue
            norm = mc.operator_norm(p.base)
            got = np.sort(np.concatenate([
                np.linalg.svd(res.a_inf, compute_uv=False),
                np.linalg.svd(res.d_inf, compute_uv=False),
            ]))[::-1]
            want = np.linalg.svd(p.base, compute_uv=False)
            assert np.max(np.abs(got - want)) <= 1e-9 * norm

    def test_off_blocks_below_tolerance(self):
        p = random_partition(20, 12, 4, scale_left=4.0)
        res = bd.block_diagonalize(p)
        fp = mc.BlockPartition(res.final, p.k)
        norm = mc.operator_norm(p.base)
        assert mc.operator_norm(fp.b) <= 1e-12 * norm or mc.operator_norm(fp.c) <= 1e-12 * norm
        assert max(mc.operator_norm(fp.b), mc.operator_norm(fp.c)) <= 1e-11 * norm

    def test_trace_alternation(self):
        p = random_partition(12, 8, 3, scale_left=4.0)
        res = bd.block_diagonalize(p)
        norm = mc.operator_norm(p.base)
        for rec in res.trace.records[1:]:
            assert min(rec.norm_b, rec.norm_c) <= 1e-10 * norm

    def test_singular_pivot_rejected(self):
        r = np.zeros((4, 3))
        r[:, 1:] = RNG.standard_normal((4, 2))
        with pytest.raises(mc.SingularBlockError):
            bd.block_diagonalize(mc.BlockPartition(r, 1))

    def test_singular_pivot_error_is_a_matrix_error(self):
        r = np.zeros((4, 3))
        r[:, 1:] = RNG.standard_normal((4, 2))
        with pytest.raises(mc.MatrixError) as err:
            bd.block_diagonalize(mc.BlockPartition(r, 1))
        assert type(err.value) is mc.SingularBlockError
        assert str(err.value) == "pivot block is numerically singular (sigma_min=0.000e+00)"
        assert err.value.sigma_min == 0.0
        # C = 0 makes the left step an identity; the right step meets A = 0
        assert [rec.t for rec in err.value.trace.records] == [0, 1]

    def test_trace_records_partition_width(self):
        p = random_partition(12, 8, 3, scale_left=4.0)
        trace = bd.block_diagonalize(p).trace
        assert (trace.k, trace.n) == (3, 8)

    def test_max_iter_reports_nonconverged(self, monkeypatch):
        monkeypatch.setattr(bd, "MAX_SWEEPS", 1)
        res = bd.block_diagonalize(random_partition(12, 8, 3))
        assert not res.converged
        assert res.iterations == 1
        assert len(res.trace.records) == 2

    def test_slow_contraction_converges_within_default_cap(self):
        # An 80 x 80 planted matrix at 30% density, k = 40, with a nonzero
        # diagonal in the pivot block; its off-blocks shrink by about 0.91 a
        # sweep, so it needs more than 200 sweeps.
        m = n = 80
        k = 40
        rng = np.random.default_rng([207, 0, 37, 3])
        nnz = int(rng.binomial(m * n, 0.30))
        rows, cols = np.divmod(rng.choice(m * n, size=nnz, replace=False), n)
        vals = np.abs(rng.standard_normal(nnz))
        vals[cols < k] *= 10.0
        rows = rng.permutation(m)[rows]
        cols = rng.permutation(n)[cols]
        diag = np.setdiff1d(np.arange(k) * (n + 1), rows * n + cols)
        rows = np.concatenate([rows, diag // n])
        cols = np.concatenate([cols, diag % n])
        vals = np.concatenate([vals, np.abs(rng.standard_normal(diag.size))])
        r = np.zeros((m, n))
        r[rows, cols] = vals

        res = bd.block_diagonalize(mc.BlockPartition(r, k))
        assert res.converged
        assert 200 < res.iterations < bd.MAX_SWEEPS
        assert bd.check_lemma11(res.trace).all_passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("r", [[[1.0, 1e160], [1.0, 1.0], [0.5, 2.0]],
                               [[1.0, 1.0], [1e160, 1.0], [0.5, 2.0]],
                               [[1e-300, 1e300], [1.0, 1.0], [0.5, 2.0]],
                               [[1e-300, 1.0], [1e300, 1.0], [0.5, 2.0]]],
                         ids=["B", "C", "B-past-max", "C-past-max"])
def test_huge_ratio_sweeps_keep_the_spectrum(r):
    # a ratio of 1e160, above sqrt(float max), in B or in C at k = 1; and
    # one of 1e600, above float max
    res = bd.block_diagonalize(mc.BlockPartition(np.array(r), 1))
    assert res.converged
    assert res.spectrum_deviation() <= 1e-12 * res.spectrum[0]
    assert bd.check_lemma11(res.trace).all_passed


class TestAppendState:
    def test_svd_only_for_spectra(self, monkeypatch):
        # sigma(A_t) and sigma([A_t; C_t]) are SVDs; every norm comes from
        # operator_norm and none from np.linalg.norm(., 2)
        real_svd, real_norm = np.linalg.svd, np.linalg.norm
        calls = []

        def svd(x, *args, **kwargs):
            calls.append(x.shape)
            return real_svd(x, *args, **kwargs)

        def norm(x, ord=None, *args, **kwargs):
            assert ord != 2, "trace norms come from operator_norm"
            return real_norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "norm", norm)
        p = random_partition(30, 12, 4, scale_left=5.0)
        trace = bd.SweepTrace(k=4, n=p.n)
        trace.append_state(0, p)
        assert calls == [(4, 4), (30, 4)]
        calls.clear()
        zero_c = p.base.copy()
        zero_c[4:, :4] = 0.0
        trace.append_state(1, mc.BlockPartition(zero_c, 4))
        assert calls == [(4, 4)]
        monkeypatch.undo()
        for rec, q in zip(trace.records, (p, mc.BlockPartition(zero_c, 4))):
            for name, block in (("norm_b", q.b), ("norm_c", q.c), ("norm_d", q.d),
                                ("norm_right_band", q.right_band())):
                want = np.linalg.norm(block, 2)
                assert abs(getattr(rec, name) - want) <= 1e-13 * want, name


class TestSweepRecordJson:
    def test_same_dict_as_field_copy(self):
        # the JSON of a record: every field as stored, spectra as lists
        res = bd.block_diagonalize(random_partition(20, 8, 3, scale_left=10.0))
        for rec in res.trace.records:
            want = dataclasses.asdict(rec)
            want["sigma_a"] = [float(v) for v in rec.sigma_a]
            want["sigma_left_band"] = [float(v) for v in rec.sigma_left_band]
            got = rec.to_json()
            assert list(got) == list(want)
            assert got == want
            assert all(type(v) is float for v in got["sigma_a"] + got["sigma_left_band"])


class TestLemma11Diagnostics:
    def test_block_diagonal_input_vacuous(self):
        p = mc.BlockPartition(np.diag([3.0, 1.0]), 1)
        res = bd.block_diagonalize(p)
        rep = bd.check_lemma11(res.trace)
        assert rep.all_passed

    def test_scalar_hand_case_equality(self):
        # one right rotation on [[1,2],[0,1]] leaves ||D|| = 1/sqrt(5),
        # exactly the contraction bound (1+4)^(-1/2) * 1
        p = mc.BlockPartition(np.array([[1.0, 2.0], [0.0, 1.0]]), 1)
        res = bd.block_diagonalize(p)
        rec = res.trace.records[2]
        assert rec.norm_d == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-14)
        rep = bd.check_lemma11(res.trace)
        assert rep.all_passed

    def test_square_suite_zero_failures(self):
        for _ in range(100):
            k = int(RNG.integers(1, 6))
            res = bd.block_diagonalize(square_gap_partition(k))
            rep = bd.check_lemma11(res.trace)
            assert rep.all_passed, [c for c in rep.checks if not c.passed]

    def test_monotone_pivot_spectrum(self):
        for _ in range(20):
            p = random_partition(20, 12, 4, scale_left=4.0)
            res = bd.block_diagonalize(p)
            recs = res.trace.records
            for prev, cur in zip(recs, recs[1:]):
                assert np.all(cur.sigma_a >= prev.sigma_a - 1e-10)

    @staticmethod
    def _growing_d_trace(n):
        # k = 1: a left step, then a right step after which ||D_t|| grows
        # from 1 to 2, past its contraction bound 1 / sqrt(1 + 1/4)
        def rec(t, norm_b, norm_c, norm_d):
            return bd.SweepRecord(t=t, sigma_a=np.array([2.0]), norm_b=norm_b,
                                  norm_c=norm_c, norm_d=norm_d,
                                  sigma_left_band=np.array([2.0]), norm_right_band=norm_d,
                                  degenerate=False)
        return bd.SweepTrace(k=1, n=n, records=[rec(0, 1.0, 0.0, 1.0), rec(1, 1.0, 0.0, 1.0),
                                                rec(2, 0.0, 0.1, 2.0)])

    def test_contraction_asserted_only_for_one_trailing_column(self):
        want = 1.0 / np.sqrt(1.25) - 2.0
        (one,) = [c for c in bd.check_lemma11(self._growing_d_trace(2)).checks
                  if c.name == "iv_contraction"]
        (wide,) = [c for c in bd.check_lemma11(self._growing_d_trace(3)).checks
                   if c.name == "iv_contraction"]
        assert one.margin == wide.margin == pytest.approx(want, abs=1e-15)
        assert not one.passed
        assert wide.passed

    def test_verdicts_do_not_depend_on_units(self):
        # Scaling by a power of two is exact and scales every margin with R,
        # so the slack must scale too: an absolute one fails (i) on 2^20 R.
        rng = np.random.default_rng(0)
        r = np.abs(rng.standard_normal((40, 20))) * (rng.random((40, 20)) < 0.3)
        r[:, :6] *= 10.0
        r[:6, :6] += np.eye(6)

        def verdicts(x):
            res = bd.block_diagonalize(mc.BlockPartition(x, 6))
            return [(c.name, c.passed) for c in bd.check_lemma11(res.trace).checks]

        want = verdicts(r)
        assert all(passed for _, passed in want)
        for e in (14, 20, -20):
            assert verdicts(r * 2.0**e) == want, e

    def test_readme_case_passes(self):
        # the README recipe: 200 x 80 at 30% density, k = 20, whose sweeps
        # contract less than (iv)'s one-column factor
        rng = np.random.default_rng(0)
        r = np.abs(rng.standard_normal((200, 80))) * (rng.random((200, 80)) < 0.3)
        r[:, :20] *= 10.0
        res = bd.block_diagonalize(mc.BlockPartition(r, 20))
        assert res.converged
        rep = bd.check_lemma11(res.trace)
        assert rep.all_passed, [c for c in rep.checks if not c.passed]

    def test_report_margins_finite(self):
        res = bd.block_diagonalize(square_gap_partition(3))
        rep = bd.check_lemma11(res.trace)
        assert all(np.isfinite(c.margin) for c in rep.checks)


class TestTopSingularValues:
    def test_diagonal_certified(self):
        p = mc.BlockPartition(np.diag([5.0, 1.0]), 1)
        values, cert, _ = bd.top_singular_values(p, 1)
        assert cert.certified
        assert values[0] == pytest.approx(5.0, abs=1e-12)

    def test_golden_ratio_certified(self):
        p = mc.BlockPartition(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
        values, cert, _ = bd.top_singular_values(p, 1)
        assert cert.certified
        assert cert.sigma_i_left == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert cert.norm_right == pytest.approx(1.0, abs=1e-12)
        assert values[0] == pytest.approx(GOLDEN, abs=1e-10)

    def test_tall_scaled_matches_oracle(self):
        for _ in range(10):
            p = random_partition(40, 12, 4, scale_left=10.0)
            values, cert, _ = bd.top_singular_values(p, 4)
            assert cert.certified
            oracle = np.linalg.svd(p.base, compute_uv=False)[:4]
            norm = mc.operator_norm(p.base)
            assert np.max(np.abs(values - oracle)) <= 1e-9 * norm

    def test_zero_d_certificate_reads_right_band(self):
        r = RNG.standard_normal((30, 12))
        r[5:, 5:] = 0.0
        _, cert, _ = bd.top_singular_values(mc.BlockPartition(r, 5), 3)
        assert cert.norm_right == pytest.approx(mc.operator_norm(r[:, 5:]), rel=1e-14)

    def test_certificate_is_the_first_record(self, monkeypatch):
        # Both sides come from the sweeps' t = 0 record, bit for bit: no
        # spectrum or norm beyond those of a bare block_diagonalize.
        p = random_partition(30, 12, 4, scale_left=10.0)
        calls = []
        real_svd, real_norm = np.linalg.svd, bd.operator_norm
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **kw: calls.append("svd") or real_svd(*a, **kw))
        monkeypatch.setattr(bd, "operator_norm", lambda a: calls.append("norm") or real_norm(a))
        bd.block_diagonalize(p)
        bare = sorted(calls)
        calls.clear()
        _, cert, res = bd.top_singular_values(p, 3)
        assert sorted(calls) == bare
        rec = res.trace.records[0]
        assert (cert.sigma_i_left, cert.norm_right) == (rec.sigma_left_band[2], rec.norm_right_band)

    @pytest.mark.parametrize("i", [0, 5])
    def test_index_outside_split_refused_before_sweeping(self, monkeypatch, i):
        monkeypatch.setattr(bd, "block_diagonalize", None)
        with pytest.raises(mc.MatrixError, match=f"need 1 <= i <= k, got i={i}, k=4"):
            bd.top_singular_values(random_partition(12, 8, 4), i)

    def test_no_gap_uncertified(self):
        r = RNG.standard_normal((8, 6))
        r[:, :2] *= 1e-3
        _, cert, _ = bd.top_singular_values(mc.BlockPartition(r, 2), 2)
        assert not cert.certified


def _pythagorean_ties():
    """R = [[a, b, 1], [-b, a, 0], 0, 0] with a, b the doubles nearest p/c
    and q/c, for every Pythagorean triple (p, q, c) with legs below 60."""
    for p in range(1, 60):
        for q in range(1, 60):
            c = isqrt(p * p + q * q)
            if c * c == p * p + q * q:
                a, b = p / c, q / c
                yield (p, q, c), np.array([[a, b, 1.0], [-b, a, 0.0], [0, 0, 0], [0, 0, 0]])


class TestGapCertificate:
    def test_exact_near_ties_not_certified(self):
        # The left band's two columns are orthogonal, so sigma_2([A; C])^2
        # is exactly a^2 + b^2, which the rounding of p/c and q/c leaves
        # just above or below ||B|| = 1.
        below = 0
        for triple, r in _pythagorean_ties():
            a, b = Fraction(r[0, 0]), Fraction(r[0, 1])
            if a * a + b * b >= 1:
                continue
            below += 1
            _, cert, _ = bd.top_singular_values(mc.BlockPartition(r, 2), 2)
            assert not cert.certified, triple
        assert below == 14

    def test_zero_right_side_certified(self):
        # R is block diagonal already, so no rotation meets the singular A
        r = np.zeros((3, 3))
        r[0, 0] = 1.0
        _, cert, _ = bd.top_singular_values(mc.BlockPartition(r, 2), 2)
        assert (cert.sigma_i_left, cert.norm_right, cert.certified) == (0.0, 0.0, True)


def margins(rep):
    return {c.name: c.margin for c in rep.checks}


class TestKyFanColumnBounds:
    def test_orthogonal_columns_equality(self):
        q = np.linalg.qr(RNG.standard_normal((6, 6)))[0]
        got = margins(bd.kyfan_column_bounds(q, 3))
        assert abs(got["head"]) <= 1e-12
        assert abs(got["tail"]) <= 1e-12

    @pytest.mark.parametrize("e", [-600, -520, -20, 0, 20, 520, 600],
                             ids=["2^-600", "2^-520", "2^-20", "1", "2^20", "2^520", "2^600"])
    def test_orthonormal_columns_pass_in_any_units(self, e):
        # head and tail are 0 in exact arithmetic. Squared as given, 2^520 y
        # overflowed to NaN margins and 2^-600 y underflowed to margins of
        # exactly 0, which pass without testing anything; the margins are
        # fractions of ||y||_F^2, squared on pow2_scale(y), so 2^e y has the
        # margins of y
        for _ in range(20):
            q = np.linalg.qr(RNG.standard_normal((8, 5)))[0]
            rep = bd.kyfan_column_bounds(np.ldexp(q, e), 3)
            assert rep.all_passed, rep.to_json()
            assert margins(rep) == margins(bd.kyfan_column_bounds(q, 3))

    def test_golden_spectrum_hand_case(self):
        # margins are fractions of ||y||_F^2 = 3
        y = np.array([[1.0, 1.0], [0.0, 1.0]])
        got = margins(bd.kyfan_column_bounds(y, 1))
        assert got["head"] == pytest.approx((GOLDEN ** 2 - 2.0) / 3.0, abs=1e-12)
        assert got["tail"] == pytest.approx((1.0 - (GOLDEN - 1.0) ** 2) / 3.0, abs=1e-12)

    def test_zero_block_has_zero_margins(self):
        rep = bd.kyfan_column_bounds(np.zeros((4, 3)), 2)
        assert margins(rep) == {"head": 0.0, "tail": 0.0} and rep.all_passed

    def test_random_suite_no_violations(self):
        for _ in range(500):
            m = int(RNG.integers(2, 8))
            n = int(RNG.integers(2, 8))
            y = RNG.standard_normal((m, n))
            i = int(RNG.integers(1, n + 1))
            rep = bd.kyfan_column_bounds(y, i)
            assert rep.all_passed
            assert margins(rep)["head"] >= -1e-10
            assert margins(rep)["tail"] >= -1e-10

    def test_index_zero_refused(self):
        with pytest.raises(mc.MatrixError, match="need 1 <= i <= 3, got 0"):
            bd.kyfan_column_bounds(np.eye(3), 0)


# Reference sweep: every rotation as a dense m x m or n x n product, built
# from the full SVD of the ratio, and every trace field from its own SVD.
# block_diagonalize must follow it step for step.

def _dense_rotation(p, side):
    k = p.k
    if side == "right":
        a, off, dim, sign = p.a, p.b, p.n, -1.0
    else:
        a, off, dim, sign = p.a.T, p.c.T, p.m, 1.0
    if mc.operator_norm(off) == 0.0:
        return np.eye(dim), True
    sa = np.linalg.svd(a, compute_uv=False)
    if sa[-1] <= mc.SINGULARITY_TOL * sa[0]:
        raise mc.SingularBlockError(float(sa[-1]))
    u, sig, vt = np.linalg.svd(np.linalg.solve(a, off), full_matrices=True)
    r = min(k, dim - k)
    cd = 1.0 / np.sqrt(1.0 + sig**2)
    ck, cnk = np.ones(k), np.ones(dim - k)
    ck[:r] = cnk[:r] = cd
    smat = np.zeros((k, dim - k))
    smat[np.arange(r), np.arange(r)] = sig * cd
    sin_ab = u @ smat @ vt
    g = np.empty((dim, dim))
    g[:k, :k] = (u * ck) @ u.T
    g[:k, k:] = sign * sin_ab
    g[k:, :k] = -sign * sin_ab.T
    g[k:, k:] = (vt.T * cnk) @ vt
    return g, False


def _dense_record(t, p, degenerate=False):
    sa = np.linalg.svd(p.a, compute_uv=False)
    return bd.SweepRecord(
        t=t, sigma_a=sa, norm_b=mc.operator_norm(p.b), norm_c=mc.operator_norm(p.c),
        norm_d=mc.operator_norm(p.d),
        sigma_left_band=np.linalg.svd(p.left_band(), compute_uv=False),
        norm_right_band=mc.operator_norm(p.right_band()), degenerate=degenerate)


def dense_block_diagonalize(p):
    """(trace, converged, iterations, final) of the dense reference sweep,
    under the stopping rule that block_diagonalize reads."""
    k = p.k
    tol = bd.SWEEP_TOL
    scale = mc.operator_norm(p.base)
    trace = bd.SweepTrace(k=k, n=p.n, records=[_dense_record(0, p)])
    cur = p
    rec = trace.records[0]
    converged = rec.norm_b <= tol * scale and rec.norm_c <= tol * scale
    t = 0
    while not converged and t < bd.MAX_SWEEPS:
        side = ("left", "right")[t % 2]
        try:
            g, degenerate = _dense_rotation(cur, side)
        except mc.SingularBlockError as exc:
            raise mc.SingularBlockError(exc.sigma_min, trace) from exc
        if side == "left":
            nxt = g @ cur.base
            nxt[k:, :k] = 0.0
        else:
            nxt = cur.base @ g
            nxt[:k, k:] = 0.0
        cur = mc.BlockPartition(nxt, k)
        t += 1
        trace.records.append(_dense_record(t, cur, degenerate))
        rec = trace.records[-1]
        converged = rec.norm_b <= tol * scale and rec.norm_c <= tol * scale
    return trace, converged, t, cur.base


def _differential_cases():
    rng = np.random.default_rng(11)

    def planted(m, n, k, scale_left=10.0):
        r = np.abs(rng.standard_normal((m, n))) * (rng.random((m, n)) < 0.6)
        r[:, :k] *= scale_left
        r[np.arange(k), np.arange(k)] += 1.0  # nonsingular pivot
        return r

    tall = rng.standard_normal((40, 12))
    tall[:, :4] *= 4.0
    zero_c = planted(30, 20, 6)
    zero_c[6:, :6] = 0.0
    return [
        pytest.param(mc.BlockPartition(tall, 4), id="tall"),
        pytest.param(mc.BlockPartition(planted(80, 80, 40), 40), id="square-80-k40"),
        pytest.param(mc.BlockPartition(planted(20, 10, 7), 7), id="k-above-n-minus-k"),
        pytest.param(mc.BlockPartition(zero_c, 6), id="zero-off-block"),
    ]


class TestMatchesDenseReference:
    @pytest.mark.parametrize("p", _differential_cases())
    def test_same_sweeps(self, p):
        trace, converged, iterations, final = dense_block_diagonalize(p)
        res = bd.block_diagonalize(p)
        assert (res.iterations, res.converged) == (iterations, converged)
        got, want = res.trace.records, trace.records
        assert [r.degenerate for r in got] == [r.degenerate for r in want]
        assert ([c.passed for c in bd.check_lemma11(res.trace).checks]
                == [c.passed for c in bd.check_lemma11(trace).checks])
        tol = 1e-12 * mc.operator_norm(p.base)
        for g, w in zip(got, want):
            for name in ("sigma_a", "norm_b", "norm_c", "norm_d", "sigma_left_band",
                         "norm_right_band"):
                dev = np.max(np.abs(np.asarray(getattr(g, name)) - getattr(w, name)))
                assert dev <= tol, (g.t, name, dev)
        assert mc.operator_norm(res.final - final) <= 1e-10 * mc.operator_norm(p.base)

    @pytest.mark.parametrize("max_sweeps", [bd.MAX_SWEEPS, 0], ids=["default", "max-iter-0"])
    @pytest.mark.parametrize("p", _differential_cases())
    def test_result_reads_final_iterate(self, p, max_sweeps, monkeypatch):
        monkeypatch.setattr(bd, "MAX_SWEEPS", max_sweeps)
        res = bd.block_diagonalize(p)
        a_copy, d_copy = res.a_inf.copy(), res.d_inf.copy()
        np.testing.assert_array_equal(res.trace.records[-1].sigma_a,
                                      np.linalg.svd(a_copy, compute_uv=False))
        got = np.sort(np.concatenate([np.linalg.svd(a_copy, compute_uv=False),
                                      np.linalg.svd(d_copy, compute_uv=False)]))[::-1]
        assert res.spectrum_deviation() == float(
            np.abs(got[: res.spectrum.size] - res.spectrum).max())
        assert np.shares_memory(res.a_inf, res.final)
        assert np.shares_memory(res.d_inf, res.final)
        with pytest.raises(AttributeError):
            res.a_inf = a_copy

    def test_singular_pivot_raises_at_same_sweep(self):
        # C = 0 makes the first (left) step an identity, so the singular
        # pivot is only met by the right step that follows it
        rng = np.random.default_rng(12)
        r = rng.standard_normal((12, 8))
        r[3:, :3] = 0.0
        r[1, :3] = 0.0
        p = mc.BlockPartition(r, 3)
        with pytest.raises(mc.SingularBlockError) as want:
            dense_block_diagonalize(p)
        with pytest.raises(mc.SingularBlockError) as got:
            bd.block_diagonalize(p)
        assert str(got.value) == str(want.value)
        assert len(got.value.trace.records) == len(want.value.trace.records) == 2
        assert got.value.trace.records[1].degenerate
