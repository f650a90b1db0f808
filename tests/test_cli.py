import json
import warnings

import numpy as np
import pytest

from blocksvd import blockdiag as bd
from blocksvd import bounds as bn
from blocksvd import cli, mmio
from blocksvd import givens as gv
from blocksvd import pipeline as pl
from blocksvd.matcore import MatrixError

RNG = np.random.default_rng(321)


def write_banded(tmp_path, m=12, n=8, k=3, name="r.mtx", d_frac=0.01):
    r = RNG.standard_normal((m, n))
    r[:, :k] *= 10.0
    r[k:, k:] = 0.0
    if d_frac:
        d = RNG.standard_normal((m - k, n - k))
        r[k:, k:] = d / np.linalg.norm(d, 2) * (d_frac * np.linalg.norm(r, 2))
    path = tmp_path / name
    mmio.write_matrix(path, r)
    return path, r


def run(args):
    return cli.main([str(a) for a in args])


BLOCKDIAG_KEYS = {"k", "converged", "iterations", "trace", "diagnostics"}


class TestBlockdiagCommand:
    def test_converges_exit_zero(self, tmp_path):
        path, _ = write_banded(tmp_path)
        out = tmp_path / "rep.json"
        assert run(["blockdiag", path, "--k", 3, "-o", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["converged"]
        assert rep["trace"]
        # each value once: ||A_t|| and sigma_k(A_t) are sigma_a's ends
        assert set(rep) == BLOCKDIAG_KEYS
        for rec in rep["trace"]:
            assert set(rec) == {"t", "sigma_a", "norm_b", "norm_c", "norm_d",
                                "sigma_left_band", "norm_right_band", "degenerate"}

    def test_oracle_deviation_reported(self, tmp_path):
        path, r = write_banded(tmp_path)
        out = tmp_path / "rep.json"
        assert run(["blockdiag", path, "--k", 3, "--oracle", "-o", out]) == 0
        rep = json.loads(out.read_text())
        assert set(rep) == BLOCKDIAG_KEYS | {"oracle_max_dev"}
        assert rep["oracle_max_dev"] <= 1e-9 * np.linalg.norm(r, 2)

    def test_oracle_takes_one_full_spectrum(self, tmp_path, monkeypatch):
        path, r = write_banded(tmp_path)
        out = tmp_path / "rep.json"
        shapes = []
        real_svd, real_norm = np.linalg.svd, np.linalg.norm

        def counting_svd(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real_svd(a, *args, **kwargs)

        def counting_norm(a, ord=None, *args, **kwargs):
            if ord == 2:  # the spectral norm is a values-only SVD
                shapes.append(np.shape(a))
            return real_norm(a, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        code = run(["blockdiag", path, "--k", 3, "--oracle", "-o", out])
        monkeypatch.undo()
        assert code == 0
        assert shapes.count(r.shape) == 1
        assert json.loads(out.read_text())["oracle_max_dev"] <= 1e-9 * np.linalg.norm(r, 2)

    def test_sweep_cap_is_a_check_violation(self, tmp_path, monkeypatch):
        path, _ = write_banded(tmp_path)
        out = tmp_path / "rep.json"
        monkeypatch.setattr(bd, "MAX_SWEEPS", 1)
        assert run(["blockdiag", path, "--k", 3, "-o", out]) == 1
        rep = json.loads(out.read_text())
        assert rep["converged"] is False
        assert rep["iterations"] == 1

    def test_singular_pivot_usage_error(self, tmp_path, capsys):
        r = np.abs(RNG.standard_normal((12, 8)))
        r[1, :3] = 0.0  # empty row in the 3x3 pivot block
        path = tmp_path / "singular.mtx"
        mmio.write_matrix(path, r)
        assert run(["blockdiag", path, "--k", 3]) == 2
        assert capsys.readouterr().err.startswith("error: pivot block is numerically singular")

    def test_rotated_pivot_named(self, tmp_path, capsys):
        # A = I passes check_pivot, but the first left rotation gives A_1
        # the spectrum of [A; C], (1e20, 1), which the sweeps refuse
        r = np.array([[1.0, 0.0, 1e19], [0.0, 1.0, 1e19], [1e20, 0.0, 1.0]])
        path = tmp_path / "r.mtx"
        mmio.write_matrix(path, r)
        assert run(["blockdiag", path, "--k", 2]) == 2
        assert capsys.readouterr().err == ("error: pivot block A_1 of the sweeps is numerically "
                                           "singular (sigma_min=1.000e+00, sigma_1=1.000e+20)\n")
        assert run(["bounds", path, "--k", 2, "--i", 1, "-o", tmp_path / "rep.json"]) == 0


def _reject_non_finite(constant):
    raise AssertionError(f"non-finite JSON float {constant}")


def planted(seed: int, k: int = 20) -> np.ndarray:
    """200 x 100, planted like the benchmark's analyze files: 30% density,
    |N(0, 1)| values, the k pivot columns scaled by 10, a nonzero pivot
    diagonal."""
    rng = np.random.default_rng(seed)
    r = np.abs(rng.standard_normal((200, 100))) * (rng.random((200, 100)) < 0.3)
    r[:, :k] *= 10.0
    r[np.arange(k), np.arange(k)] += np.abs(rng.standard_normal(k))
    return r


def _verdicts(tmp_path, r, k, i):
    """What bounds --i i and blockdiag --oracle decide for r, not their values."""
    path, out = tmp_path / "r.mtx", tmp_path / "rep.json"
    mmio.write_matrix(path, r)
    verdicts = []
    for argv in (["bounds", path, "--k", k, "--i", i], ["blockdiag", path, "--k", k, "--oracle"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run([*argv, "-o", out])
        rep = json.loads(out.read_text(), parse_constant=_reject_non_finite)
        verdicts.append((code, rep.get("all_contain"), rep.get("iterations"),
                         [c["passed"] for c in rep.get("diagnostics", {}).get("checks", [])]))
    return verdicts


class TestUnitInvariance:
    """Scaling R by a power of two changes no singular-value ratio, so no
    verdict: the pivot rule is relative to sigma_1(A), and the closed forms
    neither overflow nor underflow."""

    def test_commands_decide_alike_at_every_scale(self, tmp_path):
        r = planted(25)
        want = _verdicts(tmp_path, r, 20, 3)
        assert [v[0] for v in want] == [0, 0]
        for e in (-600, -40, 40, 600):
            assert _verdicts(tmp_path, np.ldexp(r, e), 20, 3) == want, e

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("e", [-1030, -1000, -600, 511, 600, 1000])
    @pytest.mark.parametrize("command", [["bounds", "--k", 20, "--i", 3],
                                         ["blockdiag", "--k", 20, "--oracle"],
                                         ["approx", "--k", 20, "--i", 3, "--oracle"],
                                         ["plan"]],
                             ids=["bounds", "blockdiag", "approx", "plan"])
    def test_commands_warn_nowhere_at_extreme_scales(self, tmp_path, command, e):
        # at 2^-1030 every entry is subnormal: bounds and blockdiag ended in
        # LinAlgError until ratio_svd solved against A in range
        path = tmp_path / "r.mtx"
        mmio.write_matrix(path, np.ldexp(planted(25), e))
        assert run([command[0], path, *command[1:], "-o", tmp_path / "rep.json"]) == 0

    @pytest.mark.parametrize("r", [[[1.0, 1e160], [1.0, 1.0], [0.5, 2.0]],
                                   [[1.0, 1.0], [1e160, 1.0], [0.5, 2.0]],
                                   [[1e-300, 1e300], [1.0, 1.0], [0.5, 2.0]],
                                   [[1e-300, 1.0], [1e300, 1.0], [0.5, 2.0]]],
                             ids=["B", "C", "B-past-max", "C-past-max"])
    def test_huge_ratio_commands_finish(self, tmp_path, r):
        # A ratio of blocks does not change with the units of R, so a
        # tangent of 1e160 stays one at any scale; no angle may square it.
        # One of 1e600 is past float max: it must be scaled before it is
        # formed, by the rotations and by Theorem 2 alike.
        bounds, blockdiag = _verdicts(tmp_path, np.array(r), 1, 1)
        assert bounds == (0, True, None, [])
        assert blockdiag[0] == 0 and all(blockdiag[3])

    def test_rotations_alike_at_every_scale(self):
        np.testing.assert_array_equal(gv.householder_block(1e-14, [1e-14]),
                                      gv.householder_block(1.0, [1.0]))
        rng = np.random.default_rng(26)
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 4))
        want, got = gv.block_trig(a, b), gv.block_trig(np.ldexp(a, -50), np.ldexp(b, -50))
        for name in ("cos_ab", "cos_ba", "sin_ab"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestBoundsCommand:
    def test_reports_contain_oracle(self, tmp_path):
        path, _ = write_banded(tmp_path)
        out = tmp_path / "rep.json"
        assert run(["bounds", path, "--k", 3, "-o", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["all_contain"]
        # mu_bar is the slice-mu report's upper, not a key of its own
        assert set(rep) == {"k", "i", "reports", "all_contain"}
        formulas = {item["formula"] for item in rep["reports"]}
        assert {"Weyl-gap", "slice-mu", "Thm2-R0-min"} <= formulas

    @pytest.mark.parametrize("scale", [2.0**-20, 1.0, 2.0**20], ids=["2^-20", "1", "2^20"])
    def test_zero_d_contained_in_any_units(self, tmp_path, scale):
        # Planted as the benchmark's analyze files (30% of |N(0, 1)|, the
        # first 20 columns times 10, a nonzero pivot diagonal), then D = 0.
        # Weyl-cross's interval is then a point whose rounding grows with
        # the units: an absolute 1e-10 slack fails it at 2^20.
        rng = np.random.default_rng(0)
        r = np.abs(rng.standard_normal((200, 100))) * (rng.random((200, 100)) < 0.3)
        r[:, :20] *= 10.0
        r[np.arange(20), np.arange(20)] += 1.0
        r[20:, 20:] = 0.0
        path, out = tmp_path / "r.mtx", tmp_path / "rep.json"
        mmio.write_matrix(path, scale * r)
        assert run(["bounds", path, "--k", 20, "--i", 3, "-o", out]) == 0
        assert json.loads(out.read_text())["all_contain"] is True


class TestPlanCommand:
    def test_plan_json(self, tmp_path):
        r = np.abs(RNG.standard_normal((10, 6)))
        path = tmp_path / "p.mtx"
        mmio.write_matrix(path, r)
        out = tmp_path / "plan.json"
        assert run(["plan", path, "--k", 2, "-o", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["k"] == 2
        assert len(rep["column_permutation"]) == 6

    def test_wide_file_split_like_approx(self, tmp_path):
        # plan and approx both split the transpose of a 40 x 100 file
        rng = np.random.default_rng(19)
        r = np.abs(rng.standard_normal((40, 100))) * (rng.random((40, 100)) < 0.3)
        r[:10] *= 10.0
        path, plan_out, rep_out = tmp_path / "wide.mtx", tmp_path / "plan.json", tmp_path / "rep.json"
        mmio.write_matrix(path, r)
        assert run(["plan", path, "--k", 10, "-o", plan_out]) == 0
        assert run(["approx", path, "--k", 10, "--i", 4, "-o", rep_out]) == 0
        plan, rep = json.loads(plan_out.read_text()), json.loads(rep_out.read_text())
        assert plan["transposed"] is True
        assert plan["k"] == rep["k"] == 10
        assert sorted(plan["row_permutation"]) == list(range(100))
        assert sorted(plan["column_permutation"]) == list(range(40))
        split = r.T[np.ix_(plan["row_permutation"], plan["column_permutation"])]
        assert pl.algorithm2(split, k=10, i=4).to_json() == rep

    def test_one_column_file(self, tmp_path):
        # no right block to bound: the planner's one-column branch
        path, out = tmp_path / "col.mtx", tmp_path / "plan.json"
        mmio.write_matrix(path, np.arange(1.0, 6.0)[:, None])
        assert run(["plan", path, "-o", out]) == 0
        plan = json.loads(out.read_text())
        assert (plan["k"], plan["i_star"], plan["threshold"]) == (1, 0, 0.0)
        assert plan["row_permutation"] == [4, 3, 2, 1, 0]


class TestApproxCommand:
    def test_certified_with_oracle(self, tmp_path):
        path, _ = write_banded(tmp_path, m=40, n=25, k=6)
        out = tmp_path / "rep.json"
        assert run(["approx", path, "--k", 6, "--i", 4, "--oracle", "-o", out]) == 0
        rep = json.loads(out.read_text())
        assert len(rep["values"]) == 4
        assert max(rep["oracle_deviations"]) <= rep["error_bound"] + 1e-9

    def test_plans_like_the_library_recipe(self, tmp_path):
        # planted columns and rows, then shuffled: the stored order is a bad split
        rng = np.random.default_rng(17)
        r = np.abs(rng.standard_normal((200, 80))) * (rng.random((200, 80)) < 0.3)
        r[:, :20] *= 10.0
        r = r[rng.permutation(200)][:, rng.permutation(80)]
        path, out = tmp_path / "shuffled.mtx", tmp_path / "rep.json"
        mmio.write_matrix(path, r)
        assert run(["approx", path, "--k", 20, "--i", 5, "-o", out]) == 0
        rep = json.loads(out.read_text())
        r = mmio.read_matrix(path)
        recipe = pl.algorithm2(pl.plan_partition(r, k=20).apply(r), k=20, i=5)
        assert rep["values"] == recipe.values.tolist()
        assert rep["error_bound"] == recipe.error_bound

    def test_more_values_than_the_split(self, tmp_path):
        # any i <= n: past the core's side 2k = 8 the values are zero
        r = np.abs(np.random.default_rng(19).standard_normal((30, 12)))
        path, out = tmp_path / "r.mtx", tmp_path / "rep.json"
        mmio.write_matrix(path, r)
        assert run(["approx", path, "--k", 4, "--i", 9, "--oracle", "-o", out]) == 0
        rep = json.loads(out.read_text())
        assert len(rep["values"]) == 9 and rep["values"][8] == 0.0

    def test_wide_file(self, tmp_path):
        rng = np.random.default_rng(18)
        r = np.abs(rng.standard_normal((40, 100))) * (rng.random((40, 100)) < 0.3)
        r[:10] *= 10.0
        path, out = tmp_path / "wide.mtx", tmp_path / "rep.json"
        mmio.write_matrix(path, r)
        assert run(["approx", path, "--k", 10, "--i", 4, "--oracle", "-o", out]) == 0
        rep = json.loads(out.read_text())
        true = np.linalg.svd(r, compute_uv=False)[:4]
        np.testing.assert_allclose(rep["oracle_values"], true, rtol=1e-12)
        assert np.abs(true - rep["values"]).max() <= rep["error_bound"] + 1e-9 * true[0]


    @pytest.mark.parametrize("margin,code", [(-1e-300, 1), (0.0, 0)])
    def test_oracle_verdict_is_the_check_rule(self, tmp_path, monkeypatch, margin, code):
        # exit 1 on any negative margin, 0 from a margin of exactly 0 up
        path, _ = write_banded(tmp_path, m=40, n=25, k=6)
        out = tmp_path / "rep.json"
        monkeypatch.setattr(pl.ApproxReport, "oracle_margin", lambda self: margin)
        assert run(["approx", path, "--k", 6, "--i", 4, "--oracle", "-o", out]) == code
        assert len(json.loads(out.read_text())["oracle_values"]) == 4


class TestVerifyCommand:
    def test_small_suite_passes(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["verify", "matcore", "--seed", 7, "--trials", 20, "-o", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["passed"]
        assert rep["checks"]

    def test_unknown_suite_usage_error(self, capsys):
        assert run(["verify", "nonsense"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown suite 'nonsense'; choose from (")
        assert "'matcore'" in captured.err and "'all'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("option,message", [
        (["--seed", -1], "error: seed must be at least 0, got -1"),
        (["--trials", 0], "error: trials must be at least 1, got 0"),
        (["--trials", -5], "error: trials must be at least 1, got -5"),
    ], ids=["seed-negative", "trials-zero", "trials-negative"])
    def test_bad_seed_or_trials_usage_error(self, capsys, option, message):
        assert run(["verify", "matcore"] + option) == 2
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""


class TestParserReuse:
    def test_reports_match_fresh_parsers(self, tmp_path):
        # main reuses one parser per process; an earlier command's options
        # must not leak into a later one
        path, _ = write_banded(tmp_path)
        calls = [["bounds", path, "--k", 3, "--i", 2], ["bounds", path, "--k", 3],
                 ["blockdiag", path, "--k", 3]]
        fresh = []
        for n, args in enumerate(calls):
            cli.build_parser.cache_clear()
            out = tmp_path / f"fresh{n}.json"
            fresh.append((run(args + ["-o", out]), out.read_text()))
        assert json.loads(fresh[0][1])["i"] == 2 and json.loads(fresh[1][1])["i"] == 3
        for n, args in enumerate(calls):
            out = tmp_path / f"reused{n}.json"
            assert (run(args + ["-o", out]), out.read_text()) == fresh[n]
        assert cli.build_parser.cache_info().misses == 1


def with_entry(value: float) -> np.ndarray:
    """A non-negative 12 x 8 matrix with ``value`` in its bottom-right block."""
    r = np.abs(np.random.default_rng(5).standard_normal((12, 8)))
    r[7, 6] = value
    return r


class TestNonFiniteInput:
    """nan and inf entries are refused with MatrixError by every library
    entry point, and with exit 2 by the commands, whichever reader path
    parsed them."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", [
        lambda r: pl.approximate(r, k=3, i=2),
        lambda r: pl.algorithm2(r, k=3, i=2),
        lambda r: pl.plan_partition(r),
        lambda r: bn.SpectralPartition(r, 3),
    ], ids=["approximate", "algorithm2", "plan_partition", "SpectralPartition"])
    def test_library_raises(self, call, value):
        with pytest.raises(MatrixError, match="non-finite"):
            call(with_entry(value))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("loop", [False, True], ids=["chunked", "line_loop"])
    @pytest.mark.parametrize("command", [["approx", "--k", 3, "--i", 2], ["bounds", "--k", 3]],
                             ids=["approx", "bounds"])
    def test_command_exits_2(self, tmp_path, monkeypatch, capsys, command, loop, value):
        path = tmp_path / "r.mtx"
        mmio.write_matrix(path, with_entry(value))
        lines = path.read_text().splitlines(keepends=True)
        assert any(ln.split()[-1] in ("nan", "inf", "-inf") for ln in lines[2:])
        if loop:  # a comment between entries sends the file to the line loop
            lines.insert(3, "% interior comment\n")
            path.write_text("".join(lines))
        looped = []
        real_loop = mmio._read_by_lines
        monkeypatch.setattr(mmio, "_read_by_lines", lambda p: looped.append(p) or real_loop(p))
        assert run([command[0], path] + command[1:]) == 2
        assert capsys.readouterr().err == "error: matrix has non-finite entries\n"
        assert len(looped) == int(loop)


class TestNumericOptions:
    """A numeric option outside its range is refused before any work, by
    the library with MatrixError and by the command with exit 2."""

    @pytest.mark.parametrize("i", [0, 9], ids=["i-zero", "i-past-n"])
    def test_approx_value_count(self, tmp_path, capsys, i):
        r = np.abs(np.random.default_rng(5).standard_normal((12, 8)))
        path = tmp_path / "r.mtx"
        mmio.write_matrix(path, r)
        message = f"need 1 <= i <= n, got i={i}, n=8"
        with pytest.raises(MatrixError, match=message):
            pl.algorithm2(r, k=3, i=i)
        with pytest.raises(MatrixError, match=message):
            pl.approximate(r, k=3, i=i)
        assert run(["approx", path, "--k", 3, "--i", i]) == 2
        assert capsys.readouterr().err.startswith("error: need 1 <= i <= n")

    @pytest.mark.parametrize("i", [-1, 0, 9], ids=["i-negative", "i-zero", "i-past-n"])
    def test_bounds_value_index(self, tmp_path, monkeypatch, capsys, i):
        # every family refuses i outside 1..n before it reads a spectrum
        r = np.random.default_rng(6).standard_normal((12, 8))
        path = tmp_path / "r.mtx"
        mmio.write_matrix(path, r)
        message = f"need 1 <= i <= n, got i={i}"
        p = bn.SpectralPartition(r, 3)
        for family in (bn.weyl_gap_bounds, bn.small_rank_bounds, bn.mu_bounds):
            with pytest.raises(MatrixError, match=message):
                family(p, i)

        def refuse(*args, **kwargs):
            raise AssertionError("no spectrum before the index check")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert run(["bounds", path, "--k", 3, "--i", i]) == 2
        assert capsys.readouterr().err.startswith("error: need 1 <= i <= n")


class TestUndecodableInput:
    @pytest.mark.parametrize("command", [["approx", "--k", 1, "--i", 1], ["bounds", "--k", 1]],
                             ids=["approx", "bounds"])
    def test_gzip_file_exits_2(self, tmp_path, capsys, command):
        import gzip

        path = tmp_path / "t.mtx.gz"
        path.write_bytes(gzip.compress(
            b"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 2\n"))
        assert run([command[0], path] + command[1:]) == 2
        assert capsys.readouterr().err.startswith("error: line 1: expected header")

    def test_non_utf8_entry_exits_2(self, tmp_path, capsys):
        path = tmp_path / "t.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n"
                         b"2 2 2\n1 1 1\n2 2 2\xe9\n")
        assert run(["approx", path, "--k", 1, "--i", 1]) == 2
        assert capsys.readouterr().err.startswith("error: line 4: malformed entry")


class TestDeterminism:
    def test_identical_invocations_identical_json(self, tmp_path):
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "bounds", "--seed", 3, "--trials", 10, "-o", o1])
        run(["verify", "bounds", "--seed", 3, "--trials", 10, "-o", o2])
        assert o1.read_bytes() == o2.read_bytes()


class TestPipelineRefusal:
    def test_too_many_columns_exits_2(self, tmp_path, capsys):
        # a tall file one column past the dense driver's limit, mostly empty
        path = tmp_path / "wide-limit.mtx"
        n = pl.DENSE_LIMIT + 1
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n{n + 1} {n} 3\n"
                        "1 1 3.0\n2 2 2.0\n3 3 1.0\n")
        assert run(["approx", path, "--k", 2, "--i", 1]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: dense driver limited to {pl.DENSE_LIMIT} columns")


def _child_env() -> dict:
    """This environment with the tested blocksvd first on PYTHONPATH."""
    import os

    import blocksvd

    src = os.path.dirname(os.path.dirname(os.path.abspath(blocksvd.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_modules(code: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; the blocksvd modules it loaded,
    and scipy.stats and scipy.linalg if it loaded them."""
    import subprocess
    import sys

    code += ("\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith("
             "('blocksvd', 'scipy.stats', 'scipy.linalg'))))")
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True,
                         text=True, check=True, timeout=120)
    return set(out.stdout.split())


def test_closed_stdout_is_not_a_usage_error(tmp_path):
    # The plan of a 20000 x 2 file prints a 20000-entry row permutation,
    # more than a pipe holds, so the command is still writing when the
    # reader closes the pipe after one byte, as ``| head -c 1`` does.
    import errno
    import subprocess
    import sys

    r = np.zeros((20000, 2))
    r[0, 0], r[1, 1] = 2.0, 1.0
    path = tmp_path / "tall.mtx"
    mmio.write_matrix(path, r)
    proc = subprocess.Popen([sys.executable, "-m", "blocksvd.cli", "plan", str(path), "--k", "1"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == errno.EPIPE
    assert err == b""


CLI_IMPORT = {"blocksvd", "blocksvd.cli", "blocksvd.matcore"}


def test_import_leaves_slow_scipy_modules_unloaded():
    # scipy.stats and scipy.linalg take most of a fresh import's time; no
    # CLI command needs them before a verify suite or a sampler does, and
    # the CLI loads only matcore before its command runs
    assert _fresh_modules("import blocksvd.cli") == CLI_IMPORT
    assert _fresh_modules("import blocksvd") == {"blocksvd"}


@pytest.mark.parametrize("command, adds", [
    (["bounds", "--k", 3], {"mmio", "bounds"}),
    (["blockdiag", "--k", 3], {"mmio", "givens", "blockdiag"}),
    (["approx", "--k", 3, "--i", 2], {"mmio", "pipeline"}),
    (["plan"], {"mmio", "pipeline"}),
], ids=["bounds", "blockdiag", "approx", "plan"])
def test_command_loads_only_its_modules(tmp_path, command, adds):
    path, r = write_banded(tmp_path)
    mmio.write_matrix(path, np.abs(r))      # plan needs non-negative entries
    argv = [command[0], str(path), *map(str, command[1:]), "-o", str(tmp_path / "out.json")]
    code = f"import blocksvd.cli\nassert blocksvd.cli.main({argv!r}) == 0"
    assert _fresh_modules(code) == CLI_IMPORT | {f"blocksvd.{m}" for m in adds}


def test_lazy_namespace_resolves_every_export():
    import importlib
    import sys

    import blocksvd

    assert "__version__" in vars(blocksvd)     # eager, not resolved on use
    names = dir(blocksvd)
    for name in blocksvd.__all__:
        obj = getattr(blocksvd, name)
        assert obj.__module__.startswith("blocksvd."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert name in names, name
    star: dict = {}
    exec("from blocksvd import *", star)
    assert set(star) - {"__builtins__"} == set(blocksvd.__all__)
    assert _fresh_modules("from blocksvd import read_matrix") == {
        "blocksvd", "blocksvd.mmio", "blocksvd.matcore"}
    assert blocksvd.randmat is importlib.import_module("blocksvd.randmat")
    assert blocksvd.moment_ratio is blocksvd.randmat.moment_ratio
    with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
        blocksvd.nonsense
