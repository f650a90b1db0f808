"""Self-test of the benchmark: smoke runs and the oracle checker itself.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import oracle
import run
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
END_TO_END = {"setup_s", "jobs_per_s", "job_p50_s", "job_tail_s", "peak_rss_mb"}


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_schema(workload, trace):
    spec = _benchmark_json()
    res = _smoke(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
    want = spec["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_benchmark_json_names_every_workload():
    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS) - set(wl.UNGATED)
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END


def test_inputs_depend_only_on_seed(tmp_path):
    w = wl.smoke_variant(wl.WORKLOADS["approx-sparse"])
    a, b, c = (tmp_path / "a", tmp_path / "b", tmp_path / "c")
    for d in (a, b, c):
        d.mkdir()
    assert wl.digest(wl.generate(w, 5, 0, str(a))) == wl.digest(wl.generate(w, 5, 0, str(b)))
    assert wl.digest(wl.generate(w, 5, 0, str(a))) != wl.digest(wl.generate(w, 6, 0, str(c)))


def test_analyze_inputs_have_a_nonzero_pivot_diagonal(tmp_path):
    for rnd in wl.generate(wl.WORKLOADS["analyze"], 7, 0, str(tmp_path)):
        for f in rnd:
            k = f.shape.k
            assert np.all(np.diag(f.dense()[:k, :k]) > 0), f.path


def _blocksvd():
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import blocksvd
    return blocksvd


def _approx_case(tmp_path):
    """A generated input, its oracle facts, and a correct report for it."""
    s = wl.Shape(30, 12, 4, 3, 0.5)
    rows, cols, vals = wl.planted(np.random.default_rng(0), s)
    f = wl.InputFile(str(tmp_path / "a.mtx"), s, rows, cols, vals)
    fx = oracle.facts(f, "approx")
    bound = 2 * oracle.norm_d(fx, 4)
    report = {"rank": 3, "k": 4, "values": fx["sigma"][:3].tolist(), "error_bound": bound}
    return fx, report, bound


def test_oracle_accepts_values_within_the_bound(tmp_path):
    fx, report, bound = _approx_case(tmp_path)
    report["values"][1] += 0.5 * bound
    ok, why, _ = oracle.check_approx(report, fx, 4, 3)
    assert ok, why


def test_oracle_rejects_a_perturbed_report(tmp_path):
    fx, report, bound = _approx_case(tmp_path)
    report["values"][1] += 2 * bound
    ok, why, _ = oracle.check_approx(report, fx, 4, 3)
    assert not ok and "value 2" in why
    fx, report, _ = _approx_case(tmp_path)
    ok, _, _ = oracle.check_approx(dict(report, values=report["values"][:2]), fx, 4, 3)
    assert not ok


def test_oracle_rejects_an_inflated_error_bound(tmp_path):
    fx, report, bound = _approx_case(tmp_path)
    ok, why, _ = oracle.check_approx(dict(report, error_bound=bound * (1 + 1e-6)), fx, 4, 3)
    assert not ok and "2 ||D||" in why
    ok, why, _ = oracle.check_approx(dict(report, k=5), fx, 4, 3)
    assert not ok and "outside" in why


def test_oracle_checks_a_real_approx_report(tmp_path):
    bs = _blocksvd()
    s = wl.Shape(60, 30, 8, 4, 0.5)
    rows, cols, vals = wl.planted(np.random.default_rng(4), s)
    f = wl.InputFile(str(tmp_path / "a.mtx"), s, rows, cols, vals)
    fx = oracle.facts(f, "approx")
    r = f.dense()
    report = bs.algorithm2(bs.plan_partition(r, k=8).apply(r), k=8, i=4).to_json()
    ok, why, _ = oracle.check_approx(report, fx, 8, 4)
    assert ok, why
    fro = 2 * np.linalg.norm(fx["permuted"][report["k"]:, report["k"]:])
    assert not oracle.check_approx(dict(report, error_bound=fro), fx, 8, 4)[0]


def test_oracle_rejects_a_perturbed_plan():
    bs = _blocksvd()
    s = wl.Shape(400, 120, 10, 0, 0.05)
    rows, cols, vals = wl.planted(np.random.default_rng(1), s)
    f = wl.InputFile("p.mtx", s, rows, cols, vals)
    fx = oracle.facts(f, "plan")
    plan = bs.plan_partition(f.dense()).to_json()
    ok, why, _ = oracle.check_plan(plan, fx)
    assert ok, why
    swapped = dict(plan, column_permutation=plan["column_permutation"][::-1])
    assert not oracle.check_plan(swapped, fx)[0]
    for k in oracle.candidate_splits(s.n):
        if k != plan["k"]:
            assert not oracle.check_plan(dict(plan, k=k), fx)[0], k
    assert not oracle.check_plan(dict(plan, i_star=plan["i_star"] - 1), fx)[0]
    assert not oracle.check_plan(dict(plan, threshold=plan["threshold"] * 1.01), fx)[0]


def test_tail_has_ten_samples_beyond_it():
    pct, value = run.tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (75.0, 3.0)


def test_oracle_rejects_perturbed_analyze_reports(tmp_path):
    _blocksvd()
    import blocksvd.cli as cli
    s = wl.Shape(40, 20, 6, 2, 0.6)
    rows, cols, vals = wl.planted(np.random.default_rng(2), s)
    f = wl.InputFile(str(tmp_path / "a.mtx"), s, rows, cols, vals)
    wl.write_coordinate(f.path, s.m, s.n, rows, cols, vals)
    fx = oracle.facts(f, "analyze")
    out_b, out_d = str(tmp_path / "b.json"), str(tmp_path / "d.json")
    assert cli.main(["bounds", f.path, "--k", "6", "--i", "2", "-o", out_b]) == 0
    assert cli.main(["blockdiag", f.path, "--k", "6", "--oracle", "-o", out_d]) in (0, 1)
    with open(out_b) as fh:
        bounds = json.load(fh)
    with open(out_d) as fh:
        blockdiag = json.load(fh)
    assert oracle.check_bounds(bounds, fx)[0]
    assert oracle.check_blockdiag(blockdiag, fx)[0]

    rep = bounds["reports"][0]
    rep["upper"] = rep["lower"] = rep["oracle"] = rep["oracle"] + 0.1 * fx["sigma"][0]
    assert not oracle.check_bounds(bounds, fx)[0]
    blockdiag["trace"][-1]["sigma_a"][-1] += 1e-3 * fx["sigma"][0]
    assert not oracle.check_blockdiag(blockdiag, fx)[0]
