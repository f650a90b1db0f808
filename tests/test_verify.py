import dataclasses
import json

import numpy as np
import pytest

from blocksvd import blockdiag as bd
from blocksvd import bounds as bn
from blocksvd import cli
from blocksvd import matcore as mc
from blocksvd import verify as vf


@pytest.mark.parametrize("suite", vf.SUITES)
def test_suite_passes_at_small_scale(suite):
    rep = vf.run_suite(suite, seed=7, trials=15)
    assert rep.passed, [c for c in rep.reports[suite].checks if not c.passed]
    assert list(rep.reports) == [suite]
    assert rep.reports[suite].checks


def test_all_runs_every_suite():
    rep = vf.run_suite("all", seed=7, trials=5)
    assert rep.passed
    assert list(rep.reports) == list(vf.SUITES)
    assert {c["suite"] for c in rep.to_json()["checks"]} == set(vf.SUITES)


@pytest.mark.parametrize("scale", [2.0**-20, 1.0, 2.0**20], ids=["2^-20", "1", "2^20"])
def test_lemma11_verdict_is_check_lemma11s(monkeypatch, scale):
    # The blockdiag suite's sweeps run on its own draws times `scale`; its
    # Lemma 11 check passes exactly when every check_lemma11 report does.
    diagonalize, check = bd.block_diagonalize, bd.check_lemma11
    verdicts = []

    def scaled(p):
        return diagonalize(mc.BlockPartition(scale * p.base, p.k))

    def recorded(trace):
        lem = check(trace)
        verdicts.append(lem.all_passed)
        return lem

    monkeypatch.setattr(bd, "block_diagonalize", scaled)
    monkeypatch.setattr(bd, "check_lemma11", recorded)
    rep = vf.verify_blockdiag(seed=7, trials=15)
    lem = next(c for c in rep.checks if c.name == "sweep_diagnostics_hold")
    assert verdicts
    assert lem.passed == all(verdicts)


def test_nan_bound_on_one_draw_fails_its_check(monkeypatch):
    # A NaN upper bound on the fifth draw: bounds.containment fails that
    # report, and so must the suite's check, with a NaN margin.
    mu_bounds, calls, reports = bn.mu_bounds, [], []

    def nan_on_fifth(p, i):
        rep = mu_bounds(p, i)
        calls.append(i)
        if len(calls) == 5:
            rep = dataclasses.replace(rep, upper=float("nan"))
            reports.append(rep)
        return rep

    monkeypatch.setattr(bn, "mu_bounds", nan_on_fifth)
    rep = vf.verify_bounds(seed=0, trials=20)
    assert len(calls) == 20 and not bn.containment(reports, 1.0).all_passed
    mu = [c for c in rep.checks if c.name == "slice_bound_contains_gap"]
    assert len(mu) == 1 and np.isnan(mu[0].margin) and not mu[0].passed
    assert [c.name for c in rep.checks] == [
        "gap_bounds_contain_oracle", "slice_bound_contains_gap",
        "zeroed_block_value_bounds", "closed_form_reference_value"]
    assert all(c.passed for c in rep.checks if c.name != "slice_bound_contains_gap")


def test_check_that_judged_no_draw_fails(capsys):
    # At seed 106 the one blockdiag draw fails the gap test, so no check
    # judges anything: each fails with margin -1.0, and the CLI exits 1
    # with strict JSON.
    rep = vf.verify_blockdiag(seed=106, trials=1)
    assert [(c.name, c.passed, c.margin) for c in rep.checks] == [
        (name, False, -1.0) for name in ("sweeps_converge", "spectrum_preserved",
                                         "sweep_diagnostics_hold", "column_norm_partial_sums")]
    assert cli.main(["verify", "blockdiag", "--seed", "106", "--trials", "1"]) == 1
    out = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert not out["passed"] and len(out["checks"]) == 4


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        vf.run_suite("nope")
