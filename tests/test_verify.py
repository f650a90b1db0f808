import pytest

from blocksvd import blockdiag as bd
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


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        vf.run_suite("nope")
