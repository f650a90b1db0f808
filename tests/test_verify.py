import pytest

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


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        vf.run_suite("nope")
