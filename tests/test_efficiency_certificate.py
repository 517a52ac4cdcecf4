"""The Pareto-weight certificate in front of the efficiency grid walk: it
never hides a witness, certifies every rule optimum, and leaves every
report as the walk alone would build it."""

import numpy as np
import pytest

import ctrules as ct
from ctrules import axioms, solver
from ctrules.core import support_masks
from helpers import FailingHighs

RULES = [ct.make_utility("log"), ct.make_utility("negpower", p=3.0), ct.make_utility("power", p=0.5)]
RESOLUTIONS = (0.05, 0.25)


def corpus_profiles():
    """Seeded profiles: n 1-12, m 2-4, Dirichlet 0.3/1/3 and single-minded rows."""
    for s in range(48):
        rng = np.random.default_rng(s)
        n, m, kind = 1 + s % 12, 2 + s % 3, s % 4
        if kind < 3:
            prefs = rng.dirichlet(np.full(m, (0.3, 1.0, 3.0)[kind]), size=n)
        else:
            prefs = np.eye(m)[rng.integers(0, m, size=n)]
        yield s, ct.Profile(prefs)


def corpus_allocations(s, p):
    """Rule optima, then random, uniform and vertex allocations, then optima
    mixed a little toward a vertex (efficient or only just not)."""
    rng = np.random.default_rng(10_000 + s)
    optima = [ct.solve_ctr(p, f).allocation for f in RULES]
    vertex = np.eye(p.m)[rng.integers(0, p.m)]
    others = [rng.dirichlet(np.ones(p.m)), np.full(p.m, 1.0 / p.m), vertex]
    others += [(1 - t) * optima[0].shares + t * vertex for t in (1e-9, 1e-3, 0.03)]
    return optima, [ct.Allocation(x / x.sum()) for x in others]


CORPUS = [(s, p, *corpus_allocations(s, p)) for s, p in corpus_profiles()]


def walk_only(profile, x, resolution):
    """check_efficiency with the certificate's LP failing, so the walk decides."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axioms, "_pareto_weights", lambda *args: None)
        return ct.check_efficiency(profile, x, resolution)


def test_reports_equal_the_walk_alone_and_no_witness_is_certified():
    certified = witnesses = 0
    for _, p, optima, others in CORPUS:
        for x in optima + others:
            for res in RESOLUTIONS:
                walked = walk_only(p, x, res)
                assert ct.check_efficiency(p, x, res) == walked
                fired = axioms._certified_efficient(p, x.shares, res)
                assert not (fired and not walked.holds), (p.prefs, x.shares, res, walked.witness)
                certified += fired
                witnesses += not walked.holds
    # the corpus exercises both outcomes
    assert certified > 500 and witnesses > 50, (certified, witnesses)


def test_every_rule_optimum_is_certified_without_a_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the efficiency walk ran on a rule optimum")

    monkeypatch.setattr(axioms, "_blocking_witness", no_walk)
    for _, p, optima, _ in CORPUS:
        for x in optima:
            for res in RESOLUTIONS:
                assert ct.check_efficiency(p, x, res) == axioms.AxiomReport("efficiency", True, {"resolution": res})


@pytest.mark.parametrize("mode", ["status", "error", "nonfinite"])
def test_a_failed_lp_falls_through_to_the_walk(monkeypatch, mode):
    _, p, optima, others = CORPUS[11]
    expected = [walk_only(p, x, 0.05) for x in optima + others]
    walks = []
    walk = axioms._blocking_witness
    monkeypatch.setattr(axioms, "_blocking_witness", lambda *args: walks.append(1) or walk(*args))
    monkeypatch.setattr(FailingHighs, "mode", mode)
    monkeypatch.setattr(solver.highs, "_Highs", FailingHighs)
    assert solver._pareto_weights(optima[0].shares, *support_masks(p.prefs, optima[0].shares)) is None
    assert [ct.check_efficiency(p, x, 0.05) for x in optima + others] == expected
    assert len(walks) == len(expected)


def test_a_too_fine_resolution_is_refused_before_the_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("the certificate's LP ran before the grid guard")

    monkeypatch.setattr(axioms, "_pareto_weights", no_lp)
    _, p, optima, _ = CORPUS[2]
    assert p.m == 4
    with pytest.raises(ct.GuardError):
        ct.check_efficiency(p, optima[0], resolution=1e-4)
