"""The efficiency LP: it finds every witness the grid walk finds and more,
settles every rule optimum in one solve, re-solves per agent only when the
total gain is spread, and raises when HiGHS fails."""

import numpy as np
import pytest

import ctrules as ct
from ctrules import axioms, solver
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


def walk_witness(p, x, resolution):
    """The first point in lex order of the full-budget grid, its step
    snapped to the resolution, that leaves every agent at least pi - 1e-9
    and one above pi + resolution, or None."""
    points = np.array(list(ct.enumerate_grid(ct.GridSpec.snapped(p.m, 1.0, resolution))))
    pi = ct.satisfaction_vector(p, x).values
    after = np.minimum(p.prefs[None], points[:, None, :]).sum(axis=2)
    hit = (after >= pi - 1e-9).all(axis=1) & (after > pi + resolution).any(axis=1)
    return points[np.argmax(hit)] if hit.any() else None


def assert_rechecks(p, x, report):
    """A failing report's witness dominates x, recomputed from the raw profile."""
    w = report.witness
    y = np.array(w["dominating"])
    pi = ct.satisfaction_vector(p, x).values
    after = np.minimum(p.prefs, y).sum(axis=1)
    assert y.min() >= 0.0 and abs(y.sum() - 1.0) <= 1e-9
    assert w["satisfactions_before"] == pi.tolist() and w["satisfactions_after"] == after.tolist()
    assert (after >= pi - 1e-9).all() and (after > pi + w["resolution"]).any()


def lp_solves(monkeypatch):
    """A list that grows by one for every LP solve from now on."""
    solves = []
    solve = solver._LP.solve
    monkeypatch.setattr(solver._LP, "solve", lambda self: solves.append(1) or solve(self))
    return solves


def test_every_walk_witness_is_an_lp_witness():
    walked = extra = 0
    for _, p, optima, others in CORPUS:
        for x in optima + others:
            for res in RESOLUTIONS:
                report = ct.check_efficiency(p, x, res)
                on_grid = walk_witness(p, x, res) is not None
                assert not (on_grid and report.holds), (p.prefs, x.shares, res)
                if not report.holds:
                    assert_rechecks(p, x, report)
                walked += on_grid
                extra += not (report.holds or on_grid)
    # the LP decides over the whole simplex, so it also finds witnesses off the grid
    assert walked > 50 and extra > 5, (walked, extra)


def degenerate_profiles():
    """Seeded profiles with n 1-8 and m 2-8: Dirichlet rows, single-minded
    rows, duplicate rows and a column nobody supports."""
    for s in range(32):
        rng = np.random.default_rng(700 + s)
        n, m, kind = 1 + s % 8, 2 + s % 7, s % 4
        if kind == 0:
            rows = rng.dirichlet(np.full(m, 0.5), n)
        elif kind == 1:
            rows = np.eye(m)[rng.integers(0, m, n)]
        elif kind == 2:
            rows = rng.dirichlet(np.ones(m), 2)[rng.integers(0, 2, n)]
        else:
            rows = np.insert(rng.dirichlet(np.ones(m - 1), n), int(rng.integers(0, m)), 0.0, axis=1)
        yield ct.Profile(rows)


def test_every_rule_optimum_is_certified_without_a_walk(monkeypatch):
    def no_walk(*args):
        raise AssertionError("the efficiency check walked a grid")

    monkeypatch.setattr(axioms, "_composition_chunks", no_walk)
    solves = lp_solves(monkeypatch)
    rules = RULES + [ct.make_utility("negexppower", p=1.0)]
    checked = 0
    for p in degenerate_profiles():
        for f in rules:
            report = ct.solve_ctr(p, f)
            assert report.converged
            for res in (1e-6, 1e-3, 0.1):
                solves.clear()
                holds = axioms.AxiomReport("efficiency", True, {"resolution": res})
                assert ct.check_efficiency(p, report.allocation, res) == holds, (p.prefs, f, res)
                # a total gain under the resolution settles it in the first solve
                assert len(solves) == 1
                checked += p.m > 4
    assert checked > 100


def test_the_per_agent_solves_decide_a_spread_gain(monkeypatch):
    solves = lp_solves(monkeypatch)
    # five identical agents each gain 0.02 from the wasted mass: 0.1 in
    # total, above the resolution, but no agent alone gains more than 0.02
    p = ct.Profile([[0.5, 0.5, 0.0]] * 5)
    x = ct.Allocation([0.48, 0.5, 0.02])
    assert ct.check_efficiency(p, x, 0.05).holds
    assert len(solves) == 1 + p.n
    assert not ct.check_efficiency(p, x, 0.01).holds

    # seeded 0.1-grid profiles halfway between a random allocation and the
    # Nash optimum: checks the first solve leaves to the per-agent ones end
    # both ways.  They agree with the walk, except where the best gain is
    # the resolution itself: the walk's float sums then find gains a few
    # ulps above it, so it is held to a gain 1e-12 above
    outcomes = set()
    rng = np.random.default_rng(2024)
    for _ in range(120):
        n, m = int(rng.integers(2, 5)), int(rng.integers(3, 5))
        p = ct.Profile(rng.multinomial(10, np.ones(m) / m, size=n) / 10)
        x = ct.Allocation(0.5 * rng.multinomial(20, np.ones(m) / m) / 20 + 0.5 * ct.solve_ctr(p, RULES[0]).allocation.shares)
        res = float(rng.choice([0.02, 0.05, 0.1]))
        solves.clear()
        report = ct.check_efficiency(p, x, res)
        if len(solves) > 1:
            outcomes.add(report.holds)
        if not report.holds:
            assert_rechecks(p, x, report)
        elif walk_witness(p, x, res + 1e-12) is not None:
            raise AssertionError((p.prefs, x.shares, res))
    assert outcomes == {True, False}


@pytest.mark.parametrize("mode", ["status", "error", "nonfinite"])
def test_a_failed_lp_raises(monkeypatch, mode):
    _, p, optima, others = CORPUS[11]
    monkeypatch.setattr(FailingHighs, "mode", mode)
    monkeypatch.setattr(solver.highs, "_Highs", FailingHighs)
    for x in optima + others:
        with pytest.raises(RuntimeError, match="efficiency LP failed"):
            ct.check_efficiency(p, x, 0.05)


def test_a_fine_resolution_needs_no_grid(monkeypatch):
    _, p, optima, others = CORPUS[2]
    assert p.m == 4
    # the grid at 1e-6 would have about 1.7e17 points
    assert ct.check_efficiency(p, optima[0], resolution=1e-6).holds
    assert not ct.check_efficiency(p, others[2], resolution=1e-6).holds

    def no_lp(*args):
        raise AssertionError("the LP was built for a resolution that is refused")

    monkeypatch.setattr(axioms, "_LP", no_lp)
    for resolution in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="resolution must be finite and positive"):
            ct.check_efficiency(p, optima[0], resolution)


def test_a_witness_that_leaves_an_agent_worse_off_raises(monkeypatch):
    # an LP optimum y = (0.5, 0.5) at the SP example's Nash optimum lifts
    # agent 0 from 0.75 to 1 and lowers agent 1 to 0.5: the re-check refuses it
    p, x = ct.Profile([[0.5, 0.5], [0.0, 1.0]]), ct.Allocation([0.25, 0.75])
    monkeypatch.setattr(solver._LP, "solve", lambda self: (0, -10.0, np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])))
    with pytest.raises(RuntimeError, match="^the efficiency LP's witness leaves an agent worse off$"):
        ct.check_efficiency(p, x, resolution=0.05)


def test_a_resolution_below_the_rounding_floor_is_refused(monkeypatch):
    _, p, _, _ = CORPUS[2]
    report = ct.solve_ctr(p, RULES[0])
    assert report.converged
    assert ct.check_efficiency(p, report.allocation, resolution=ct.EQUALITY_TOL).holds

    def no_lp(*args):
        raise AssertionError("the LP was built for a resolution that is refused")

    monkeypatch.setattr(axioms, "_LP", no_lp)
    with pytest.raises(ValueError, match="below the rounding floor"):
        ct.check_efficiency(p, report.allocation, resolution=1e-16)
