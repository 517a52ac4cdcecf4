"""The one-pass core search against the per-coalition grid walk over
itertools.combinations and enumerate_grid, the efficiency LP against the
grand coalition's walk, plus properties of both checks on degenerate
profiles."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctrules as ct

NASH = ct.make_utility("log")


def reference_blocking(prefs, pi, members, resolution):
    """Lexicographically first grid deviation of budget |members|/n that
    blocks the coalition, walked point by point, or None."""
    n, m = prefs.shape
    budget = len(members) / n
    steps = max(1, round(budget / resolution))
    rows = list(members)
    before = pi[rows]
    for y in ct.enumerate_grid(ct.GridSpec(m, budget / steps, budget)):
        after = np.minimum(prefs[rows], y).sum(axis=1)
        if (after >= before - 1e-9).all() and (after > before + resolution).any():
            return budget, y, before, after
    return None


def reference_core(profile, x, resolution):
    """(holds, witness) of the lowest-bitmask blocked coalition, one grid
    walk per coalition."""
    prefs = profile.prefs
    pi = np.minimum(prefs, x.shares).sum(axis=1)
    coalitions = [c for size in range(1, profile.n + 1) for c in itertools.combinations(range(profile.n), size)]
    for members in sorted(coalitions, key=lambda c: sum(1 << i for i in c)):
        found = reference_blocking(prefs, pi, members, resolution)
        if found is not None:
            budget, y, before, after = found
            return False, {
                "members": list(members),
                "budget": budget,
                "deviation": y.tolist(),
                "satisfactions_before": before.tolist(),
                "satisfactions_after": after.tolist(),
                "resolution": resolution,
            }
    return True, {"resolution": resolution}


def corpus():
    """Seeded profiles with n <= 6 and m in 2..4: Dirichlet, duplicate rows,
    single-minded rows, a column nobody supports, n = 1 and m = 2.  Every
    third case checks the certified Nash optimum, the others a random
    allocation.  One hand-made case closes the list."""
    rng = np.random.default_rng(5150)
    for case in range(48):
        kind = case % 6
        n = 1 if kind == 4 else int(rng.integers(2, 7))
        m = 2 if kind == 5 else int(rng.integers(2, 5))
        if kind == 1:
            pool = rng.dirichlet(np.ones(m), 2)
            rows = pool[rng.integers(0, 2, n)]
        elif kind == 2:
            rows = np.eye(m)[rng.integers(0, m, n)]
        elif kind == 3:
            rows = np.insert(rng.dirichlet(np.ones(m - 1), n), int(rng.integers(0, m)), 0.0, axis=1)
        else:
            rows = rng.dirichlet(np.full(m, 0.7), n)
        profile = ct.Profile(rows)
        if case % 3 == 0:
            x = ct.solve_ctr(profile, NASH).allocation
        else:
            x = ct.Allocation(rng.dirichlet(np.ones(m)))
        yield case, profile, x, (0.1, 0.2, 0.25)[case % 3]
    # agent 1 alone blocks in the grid's first block, agent 0 (the lower
    # bitmask) only in its last: the search must not stop at the first hit
    yield 48, ct.Profile([[1, 0, 0, 0], [0, 0, 0, 1]]), ct.Allocation([0.3, 0.2, 0.2, 0.3]), 0.1


CASES = list(corpus())


def test_corpus_has_violations_and_stable_cases():
    verdicts = [ct.check_core(p, x, resolution=res).holds for _, p, x, res in CASES]
    assert 10 <= sum(verdicts) <= len(verdicts) - 10


@pytest.mark.parametrize("case,profile,x,resolution", CASES, ids=[f"case{c[0]}" for c in CASES])
def test_core_and_efficiency_match_per_coalition_reference(case, profile, x, resolution):
    report = ct.check_core(profile, x, resolution=resolution)
    assert (report.holds, report.witness) == reference_core(profile, x, resolution)

    # the LP decides over the whole simplex, so every grid witness is an LP
    # witness, and each LP witness re-checks from the raw profile
    pi = np.minimum(profile.prefs, x.shares).sum(axis=1)
    grand = reference_blocking(profile.prefs, pi, range(profile.n), resolution)
    eff = ct.check_efficiency(profile, x, resolution=resolution)
    if grand is not None:
        assert not eff.holds
    if not eff.holds:
        y = np.array(eff.witness["dominating"])
        after = np.minimum(profile.prefs, y).sum(axis=1)
        assert y.min() >= 0.0 and abs(y.sum() - 1.0) <= 1e-9
        assert eff.witness == {
            "dominating": y.tolist(),
            "satisfactions_before": pi.tolist(),
            "satisfactions_after": after.tolist(),
            "resolution": resolution,
        }
        assert (after >= pi - 1e-9).all() and (after > pi + resolution).any()


def wide_corpus():
    """Past the old n <= 12 and m <= 4 caps of the core search: 13 agents
    on m = 2, and m = 5 and 6, each at the Nash optimum and at a random
    allocation."""
    rng = np.random.default_rng(2025)
    for n, m, resolution in [(13, 2, 0.1), (4, 5, 0.2), (3, 6, 0.25), (5, 5, 0.25)]:
        profile = ct.Profile(rng.dirichlet(np.full(m, 0.7), n))
        yield profile, ct.solve_ctr(profile, NASH).allocation, resolution
        yield profile, ct.Allocation(rng.dirichlet(np.ones(m))), resolution


WIDE = list(wide_corpus())


def test_wide_corpus_has_violations_and_stable_cases():
    verdicts = [ct.check_core(p, x, resolution=res).holds for p, x, res in WIDE]
    assert 2 <= sum(verdicts) <= len(verdicts) - 2


@pytest.mark.parametrize("profile,x,resolution", WIDE, ids=[f"{p.n}x{p.m}-{k % 2}" for k, (p, _, _) in enumerate(WIDE)])
def test_core_past_the_old_caps_matches_per_coalition_reference(profile, x, resolution):
    report = ct.check_core(profile, x, resolution=resolution)
    assert (report.holds, report.witness) == reference_core(profile, x, resolution)


def test_core_walks_one_grid_per_coalition_size(monkeypatch):
    walks = []
    chunks = ct.axioms._composition_chunks

    def counted(spec):
        walks.append(spec.budget)
        return chunks(spec)

    monkeypatch.setattr(ct.axioms, "_composition_chunks", counted)
    for _, profile, x, resolution in CASES:
        walks.clear()
        report = ct.check_core(profile, x, resolution=resolution)
        sizes = [round(b * profile.n) for b in walks]
        assert sizes == sorted(set(sizes))
        if report.holds:
            assert sizes == list(range(1, profile.n + 1))


# (prefs, allocation, witness members) at resolution 0.1, small enough to
# follow by hand
HAND_MADE = [
    # agent 0 can at best break even on a budget of 1/2, and agent 1 gains:
    # at the witness W = {0, 1} and B = {1}, so the lowest agent of W misses
    # B and agent 1 is swapped in
    ([[0, 0.5, 0.5], [0, 0, 1]], [0, 1, 0], [1]),
    # the same with a twin of agent 1: B = {1, 2}, and the swap takes its
    # lowest agent ({2} would lose to {0, 1} on the next size)
    ([[0, 0.5, 0.5], [0, 0, 1], [0, 0, 1]], [0.7, 0.1, 0.2], [1]),
    # no single agent blocks; at the witness the two lowest agents of
    # W = {0, 1, 2} miss B = {2}, so the pair is {0, 2}
    ([[0, 0.5, 0.5], [0, 0.5, 0.5], [0.5, 0, 0.5]], [0.2, 0.7, 0.1], [0, 2]),
    # {2} blocks alone, but {0, 1} (bitmask 3) is lower than {2} (bitmask 4)
    ([[0, 0, 1], [0, 0, 1], [0, 1, 0]], [0.3, 0.2, 0.5], [0, 1]),
]


@pytest.mark.parametrize("prefs,shares,members", HAND_MADE)
def test_hand_made_witnesses_match_per_coalition_reference(prefs, shares, members):
    profile, x = ct.Profile(prefs), ct.Allocation(shares)
    report = ct.check_core(profile, x, resolution=0.1)
    assert (report.holds, report.witness) == reference_core(profile, x, 0.1)
    assert report.witness["members"] == members
    pi = np.minimum(profile.prefs, x.shares).sum(axis=1)
    after = np.minimum(profile.prefs, report.witness["deviation"]).sum(axis=1)
    fit = np.flatnonzero(after >= pi - 1e-9)
    gain = np.flatnonzero(after > pi + 0.1)
    if members == [0, 1]:
        assert reference_blocking(profile.prefs, pi, [2], 0.1) is not None
    else:  # the k lowest agents of W miss B
        assert not set(fit[: len(members)]) & set(gain)
        assert members == [*fit[: len(members) - 1], gain[0]]


@st.composite
def degenerate_profiles(draw):
    """Duplicate rows, maybe a column nobody supports; n may be 1 and m 2."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 4))
    unsupported = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    pool = rng.dirichlet(np.ones(m - unsupported), draw(st.integers(1, n)))
    if unsupported:
        pool = np.insert(pool, draw(st.integers(0, m - 1)), 0.0, axis=1)
    return ct.Profile(pool[rng.integers(0, len(pool), n)])


@settings(max_examples=40, deadline=None)
@given(profile=degenerate_profiles())
def test_nash_optimum_is_efficient_on_degenerate_profiles(profile):
    report = ct.solve_ctr(profile, NASH)
    assert report.converged
    assert ct.check_efficiency(profile, report.allocation, resolution=0.1).holds
    core = ct.check_core(profile, report.allocation, resolution=0.1)
    assert core.axiom == "core" and core.witness["resolution"] == 0.1


def test_a_gain_of_exactly_the_resolution_does_not_block():
    # twins with ideal (0.3, 0.4, 0.3) under x = (0.3, 0.3, 0.4): the grand
    # coalition's best deviation is its ideal, which lifts both by exactly
    # 0.1, and no smaller coalition gains at all on a budget of 1/2
    prefs, shares, ideal = [[0.3, 0.4, 0.3]] * 2, [0.3, 0.3, 0.4], [0.3, 0.4, 0.3]
    tenths = [[Fraction(round(10 * v), 10) for v in row] for row in (prefs[0], shares, ideal)]
    exact = sum(map(min, tenths[0], tenths[2])) - sum(map(min, tenths[0], tenths[1]))
    assert exact == Fraction(1, 10)
    profile = ct.Profile(prefs)
    before = np.minimum(profile.prefs, shares).sum(axis=1)
    after = np.minimum(profile.prefs, ideal).sum(axis=1)
    assert (after > before + 0.1).all()  # the float sums clear it by an ulp
    report = ct.check_core(profile, ct.Allocation(shares), resolution=0.1)
    assert report.holds and report.witness == {"resolution": 0.1}
