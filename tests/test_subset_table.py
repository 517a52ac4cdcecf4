"""The vectorised subset table against a brute-force reference over
itertools.combinations, through every group-fairness consumer."""

import itertools

import numpy as np
import pytest

import ctrules as ct
from ctrules.cli import _afs_worst_ratios, _lambda_grid, ladder_rule, main

NASH = ct.make_utility("log")
SQRT = ct.make_utility("power", p=0.5)  # inequality aversion exactly 1/2


def reference_groups(prefs, sats):
    """bitmask -> (capped cohesion, mean satisfaction, members), one
    Python pass per subset."""
    n = len(prefs)
    table = {}
    for size in range(1, n + 1):
        for members in itertools.combinations(range(n), size):
            rows = list(members)
            raw = float(prefs[rows].min(axis=0).sum())
            table[sum(1 << i for i in members)] = (min(raw, size / n), float(sats[rows].mean()), list(members))
    return table


def corpus():
    """Seeded profiles with n <= 8 and m in 2..4 of four kinds: Dirichlet,
    single-minded, duplicate rows and rows on a 0.1 grid; each comes with a
    random allocation."""
    rng = np.random.default_rng(20241)
    for case in range(48):
        n, m = int(rng.integers(1, 9)), int(rng.integers(2, 5))
        kind = case % 4
        if kind == 0:
            rows = rng.dirichlet(np.ones(m), n)
        elif kind == 1:
            rows = np.eye(m)[rng.integers(0, m, n)]
        elif kind == 2:
            distinct = rng.dirichlet(np.ones(m), max(1, n // 2))
            rows = distinct[rng.integers(0, len(distinct), n)]
        else:
            rows = rng.multinomial(10, np.full(m, 1.0 / m), n) / 10.0
        yield ct.Profile(rows), ct.Allocation(rng.dirichlet(np.ones(m)))


CORPUS = list(corpus())


def test_table_matches_reference():
    for p, x in CORPUS:
        sats = ct.satisfaction_vector(p, x).values
        alpha, mean = ct.cohesive_groups(p, sats)
        assert alpha.shape == mean.shape == ((1 << p.n) - 1,)
        for mask, (ref_alpha, ref_mean, _) in reference_groups(p.prefs, sats).items():
            assert alpha[mask - 1] == pytest.approx(ref_alpha, abs=1e-12)
            assert mean[mask - 1] == pytest.approx(ref_mean, abs=1e-12)


def test_check_afs_witness_is_lowest_violating_mask():
    violated = 0
    for p, x in CORPUS:
        sats = ct.satisfaction_vector(p, x).values
        table = reference_groups(p.prefs, sats)
        for lam in (0.5, 1.0):
            bad = [
                mask
                for mask, (alpha, mean, _) in table.items()
                if alpha > 0.0 and mean < alpha ** (1.0 / lam) - 1e-9
            ]
            report = ct.check_afs(p, x, lam=lam)
            assert report.holds == (not bad)
            if bad:
                violated += 1
                alpha, mean, members = table[min(bad)]
                w = report.witness
                assert w["members"] == members
                assert w["alpha"] == pytest.approx(alpha, abs=1e-12)
                assert w["mean_satisfaction"] == pytest.approx(mean, abs=1e-12)
                assert w["bound"] == pytest.approx(alpha ** (1.0 / lam), abs=1e-12)
    assert violated > 0


def test_verify_bounds_afs_margin_matches_reference():
    for p, _ in CORPUS:
        references = ct.solve_utilitarian(p), ct.solve_egalitarian(p)
        for f, lam in ((NASH, 1.0), (SQRT, 0.5)):
            report = ct.solve_ctr(p, f)
            table = reference_groups(p.prefs, report.satisfactions.values)
            margin = min(mean - alpha ** (1.0 / lam) for alpha, mean, _ in table.values() if alpha > 0.0)
            check = next(c for c in ct.verify_bounds(p, f, report, *references) if c.kind == "AFS-exponent")
            assert check.empirical - check.bound == pytest.approx(margin, abs=1e-12)
            assert check.params["lambda"] == lam


def test_sweep_worst_ratio_matches_reference():
    lambdas = [0.5, 1.0, 2.0]
    for p, x in CORPUS:
        sats = ct.satisfaction_vector(p, x).values
        table = reference_groups(p.prefs, sats)
        worst = _afs_worst_ratios(p, np.array([sats] * len(lambdas)), lambdas)
        for lam, got in zip(lambdas, worst):
            ratio = min(
                mean / (alpha ** (1.0 / lam) if lam <= 1.0 else alpha)
                for alpha, mean, _ in table.values()
                if alpha > 0.0
            )
            assert got == pytest.approx(ratio, rel=1e-12)


def per_rung_worst_ratios(p, sats, lambdas):
    """Each rung's worst ratio by its own pass over a copy of the cohesive
    groups' entries, with the target from the same vectorised power
    alpha ** (1 / lambda) and ratio inf where the target underflows to 0:
    the plain form that the sweep's one pass over every rung reproduces."""
    alpha, means = ct.cohesive_groups(p, sats)
    cohesive = alpha > 0.0
    alpha = alpha[cohesive]
    worst = []
    for lam, mean in zip(lambdas, means):
        mean = mean[cohesive]
        target = alpha ** (1.0 / lam) if lam <= 1.0 else alpha
        with np.errstate(over="ignore"):  # a subnormal target overflows the ratio to inf
            ratio = np.divide(mean, target, out=np.full_like(mean, np.inf), where=target > 0.0)
        worst.append(float(ratio.min()))
    return worst


def ladder_satisfactions(p, lambdas):
    """The satisfactions of a sweep's rungs, each solve started from the
    previous rung's optimum."""
    reports = []
    for lam in lambdas:
        reports.append(ct.solve_ctr(p, ladder_rule(lam), start=reports[-1].allocation if reports else None))
    return np.array([r.satisfactions.values for r in reports])


def test_sweep_worst_ratios_equal_a_pass_per_rung_bit_for_bit():
    """On single-minded and block (``groups:``) profiles, whose groups are
    not all cohesive, the sweep's one pass over every rung gives the worst
    ratio of a pass per rung exactly: over the default ladder, and at
    lambdas where every target, some targets, or none underflow."""
    rng = np.random.default_rng(33)
    profiles = [ct.Profile(np.eye(m)[rng.integers(0, m, n)]) for n, m in ((3, 2), (6, 3), (9, 4), (12, 3))]
    blocks = [
        ((2, 3), [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]),
        ((3, 2, 4), [[0.6, 0.4, 0.0], [0.0, 0.3, 0.7], [0.5, 0.0, 0.5]]),
        ((4, 4, 5), [[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], [0.1, 0.2, 0.3, 0.4]]),
    ]
    profiles += [ct.Profile(np.repeat(rows, sizes, axis=0)) for sizes, rows in blocks]
    ladder = _lambda_grid("0.25:4:5")
    tiny = [1e-4, 3e-3, 1e-2]
    underflows = set()
    for p in profiles:
        assert not (ct.cohesive_groups(p, np.zeros(p.n))[0] > 0.0).all()
        sats = ladder_satisfactions(p, ladder)
        assert _afs_worst_ratios(p, sats, ladder) == per_rung_worst_ratios(p, sats, ladder)
        assert _afs_worst_ratios(p, sats[:3], tiny) == per_rung_worst_ratios(p, sats[:3], tiny)
        alpha = ct.cohesive_groups(p, sats[0])[0]
        for lam in tiny:
            zero = alpha[alpha > 0.0] ** (1.0 / lam) == 0.0
            underflows.add("every" if zero.all() else "some" if zero.any() else "no")
    assert underflows == {"every", "some", "no"}


def test_table_of_several_rows_equals_the_table_of_each_row():
    """Rows of satisfactions (the rungs of a sweep) share one cohesion
    table; each row's means equal those of a one-row call bit for bit."""
    rng = np.random.default_rng(5)
    for p, _ in CORPUS:
        rows = np.array([ct.satisfaction_vector(p, ct.Allocation(rng.dirichlet(np.ones(p.m)))).values for _ in range(4)])
        alpha, means = ct.cohesive_groups(p, rows)
        assert means.shape == (4, (1 << p.n) - 1)
        for row, mean in zip(rows, means):
            one_alpha, one_mean = ct.cohesive_groups(p, row)
            assert np.array_equal(alpha, one_alpha) and np.array_equal(mean, one_mean)


def test_sweep_builds_the_cohesion_table_once_per_profile(tmp_path, monkeypatch):
    calls = []
    table = ct.axioms.cohesive_groups

    def counting(profile, sats):
        calls.append(np.shape(sats))
        return table(profile, sats)

    monkeypatch.setattr(ct.axioms, "cohesive_groups", counting)
    for seed in (1, 2):
        assert main(["gen", "--kind", "dirichlet:1.0", "--n", "5", "--m", "3", "--seed", str(seed), "--out", str(tmp_path / f"p{seed}.json")]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--profile-dir", str(tmp_path), "--lambda-grid", "0.25:4:5", "--out", str(out)]) == 0
    assert calls == [(5, 5), (5, 5)]
    assert len(out.read_text().splitlines()) == 11
