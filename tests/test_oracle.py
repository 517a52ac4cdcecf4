"""Grid enumeration and brute-force argmax."""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ctrules as ct
from ctrules.cli import main
from helpers import core_example_profile, dirichlet_profile, sp_example_profile


def test_enumerate_two_alternatives_half_steps():
    pts = sorted(tuple(v) for v in ct.enumerate_grid(ct.GridSpec(2, 0.5)))
    assert pts == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]


def test_enumerate_three_alternatives_half_steps():
    pts = list(ct.enumerate_grid(ct.GridSpec(3, 0.5)))
    assert len(pts) == 6  # stars and bars: C(4, 2)


def test_enumerate_partial_budget():
    pts = list(ct.enumerate_grid(ct.GridSpec(2, 0.25, budget=0.5)))
    assert len(pts) == 3
    assert all(abs(sum(p) - 0.5) < 1e-12 for p in pts)


@pytest.mark.parametrize("m,res", [(2, 0.1), (3, 0.1), (4, 0.2), (3, 0.02)])
def test_enumeration_count_matches_closed_form(m, res):
    spec = ct.GridSpec(m, res)
    pts = [tuple(v) for v in ct.enumerate_grid(spec)]
    k = spec.steps
    assert len(pts) == math.comb(k + m - 1, m - 1) == spec.num_points()
    assert len(set(pts)) == len(pts)
    assert all(abs(sum(p) - 1.0) < 1e-9 for p in pts)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        ct.GridSpec(3, 0.3)  # 1/0.3 is not an integer
    with pytest.raises(ValueError):
        ct.GridSpec(0, 0.5)
    with pytest.raises(ct.GuardError):
        ct.GridSpec(6, 0.005)  # C(1205, 5) blows the point guard


def test_grid_guard_reads_its_constant_at_construction(monkeypatch):
    monkeypatch.setattr(ct.oracle, "_MAX_GRID_POINTS", 20)
    with pytest.raises(ct.GuardError, match="^grid has 21 points, exceeding the guard of 20$"):
        ct.GridSpec(2, 0.05)
    monkeypatch.setattr(ct.oracle, "_MAX_GRID_POINTS", 21)
    assert ct.GridSpec(2, 0.05).num_points() == 21


def test_no_module_reads_the_environment():
    # every size guard and tolerance is a module constant; a setting that
    # only an environment variable reaches would not show in any call
    sources = sorted(Path(ct.__file__).parent.glob("*.py"))
    assert sources
    reads = [path.name for path in sources for word in ("environ", "getenv") if word in path.read_text(encoding="utf-8")]
    assert reads == []


def test_brute_force_sp_example():
    vec, val = ct.brute_force_best(sp_example_profile(), "ctr", ct.GridSpec(2, 0.01), f=ct.make_utility("log"))
    assert np.allclose(vec, [0.25, 0.75], atol=1e-9)
    assert val == pytest.approx(np.log(0.75) * 2, abs=1e-9)


def test_brute_force_core_example():
    vec, _ = ct.brute_force_best(core_example_profile(), "ctr", ct.GridSpec(3, 0.05), f=ct.make_utility("log"))
    assert np.allclose(vec, [0.5, 0.0, 0.5], atol=1e-9)


def test_brute_force_unanimous_on_grid():
    p = ct.Profile([[0.25, 0.75]] * 3)
    for objective in ("welfare", "maxmin"):
        vec, val = ct.brute_force_best(p, objective, ct.GridSpec(2, 0.05))
        assert np.allclose(vec, [0.25, 0.75], atol=1e-9)
    vec, _ = ct.brute_force_best(p, "ctr", ct.GridSpec(2, 0.05), f=ct.make_utility("log"))
    assert np.allclose(vec, [0.25, 0.75], atol=1e-9)


def test_brute_force_lexicographic_tie_break():
    # opposed single-minded agents make total welfare constant: every grid
    # point ties, so the lexicographically smallest must win
    p = ct.Profile([[1.0, 0.0], [0.0, 1.0]])
    vec, val = ct.brute_force_best(p, "welfare", ct.GridSpec(2, 0.25))
    assert val == pytest.approx(1.0)
    assert np.allclose(vec, [0.0, 1.0])


def test_brute_force_requires_utility_for_ctr():
    with pytest.raises(ValueError):
        ct.brute_force_best(sp_example_profile(), "ctr", ct.GridSpec(2, 0.5))


def test_bad_objective_is_refused_before_any_block(monkeypatch):
    def no_blocks(spec):
        raise AssertionError("a block was requested")

    monkeypatch.setattr(ct.oracle, "_composition_chunks", no_blocks)
    p = sp_example_profile()
    with pytest.raises(ValueError, match="unknown objective 'nash'"):
        ct.brute_force_best(p, "nash", ct.GridSpec(2, 0.5))
    with pytest.raises(ValueError, match="requires a utility function"):
        ct.brute_force_best(p, "ctr", ct.GridSpec(2, 0.5))


def test_guard_prints_huge_point_counts_to_three_digits(monkeypatch):
    monkeypatch.setattr(ct.oracle, "_MAX_GRID_POINTS", 10)
    for spec, count in [
        ((2, 0.05), "21"),
        ((2, 1e-14), "100000000000001"),  # 1e14 + 1, below 1e15: whole
        ((3, 1e-15), "5e+29"),
        ((3, 1e-300), "5e+599"),  # exact count has 600 digits
        ((4, 1 / 3e5), "4.5e+15"),
    ]:
        with pytest.raises(ct.GuardError) as info:
            ct.GridSpec(*spec)
        assert str(info.value) == f"grid has {count} points, exceeding the guard of 10", spec


def test_brute_force_dimension_mismatch():
    with pytest.raises(ValueError):
        ct.brute_force_best(dirichlet_profile(0, 3, 3), "welfare", ct.GridSpec(2, 0.5))


def test_oracle_never_beats_certified_solver():
    f = ct.make_utility("log")
    for seed in range(3):
        p = dirichlet_profile(seed + 900, 4, 3)
        report = ct.solve_ctr(p, f)
        assert report.converged
        lipschitz = p.n * float(f.deriv(f.floor))
        _, val = ct.brute_force_best(p, "ctr", ct.GridSpec(3, 0.01), f=f)
        assert val <= report.objective + lipschitz * 0.01
        # the honest margin is far tighter than the Lipschitz one
        assert val <= report.objective + 1e-9


@pytest.mark.parametrize("m,res", [(1, 0.5), (2, 1e-6), (3, 1 / 600), (4, 1 / 90), (5, 1 / 30)])
def test_no_block_exceeds_the_row_cap(m, res):
    sizes = [block.shape[0] for block in ct.oracle._composition_chunks(ct.GridSpec(m, res))]
    assert max(sizes) <= ct.oracle._BLOCK_ROW_CAP
    assert sum(sizes) == ct.GridSpec(m, res).num_points()


def itertools_compositions(steps, parts):
    """Every composition of steps into parts, in lex order, from the
    stars-and-bars placements of parts - 1 bars among steps + parts - 1 slots."""
    comps = []
    for bars in itertools.combinations(range(steps + parts - 1), parts - 1):
        edges = (-1, *bars, steps + parts - 1)
        comps.append([hi - lo - 1 for lo, hi in zip(edges, edges[1:])])
    return sorted(comps)


@pytest.mark.parametrize("parts", range(1, 7))
def test_composition_sets_match_itertools(parts):
    for steps in (0, 1, 4, 9):
        comps, lengths = ct.oracle._compositions(steps, parts)
        assert comps.dtype == np.int64 and comps.flags.f_contiguous
        assert comps.tolist() == itertools_compositions(steps, parts)
        assert lengths == [math.comb(r + parts - 1, parts - 1) for r in range(steps + 1)]


@pytest.mark.parametrize("cap", [None, 40, 6, 3])
@pytest.mark.parametrize("m", range(1, 7))
def test_blocks_are_the_grid_under_one_prefix_each(monkeypatch, m, cap):
    # small caps leave fewer trailing coordinates, so prefixes get longer,
    # and the smallest cuts lines into runs
    if cap is not None:
        monkeypatch.setattr(ct.oracle, "_BLOCK_ROW_CAP", cap)
    cap = ct.oracle._BLOCK_ROW_CAP
    for steps in (1, 4, 9):
        parts = max(p for p in range(1, m + 1) if math.comb(steps + p - 1, p - 1) <= cap)
        runs = parts == 1 < m  # a line longer than the cap is cut into runs
        lead = m - 2 if runs else m - parts
        grid = itertools_compositions(steps, m)
        blocks = list(ct.oracle._composition_chunks(ct.GridSpec(m, 1 / steps)))
        assert np.concatenate(blocks).tolist() == grid
        start = 0
        for block in blocks:
            assert block.dtype == np.int64 and block.flags.f_contiguous and len(block) <= cap
            prefix = block[0, :lead].tolist()
            assert (block[:, :lead] == prefix).all()
            stop = start + len(block)
            if not runs:  # every point under the prefix: its neighbours lie under others
                assert start == 0 or grid[start - 1][:lead] != prefix
                assert stop == len(grid) or grid[stop][:lead] != prefix
            start = stop


def test_capped_blocks_give_the_uncapped_results(monkeypatch):
    f = ct.make_utility("log")
    spec = ct.GridSpec(2, 0.05)
    profiles = [sp_example_profile(), dirichlet_profile(3, 5, 2), ct.Profile([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])]
    allocations = [ct.Allocation([0.5, 0.5]), ct.Allocation([0.9, 0.1]), ct.Allocation([0.3, 0.7])]

    def outputs():
        out = [np.array(list(ct.enumerate_grid(spec)))]
        for p in profiles:
            for objective in ("ctr", "welfare", "maxmin"):
                vec, val = ct.brute_force_best(p, objective, spec, f=f)
                out.append((vec.tolist(), val))
            out += [ct.check_core(p, x, 0.05) for x in allocations]
        return out

    uncapped = outputs()
    monkeypatch.setattr(ct.oracle, "_BLOCK_ROW_CAP", 3)
    assert max(block.shape[0] for block in ct.oracle._composition_chunks(spec)) == 3
    capped = outputs()
    assert np.array_equal(capped[0], uncapped[0])
    assert capped[1:] == uncapped[1:]
    assert any(not report.holds for report in capped if isinstance(report, ct.AxiomReport))


# (m, budget, resolution): every point of each grid, budgets that are and
# are not whole, steps that do and do not divide the ideals' entries
BIT_IDENTITY_GRIDS = [
    (2, 1.0, 0.01),
    (3, 1.0, 0.05),
    (3, 3 / 7, 3 / 7 / 9),
    (4, 1.0, 0.1),
    (4, 0.5, 0.5 / 7),
    (5, 1.0, 0.2),
    (6, 1.0, 0.25),
    (7, 1.0, 0.25),
    (7, 2 / 3, 2 / 3 / 5),
]


@pytest.mark.parametrize("cap", [None, 3])
def test_block_overlap_is_bit_identical_to_pointwise_overlap(monkeypatch, cap):
    # column-order sums agree with numpy's own reduction over m <= 7 terms;
    # above that numpy sums pairwise, and the two may differ by an ulp
    if cap is not None:
        monkeypatch.setattr(ct.oracle, "_BLOCK_ROW_CAP", cap)
    rng = np.random.default_rng(15)
    for m, budget, res in BIT_IDENTITY_GRIDS:
        spec = ct.GridSpec(m, res, budget)
        prefs = rng.dirichlet(np.full(m, 0.7), size=5)
        prefs[0] = 0.0
        prefs[0, 0] = 1.0  # single-minded
        prefs[1] = np.arange(m) * res  # entries on the grid ...
        prefs[1, -1] = 1.0 - prefs[1, :-1].sum()  # ... but the last
        overlap = ct.oracle._BlockOverlap(prefs, spec)
        points = 0
        for block in ct.oracle._composition_chunks(spec):
            assert cap is None or len(block) <= cap
            pi = overlap(block)
            for steps, row in zip(block, pi):
                reference = np.minimum(prefs, steps * spec.resolution).sum(axis=1)
                assert np.array_equal(row, reference), (m, budget, steps)
            points += len(block)
        assert points == spec.num_points()


def test_fine_two_alternative_grid_keeps_its_tables_small():
    # tables over the whole million-step range would take about 150 MB
    p = dirichlet_profile(4, 8, 2)
    spec = ct.GridSpec(2, 1e-6)
    tracemalloc.start()
    try:
        vec, val = ct.brute_force_best(p, "maxmin", spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak
    assert val == ct.core.overlap(p.prefs, vec).min()


def unpruned_best(prefs, objective, spec, f=None):
    """Argmax over every point of enumerate_grid, with numpy's own overlap
    np.minimum(prefs, y).sum(axis=1); the first maximizer is kept."""
    points = list(ct.enumerate_grid(spec))
    pi = np.array([np.minimum(prefs, y).sum(axis=1) for y in points])
    if objective == "ctr":
        vals = f.value(np.maximum(pi, f.floor)).sum(axis=1)
    elif objective == "welfare":
        vals = pi.sum(axis=1)
    else:
        vals = pi.min(axis=1)
    k = int(np.argmax(vals))
    return points[k], float(vals[k])


UTILITIES = [
    ct.make_utility(kind, p)
    for kind, p in [
        ("log", None),
        ("power", 0.5),
        ("negpower", 3.0),
        ("negpower", 9.0),
        ("negexppower", 1.0),
        ("negexppower", 3.0),
        ("quadratic", None),
        ("identity", None),
    ]
]
OBJECTIVES = [("welfare", None), ("maxmin", None)] + [("ctr", f) for f in UTILITIES]
# (m, budget, resolution): whole and partial budgets, m = 2 to 6
PRUNING_GRIDS = [
    (2, 1.0, 0.01),
    (2, 0.7, 0.7 / 40),
    (3, 1.0, 0.04),
    (3, 0.6, 0.6 / 25),
    (4, 1.0, 0.1),
    (4, 0.5, 0.5 / 12),
    (5, 1.0, 0.125),
    (6, 1.0, 0.2),
]


def pruning_profile(seed, m, resolution):
    """Dirichlet rows, then a single-minded row, a row on the grid (ties
    between points) and a duplicated agent (plateaus)."""
    rng = np.random.default_rng(seed)
    prefs = rng.dirichlet(np.full(m, 0.6), size=int(rng.integers(4, 12)))
    prefs[0] = np.eye(m)[rng.integers(m)]
    prefs[1, :-1] = rng.multinomial(int(1 / resolution), np.full(m, 1 / m))[:-1] * resolution
    prefs[1, -1] = 1.0 - prefs[1, :-1].sum()
    prefs[-1] = prefs[-2]
    return ct.Profile(prefs)


@pytest.mark.parametrize("cap", [None, 16])
@pytest.mark.parametrize("m,budget,resolution", PRUNING_GRIDS)
def test_pruned_oracle_is_bit_identical_to_the_unpruned_argmax(monkeypatch, m, budget, resolution, cap):
    # a small cap splits the lines into groups, the segments into runs, and
    # scores each run of consecutive points as its own block
    if cap is not None:
        monkeypatch.setattr(ct.oracle, "_BLOCK_ROW_CAP", cap)
    spec = ct.GridSpec(m, resolution, budget)
    for seed in (m, 10 + m):
        p = pruning_profile(seed, m, resolution)
        for objective, f in OBJECTIVES:
            vec, val = ct.brute_force_best(p, objective, spec, f=f)
            ref_vec, ref_val = unpruned_best(p.prefs, objective, spec, f)
            assert np.array_equal(vec, ref_vec) and val == ref_val, (seed, objective, f)


def test_pruned_oracle_keeps_the_lexicographically_first_of_exact_ties():
    # maxmin is min(x_0, min(x_1, 1/2) + min(x_2, 1/2)), which is 1/2 along
    # x_0 = 1/2 for every split of the rest; sixteenths sum exactly
    p = ct.Profile([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    spec = ct.GridSpec(3, 1 / 16)
    vec, val = ct.brute_force_best(p, "maxmin", spec)
    ties = [y for y in ct.enumerate_grid(spec) if np.minimum(p.prefs, y).sum(axis=1).min() == 0.5]
    assert len(ties) == 9
    assert vec.tolist() == ties[0].tolist() == [0.5, 0.0, 0.5] and val == 0.5
    ref_vec, ref_val = unpruned_best(p.prefs, "maxmin", spec)
    assert np.array_equal(vec, ref_vec) and val == ref_val


def test_pruned_oracle_scores_a_small_share_of_the_grid(monkeypatch):
    rows = []
    call = ct.oracle._BlockOverlap.__call__

    def counted(self, block):
        rows.append(len(block))
        return call(self, block)

    monkeypatch.setattr(ct.oracle._BlockOverlap, "__call__", counted)
    spec = ct.GridSpec(4, 0.01)
    p = dirichlet_profile(7, 8, 4)
    for objective, f in [("welfare", None), ("maxmin", None), ("ctr", ct.make_utility("log"))]:
        rows.clear()
        ct.brute_force_best(p, objective, spec, f=f)
        # the rows that build the tables, the lines' prefix sums and the
        # scored points together stay under a tenth of the grid
        assert sum(rows) < 0.1 * spec.num_points(), (objective, sum(rows))


def test_oracle_verify_reports_what_the_unpruned_walk_reports(tmp_path, capsys, monkeypatch):
    prof = tmp_path / "r.json"
    assert main(["gen", "--kind", "dirichlet:1.0", "--n", "5", "--m", "3", "--seed", "4", "--out", str(prof)]) == 0
    outputs = []
    for oracle in (None, lambda profile, objective, spec, f=None: unpruned_best(profile.prefs, objective, spec, f)):
        if oracle is not None:
            monkeypatch.setattr(ct.cli, "brute_force_best", oracle)
        capsys.readouterr()
        for rule in ("nash", "negpower:3", "util", "egal"):
            code = main(["oracle-verify", "--profile", str(prof), "--rule", rule, "--resolution", "0.01"])
            outputs.append((rule, code, capsys.readouterr().out))
    assert outputs[:4] == outputs[4:]
    assert [code for _, code, _ in outputs] == [0] * 8


def test_fine_three_alternative_grid_stays_small():
    # the 8M-point grid of the fine maxmin tests
    p = dirichlet_profile(5, 8, 3)
    spec = ct.GridSpec(3, 0.00025)
    tracemalloc.start()
    try:
        vec, val = ct.brute_force_best(p, "maxmin", spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak
    assert val == ct.core.overlap(p.prefs, vec).min()
