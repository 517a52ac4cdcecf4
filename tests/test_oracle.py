"""Grid enumeration and brute-force argmax."""

import math

import numpy as np
import pytest

import ctrules as ct
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


def test_grid_guard_env_override(monkeypatch):
    monkeypatch.setenv("CTR_MAX_GRID", "10")
    with pytest.raises(ct.GuardError):
        ct.GridSpec(2, 0.05)
    monkeypatch.setenv("CTR_MAX_GRID", "1000")
    assert ct.GridSpec(2, 0.05).num_points() == 21


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
            out += [ct.check_efficiency(p, x, 0.05) for x in allocations]
        return out

    uncapped = outputs()
    monkeypatch.setattr(ct.oracle, "_BLOCK_ROW_CAP", 3)
    assert max(block.shape[0] for block in ct.oracle._composition_chunks(spec)) == 3
    capped = outputs()
    assert np.array_equal(capped[0], uncapped[0])
    assert capped[1:] == uncapped[1:]
    assert any(not report.holds for report in capped if isinstance(report, ct.AxiomReport))
