"""Shared test fixtures: seeded instance generators, a perturbed-start
solver run and a failing HiGHS model."""

import types

import numpy as np

import ctrules as ct
from ctrules import solver


def perturbed_start_ascent(profile: ct.Profile, f: ct.UtilityFunction, seed: int):
    """Solve from a seeded Dirichlet-perturbed interior start instead of the
    cold (mean-ideal) one.

    The profile must support every alternative.  Returns the satisfactions
    reached and whether the MRS certificate passed.
    """
    m = profile.m
    assert (profile.prefs.max(axis=0) > 0.0).all(), "every alternative needs a supporter"
    x0 = np.full(m, 1.0 / m) + 0.5 * np.random.default_rng(seed).dirichlet(np.ones(m))
    report = ct.solve_ctr(profile, f, start=ct.Allocation(x0 / x0.sum()))
    return report.satisfactions.values, report.converged


def dirichlet_profile(seed: int, n: int, m: int, conc: float = 1.0) -> ct.Profile:
    rng = np.random.default_rng(seed)
    return ct.Profile(rng.dirichlet(np.full(m, conc), size=n))


def single_minded_profile(seed: int, n: int, m: int) -> ct.Profile:
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, m))
    rows[np.arange(n), rng.integers(0, m, size=n)] = 1.0
    return ct.Profile(rows)


def two_group_profile(s1: int, s2: int) -> ct.Profile:
    rows = [[1.0, 0.0]] * s1 + [[0.0, 1.0]] * s2
    return ct.Profile(rows)


def core_example_profile() -> ct.Profile:
    """Three homogeneous groups of sizes 3/3/4 over three alternatives."""
    rows = [[1.0, 0.0, 0.0]] * 3 + [[0.5, 0.5, 0.0]] * 3 + [[0.0, 0.0, 1.0]] * 4
    return ct.Profile(rows)


def sp_example_profile() -> ct.Profile:
    """Two agents, two alternatives: the canonical manipulation instance."""
    return ct.Profile([[0.5, 0.5], [0.0, 1.0]])


def random_allocation(seed: int, m: int) -> ct.Allocation:
    rng = np.random.default_rng(seed)
    return ct.Allocation(rng.dirichlet(np.ones(m)))


class FailingHighs(solver.highs._Highs):
    """A HiGHS model that fails as ``mode`` says: "status" reports an
    infeasible model, "error" an error status from run, and "nonfinite"
    an optimum with infinite column values.  Patch it in as
    ``solver.highs._Highs``."""

    mode = "status"

    def run(self):
        status = super().run()
        return solver.highs.HighsStatus.kError if self.mode == "error" else status

    def getModelStatus(self):
        if self.mode == "status":
            return solver.highs.HighsModelStatus.kInfeasible
        return super().getModelStatus()

    def getSolution(self):
        if self.mode == "nonfinite":
            return types.SimpleNamespace(col_value=[np.inf] * self.getNumCol())
        return super().getSolution()
