"""Continuous Thiele rules for budget aggregation.

Aggregates ideal budget distributions into a collective one by maximizing a
concave function of the agents' overlap satisfactions, certifies optima via
a first-order gap, checks the classical fairness axioms, and evaluates the
closed-form welfare/fairness trade-off bounds parameterized by the
utility's inequality aversion.
"""

from .axioms import (
    AxiomReport,
    check_afs,
    check_core,
    check_efficiency,
    check_ifs,
    check_prop,
    check_rr,
    cohesive_groups,
    probe_participation,
    probe_strategyproofness,
)
from .bounds import (
    BoundCheck,
    afs_bound,
    egalitarian_loss,
    el_bound_single_minded,
    gamma,
    ifs_share_bound,
    min_agent_bound,
    verify_bounds,
    welfare,
    welfare_loss,
    wl_bound,
    wl_bound_single_minded,
)
from .core import (
    EQUALITY_TOL,
    Allocation,
    GuardError,
    IavBound,
    Profile,
    SatisfactionVector,
    UtilityFunction,
    iav,
    iav_bound_of,
    make_utility,
    satisfaction_vector,
)
from .oracle import GridSpec, brute_force_best, enumerate_grid
from .solver import (
    SolveReport,
    SolverOptions,
    directional_derivative,
    marginal_contribution,
    mrs_gap,
    solve_ctr,
    solve_egalitarian,
    solve_utilitarian,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AxiomReport",
    "BoundCheck",
    "EQUALITY_TOL",
    "GridSpec",
    "GuardError",
    "IavBound",
    "Profile",
    "SatisfactionVector",
    "SolveReport",
    "SolverOptions",
    "UtilityFunction",
    "afs_bound",
    "brute_force_best",
    "check_afs",
    "check_core",
    "check_efficiency",
    "check_ifs",
    "check_prop",
    "check_rr",
    "cohesive_groups",
    "directional_derivative",
    "egalitarian_loss",
    "el_bound_single_minded",
    "enumerate_grid",
    "gamma",
    "iav",
    "iav_bound_of",
    "ifs_share_bound",
    "make_utility",
    "marginal_contribution",
    "min_agent_bound",
    "mrs_gap",
    "probe_participation",
    "probe_strategyproofness",
    "satisfaction_vector",
    "solve_ctr",
    "solve_egalitarian",
    "solve_utilitarian",
    "verify_bounds",
    "welfare",
    "welfare_loss",
    "wl_bound",
    "wl_bound_single_minded",
]
