"""The public surface of ctrules: adding or dropping a name is a deliberate
edit of this list."""

import ctrules as ct

PUBLIC_NAMES = [
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


def test_public_names_are_exactly_the_listed_ones():
    assert sorted(ct.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ct, name) is not None
