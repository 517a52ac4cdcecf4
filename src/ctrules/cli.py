"""Command-line interface: profile files, rule execution, axiom checks,
bound tables, instance generation, and lambda sweeps.

Profiles travel as JSON documents {"n": int, "m": int, "prefs": [[...]]}
with optional "labels" and "seed" keys.  Rows must sum to 1 within 1e-6;
rows off by more than 1e-12 are renormalized on load, anything worse is
rejected; "n", "m" and "seed" must be JSON integers.  Exit codes: 0
success, 1 usage error, I/O or parse failure, 2 non-convergence, a failed
check or oracle comparison, or a failed LP, 3 size-guard violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import axioms as ax
from . import bounds as bd
from .core import _KINDS_WITH_P, Allocation, GuardError, Profile, UtilityFunction, make_utility
from .oracle import GridSpec, brute_force_best
from .solver import SolveReport, solve_ctr, solve_egalitarian, solve_utilitarian

SWEEP_HEADER = "lambda,rule,m,n,seed,wl_emp,wl_bound,el_emp,el_bound,min_share,min_share_bound,afs_worst"


# ---------------------------------------------------------------------------
# Profile files
# ---------------------------------------------------------------------------


def load_profile(path: str | Path) -> tuple[Profile, dict]:
    """Read a profile document; returns the profile and its raw metadata."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "prefs" not in doc:
        raise ValueError(f"{path}: not a profile document")
    for key in ("n", "m", "seed"):
        # bool is an int subclass, and true would pass for 1
        if key in doc and type(doc[key]) is not int:
            raise ValueError(f"{path}: {key} must be an integer, got {doc[key]!r}")
    prefs = _numbers(path, doc["prefs"], "prefs")
    if prefs.ndim != 2:
        raise ValueError(f"{path}: prefs must be a matrix")
    n, m = prefs.shape
    if doc.get("n", n) != n or doc.get("m", m) != m:
        raise ValueError(f"{path}: declared n/m do not match the prefs shape")
    sums = prefs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"{path}: row {bad} sums to {sums[bad]!r}, outside the 1e-6 tolerance")
    off = np.abs(sums - 1.0) > 1e-12
    if off.any():
        prefs[off] = prefs[off] / sums[off, None]
    return Profile(prefs), doc


def save_profile(path: str | Path, profile: Profile, seed: int | None = None) -> None:
    doc: dict = {"n": profile.n, "m": profile.m, "prefs": [[float(v) for v in row] for row in profile.prefs]}
    if seed is not None:
        doc["seed"] = seed
    _write(path, json.dumps(doc, indent=1) + "\n")


def _write(path: str | Path, text: str) -> None:
    """Write an output file, creating its parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def load_allocation(path: str | Path) -> Allocation:
    """Accepts a bare JSON array, a solve report, or {"shares": [...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, list):
        return Allocation(_numbers(path, doc, "allocation"))
    for key in ("allocation", "shares"):
        if isinstance(doc, dict) and key in doc:
            return Allocation(_numbers(path, doc[key], key))
    raise ValueError(f"{path}: no allocation found")


def _spec_number(convert, text: str, message: str):
    """convert(text) for a number in a rule or gen spec, refused with message."""
    try:
        return convert(text)
    except ValueError:
        raise ValueError(message) from None


def _numbers(path: str | Path, value, what: str) -> np.ndarray:
    """value as a float array; an object, a string, a boolean or a ragged
    list where a number belongs is refused with the file's path (numpy
    would read "0.5" as 0.5 and true as 1)."""
    try:
        numbers = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {what} must be an array of numbers ({exc})") from None
    if any(isinstance(v, (str, bool)) for v in np.array(value, dtype=object).flat):
        raise ValueError(f"{path}: {what} must be an array of numbers, not strings or booleans")
    return numbers


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

# rule name -> utility kind; util and egal are the utilitarian and
# egalitarian baselines, which have no utility
RULES = {
    "nash": "log",
    "power": "power",
    "negpower": "negpower",
    "negexp": "negexppower",
    "quad": "quadratic",
    "util": None,
    "egal": None,
}


def parse_rule(spec: str) -> str | UtilityFunction:
    """Map a rule string, a RULES name with ":p" appended where the kind
    takes a parameter, to its utility (or to the baseline's name)."""
    name, _, param = spec.partition(":")
    name = name.strip().lower()
    if name not in RULES:
        raise ValueError(f"unknown rule {spec!r}")
    kind = RULES[name]
    takes_p = kind in _KINDS_WITH_P
    if param and not takes_p:
        raise ValueError(f"rule {name!r} takes no parameter")
    if takes_p and not param:
        raise ValueError(f"rule {name!r} needs a parameter, e.g. {name}:0.5")
    if kind is None:
        return name
    p = _spec_number(float, param, f"rule {name!r} needs a number parameter, got {param!r}") if takes_p else None
    return make_utility(kind, p=p)


def ladder_rule(lam: float) -> UtilityFunction:
    """Constant-IAV rule with inequality aversion exactly lam: power(1 - lam)
    below 1, log at 1 and negpower(lam - 1) above.  A lam whose rule the
    utility family refuses is refused by name: below about 1.1e-16, 1 - lam
    rounds to 1, and above about 32.9, negpower's f'' overflows at the
    utility floor."""
    bd.check_lambda(lam)
    if abs(lam - 1.0) <= 1e-12:
        return make_utility("log")
    small = lam < 1.0
    kind, p = ("power", 1.0 - lam) if small else ("negpower", lam - 1.0)
    try:
        return make_utility(kind, p=p)
    except ValueError:
        why = "1 - lambda rounds to 1" if small else f"negpower:{p:g} overflows f'' at the utility floor"
        raise ValueError(f"lambda {lam!r} is too {'small' if small else 'large'} for a ladder rule: {why}") from None


def rule_label(f: UtilityFunction) -> str:
    name = next(name for name, kind in RULES.items() if kind == f.kind)
    return name if f.p is None else f"{name}:{f.p:g}"


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        _write(out, text + "\n")
    else:
        print(text)


def _solve_with(rule, profile: Profile) -> tuple[SolveReport, str, dict, float]:
    """Solve a rule as parse_rule returns it.  Also returns what oracle-verify
    compares the solve with: the grid oracle's objective, its keyword
    arguments, and the objective's Lipschitz constant in the l1 distance."""
    if rule == "util":
        return solve_utilitarian(profile), "welfare", {}, float(profile.n)
    if rule == "egal":
        return solve_egalitarian(profile), "maxmin", {}, 1.0
    return solve_ctr(profile, rule), "ctr", {"f": rule}, profile.n * float(rule.deriv(rule.floor))


def _entries(spec: str, table: dict, what: str) -> list:
    """Table entries for a nonempty comma list of names; an unknown name is refused."""
    names = [w.strip().lower() for w in spec.split(",") if w.strip()]
    if not names:
        raise ValueError(f"no {what} named in {spec!r}")
    for name in names:
        if name not in table:
            raise ValueError(f"unknown {what} {name!r}")
    return [table[name] for name in names]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    profile, _ = load_profile(args.profile)
    report = _solve_with(parse_rule(args.rule), profile)[0]
    _emit(
        {
            "allocation": [float(v) for v in report.allocation.shares],
            "satisfactions": [float(v) for v in report.satisfactions.values],
            "objective": report.objective,
            "mrsGap": report.mrs_gap,
            "iterations": report.iterations,
            "converged": report.converged,
        },
        args.out,
    )
    return 0 if report.converged else 2


# axiom name -> check of (profile, allocation, parsed arguments);
# "efficiency" is also accepted for "eff"
AXIOMS = {
    "rr": lambda p, x, args: ax.check_rr(p, x),
    "ifs": lambda p, x, args: ax.check_ifs(p, x),
    "prop": lambda p, x, args: ax.check_prop(p, x),
    "afs": lambda p, x, args: ax.check_afs(p, x, lam=args.lam),
    "core": lambda p, x, args: ax.check_core(p, x, resolution=args.resolution),
    "eff": lambda p, x, args: ax.check_efficiency(p, x, resolution=args.resolution),
}


def cmd_check(args) -> int:
    profile, _ = load_profile(args.profile)
    x = load_allocation(args.allocation)
    checks = _entries(args.axioms, {**AXIOMS, "efficiency": AXIOMS["eff"]}, "axiom")
    reports = [check(profile, x, args) for check in checks]
    payload = [{"axiom": r.axiom, "holds": r.holds, "applicable": r.applicable, "witness": r.witness} for r in reports]
    _emit(payload, args.out)
    return 0 if all(r.holds for r in reports) else 2


# bound name -> (kind, the parameters it reads, evaluator over them in that
# order); gamma also returns its maximin argument, reported as omega_star
BOUNDS = {
    "wl": ("WL", ("lambda", "m"), bd.wl_bound),
    "wl-sm": ("WL-single-minded", ("lambda", "m"), bd.wl_bound_single_minded),
    "ifs-share": ("IFS-share", ("lambda", "m", "n"), bd.ifs_share_bound),
    "el-sm": ("EL-single-minded", ("lambda", "m", "n"), bd.el_bound_single_minded),
    "min-agent": ("minAgent", ("lambda", "m", "n"), bd.min_agent_bound),
    "afs": ("AFS-exponent", ("lambda", "alpha"), lambda lam, alpha: bd.afs_bound(alpha, lam)),
    "gamma": ("EL-gamma", ("lambda", "m", "n"), lambda lam, m, n: bd.gamma(m, n, lam)),
}


def cmd_bounds(args) -> int:
    given = {"lambda": args.lam, "m": args.m, "n": args.n, "alpha": args.alpha}
    rows = []
    for kind, names, evaluate in _entries(args.which, BOUNDS, "bound"):
        params = {name: given[name] for name in names}
        value = evaluate(*params.values())
        if isinstance(value, tuple):
            value, params["omega_star"] = value
        rows.append({"kind": kind, "params": params, "value": value})
    _emit(rows, args.out)
    return 0


def cmd_gen(args) -> int:
    kind, _, param = args.kind.partition(":")
    kind = kind.strip().lower()
    rng = np.random.default_rng(args.seed)
    if kind in ("single-minded", "dirichlet") and (args.n is None or args.m is None):
        raise ValueError(f"{kind} generation needs --n and --m")
    if kind == "single-minded":
        rows = np.zeros((args.n, args.m))
        rows[np.arange(args.n), rng.integers(0, args.m, size=args.n)] = 1.0
    elif kind == "dirichlet":
        conc = _spec_number(float, param, f"dirichlet concentration must be a number, got {param!r}") if param else 1.0
        if not np.isfinite(conc):
            raise ValueError(f"dirichlet concentration must be finite, got {param!r}")
        if conc <= 0:
            raise ValueError("dirichlet concentration must be positive")
        rows = rng.dirichlet(np.full(args.m, conc), size=args.n)
    elif kind == "groups":
        if not param:
            raise ValueError('groups generation needs a spec, e.g. groups:"3:1,0,0;3:.5,.5,0"')
        blocks = []
        for chunk in param.split(";"):
            size_str, _, weights_str = chunk.partition(":")
            size = _spec_number(int, size_str, f"group size must be an integer in {chunk!r}")
            bad_weights = f"group weights must be numbers in {chunk!r}"
            weights = np.array([_spec_number(float, w, bad_weights) for w in weights_str.split(",")])
            if not np.isfinite(weights).all():
                raise ValueError(f"group weights must be finite in {chunk!r}")
            if size < 1:
                raise ValueError(f"group size must be positive in {chunk!r}")
            if blocks and len(weights) != blocks[0].shape[1]:
                raise ValueError(f"group {chunk!r} has {len(weights)} weights, the first group has {blocks[0].shape[1]}")
            if abs(weights.sum() - 1.0) > 1e-6:
                raise ValueError(f"group weights must sum to 1 in {chunk!r}")
            weights = weights / weights.sum()
            blocks.append(np.tile(weights, (size, 1)))
        rows = np.vstack(blocks)
        if args.n is not None and args.n != rows.shape[0]:
            raise ValueError(f"--n {args.n} does not match the groups spec total {rows.shape[0]}")
        if args.m is not None and args.m != rows.shape[1]:
            raise ValueError(f"--m {args.m} does not match the groups spec width {rows.shape[1]}")
    else:
        raise ValueError(f"unknown generator kind {args.kind!r}")
    save_profile(args.out, Profile(rows), seed=args.seed)
    return 0


def _lambda_grid(spec: str) -> list[float]:
    try:
        lo_s, hi_s, count_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ValueError(f"lambda grid must look like lo:hi:count, got {spec!r}") from exc
    if not 0 < lo <= hi < np.inf or count < 1:
        raise ValueError(f"bad lambda grid {spec!r}")
    return [lo * (hi / lo) ** (i / max(count - 1, 1)) for i in range(count)]


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _afs_worst_ratios(profile: Profile, sats: np.ndarray, lambdas: list[float]) -> list[float]:
    """Worst group mean-satisfaction over its target share, for each rung:
    row r of sats holds the satisfactions at lambdas[r].

    Targets alpha^(1/lambda) for lambda <= 1 (the certified guarantee) and
    plain alpha above 1, where only the exact fair-share target is a
    meaningful yardstick.  The cohesion table does not depend on the rung,
    so one ``cohesive_groups`` call and one selection of its cohesive
    groups serve every rung.  Each rung's row of means becomes its row of
    ratios in place, and one reduction reads every rung's worst.
    """
    alpha, ratios = ax._cohesive_entries(*ax.cohesive_groups(profile, sats))
    for lam, ratio in zip(lambdas, ratios):
        target = ax._afs_floor(alpha, lam) if lam <= 1.0 else alpha
        # at small lambda alpha^(1/lambda) underflows to 0 for the weaker
        # groups, whose ratio is then inf, and a subnormal target overflows
        # the ratio to inf, its value in floats
        positive = target > 0.0
        with np.errstate(over="ignore"):
            np.divide(ratio, target, out=ratio, where=positive)
        ratio[~positive] = np.inf
    return ratios.min(axis=1).tolist()


def cmd_sweep(args) -> int:
    directory = Path(args.profile_dir)
    if not directory.is_dir():
        raise OSError(f"{directory} is not a directory")
    lambdas = _lambda_grid(args.lambda_grid)
    # every rung's rule is built, and refused, before any profile is read
    rules = [ladder_rule(lam) for lam in lambdas]
    files = sorted(p for p in directory.iterdir() if p.suffix == ".json")
    lines = [SWEEP_HEADER]
    unconverged: list[str] = []
    for path in files:
        profile, meta = load_profile(path)
        seed = meta.get("seed", -1)
        util_ref = solve_utilitarian(profile)
        egal_ref = solve_egalitarian(profile)
        reports = []
        for lam, f in zip(lambdas, rules):
            # each rung starts from the previous rung's optimum
            report = solve_ctr(profile, f, start=reports[-1].allocation if reports else None)
            if not (report.converged and util_ref.converged and egal_ref.converged):
                unconverged.append(f"{path.name}@lambda={lam:g}")
            reports.append(report)
        afs_worst = (
            _afs_worst_ratios(profile, np.array([r.satisfactions.values for r in reports]), lambdas)
            if profile.n <= ax.MAX_SUBSET_AGENTS
            else [np.nan] * len(reports)
        )
        for lam, f, report, afs in zip(lambdas, rules, reports, afs_worst):
            sats = report.satisfactions.values
            # an uncertified reference leaves its loss nan, and the two-agent
            # bounds leave a one-agent row nan, as afs_worst does past the subset guard
            wl_emp = bd.welfare_loss(profile, report.allocation, util_ref) if util_ref.converged else np.nan
            el_emp = bd.egalitarian_loss(profile, report.allocation, egal_ref) if egal_ref.converged else np.nan
            el_bound = bd.gamma(profile.m, profile.n, lam)[0] if profile.n >= 2 else np.nan
            share_bound = bd.ifs_share_bound(lam, profile.m, profile.n) if profile.n >= 2 else np.nan
            numbers = [wl_emp, bd.wl_bound(lam, profile.m), el_emp, el_bound, float(sats.min()), share_bound, afs]
            row = [_fmt(lam), rule_label(f), str(profile.m), str(profile.n), str(seed), *map(_fmt, numbers)]
            lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    if unconverged:
        print(f"warning: {len(unconverged)} rows did not converge: {', '.join(unconverged)}", file=sys.stderr)
        return 2
    return 0


def cmd_oracle_verify(args) -> int:
    profile, _ = load_profile(args.profile)
    rule = parse_rule(args.rule)
    # the grid is built, and its size guarded, before the solve
    spec = GridSpec(m=profile.m, resolution=args.resolution)
    report, objective, kwargs, lipschitz = _solve_with(rule, profile)
    _, oracle_val = brute_force_best(profile, objective, spec, **kwargs)
    tolerance = lipschitz * args.resolution
    gap = oracle_val - report.objective
    ok = gap <= tolerance
    _emit(
        {
            "solver_objective": report.objective,
            "oracle_objective": oracle_val,
            "gap": gap,
            "tolerance": tolerance,
            "pass": ok,
        },
        args.out,
    )
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser, and so each subparser, whose usage errors raise ValueError:
    ``main`` reports them as bad input, one error line and exit 1."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ctr`` parser, built once per process: ``main`` only reads it,
    and each parse returns a fresh namespace."""
    parser = _Parser(
        prog="ctr",
        description="Budget-aggregation rules with concave utilities: solve, check axioms, evaluate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a rule on a profile file")
    p.add_argument("--profile", required=True)
    p.add_argument("--rule", required=True, help=" | ".join(n + ":p" * (k in _KINDS_WITH_P) for n, k in RULES.items()))
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="check axioms on a (profile, allocation) pair")
    p.add_argument("--profile", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--axioms", required=True, help="comma list: " + ",".join(AXIOMS))
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bounds", help="evaluate closed-form bounds")
    p.add_argument("--which", required=True, help="comma list: " + ",".join(BOUNDS))
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("gen", help="generate a profile file")
    p.add_argument("--kind", required=True, help="single-minded | dirichlet:conc | groups:spec")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="lambda sweep over a directory of profiles, CSV out")
    p.add_argument("--profile-dir", required=True)
    p.add_argument("--lambda-grid", required=True, help="geometric grid lo:hi:count")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-verify", help="compare a solver run against the grid oracle")
    p.add_argument("--profile", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--resolution", type=float, default=0.01)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (OSError, ValueError, KeyError, IndexError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a GuardError is a RuntimeError, so it is told apart first
        if isinstance(exc, GuardError):
            return 3
        return 2 if isinstance(exc, RuntimeError) else 1


if __name__ == "__main__":
    sys.exit(main())
