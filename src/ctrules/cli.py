"""Command-line interface: profile files, rule execution, axiom checks,
bound tables, instance generation, and lambda sweeps.

Profiles travel as JSON documents {"n": int, "m": int, "prefs": [[...]]}
with optional "labels" and "seed" keys.  Rows must sum to 1 within 1e-6;
rows off by more than 1e-12 are renormalized on load, anything worse is
rejected.  Exit codes: 0 success, 1 I/O or parse failure, 2 non-convergence
(or a failed oracle comparison), 3 size-guard violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import axioms as ax
from . import bounds as bd
from .core import Allocation, GuardError, Profile, UtilityFunction, make_utility
from .oracle import GridSpec, brute_force_best
from .solver import SolveReport, SolverOptions, solve_ctr, solve_egalitarian, solve_utilitarian

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
    prefs = np.array(doc["prefs"], dtype=float)
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


def save_profile(path: str | Path, profile: Profile, labels: list[str] | None = None, seed: int | None = None) -> None:
    doc: dict = {"n": profile.n, "m": profile.m, "prefs": [[float(v) for v in row] for row in profile.prefs]}
    if labels is not None:
        doc["labels"] = labels
    if seed is not None:
        doc["seed"] = seed
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_allocation(path: str | Path) -> Allocation:
    """Accepts a bare JSON array, a solve report, or {"shares": [...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, list):
        return Allocation(np.array(doc, dtype=float))
    for key in ("allocation", "shares"):
        if isinstance(doc, dict) and key in doc:
            return Allocation(np.array(doc[key], dtype=float))
    raise ValueError(f"{path}: no allocation found")


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def parse_rule(spec: str) -> str | UtilityFunction:
    """Map a rule string to a utility (or the literal baselines).

    Formats: nash | power:p | negpower:p | negexp:p | quad | util | egal.
    """
    name, _, param = spec.partition(":")
    name = name.strip().lower()
    if name in ("util", "egal"):
        if param:
            raise ValueError(f"rule {name!r} takes no parameter")
        return name
    if name == "nash":
        return make_utility("log")
    if name == "quad":
        return make_utility("quadratic")
    if name in ("power", "negpower", "negexp"):
        if not param:
            raise ValueError(f"rule {name!r} needs a parameter, e.g. {name}:0.5")
        kind = "negexppower" if name == "negexp" else name
        return make_utility(kind, p=float(param))
    raise ValueError(f"unknown rule {spec!r}")


def ladder_rule(lam: float) -> UtilityFunction:
    """Constant-IAV rule with inequality aversion exactly lam."""
    bd.check_lambda(lam)
    if abs(lam - 1.0) <= 1e-12:
        return make_utility("log")
    if lam < 1.0:
        return make_utility("power", p=1.0 - lam)
    return make_utility("negpower", p=lam - 1.0)


def rule_label(f: UtilityFunction) -> str:
    if f.kind == "log":
        return "nash"
    if f.kind == "quadratic":
        return "quad"
    name = {"power": "power", "negpower": "negpower", "negexppower": "negexp"}[f.kind]
    return f"{name}:{f.p:g}"


def _report_dict(report: SolveReport) -> dict:
    return {
        "allocation": [float(v) for v in report.allocation.shares],
        "satisfactions": [float(v) for v in report.satisfactions.values],
        "objective": report.objective,
        "mrsGap": report.mrs_gap,
        "iterations": report.iterations,
        "converged": report.converged,
    }


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _solve_with(rule: str | UtilityFunction, profile: Profile, opts: SolverOptions) -> SolveReport:
    if rule == "util":
        return solve_utilitarian(profile, opts)
    if rule == "egal":
        return solve_egalitarian(profile, opts)
    return solve_ctr(profile, rule, opts)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    profile, _ = load_profile(args.profile)
    rule = parse_rule(args.rule)
    opts = SolverOptions(tol=args.tol)
    report = _solve_with(rule, profile, opts)
    _emit(_report_dict(report), args.out)
    return 0 if report.converged else 2


def cmd_check(args) -> int:
    profile, _ = load_profile(args.profile)
    x = load_allocation(args.allocation)
    wanted = [a.strip().lower() for a in args.axioms.split(",") if a.strip()]
    reports = []
    for name in wanted:
        if name == "rr":
            reports.append(ax.check_rr(profile, x))
        elif name == "ifs":
            reports.append(ax.check_ifs(profile, x))
        elif name == "prop":
            reports.append(ax.check_prop(profile, x))
        elif name == "afs":
            reports.append(ax.check_afs(profile, x, lam=args.lam))
        elif name == "core":
            reports.append(ax.check_core(profile, x, resolution=args.resolution))
        elif name in ("eff", "efficiency"):
            reports.append(ax.check_efficiency(profile, x, resolution=args.resolution))
        else:
            raise ValueError(f"unknown axiom {name!r}")
    payload = [
        {"axiom": r.axiom, "holds": r.holds, "applicable": r.applicable, "witness": r.witness}
        for r in reports
    ]
    _emit(payload, args.out)
    return 0 if all(r.holds for r in reports) else 2


def cmd_bounds(args) -> int:
    wanted = [w.strip().lower() for w in args.which.split(",") if w.strip()]
    lam = args.lam
    reports = []
    for name in wanted:
        if name == "wl":
            reports.append(bd.BoundReport("WL", {"lambda": lam, "m": args.m}, bd.wl_bound(lam, args.m)))
        elif name == "wl-sm":
            reports.append(
                bd.BoundReport(
                    "WL-single-minded", {"lambda": lam, "m": args.m}, bd.wl_bound_single_minded(lam, args.m)
                )
            )
        elif name == "ifs-share":
            reports.append(
                bd.BoundReport(
                    "IFS-share",
                    {"lambda": lam, "m": args.m, "n": args.n},
                    bd.ifs_share_bound(lam, args.m, args.n),
                )
            )
        elif name == "el-sm":
            reports.append(
                bd.BoundReport(
                    "EL-single-minded",
                    {"lambda": lam, "m": args.m, "n": args.n},
                    bd.el_bound_single_minded(lam, args.m, args.n),
                )
            )
        elif name == "min-agent":
            reports.append(
                bd.BoundReport(
                    "minAgent",
                    {"lambda": lam, "m": args.m, "n": args.n},
                    bd.min_agent_bound(lam, args.m, args.n),
                )
            )
        elif name == "afs":
            reports.append(
                bd.BoundReport(
                    "AFS-exponent",
                    {"lambda": lam, "alpha": args.alpha},
                    bd.afs_bound(args.alpha, lam),
                )
            )
        elif name == "gamma":
            value, omega = bd.gamma(args.m, args.n, lam)
            reports.append(
                bd.BoundReport(
                    "EL-gamma",
                    {"lambda": lam, "m": args.m, "n": args.n, "omega_star": omega},
                    value,
                )
            )
        else:
            raise ValueError(f"unknown bound {name!r}")
    _emit([{"kind": r.kind, "params": r.params, "value": r.value} for r in reports], args.out)
    return 0


def cmd_gen(args) -> int:
    kind, _, param = args.kind.partition(":")
    kind = kind.strip().lower()
    rng = np.random.default_rng(args.seed)
    if kind == "single-minded":
        if args.n is None or args.m is None:
            raise ValueError("single-minded generation needs --n and --m")
        rows = np.zeros((args.n, args.m))
        rows[np.arange(args.n), rng.integers(0, args.m, size=args.n)] = 1.0
    elif kind == "dirichlet":
        if args.n is None or args.m is None:
            raise ValueError("dirichlet generation needs --n and --m")
        conc = float(param) if param else 1.0
        if conc <= 0:
            raise ValueError("dirichlet concentration must be positive")
        rows = rng.dirichlet(np.full(args.m, conc), size=args.n)
    elif kind == "groups":
        if not param:
            raise ValueError('groups generation needs a spec, e.g. groups:"3:1,0,0;3:.5,.5,0"')
        blocks = []
        for chunk in param.split(";"):
            size_str, _, weights_str = chunk.partition(":")
            size = int(size_str)
            weights = np.array([float(w) for w in weights_str.split(",")], dtype=float)
            if size < 1:
                raise ValueError(f"group size must be positive in {chunk!r}")
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
    profile = Profile(rows)
    save_profile(args.out, profile, seed=args.seed)
    return 0


def _lambda_grid(spec: str) -> list[float]:
    try:
        lo_s, hi_s, count_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ValueError(f"lambda grid must look like lo:hi:count, got {spec!r}") from exc
    if not 0 < lo <= hi < np.inf or count < 1:
        raise ValueError(f"bad lambda grid {spec!r}")
    if count == 1:
        return [lo]
    ratio = hi / lo
    return [lo * ratio ** (i / (count - 1)) for i in range(count)]


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _afs_worst_ratio(profile: Profile, sats: np.ndarray, lam: float) -> float:
    """Worst group mean-satisfaction over its target share.

    Targets alpha^(1/lambda) for lambda <= 1 (the certified guarantee) and
    plain alpha above 1, where only the exact fair-share target is a
    meaningful yardstick.
    """
    alpha, mean = ax.cohesive_groups(profile, sats)
    cohesive = alpha > 0.0
    alpha, mean = alpha[cohesive], mean[cohesive]
    target = bd.afs_bound(alpha, lam) if lam <= 1.0 else alpha
    return float(np.min(mean / target))


def cmd_sweep(args) -> int:
    directory = Path(args.profile_dir)
    if not directory.is_dir():
        raise OSError(f"{directory} is not a directory")
    lambdas = _lambda_grid(args.lambda_grid)
    opts = SolverOptions(tol=args.tol)
    files = sorted(p for p in directory.iterdir() if p.suffix == ".json")
    lines = [SWEEP_HEADER]
    unconverged: list[str] = []
    for path in files:
        profile, meta = load_profile(path)
        seed = int(meta.get("seed", -1))
        util_ref = solve_utilitarian(profile, opts)
        egal_ref = solve_egalitarian(profile, opts)
        report = None
        for lam in lambdas:
            f = ladder_rule(lam)
            # each rung starts from the previous rung's optimum
            report = solve_ctr(profile, f, opts, start=report.allocation if report else None)
            if not (report.converged and util_ref.converged and egal_ref.converged):
                unconverged.append(f"{path.name}@lambda={lam:g}")
            sats = report.satisfactions.values
            wl_emp = bd.welfare_loss(profile, report.allocation, util_ref)
            el_emp = bd.egalitarian_loss(profile, report.allocation, egal_ref)
            # the closed-form bounds need two agents; a one-agent row gets nan
            # there, as afs_worst does past the subset guard
            el_bound = bd.gamma(profile.m, profile.n, lam)[0] if profile.n >= 2 else np.nan
            share_bound = bd.ifs_share_bound(lam, profile.m, profile.n) if profile.n >= 2 else np.nan
            afs_worst = (
                _afs_worst_ratio(profile, sats, lam) if profile.n <= ax.MAX_SUBSET_AGENTS else np.nan
            )
            row = [
                _fmt(lam),
                rule_label(f),
                str(profile.m),
                str(profile.n),
                str(seed),
                _fmt(wl_emp),
                _fmt(bd.wl_bound(lam, profile.m)),
                _fmt(el_emp),
                _fmt(el_bound),
                _fmt(float(sats.min())),
                _fmt(share_bound),
                _fmt(afs_worst),
            ]
            lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if unconverged:
        print(f"warning: {len(unconverged)} rows did not converge: {', '.join(unconverged)}", file=sys.stderr)
        return 2
    return 0


def cmd_oracle_verify(args) -> int:
    profile, _ = load_profile(args.profile)
    if profile.m > ax.MAX_GRID_ALTERNATIVES:
        raise GuardError(f"oracle verification is limited to m <= {ax.MAX_GRID_ALTERNATIVES}")
    rule = parse_rule(args.rule)
    opts = SolverOptions(tol=args.tol)
    report = _solve_with(rule, profile, opts)
    spec = GridSpec(m=profile.m, resolution=args.resolution)
    if rule == "util":
        _, oracle_val = brute_force_best(profile, "welfare", spec)
        lipschitz = float(profile.n)
    elif rule == "egal":
        _, oracle_val = brute_force_best(profile, "maxmin", spec)
        lipschitz = 1.0
    else:
        _, oracle_val = brute_force_best(profile, "ctr", spec, f=rule)
        lipschitz = profile.n * float(rule.deriv(rule.floor))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctr",
        description="Budget-aggregation rules with concave utilities: solve, check axioms, evaluate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a rule on a profile file")
    p.add_argument("--profile", required=True)
    p.add_argument("--rule", required=True, help="nash | power:p | negpower:p | negexp:p | quad | util | egal")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="check axioms on a (profile, allocation) pair")
    p.add_argument("--profile", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--axioms", required=True, help="comma list: rr,ifs,prop,afs,core,eff")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bounds", help="evaluate closed-form bounds")
    p.add_argument("--which", required=True, help="comma list: wl,wl-sm,ifs-share,el-sm,min-agent,afs,gamma")
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
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-verify", help="compare a solver run against the grid oracle")
    p.add_argument("--profile", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--resolution", type=float, default=0.01)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
