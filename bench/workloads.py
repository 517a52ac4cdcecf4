"""The benchmark's three workloads: seeded inputs, timed operations, checks.

Each workload is a fixed list of operations (one *round*).  The runner
repeats rounds in a closed loop with one caller, so every round does the
same work and medians compare like with like.  Inputs depend only on the
seed and the shape lists below; the program sees nothing but profiles.

Output checks use the raw profile and this file's own arithmetic (overlaps,
subset tables, bound formulas), never the program's report fields alone.
Solves inside checks call the functions imported here at load time, before
any wrapper is installed, so they are neither timed nor traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ctrules import axioms, bounds, cli, core, oracle, solver
from ctrules.core import Allocation, Profile, make_utility
from ctrules.oracle import GridSpec
from ctrules.solver import mrs_gap as _mrs_gap
from ctrules.solver import solve_ctr as _solve_ctr

import speed

LADDER_GRID = "0.25:4:5"
LADDER = (0.25, 0.5, 1.0, 2.0, 4.0)
SLACK = 1e-6  # slack on paper guarantees, as in ctrules.bounds
TOL = 1e-7  # default SolverOptions().tol: the certificate every solve must meet

RULES = {
    "nash": make_utility("log"),
    "power:0.5": make_utility("power", p=0.5),
    # negpower:3 is the lambda = 4 end of the default ladder.  negpower:9
    # (lambda = 10) is left out: at n >= 1000 its marginal contributions
    # reach ~5e6, where float64 rounding in the n-term sums is ~1e-7, so
    # the polish stalls above the 1e-7 certificate on some seeds (seed
    # 959206141 at 2000x50 ends uncertified, gap 1.04e-7).
    "negpower:3": make_utility("negpower", p=3.0),
    "negexp:1": make_utility("negexppower", p=1.0),
}


@dataclass
class Op:
    """One timed call into the program.

    ``weight`` is how many user-level operations it completes (sweep rows
    for a sweep call, otherwise 1); ``check`` returns failure messages.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]] = field(default=lambda out: [])
    weight: int = 1


# ---------------------------------------------------------------------------
# Independent arithmetic
# ---------------------------------------------------------------------------


def own_overlap(prefs: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.minimum(prefs, x[None, :]).sum(axis=1)


def _ladder_rule(lam: float):
    if lam == 1.0:
        return "nash", make_utility("log")
    if lam < 1.0:
        return f"power:{1.0 - lam:g}", make_utility("power", p=1.0 - lam)
    return f"negpower:{lam - 1.0:g}", make_utility("negpower", p=lam - 1.0)


def _gamma(m: int, n: int, lam: float) -> float:
    """Crossing of m*w and 1 - (w/(n-1))^(1/lam), by 200 bisection steps."""
    lo, hi = 0.0, 1.0 / m
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if m * mid - (1.0 - (mid / (n - 1.0)) ** (1.0 / lam)) <= 0.0:
            lo = mid
        else:
            hi = mid
    return m * lo


def _wl_bound(lam: float, m: int) -> float:
    return lam * m**lam / (lam * m**lam + lam + 1.0)


def _ifs_share_bound(lam: float, m: int, n: int) -> float:
    return 1.0 / (1.0 + (m - 1.0) * (n - 1.0) ** (1.0 / lam))


def _subset_table(prefs: np.ndarray, sats: np.ndarray):
    """Capped cohesion and mean satisfaction of every nonempty agent subset."""
    n, m = prefs.shape
    size = 1 << n
    mins = np.ones((size, m))
    count = np.zeros(size)
    total = np.zeros(size)
    for i in range(n):
        lo = 1 << i
        mins[lo : 2 * lo] = np.minimum(mins[:lo], prefs[i])
        count[lo : 2 * lo] = count[:lo] + 1.0
        total[lo : 2 * lo] = total[:lo] + sats[i]
    alpha = np.minimum(mins[1:].sum(axis=1), count[1:] / n)
    return alpha, total[1:] / count[1:]


def afs_margin(prefs: np.ndarray, x: np.ndarray, lam: float) -> float:
    """min over groups with positive cohesion of mean - alpha^(1/lam)."""
    alpha, mean = _subset_table(prefs, own_overlap(prefs, x))
    ok = alpha > 0.0
    return float((mean[ok] - alpha[ok] ** (1.0 / lam)).min())


def check_solve(kind: str, profile: Profile, utility, report) -> list[str]:
    """Re-check one solver report from the raw profile and its allocation."""
    prefs = profile.prefs
    x = np.asarray(report.allocation.shares, dtype=float)
    out = []
    if not (np.all(np.isfinite(x)) and x.min() >= -1e-12 and abs(x.sum() - 1.0) <= 1e-9):
        return [f"{kind}: allocation is not on the simplex"]
    sats = own_overlap(prefs, x)
    if not np.allclose(core.overlap(prefs, x), sats, rtol=0, atol=1e-12):
        out.append(f"{kind}: core.overlap disagrees with the raw overlap")
    if not np.allclose(report.satisfactions.values, sats, rtol=0, atol=1e-12):
        out.append(f"{kind}: reported satisfactions disagree with the raw overlap")
    if not report.converged:
        out.append(f"{kind}: not converged (gap {report.mrs_gap!r})")
    if kind == "egal":
        if abs(report.objective - sats.min()) > 1e-12:
            out.append("egal: objective is not the minimum satisfaction")
        if report.mrs_gap > TOL:
            out.append(f"egal: LP gap {report.mrs_gap!r} above {TOL}")
    else:
        gap = _mrs_gap(profile, Allocation(x), utility)
        if gap > TOL:
            out.append(f"{kind}: recomputed MRS gap {gap!r} above {TOL}")
        if abs(gap - report.mrs_gap) > 1e-12:
            out.append(f"{kind}: reported gap {report.mrs_gap!r} differs from recomputed {gap!r}")
    return out


def check_egal_dominates(records) -> dict[int, list[str]]:
    """The maxmin reference must reach at least the minimum satisfaction of
    every rule solution on the same profile.  Returns failures by op."""
    by_profile: dict[int, list] = {}
    for r in records:
        by_profile.setdefault(id(r.profile), []).append(r)
    failures: dict[int, list[str]] = {}
    for group in by_profile.values():
        egal = [r for r in group if r.kind == "egal"]
        if not egal:
            continue
        best = min(r.report.objective + TOL + 1e-9 for r in egal)
        for r in group:
            if r.kind == "egal":
                continue
            low = own_overlap(r.profile.prefs, np.asarray(r.report.allocation.shares)).min()
            if low > best:
                failures.setdefault(r.op, []).append(
                    f"{r.kind}: min satisfaction {low!r} exceeds the maxmin reference {best!r}"
                )
    return failures


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def dirichlet(seed: int, stream: int, n: int, m: int, conc: float) -> Profile:
    return Profile(_rng(seed, stream).dirichlet(np.full(m, conc), size=n))


def single_minded(seed: int, stream: int, n: int, m: int) -> Profile:
    rows = np.zeros((n, m))
    rows[np.arange(n), _rng(seed, stream).integers(0, m, size=n)] = 1.0
    return Profile(rows)


def groups(seed: int, stream: int, sizes: tuple[int, ...], m: int) -> Profile:
    """Homogeneous blocks (the ``ctr gen --kind groups:`` shape) with
    seeded block ideals."""
    rng = _rng(seed, stream)
    return Profile(np.vstack([np.tile(rng.dirichlet(np.ones(m)), (s, 1)) for s in sizes]))


def _write_profile(path: Path, profile: Profile, seed: int) -> None:
    doc = {"n": profile.n, "m": profile.m, "prefs": profile.prefs.tolist(), "seed": seed}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# sweep_small
# ---------------------------------------------------------------------------

# (kind, n, m, parameter): Dirichlet concentrations from spiky (0.3) to
# near-uniform (5), plus one single-minded and one block profile.
SWEEP_CORPUS = [
    ("dirichlet", 6, 3, 1.0),
    ("dirichlet", 8, 4, 0.5),
    ("dirichlet", 10, 5, 2.0),
    ("dirichlet", 11, 3, 0.3),
    ("dirichlet", 12, 4, 1.0),
    ("dirichlet", 13, 5, 5.0),
    ("dirichlet", 14, 3, 1.0),
    ("dirichlet", 16, 4, 0.5),
    ("single-minded", 12, 4, None),
    ("groups", 13, 3, (4, 4, 5)),
]
SWEEP_CORPUS_TINY = [
    ("dirichlet", 5, 3, 1.0),
    ("single-minded", 6, 3, None),
    ("groups", 6, 3, (3, 3)),
]


class SweepSmall:
    """``ctr sweep`` through ``cli.main``, one call per corpus profile, each
    profile in its own directory so every call is a separate sample."""

    reference = speed.INTERPRETER

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        spec = SWEEP_CORPUS_TINY if tiny else SWEEP_CORPUS
        self.ops: list[Op] = []
        self.first_output: dict[str, str] = {}
        for k, (kind, n, m, param) in enumerate(spec):
            if kind == "dirichlet":
                profile = dirichlet(seed, k, n, m, param)
            elif kind == "single-minded":
                profile = single_minded(seed, k, n, m)
            else:
                profile = groups(seed, k, param, m)
            directory = workdir / f"p{k:02d}"
            directory.mkdir()
            _write_profile(directory / f"p{k:02d}.json", profile, k)
            self.ops.append(
                Op(
                    f"sweep@{kind}:{n}x{m}",
                    lambda d=directory: self._call(d),
                    lambda out, name=f"sweep@{kind}:{n}x{m}", p=profile, k=k: self._check(name, p, k, out),
                    weight=len(LADDER),
                )
            )
        self._warm_op = self.ops[0]

    @staticmethod
    def _call(directory: Path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["sweep", "--profile-dir", str(directory), "--lambda-grid", LADDER_GRID])
        return code, buf.getvalue()

    def warm(self) -> None:
        self._warm_op.run()

    def _check(self, name: str, profile: Profile, seed: int, out) -> list[str]:
        code, text = out
        problems = [] if code == 0 else [f"sweep exited with code {code}"]
        first = self.first_output.setdefault(name, text)
        if text != first:
            problems.append("sweep output bytes differ from the first call on the same inputs")
        lines = text.splitlines()
        if not lines or lines[0] != cli.SWEEP_HEADER:
            return problems + ["sweep header is missing or changed"]
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != len(LADDER):
            return problems + [f"sweep printed {len(rows)} rows, expected {len(LADDER)}"]
        for row, lam in zip(rows, LADDER):
            problems += self._check_row(row, profile, seed, lam)
        return problems

    @staticmethod
    def _check_row(row: list[str], profile: Profile, seed: int, lam: float) -> list[str]:
        n, m = profile.n, profile.m
        where = f"lambda={lam:g}"
        label, _ = _ladder_rule(lam)
        if len(row) != 12 or row[1] != label or row[2:5] != [str(m), str(n), str(seed)]:
            return [f"{where}: identity columns {row[:5]} are wrong"]
        lam_v = float(row[0])
        wl, wl_b, el, el_b, share, share_b, afs = (float(v) for v in row[5:])
        out = []
        for got, want, what in (
            (lam_v, lam, "lambda"),
            (wl_b, _wl_bound(lam, m), "wl_bound"),
            (el_b, _gamma(m, n, lam), "el_bound"),
            (share_b, _ifs_share_bound(lam, m, n), "min_share_bound"),
        ):
            if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                out.append(f"{where}: {what} {got!r} differs from the closed form {want!r}")
        if not 0.0 <= wl <= wl_b + SLACK:
            out.append(f"{where}: welfare loss {wl!r} breaks its bound {wl_b!r}")
        if not 0.0 <= el <= el_b + SLACK:
            out.append(f"{where}: egalitarian loss {el!r} breaks its bound {el_b!r}")
        if share < share_b - SLACK:
            out.append(f"{where}: min share {share!r} below its floor {share_b!r}")
        if lam <= 1.0 and afs < 1.0 - SLACK:
            out.append(f"{where}: worst group share ratio {afs!r} below 1")
        return out


# ---------------------------------------------------------------------------
# solve_large
# ---------------------------------------------------------------------------

LARGE_RULE_SHAPES = [(1000, 20), (2000, 50)]
LARGE_EGAL_SHAPES = [(1000, 20), (400, 50)]
LARGE_CONC = 0.5


class SolveLarge:
    """Single certified solves at large n and m; reports are re-checked by
    the runner from the solve records."""

    reference = speed.ARRAY

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        rule_shapes = [(60, 5), (120, 8)] if tiny else LARGE_RULE_SHAPES
        egal_shapes = [(60, 5), (30, 8)] if tiny else LARGE_EGAL_SHAPES
        profiles = {}
        for k, shape in enumerate(dict.fromkeys(rule_shapes + egal_shapes)):
            profiles[shape] = dirichlet(seed, k, *shape, LARGE_CONC)
        self.ops = []
        for n, m in rule_shapes:
            p = profiles[(n, m)]
            for rule, f in RULES.items():
                self.ops.append(Op(f"ctr:{rule}@{n}x{m}", lambda p=p, f=f: solver.solve_ctr(p, f)))
            self.ops.append(Op(f"util@{n}x{m}", lambda p=p: solver.solve_utilitarian(p)))
        for n, m in egal_shapes:
            p = profiles[(n, m)]
            self.ops.append(Op(f"egal@{n}x{m}", lambda p=p: solver.solve_egalitarian(p)))
        self._warm_profile = profiles[rule_shapes[0]]

    def warm(self) -> None:
        solver.solve_ctr(self._warm_profile, RULES["nash"])


# ---------------------------------------------------------------------------
# audit_small
# ---------------------------------------------------------------------------


def _recheck_witness(axiom: str, profile: Profile, x: np.ndarray, w: dict, f=None) -> list[str]:
    """Recompute a reported violation from the raw profile."""
    prefs = profile.prefs
    sats = own_overlap(prefs, x)
    if axiom == "AFS":
        members = list(w["members"])
        alpha = min(float(np.minimum.reduce(prefs[members]).sum()), len(members) / profile.n)
        mean = float(sats[members].mean())
        bound = alpha ** (1.0 / w["lambda"])
        if abs(alpha - w["alpha"]) > 1e-12 or not mean < bound - 1e-9:
            return ["AFS witness does not recompute to a violation"]
    elif axiom in ("core", "efficiency"):
        members = list(w["members"]) if axiom == "core" else list(range(profile.n))
        y = np.array(w["deviation" if axiom == "core" else "dominating"])
        budget = w["budget"] if axiom == "core" else 1.0
        res = w["resolution"]
        after = own_overlap(prefs[members], y)
        before = sats[members]
        if (
            y.min() < 0.0
            or abs(y.sum() - budget) > 1e-9
            or abs(len(members) / profile.n - budget) > 1e-12
            or not (after >= before - 1e-9).all()
            or not (after > before + res).any()
        ):
            return [f"{axiom} witness does not recompute to a blocking deviation"]
    elif axiom == "strategyproofness":
        i = w["agent"]
        manipulated = _solve_ctr(profile.replace_row(i, w["misreport"]), f)
        gain = float(np.minimum(prefs[i], manipulated.allocation.shares).sum()) - sats[i]
        if not gain > 1e-6:
            return [f"strategyproofness witness gain recomputes to {gain!r}"]
    elif axiom == "participation":
        i = w["agent"]
        reduced = _solve_ctr(profile.without(i), f)
        if not float(np.minimum(prefs[i], reduced.allocation.shares).sum()) > sats[i] + 1e-6:
            return ["participation witness does not recompute to a gain from abstaining"]
    return []


def _grid_vector_ok(vec: np.ndarray, m: int, res: float) -> bool:
    steps = vec / res
    return (
        vec.shape == (m,)
        and vec.min() >= 0.0
        and abs(vec.sum() - 1.0) <= 1e-9
        and bool(np.all(np.abs(steps - np.round(steps)) <= 1e-6))
    )


class AuditSmall:
    """Axiom, oracle and bound checks on seeded small profiles.  Each check
    solves its own allocation first, as ``ctr solve`` then ``ctr check``."""

    reference = speed.INTERPRETER

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        if tiny:
            afs_ns, core_shapes, core_res, grid_res, sp_shape, sp_res, verify_n = (6, 7), [(5, 3), (6, 3)], 0.1, 0.05, (4, 3), 0.25, 6
        else:
            afs_ns, core_shapes, core_res, grid_res, sp_shape, sp_res, verify_n = (16, 17), [(10, 4), (12, 3)], 0.05, 0.01, (6, 3), 0.1, 16
        stream = iter(range(100))
        self.ops: list[Op] = []
        for n in afs_ns:
            p = dirichlet(seed, next(stream), n, 4, 1.0)
            for lam in (1.0, 0.5):
                self.ops.append(Op(f"check_afs@n={n},lambda={lam:g}", *self._afs(p, lam)))
        for n, m in core_shapes:
            p = dirichlet(seed, next(stream), n, m, 1.0)
            self.ops.append(Op(f"check_core@{n}x{m}", *self._grid_axiom(p, "core", core_res)))
        p = dirichlet(seed, next(stream), 12, 4, 0.5)
        self.ops.append(Op("check_efficiency@m=4", *self._grid_axiom(p, "efficiency", grid_res)))
        p = dirichlet(seed, next(stream), *sp_shape, 1.0)
        self.ops.append(Op(f"probe_strategyproofness@{sp_shape[0]}x{sp_shape[1]}", *self._sp(p, sp_res)))
        p = dirichlet(seed, next(stream), 10, 4, 1.0)
        self.ops.append(Op("probe_participation@10x4", *self._participation(p)))
        p = dirichlet(seed, next(stream), 8, 4, 1.0)
        for objective in ("ctr", "welfare", "maxmin"):
            self.ops.append(Op(f"brute_force_best:{objective}@m=4", *self._oracle(p, objective, grid_res)))
        p = dirichlet(seed, next(stream), verify_n, 3, 1.0)
        self.ops.append(Op(f"verify_bounds@n={verify_n}", *self._verify(p)))
        self._warm_op = self.ops[-1]

    def warm(self) -> None:
        self._warm_op.run()

    @staticmethod
    def _afs(p: Profile, lam: float):
        _, f = _ladder_rule(lam)

        def run():
            x = solver.solve_ctr(p, f).allocation
            return x.shares, axioms.check_afs(p, x, lam=lam)

        def check(out):
            x, report = out
            margin = afs_margin(p.prefs, x, lam)
            problems = []
            if report.holds != (margin >= -1e-9):
                problems.append(f"check_afs says holds={report.holds}, raw subset table margin {margin!r}")
            if margin < -SLACK:
                problems.append(f"the rule with IAV {lam} breaks its group-share guarantee by {-margin!r}")
            if not report.holds:
                problems += _recheck_witness("AFS", p, x, report.witness)
            return problems

        return run, check

    @staticmethod
    def _grid_axiom(p: Profile, axiom: str, res: float):
        f = RULES["nash"]

        def run():
            x = solver.solve_ctr(p, f).allocation
            if axiom == "core":
                return x.shares, axioms.check_core(p, x, resolution=res)
            return x.shares, axioms.check_efficiency(p, x, resolution=res)

        def check(out):
            x, report = out
            if report.holds:
                # a certified optimum of a strictly increasing objective
                # cannot be Pareto-dominated; core violations are legitimate
                return []
            if axiom == "efficiency":
                return ["the Nash optimum was reported Pareto-dominated"] + _recheck_witness(
                    "efficiency", p, x, report.witness
                )
            return _recheck_witness("core", p, x, report.witness)

        return run, check

    @staticmethod
    def _sp(p: Profile, res: float):
        f = RULES["nash"]

        def run():
            honest = solver.solve_ctr(p, f).allocation.shares
            return honest, axioms.probe_strategyproofness(p, f, 0, res)

        def check(out):
            honest, report = out
            if report.holds:
                return []
            return _recheck_witness("strategyproofness", p, honest, report.witness, f)

        return run, check

    @staticmethod
    def _participation(p: Profile):
        f = RULES["nash"]

        def run():
            full = solver.solve_ctr(p, f).allocation.shares
            return full, axioms.probe_participation(p, f, 0)

        def check(out):
            full, report = out
            if report.holds:
                return []
            return _recheck_witness("participation", p, full, report.witness, f)

        return run, check

    @staticmethod
    def _oracle(p: Profile, objective: str, res: float):
        f = RULES["nash"]
        spec = GridSpec(m=p.m, resolution=res)

        def run():
            if objective == "ctr":
                report = solver.solve_ctr(p, f)
                return report, oracle.brute_force_best(p, "ctr", spec, f=f)
            if objective == "welfare":
                return solver.solve_utilitarian(p), oracle.brute_force_best(p, "welfare", spec)
            return solver.solve_egalitarian(p), oracle.brute_force_best(p, "maxmin", spec)

        def check(out):
            report, (vec, value) = out
            if not _grid_vector_ok(np.asarray(vec), p.m, res):
                return [f"oracle {objective}: best vector is not a grid point"]
            sats = own_overlap(p.prefs, np.asarray(vec))
            if objective == "ctr":
                own = float(np.log(np.maximum(sats, f.floor)).sum())
            elif objective == "welfare":
                own = float(sats.sum())
            else:
                own = float(sats.min())
            problems = []
            if abs(own - value) > 1e-9 * max(1.0, abs(own)):
                problems.append(f"oracle {objective}: value {value!r} recomputes to {own!r}")
            # the solver optimizes over the whole simplex, which contains the grid
            if report.objective < value - 1e-9 * max(1.0, abs(value)):
                problems.append(f"oracle {objective}: grid point beats the solver ({value!r} > {report.objective!r})")
            return problems

        return run, check

    @staticmethod
    def _verify(p: Profile):
        f = RULES["nash"]

        def run():
            report = solver.solve_ctr(p, f)
            util = solver.solve_utilitarian(p)
            egal = solver.solve_egalitarian(p)
            return report, util, egal, bounds.verify_bounds(p, f, report, util_reference=util, egal_reference=egal)

        def check(out):
            report, util, egal, checks = out
            prefs = p.prefs
            n, m = p.n, p.m
            x = np.asarray(report.allocation.shares)
            sats = own_overlap(prefs, x)
            w_star = own_overlap(prefs, np.asarray(util.allocation.shares)).sum()
            maxmin = own_overlap(prefs, np.asarray(egal.allocation.shares)).min()
            afs = afs_margin(prefs, x, 1.0)
            # Nash has IAV exactly 1: every guarantee applies at lambda = 1
            own = {
                "WL": (_wl_bound(1.0, m), float(np.clip(1.0 - sats.sum() / w_star, 0.0, 1.0))),
                "IFS-share": (_ifs_share_bound(1.0, m, n), sats.min()),
                "minAgent": (1.0 / (m * n), sats.min()),
                "EL-gamma": (_gamma(m, n, 1.0), float(np.clip(1.0 - sats.min() / maxmin, 0.0, 1.0))),
            }
            problems = []
            kinds = sorted(c.kind for c in checks)
            if kinds != sorted([*own, "AFS-exponent"]):
                problems.append(f"verify_bounds returned checks {kinds}")
            for c in checks:
                if not c.satisfied:
                    problems.append(f"verify_bounds: {c.kind} not satisfied ({c.empirical!r} vs {c.bound!r})")
                if c.kind == "AFS-exponent":
                    if abs((c.empirical - c.bound) - afs) > 1e-9:
                        problems.append(f"verify_bounds: AFS-exponent margin {c.empirical - c.bound!r}, raw {afs!r}")
                elif c.kind in own:
                    bound, emp = own[c.kind]
                    if abs(c.bound - bound) > 1e-9 or abs(c.empirical - emp) > 1e-9:
                        problems.append(f"verify_bounds: {c.kind} ({c.bound!r}, {c.empirical!r}), raw ({bound!r}, {emp!r})")
            return problems

        return run, check


WORKLOADS = {"sweep_small": SweepSmall, "solve_large": SolveLarge, "audit_small": AuditSmall}


# ---------------------------------------------------------------------------
# Computed work (traced runs only)
# ---------------------------------------------------------------------------


def _core_grid_points(profile: Profile, x, resolution: float) -> int:
    """Grid points check_core would visit if it searched every coalition."""
    n, m = profile.n, profile.m
    total = 0
    for size in range(1, n + 1):
        steps = max(1, round((size / n) / resolution))
        total += math.comb(n, size) * math.comb(steps + m - 1, m - 1)
    return total


def _subsets(profile: Profile, *args, **kwargs) -> int:
    return (1 << profile.n) - 1


# span name -> (counter name, function of the call's arguments)
COMPUTED = {
    "axioms.check_afs": ("axioms.subsets", _subsets),
    "axioms.cohesive_groups": ("axioms.subsets", _subsets),
    "axioms.check_core": ("axioms.check_core.grid_points", _core_grid_points),
    "oracle.brute_force_best": ("oracle.grid_points", lambda profile, objective, spec, f=None: spec.num_points()),
}
