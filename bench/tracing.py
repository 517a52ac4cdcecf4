"""Wrappers the benchmark installs around ctrules' public functions.

Two kinds of wrapper, both installed from the benchmark's own files at the
names the program's callers bind (``cli.solve_ctr``, ``solver.overlap``,
``UtilityFunction.deriv``, ...), so the package itself is never edited:

* ``SolveRecorder`` wraps only the three solver entry points.  It times every
  solve and keeps its report so the benchmark can re-check the certificate
  after the timed loop.  It is on in every run; a solve takes milliseconds
  and the wrapper adds about a microsecond.
* ``Tracer`` wraps every traced public function and records one span per
  call (name, start, end, parent) in flat in-memory arrays.  It is on only
  in ``--trace 1`` runs; self times are computed from the spans at the end.
  Its meters add work computed from a call's arguments (subsets, grid
  points) without running it.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ctrules import axioms, bounds, cli, core, oracle, solver

SOLVER_KINDS = {"solve_ctr": "ctr", "solve_utilitarian": "util", "solve_egalitarian": "egal"}

# Binding sites of the solver entry points: (namespace, attribute).
SOLVER_SITES = [
    (solver, "solve_ctr"),
    (solver, "solve_utilitarian"),
    (solver, "solve_egalitarian"),
    (axioms, "solve_ctr"),
    (cli, "solve_ctr"),
    (cli, "solve_utilitarian"),
    (cli, "solve_egalitarian"),
]

# Traced public functions: span name -> every (namespace, attribute) that
# binds it.  afs_bound, make_utility and the grid generator are leaves called
# up to 10^5 times per round at sub-microsecond cost; they are left unwrapped
# and their time stays in the caller's self time.
TRACED = {
    "core.overlap": [(core, "overlap"), (solver, "overlap"), (axioms, "overlap"), (bounds, "overlap")],
    "core.support_masks": [(core, "support_masks"), (solver, "support_masks")],
    "core.deriv": [(core.UtilityFunction, "deriv")],
    "solver.solve_ctr": [(s, a) for s, a in SOLVER_SITES if a == "solve_ctr"],
    "solver.solve_utilitarian": [(s, a) for s, a in SOLVER_SITES if a == "solve_utilitarian"],
    "solver.solve_egalitarian": [(s, a) for s, a in SOLVER_SITES if a == "solve_egalitarian"],
    "solver.mrs_gap": [(solver, "mrs_gap")],
    "axioms.cohesive_groups": [(axioms, "cohesive_groups"), (bounds, "cohesive_groups")],
    "axioms.check_afs": [(axioms, "check_afs")],
    "axioms.check_core": [(axioms, "check_core")],
    "axioms.check_efficiency": [(axioms, "check_efficiency")],
    "axioms.probe_participation": [(axioms, "probe_participation")],
    "axioms.probe_strategyproofness": [(axioms, "probe_strategyproofness")],
    "bounds.verify_bounds": [(bounds, "verify_bounds")],
    "bounds.welfare_loss": [(bounds, "welfare_loss")],
    "bounds.egalitarian_loss": [(bounds, "egalitarian_loss")],
    "bounds.gamma": [(bounds, "gamma")],
    "oracle.brute_force_best": [(oracle, "brute_force_best"), (cli, "brute_force_best")],
    "cli.main": [(cli, "main")],
}


def _as_numpy(values: array, dtype) -> np.ndarray:
    return np.frombuffer(values, dtype=dtype) if len(values) else np.zeros(0, dtype)


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class SolveRecord:
    kind: str
    seconds: float
    profile: Any
    utility: Any
    report: Any
    op: int


class SolveRecorder:
    """Times every solver call and keeps (profile, utility, report) for the
    certificate re-checks; ``op`` is the index of the operation in flight."""

    def __init__(self):
        self.records: list[SolveRecord] = []
        self.op = -1
        self._patches = _Patches()
        self._identity = core.make_utility("identity")

    def install(self) -> None:
        for owner, attr in SOLVER_SITES:
            self._patches.replace(owner, attr, lambda fn, kind=SOLVER_KINDS[attr]: self._wrap(kind, fn))

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(self, kind: str, fn: Callable) -> Callable:
        records = self.records
        clock = time.perf_counter

        def timed(profile, *args, **kwargs):
            t0 = clock()
            report = fn(profile, *args, **kwargs)
            dt = clock() - t0
            utility = args[0] if kind == "ctr" else (self._identity if kind == "util" else None)
            records.append(SolveRecord(kind, dt, profile, utility, report, self.op))
            return report

        return timed


class Tracer:
    """Span recorder for the traced public functions.

    Spans live in four flat arrays until ``summary`` turns them into per-name
    calls, busy time and self time (busy time minus the time covered by
    direct child spans).
    """

    def __init__(self, meters: dict[str, tuple[str, Callable[..., int]]]):
        self.names = list(TRACED)
        self.meters = meters
        self.computed: dict[str, int] = {counter: 0 for counter, _ in meters.values()}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = _Patches()

    def install(self) -> None:
        for nid, name in enumerate(self.names):
            for owner, attr in TRACED[name]:
                self._patches.replace(owner, attr, lambda fn, nid=nid: self._wrap(nid, fn))

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap(self, nid: int, fn: Callable) -> Callable:
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        counter, work = self.meters.get(self.names[nid], (None, None))
        computed = self.computed

        def spanned(*args, **kwargs):
            if work is not None:
                computed[counter] += work(*args, **kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return spanned

    @property
    def span_count(self) -> int:
        return len(self.name_id)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s, self_s, and the number of direct
        child spans per child name (``children``)."""
        names = _as_numpy(self.name_id, np.int32)
        parent = _as_numpy(self.parent, np.int64)
        dur = _as_numpy(self.end, np.float64) - _as_numpy(self.start, np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        pairs = names[parent[has_parent]] * k + names[has_parent]
        child_counts = np.bincount(pairs, minlength=k * k).reshape(k, k)
        return {
            name: {
                "calls": int(calls[i]),
                "busy_s": float(busy[i]),
                "self_s": float(selfs[i]),
                "children": {self.names[c]: int(child_counts[i, c]) for c in np.flatnonzero(child_counts[i])},
            }
            for i, name in enumerate(self.names)
        }
