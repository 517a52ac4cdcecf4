"""Brute-force grid search over the simplex, for certifying solver outputs.

Enumerates every nonnegative vector with entries that are multiples of a
fixed resolution and a fixed total, in lexicographic order, and maximizes a
chosen objective over that grid.  Blocks of the grid travel as integer step
counts; an agent's satisfaction at a point is read from one table per
alternative (the overlap of k steps with the agent's ideal) and summed in
column order, and a point is scaled by the resolution only where it is
returned.  Only meant for small m; the point count is the stars-and-bars
binomial and grows combinatorially.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from decimal import Context
from typing import Iterator, Literal

import numpy as np

from .core import GuardError, Profile, UtilityFunction

DEFAULT_MAX_POINTS = 10_000_000
_ENV_GUARD = "CTR_MAX_GRID"

Objective = Literal["ctr", "welfare", "maxmin"]


def max_grid_points() -> int:
    """Size guard for grid enumeration; overridable via CTR_MAX_GRID."""
    raw = os.environ.get(_ENV_GUARD)
    if raw is None:
        return DEFAULT_MAX_POINTS
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_GUARD} must be an integer, got {raw!r}") from exc


def _step_count(budget: float, resolution: float) -> int:
    """Nearest whole number of steps; an overflowing count exceeds any guard."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and positive, got {resolution!r}")
    ratio = budget / resolution
    if not math.isfinite(ratio):
        raise GuardError(f"a budget of {budget!r} in steps of {resolution!r} overflows the grid")
    return round(ratio)


def _count_text(count: int) -> str:
    """A count as an error prints it: whole up to 1e15, else to three
    significant digits in %.3g form (1.23e+16), however many digits it has."""
    if count <= 10**15:
        return str(count)
    return format(Context(prec=3).create_decimal(count).normalize(), "g")


@dataclass(frozen=True)
class GridSpec:
    """Grid over {y >= 0, sum y = budget} with the given step.

    The budget must be an integer multiple of the resolution (within 1e-9)
    and the stars-and-bars point count C(steps + m - 1, m - 1) must respect
    the size guard.
    """

    m: int
    resolution: float
    budget: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("grid dimension must be at least 1")
        k = self.steps
        if k < 0 or abs(k * self.resolution - self.budget) > 1e-9:
            raise ValueError(
                f"budget {self.budget!r} is not an integer multiple of resolution {self.resolution!r}"
            )
        guard = max_grid_points()
        points = self.num_points()
        if points > guard:
            raise GuardError(f"grid has {_count_text(points)} points, exceeding the guard of {_count_text(guard)}")

    @classmethod
    def snapped(cls, m: int, budget: float, resolution: float) -> GridSpec:
        """Grid over budget in the whole number of steps (at least one) nearest the resolution."""
        return cls(m, budget / max(1, _step_count(budget, resolution)), budget)

    @property
    def steps(self) -> int:
        return _step_count(self.budget, self.resolution)

    def num_points(self) -> int:
        return math.comb(self.steps + self.m - 1, self.m - 1)


# Most rows in one vectorized block; its satisfactions, and each overlap
# table, hold at most rows x n floats.
_BLOCK_ROW_CAP = 100_000


def _compositions(steps: int, parts: int) -> tuple[np.ndarray, list[int]]:
    """Every composition of steps into parts, as the rows of a Fortran-ordered
    integer array in lex order, and lengths[r] = C(r + parts - 1, parts - 1),
    the number of compositions of r <= steps.  Built one width at a time, as
    columns: the rows under first coordinate a are the last lengths[steps - a]
    rows of the narrower set with their first coordinate lowered by a."""
    cols = np.array([[steps]])
    lengths = np.ones(steps + 1, dtype=np.int64)
    for _ in range(parts - 1):
        counts = lengths[::-1]
        first = np.repeat(np.arange(steps + 1), counts)
        rest = np.take(cols, np.arange(len(first)) + np.repeat(cols.shape[1] - np.cumsum(counts), counts), axis=1)
        rest[0] -= first
        cols = np.vstack((first, rest))
        lengths = np.cumsum(lengths)
    return cols.T, lengths.tolist()


def _prefixes(remaining: int, left: int, prefix: tuple = ()) -> Iterator[tuple[tuple, int]]:
    """Every (prefix, steps left) of ``left`` leading coordinates, in lex order."""
    if left == 0:
        yield prefix, remaining
        return
    for a in range(remaining + 1):
        yield from _prefixes(remaining - a, left - 1, prefix + (a,))


def _composition_chunks(spec: GridSpec) -> Iterator[np.ndarray]:
    """Yield blocks of the grid's points in lex order, as integer step
    counts (a point is its row times ``spec.resolution``).

    A block is every point under one prefix of leading coordinates; the
    trailing ``parts`` are the most whose composition set fits in
    _BLOCK_ROW_CAP rows.  Two of them make a line, built directly and cut
    into runs of at most the cap.  From three on, a prefix leaving R steps
    takes the last C(R + parts - 1, parts - 1) rows of the set of all steps,
    built once per walk, with the first coordinate lowered by steps - R.
    """
    steps, m = spec.steps, spec.m
    parts = 1
    while parts < m and math.comb(steps + parts, parts) <= _BLOCK_ROW_CAP:
        parts += 1
    if parts <= 2 <= m:
        for prefix, remaining in _prefixes(steps, m - 2):
            for start in range(0, remaining + 1, _BLOCK_ROW_CAP):
                t = np.arange(start, min(start + _BLOCK_ROW_CAP, remaining + 1))
                block = np.empty((len(t), m), dtype=np.int64, order="F")
                block[:, :-2], block[:, -2], block[:, -1] = prefix, t, remaining - t
                yield block
        return
    comps, lengths = _compositions(steps, parts)
    for prefix, remaining in _prefixes(steps, m - parts):
        block = np.empty((lengths[remaining], m), dtype=np.int64, order="F")
        block[:, : len(prefix)], block[:, len(prefix) :] = prefix, comps[len(comps) - lengths[remaining] :]
        block[:, len(prefix)] -= steps - remaining
        yield block


def enumerate_grid(spec: GridSpec) -> Iterator[np.ndarray]:
    """Stream every grid vector exactly once, lexicographically ascending."""
    for block in _composition_chunks(spec):
        yield from block * spec.resolution


class _BlockOverlap:
    """Satisfaction of every agent (columns) at every point (rows) of a
    grid's blocks of step counts: the sum over alternatives j, in column
    order, of the table row T_j[k] = min(k * resolution, prefs[:, j]).

    A table is built from the lowest step a block reads in its column, over
    as many steps as the block has rows (at most to the grid's last step),
    and kept while later blocks read inside it.  Over an m >= 3 grid the
    first block already spans every step, so each table is built once; an
    m = 2 grid longer than one block rebuilds two tables of one run each."""

    def __init__(self, prefs: np.ndarray, spec: GridSpec):
        self.prefs = prefs
        self.spec = spec
        self.tables = [np.empty((0, len(prefs)))] * spec.m
        self.lows = [0] * spec.m

    def __call__(self, block: np.ndarray) -> np.ndarray:
        pi = None
        for j, (lo, hi) in enumerate(zip(block.min(axis=0).tolist(), block.max(axis=0).tolist())):
            if not self.lows[j] <= lo <= hi < self.lows[j] + len(self.tables[j]):
                self.tables[j] = None  # free the old table before its successor is built
                steps = np.arange(lo, min(lo + len(block), self.spec.steps + 1))
                self.tables[j] = np.minimum(steps[:, None] * self.spec.resolution, self.prefs[:, j])
                self.lows[j] = lo
            rows = np.take(self.tables[j], block[:, j] - self.lows[j], axis=0)
            if pi is None:
                pi = rows
            else:
                pi += rows
        return pi


def brute_force_best(
    profile: Profile,
    objective: Objective,
    spec: GridSpec,
    f: UtilityFunction | None = None,
) -> tuple[np.ndarray, float]:
    """Grid argmax of the chosen objective; ties go to the lexicographically
    smallest vector.

    Objectives: "ctr" is sum_i f(satisfaction_i) and requires f; "welfare"
    is the satisfaction total; "maxmin" the satisfaction minimum.
    """
    if spec.m != profile.m:
        raise ValueError(f"grid dimension {spec.m} does not match profile m={profile.m}")
    scores = {
        "ctr": lambda pi: f.value(np.maximum(pi, f.floor, out=pi)).sum(axis=1),
        "welfare": lambda pi: pi.sum(axis=1),
        # a minimum is exact in any order, and a pass per agent is far
        # faster than a reduction along each short row
        "maxmin": lambda pi: functools.reduce(np.minimum, pi.T),
    }
    if objective not in scores:
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "ctr" and f is None:
        raise ValueError("objective 'ctr' requires a utility function")

    overlap = _BlockOverlap(profile.prefs, spec)
    best_val = -np.inf
    best_vec: np.ndarray | None = None
    for block in _composition_chunks(spec):
        vals = scores[objective](overlap(block))
        idx = int(np.argmax(vals))
        # strict > keeps the first (lexicographically smallest) maximizer
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best_vec = block[idx] * spec.resolution
    assert best_vec is not None
    return best_vec, best_val
