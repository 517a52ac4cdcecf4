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


def _line_block(prefix: list[int], t: np.ndarray, remaining: int, parts: int) -> np.ndarray:
    block = np.empty((t.size, parts), dtype=np.int64, order="F")
    if prefix:
        block[:, : len(prefix)] = prefix
    block[:, -2] = t
    block[:, -1] = remaining - t
    return block


def _triangle(remaining: int) -> np.ndarray:
    """Every (a, b, remaining - a - b) with a + b <= remaining, in lex order,
    as the rows of an integer array."""
    counts = np.arange(remaining + 1, 0, -1)
    a = np.repeat(np.arange(remaining + 1), counts)
    starts = np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    b = np.arange(a.size) - starts
    return np.column_stack((a, b, remaining - a - b))


def _triangle_block(largest: np.ndarray, prefix: list[int], remaining: int, parts: int) -> np.ndarray:
    """The triangle of ``remaining`` under prefix, sliced from ``largest``,
    the triangle of some R >= remaining: the rows of largest whose first
    coordinate is at least R - remaining are its last
    (remaining + 1)(remaining + 2)/2 rows, and with that coordinate lowered
    by R - remaining they are the smaller triangle in order."""
    tail = largest[len(largest) - (remaining + 1) * (remaining + 2) // 2 :]
    block = np.empty((len(tail), parts), dtype=np.int64, order="F")
    if prefix:
        block[:, : len(prefix)] = prefix
    block[:, -3:] = tail
    block[:, -3] -= largest[0, 2] - remaining
    return block


def _composition_chunks(spec: GridSpec) -> Iterator[np.ndarray]:
    """Yield blocks of the grid's points in lex order, as integer step
    counts (a point is its row times ``spec.resolution``).

    The last two or three coordinates of each prefix are vectorized into
    blocks of at most _BLOCK_ROW_CAP rows (a line too long is cut into
    consecutive runs, a triangle too large is split into lines) so
    enumeration stays fast without materializing the whole grid.
    """
    if spec.m == 1:
        yield np.array([[spec.steps]])
        return
    # the first triangle the walk reaches is its largest, built once
    largest = None

    def rec(prefix: list[int], remaining: int, left: int) -> Iterator[np.ndarray]:
        nonlocal largest
        if left == 2:
            for start in range(0, remaining + 1, _BLOCK_ROW_CAP):
                t = np.arange(start, min(start + _BLOCK_ROW_CAP, remaining + 1))
                yield _line_block(prefix, t, remaining, spec.m)
            return
        if left == 3 and (remaining + 1) * (remaining + 2) // 2 <= _BLOCK_ROW_CAP:
            if largest is None or largest[0, 2] < remaining:
                largest = _triangle(remaining)
            yield _triangle_block(largest, prefix, remaining, spec.m)
            return
        for a in range(remaining + 1):
            yield from rec(prefix + [a], remaining - a, left - 1)

    yield from rec([], spec.steps, spec.m)


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
