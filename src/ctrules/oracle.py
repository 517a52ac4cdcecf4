"""Brute-force grid search over the simplex, for certifying solver outputs.

Enumerates every nonnegative vector with entries that are multiples of a
fixed resolution and a fixed total, in lexicographic order, and maximizes a
chosen objective over that grid.  Only meant for small m; the point count is
the stars-and-bars binomial and grows combinatorially.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
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
        if self.num_points() > guard:
            raise GuardError(
                f"grid has {self.num_points()} points, exceeding the guard of {guard}"
            )

    @classmethod
    def snapped(cls, m: int, budget: float, resolution: float) -> GridSpec:
        """Grid over budget in the whole number of steps (at least one) nearest the resolution."""
        return cls(m, budget / max(1, _step_count(budget, resolution)), budget)

    @property
    def steps(self) -> int:
        return _step_count(self.budget, self.resolution)

    def num_points(self) -> int:
        return math.comb(self.steps + self.m - 1, self.m - 1)


# Most rows in one vectorized block; _block_overlap holds rows x n x m floats.
_BLOCK_ROW_CAP = 100_000


def _line_block(prefix: list[int], t: np.ndarray, remaining: int, parts: int, scale: float) -> np.ndarray:
    block = np.empty((t.size, parts))
    if prefix:
        block[:, : len(prefix)] = np.array(prefix) * scale
    block[:, -2] = t * scale
    block[:, -1] = (remaining - t) * scale
    return block


def _triangle_block(prefix: list[int], remaining: int, parts: int, scale: float) -> np.ndarray:
    counts = np.arange(remaining + 1, 0, -1)
    a = np.repeat(np.arange(remaining + 1), counts)
    starts = np.repeat(np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
    b = np.arange(a.size) - starts
    block = np.empty((a.size, parts))
    if prefix:
        block[:, : len(prefix)] = np.array(prefix) * scale
    block[:, -3] = a * scale
    block[:, -2] = b * scale
    block[:, -1] = (remaining - a - b) * scale
    return block


def _composition_chunks(spec: GridSpec) -> Iterator[np.ndarray]:
    """Yield blocks of the grid's points in lex order.

    The last two or three coordinates of each prefix are vectorized into
    blocks of at most _BLOCK_ROW_CAP rows (a line too long is cut into
    consecutive runs, a triangle too large is split into lines) so
    enumeration stays fast without materializing the whole grid.
    """
    if spec.m == 1:
        yield np.array([[spec.steps * spec.resolution]])
        return

    def rec(prefix: list[int], remaining: int, left: int) -> Iterator[np.ndarray]:
        if left == 2:
            for start in range(0, remaining + 1, _BLOCK_ROW_CAP):
                t = np.arange(start, min(start + _BLOCK_ROW_CAP, remaining + 1))
                yield _line_block(prefix, t, remaining, spec.m, spec.resolution)
            return
        if left == 3 and (remaining + 1) * (remaining + 2) // 2 <= _BLOCK_ROW_CAP:
            yield _triangle_block(prefix, remaining, spec.m, spec.resolution)
            return
        for a in range(remaining + 1):
            yield from rec(prefix + [a], remaining - a, left - 1)

    yield from rec([], spec.steps, spec.m)


def enumerate_grid(spec: GridSpec) -> Iterator[np.ndarray]:
    """Stream every grid vector exactly once, lexicographically ascending."""
    for block in _composition_chunks(spec):
        yield from block


def _block_overlap(block: np.ndarray, prefs: np.ndarray) -> np.ndarray:
    """Satisfaction of every agent (columns) at every grid point (rows)."""
    return np.minimum(block[:, None, :], prefs[None]).sum(axis=2)


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
    if objective == "ctr":
        if f is None:
            raise ValueError("objective 'ctr' requires a utility function")
        floor = f.floor

    best_val = -np.inf
    best_vec: np.ndarray | None = None
    for block in _composition_chunks(spec):
        pi = _block_overlap(block, profile.prefs)
        if objective == "ctr":
            vals = f.value(np.maximum(pi, floor)).sum(axis=1)
        elif objective == "welfare":
            vals = pi.sum(axis=1)
        elif objective == "maxmin":
            vals = pi.min(axis=1)
        else:
            raise ValueError(f"unknown objective {objective!r}")
        idx = int(np.argmax(vals))
        # strict > keeps the first (lexicographically smallest) maximizer
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best_vec = block[idx].copy()
    assert best_vec is not None
    return best_vec, best_val
