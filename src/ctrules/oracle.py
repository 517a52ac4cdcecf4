"""Brute-force grid search over the simplex, for certifying solver outputs.

Enumerates every nonnegative vector with entries that are multiples of a
fixed resolution and a fixed total, in lexicographic order, and maximizes a
chosen objective over that grid.  Blocks of the grid travel as integer step
counts; an agent's satisfaction at a point is read from one table per
alternative (the overlap of k steps with the agent's ideal) and summed in
column order, and a point is scaled by the resolution only where it is
returned.  The argmax is an exact branch-and-bound (Land and Doig, 1960):
every objective is nondecreasing in each agent's satisfaction, so scoring
per-agent upper bounds over a line or a segment of the grid bounds the
objective there, and only the points whose bounds reach the best value
found are scored.  Only meant for small m; the point count is the
stars-and-bars binomial and grows combinatorially, and in the worst case
every point is scored.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from decimal import Context
from typing import Iterator, Literal

import numpy as np

from .core import GuardError, Profile, UtilityFunction

# The one size guard of every grid walk: the most points a GridSpec may have.
_MAX_GRID_POINTS = 10_000_000

Objective = Literal["ctr", "welfare", "maxmin"]


def _check_resolution(resolution: float) -> None:
    """Refuse a grid or check resolution that is not finite and positive."""
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and positive, got {resolution!r}")


def _step_count(budget: float, resolution: float) -> int:
    """Nearest whole number of steps; an overflowing count exceeds any guard."""
    _check_resolution(resolution)
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
    and the stars-and-bars point count C(steps + m - 1, m - 1) must not
    exceed _MAX_GRID_POINTS, read at construction.
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
        points, guard = self.num_points(), _MAX_GRID_POINTS
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


# Consecutive points of a line under one segment bound.
_SEGMENT = 8
# A bound's satisfactions are lifted by this factor before they are scored.
# A point's float sums can exceed the exact ones, and its line's or
# segment's fall short of theirs, by a few ulps at most; the lift covers
# both.
_LIFT = 1.0 + 2.0**-40
# Relative margin of the pruning test, for the rounding of f and of the
# sum over agents.
_MARGIN = 1e-9


def _segments(remaining: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The segments of lines with the given steps left, in lex order, in
    runs whose points fill at most _BLOCK_ROW_CAP rows: each segment's line
    index and its first and last step count t on coordinate m - 2."""
    counts = remaining // _SEGMENT + 1
    ends = np.cumsum(counts)
    run = max(1, _BLOCK_ROW_CAP // _SEGMENT)
    for start in range(0, int(ends[-1]), run):
        ids = np.arange(start, min(start + run, int(ends[-1])))
        line = np.searchsorted(ends, ids, side="right")
        lo = (ids - ends[line] + counts[line]) * _SEGMENT
        yield line, lo, np.minimum(lo + _SEGMENT - 1, remaining[line])


def _segment_points(lines: np.ndarray, line: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Step counts of every point of the given segments, in their order."""
    size = hi - lo + 1
    line = np.repeat(line, size)
    t = np.arange(len(line)) - np.repeat(np.cumsum(size) - size - lo, size)
    block = np.empty((len(line), lines.shape[1] + 1), dtype=np.int64, order="F")
    block[:, :-2], block[:, -2], block[:, -1] = lines[line, :-1], t, lines[line, -1] - t
    return block


def brute_force_best(
    profile: Profile,
    objective: Objective,
    spec: GridSpec,
    f: UtilityFunction | None = None,
) -> tuple[np.ndarray, float]:
    """Grid argmax of the chosen objective; ties go to the lexicographically
    smallest vector.

    Objectives: "ctr" is sum_i f(satisfaction_i) and requires f; "welfare"
    is the satisfaction total; "maxmin" the satisfaction minimum.  Each is
    nondecreasing in every satisfaction (f is, and is floored), so the score
    of per-agent upper bounds U over a set of points bounds it there.

    A line is every point that shares its first m - 2 step counts; with
    prefix sums P_i, R steps left and resolution r, U_i = P_i + min(R r,
    p_i,m-2 + p_i,m-1).  A segment is a run of _SEGMENT consecutive points
    of a line, t in [lo, hi] on coordinate m - 2, with the tighter U_i =
    P_i + min(min(hi r, p_i,m-2) + min((R - lo) r, p_i,m-1), R r).  A first
    pass finds the line of best bound; the best point of that line's
    segment of best bound is the incumbent.  The second pass walks lines,
    then their segments, in lex order and drops one only when bound +
    1e-9 max(1, |v|) < v, for v the best value scored so far (the
    incumbent at first).  The points left are scored as the full walk
    scores them, through _BlockOverlap's column-order sums, and strict >
    keeps the first maximizer: the result is the full walk's bit for bit.

    The margin is safe.  U is lifted by a relative 2^-40 before it is
    scored, far above the few ulps by which the float sums of nonnegative
    terms behind a point's satisfactions and behind U can stray from the
    exact ones, so the lifted U dominates every computed satisfaction.
    What is left is the rounding of f and of the sum over agents.  Every
    utility kind has same-signed values on [0, 1] (log, negpower and
    negexppower are <= 0; power, quadratic and identity >= 0), so the sum
    never cancels and its error is about n eps relative, far inside the
    margin; a minimum is exact.  So no point that reaches v is dropped.

    Lines and segments are handled in lex-ordered groups, so no array
    exceeds _BLOCK_ROW_CAP rows.  When bounds prune nothing (all points
    tie, say) every point is scored, under the same size guard as the
    full walk.
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
    score = scores[objective]
    r, prefs = spec.resolution, profile.prefs
    last2, last = prefs[:, -2], prefs[:, -1]

    def segment_bounds(lines, prefix, line, lo, hi):
        remaining = lines[line, -1:]
        tail = np.minimum(hi[:, None] * r, last2) + np.minimum((remaining - lo[:, None]) * r, last)
        return score((prefix[line] + np.minimum(tail, remaining * r)) * _LIFT)

    overlap = _BlockOverlap(prefs, spec)
    full = spec.steps < _BLOCK_ROW_CAP
    if full:
        # tables over every step, as the full walk's first block builds
        # them, so a block of scattered points reads inside them
        overlap(np.repeat(np.arange(spec.steps + 1)[:, None], spec.m, axis=1))

    def line_groups():
        # a line's step counts are a point of the grid one coordinate
        # shorter: its first m - 2, then the R steps left for the last two
        for lines in _composition_chunks(dataclasses.replace(spec, m=spec.m - 1)):
            prefix = overlap(lines[:, :-1]) if spec.m > 2 else np.zeros((len(lines), profile.n))
            yield lines, prefix, score((prefix + np.minimum(lines[:, -1:] * r, last2 + last)) * _LIFT)

    # one block of lines is kept for the second pass, more are rebuilt
    groups = [*line_groups()] if math.comb(spec.steps + spec.m - 2, spec.m - 2) <= _BLOCK_ROW_CAP else None
    top = -np.inf
    for lines, prefix, bounds in groups or line_groups():
        k = int(np.argmax(bounds))
        if bounds[k] > top:
            top, best_line = bounds[k], (lines[k : k + 1], prefix[k : k + 1])
    top = -np.inf
    for segment in _segments(best_line[0][:, -1]):
        bounds = segment_bounds(*best_line, *segment)
        k = int(np.argmax(bounds))
        if bounds[k] > top:
            top, best_segment = bounds[k], [a[k : k + 1] for a in segment]
    incumbent = float(score(overlap(_segment_points(best_line[0], *best_segment))).max())

    best_val = -np.inf
    best_vec: np.ndarray | None = None

    def kept(bounds):
        # drop only what the margin leaves below a point already scored
        level = max(incumbent, best_val)
        return np.flatnonzero(bounds + _MARGIN * max(1.0, abs(level)) >= level)

    for lines, prefix, bounds in groups or line_groups():
        keep = kept(bounds)
        if not keep.size:
            continue
        lines, prefix = lines[keep], prefix[keep]
        for line, lo, hi in _segments(lines[:, -1]):
            keep = kept(segment_bounds(lines, prefix, line, lo, hi))
            if not keep.size:
                continue
            line, lo, hi = line[keep], lo[keep], hi[keep]
            block = _segment_points(lines, line, lo, hi)
            if full:
                runs = [block]
            else:
                # a table spans as many steps as its block has rows, so
                # each run of consecutive points is its own block
                # (a line's first segment starts at 0, so no run spans two)
                runs = np.split(block, np.cumsum(hi - lo + 1)[:-1][lo[1:] != hi[:-1] + 1])
            for run in runs:
                vals = score(overlap(run))
                idx = int(np.argmax(vals))
                # strict > keeps the first (lexicographically smallest) maximizer
                if vals[idx] > best_val:
                    best_val = float(vals[idx])
                    best_vec = run[idx] * spec.resolution
    assert best_vec is not None
    return best_vec, best_val
