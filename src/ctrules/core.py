"""Domain types and overlap-satisfaction primitives.

Agents report ideal budget distributions over m alternatives; an outcome is
itself a distribution.  The satisfaction of agent i with ideal ``x^i`` under
outcome ``x`` is the overlap ``sum_j min(x^i_j, x_j)``, which equals
``1 - 0.5 * l1(x^i, x)``.  This module holds the profile/allocation types,
the overlap and the strict/weak support masks, and the concave utility
family (with its inequality-aversion analytics) that parameterizes the
rules.  The first-order quantities built from the masks (marginal
contributions, directional derivatives and the MRS certificate) live in
``ctrules.solver``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import ClassVar, Iterable, Literal

import numpy as np

# Tolerance that separates strict from weak support-set membership.  Inputs
# perturbed by more than this move agents between the up and down sets.
EQUALITY_TOL = 1e-12

# Overflow guards for the exponential utility kind: the inner exponent is
# clipped at _EXP_CLIP and full log-magnitudes just under float max, so
# derivatives stay finite (and correctly ordered) when a satisfaction is
# floored near zero.  Clipping the inner exponent equally on both sides of a
# derivative ratio can only increase the ratio, so the lower-bound analytics
# survive the clip.
_EXP_CLIP = 690.0
_LOG_MAG_CLIP = 705.0
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

UtilityKind = Literal["log", "power", "negpower", "negexppower", "quadratic", "identity"]

_KINDS_WITH_P = {"power", "negpower", "negexppower"}


def _is_real(value) -> bool:
    """value is a real number; bool is an int subclass, and True would pass for 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class GuardError(RuntimeError):
    """A search or enumeration exceeds its size guard."""


def _as_matrix(prefs: Iterable) -> np.ndarray:
    arr = np.array(prefs, dtype=float, order="F")
    if arr.ndim != 2:
        raise ValueError(f"preference profile must be 2-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Profile:
    """An n x m matrix of ideal distributions, one row per agent.

    Rows must be stochastic: finite nonnegative entries summing to 1 within
    1e-9.

    prefs is stored column-major (Fortran order), decided here once for
    every caller.  The rule polish reads and rewrites whole columns, and
    the row sums over column-major minima that give ``overlap``'s
    satisfactions take about a third of the time of row-major ones at
    2000 x 50.  Those sums add the columns in index order, the same order
    for the polish and for every re-check, so a solve reports the
    certificate its polish stopped on.
    """

    prefs: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.prefs)
        n, m = arr.shape
        if n < 1:
            raise ValueError("profile needs at least one agent")
        if m < 2:
            raise ValueError("profile needs at least two alternatives")
        if not np.isfinite(arr).all():
            raise ValueError("preference entries must be finite")
        if np.any(arr < -1e-12) or np.any(arr > 1 + 1e-12):
            raise ValueError("preference entries must lie in [0, 1]")
        sums = arr.sum(axis=1)
        bad = np.abs(sums - 1.0) > 1e-9
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(f"row {i} sums to {sums[i]!r}, expected 1 within 1e-9")
        arr.flags.writeable = False
        object.__setattr__(self, "prefs", arr)

    @property
    def n(self) -> int:
        return self.prefs.shape[0]

    @property
    def m(self) -> int:
        return self.prefs.shape[1]

    def without(self, agents: int | Iterable[int]) -> "Profile":
        """Partial profile with the given agent (or agents) removed."""
        agents = agents if isinstance(agents, Iterable) else [agents]
        drop = {check_agent(self, a) for a in agents}
        keep = [i for i in range(self.n) if i not in drop]
        if not keep:
            raise ValueError("cannot remove every agent")
        return Profile(self.prefs[keep])

    def replace_row(self, i: int, row: Iterable[float]) -> "Profile":
        arr = self.prefs.copy()
        arr[check_agent(self, i)] = np.asarray(row, dtype=float)
        return Profile(arr)

    def is_single_minded(self) -> bool:
        """True when every agent puts the whole budget (within 1e-9) on one
        alternative."""
        return bool(np.all(self.prefs.max(axis=1) >= 1.0 - 1e-9))


@dataclass(frozen=True)
class Allocation:
    """A point on the m-simplex: the collective outcome."""

    shares: np.ndarray

    def __post_init__(self):
        arr = np.array(self.shares, dtype=float)
        if arr.ndim != 1:
            raise ValueError("allocation must be a flat vector")
        if not np.isfinite(arr).all():
            raise ValueError("allocation shares must be finite")
        if np.any(arr < -1e-12):
            raise ValueError("allocation shares must be nonnegative")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise ValueError(f"allocation sums to {arr.sum()!r}, expected 1 within 1e-9")
        arr.flags.writeable = False
        object.__setattr__(self, "shares", arr)

    @property
    def m(self) -> int:
        return self.shares.shape[0]

    @staticmethod
    def uniform(m: int) -> "Allocation":
        return Allocation(np.full(m, 1.0 / m))


@dataclass(frozen=True)
class SatisfactionVector:
    """Per-agent overlap satisfactions for one (profile, allocation) pair."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def min(self) -> float:
        return float(self.values.min())


@dataclass(frozen=True)
class IavBound:
    """Certified range for a utility's inequality aversion (lambda)."""

    lower: float | None
    upper: float | None

    def __post_init__(self):
        if self.lower is not None and self.lower < 0:
            raise ValueError("lower IAV bound must be nonnegative")
        if self.upper is not None and self.upper <= 0:
            raise ValueError("upper IAV bound must be positive")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ValueError("lower IAV bound exceeds upper")


def _safe_exp(z: np.ndarray | float):
    return np.exp(np.minimum(z, _EXP_CLIP))


@dataclass(frozen=True)
class UtilityFunction:
    """A member of the concave utility family applied to satisfactions.

    Kinds (p is the family parameter where applicable):

    ====================  ==================  =========================
    kind                  f(t)                inequality aversion
    ====================  ==================  =========================
    log                   ln t                1 everywhere
    power (0<p<1)         t^p                 1 - p everywhere
    negpower (p>0)        -t^-p               1 + p everywhere
    negexppower (p>0)     -exp(t^-p)          >= 1 + p
    quadratic             t(2-t)              t/(1-t), uncertified
    identity              t                   0 (utilitarian baseline)
    ====================  ==================  =========================

    p is required, as a finite real number (not a bool), for exactly the
    kinds that take it: power needs 0 < p < 1, negpower and negexppower
    p > 0, and negpower's p must keep |f''(floor)| = p (p+1)
    floor^-(p+2) finite (an infinite marginal would turn the certificate's
    f' @ mask products into NaN, an infinite curvature the line search's
    Newton step and iav at the floor).
    Construction refuses anything else with ValueError, so every instance,
    built directly, by ``make_utility`` or by ``dataclasses.replace``, is a
    member of the family.

    Evaluation at t below ``floor`` (1e-9) uses t = floor, so the singular kinds
    stay finite when an agent's overlap is 0; the identity's value is not
    floored, so the utilitarian objective is exactly total satisfaction.
    Exponential-kind outputs are additionally clipped to stay inside float
    range; the clip only engages for satisfactions below roughly
    (1/690)^(1/p).

    The identity kind exists so the utilitarian baseline can share the MRS
    certificate; it is not strictly concave and is rejected wherever that
    matters.
    """

    kind: UtilityKind
    p: float | None = None
    floor: ClassVar[float] = 1e-9

    def __post_init__(self):
        kind, p = self.kind, self.p
        if kind in _KINDS_WITH_P:
            if p is None:
                raise ValueError(f"kind {kind!r} requires a parameter p")
            if not _is_real(p):
                raise ValueError(f"kind {kind!r} needs a real number p, got {p!r}")
            if not math.isfinite(p):
                raise ValueError(f"kind {kind!r} needs a finite p, got {p!r}")
            if kind == "power" and not 0.0 < p < 1.0:
                raise ValueError(f"power utilities need p in (0, 1), got {p!r}")
            if kind in ("negpower", "negexppower") and p <= 0.0:
                raise ValueError(f"kind {kind!r} needs p > 0, got {p!r}")
            if kind == "negpower" and math.log(p) + math.log(p + 1.0) - (p + 2.0) * math.log(self.floor) >= _LOG_FLOAT_MAX:
                raise ValueError(f"negpower p={p!r} overflows f'' at the utility floor {self.floor!r}; use a smaller p")
        elif kind in ("log", "quadratic", "identity"):
            if p is not None:
                raise ValueError(f"kind {kind!r} takes no parameter")
        else:
            raise ValueError(f"unknown utility kind {kind!r}")

    def _t(self, t):
        return np.maximum(np.asarray(t, dtype=float), self.floor)

    def value(self, t):
        if self.kind == "identity":
            return np.asarray(t, dtype=float)
        t = self._t(t)
        match self.kind:
            case "log":
                return np.log(t)
            case "power":
                return t**self.p
            case "negpower":
                return -(t**-self.p)
            case "negexppower":
                with np.errstate(over="ignore"):  # t^-p may overflow before the clip
                    return -_safe_exp(t**-self.p)
            case "quadratic":
                return t * (2.0 - t)

    def deriv(self, t):
        t = self._t(t)
        match self.kind:
            case "log":
                return 1.0 / t
            case "power":
                return self.p * t ** (self.p - 1.0)
            case "negpower":
                return self.p * t ** (-self.p - 1.0)
            case "negexppower":
                # assembled in log space so floored inputs stay finite
                with np.errstate(over="ignore"):  # t^-p may overflow before the clip
                    logmag = np.log(self.p) - (self.p + 1.0) * np.log(t) + np.minimum(t**-self.p, _EXP_CLIP)
                return np.exp(np.minimum(logmag, _LOG_MAG_CLIP))
            case "quadratic":
                return 2.0 - 2.0 * t
            case "identity":
                return np.ones_like(t)

    def second(self, t):
        t = self._t(t)
        match self.kind:
            case "log":
                return -1.0 / t**2
            case "power":
                return self.p * (self.p - 1.0) * t ** (self.p - 2.0)
            case "negpower":
                return -self.p * (self.p + 1.0) * t ** (-self.p - 2.0)
            case "negexppower":
                # d/dt [p t^-(p+1) e^(t^-p)] = -p e^(t^-p) t^-(p+2) ((p+1) + p t^-p)
                with np.errstate(over="ignore"):  # t^-p may overflow before the clips
                    inv = t**-self.p
                    logmag = np.log(self.p) - (self.p + 2.0) * np.log(t) + np.minimum(inv, _EXP_CLIP)
                    logmag += np.log((self.p + 1.0) + self.p * inv)
                return -np.exp(np.minimum(logmag, _LOG_MAG_CLIP))
            case "quadratic":
                return np.full_like(t, -2.0)
            case "identity":
                return np.zeros_like(t)

    @property
    def strictly_concave(self) -> bool:
        return self.kind != "identity"


# The one way to build a utility: UtilityFunction checks its own parameters.
make_utility = UtilityFunction


def iav(f: UtilityFunction, t: float) -> float:
    """Inequality aversion -t f''(t) / f'(t) at a point.

    Requires a finite t at or above the evaluation floor and f'(t) > 0; a
    nonpositive derivative signals an invalid family member at that point.
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    if t < f.floor:
        raise ValueError(f"t={t!r} is below the evaluation floor {f.floor!r}")
    fp = float(f.deriv(t))
    if fp <= 0.0:
        raise ValueError(f"f'({t!r}) = {fp!r} is not positive")
    return -t * float(f.second(t)) / fp


def iav_bound_of(f: UtilityFunction) -> IavBound:
    """Certified IAV range for a family member (catalog lookup).

    The quadratic kind carries no certified bound: its pointwise IAV
    t/(1-t) is unbounded on (0, 1).
    """
    match f.kind:
        case "log":
            return IavBound(1.0, 1.0)
        case "power":
            return IavBound(1.0 - f.p, 1.0 - f.p)
        case "negpower":
            return IavBound(1.0 + f.p, 1.0 + f.p)
        case "negexppower":
            return IavBound(1.0 + f.p, None)
        case "quadratic":
            return IavBound(None, None)
        case "identity":
            raise ValueError("the identity baseline has no inequality-aversion bound")


def _check_index(i: int, size: int, what: str, size_name: str) -> int:
    """i after checking it is an integer in [0, size); a float or bool would index wrongly."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise IndexError(f"{what} index must be an integer, got {i!r}")
    if not 0 <= i < size:
        raise IndexError(f"{what} index {i} out of range for {size_name}={size}")
    return int(i)


def check_agent(profile: Profile, i: int) -> int:
    """Return agent index i after checking it is an integer in [0, n)."""
    return _check_index(i, profile.n, "agent", "n")


def check_allocation(profile: Profile, x: Allocation) -> np.ndarray:
    """Return x's shares after checking x is an Allocation with one share per
    alternative; numpy would broadcast a one-share allocation silently."""
    if not isinstance(x, Allocation):
        raise ValueError(f"expected an Allocation, got {type(x).__name__}")
    if x.m != profile.m:
        raise ValueError(f"allocation has {x.m} shares, the profile has m={profile.m}")
    return x.shares


# ---------------------------------------------------------------------------
# Overlap satisfaction and support masks
# ---------------------------------------------------------------------------


def overlap(prefs: np.ndarray, shares: np.ndarray) -> np.ndarray:
    """Vector of overlaps sum_j min(prefs[i, j], shares[j]) for all agents."""
    return np.minimum(prefs, shares).sum(axis=1)


def satisfaction_vector(profile: Profile, x: Allocation) -> SatisfactionVector:
    return SatisfactionVector(overlap(profile.prefs, check_allocation(profile, x)))


def support_masks(prefs: np.ndarray, shares: np.ndarray):
    """Strict (up) and weak (down) supporter masks, shaped like prefs.

    ``up[i, j]`` means raising x_j improves agent i; ``down[i, j]`` means
    lowering x_j hurts agent i.  ``up`` is a subset of ``down``; they differ
    exactly on ties ``x^i_j == x_j`` (within EQUALITY_TOL).

    Both compare each ideal share with a threshold: ``x^i_j > x_j +
    EQUALITY_TOL`` (up) and ``x^i_j >= x_j - EQUALITY_TOL`` (down).  This
    is the one float form of the support test in the first-order engine:
    the line search's derivative probes compare with the same thresholds,
    and its binary searches for them in a sorted column find exactly the
    agents these masks select.

    The masks are C-ordered even though a profile's prefs are column-major
    (comparing a C-ordered copy costs less than writing C-ordered results
    from column-major input): the rule polish carries its strict mask in
    that order too, so a product ``weights @ up`` takes the same summation
    path wherever it is formed, and the polish's marginal contributions
    equal ``mrs_gap``'s bit for bit.  Callers: ``solver._supporters`` (the
    strict mask and ties behind ``mrs_gap``, ``marginal_contribution``, the
    utilitarian certificate and the polish's first point), the polish's
    update of each column a step moves, ``directional_derivative``, the
    tests and the benchmark's tracer.
    """
    prefs = np.ascontiguousarray(prefs)
    return prefs > shares + EQUALITY_TOL, prefs >= shares - EQUALITY_TOL
