"""Certificate scan: cold and warm-started rule solves of seeded small
profiles, counted by whether their MRS certificate passed.

Run from the repository root:

    PYTHONPATH=src python tests/certificate_scan.py 1 2 3 4 5

For each seed, case c in 0..339 draws from ``default_rng(10000 * seed + c)``
n in [1, 24] and m in [2, 6], then n rows by c mod 4: Dirichlet(1),
Dirichlet(0.3), single-minded, or the 0.1 grid (``multinomial(10, 1/m) /
10``).  Nine rules solve each profile cold: log, power 0.25 and 0.75,
negpower 1, 3 and 9, negexppower 1 and 3, and quadratic, so 3,060 solves per
seed.  The same profiles are then solved along ``ctr sweep``'s default
ladder 0.25:4:5 (power 0.75 and 0.5, log, negpower 1 and 3), each rung
started from the previous rung's optimum as the sweep starts it, so 1,700
solves per seed; warm rungs take most of the polish's Newton steps.  Two
lines per seed, the cold solves' and then the ladder's, give the certified
and uncertified counts, the polish steps summed over the scan, the most
steps one solve took and a digest of every report, so two versions of the
solver can be compared by diffing their scan output.  The file is not named
``test_*.py``, so pytest does not collect it.
"""

import hashlib
import struct
import sys

import numpy as np

import ctrules as ct
from ctrules.cli import _lambda_grid, ladder_rule

CASES = 340
RULES = [
    ct.make_utility("log"),
    ct.make_utility("power", p=0.25),
    ct.make_utility("power", p=0.75),
    ct.make_utility("negpower", p=1.0),
    ct.make_utility("negpower", p=3.0),
    ct.make_utility("negpower", p=9.0),
    ct.make_utility("negexppower", p=1.0),
    ct.make_utility("negexppower", p=3.0),
    ct.make_utility("quadratic"),
]
LADDER = [ladder_rule(lam) for lam in _lambda_grid("0.25:4:5")]


def scan_profile(seed: int, case: int) -> ct.Profile:
    """The profile of one case of the scan at seed."""
    rng = np.random.default_rng(10000 * seed + case)
    n, m = int(rng.integers(1, 25)), int(rng.integers(2, 7))
    kind = case % 4
    if kind == 0:
        rows = rng.dirichlet(np.ones(m), size=n)
    elif kind == 1:
        rows = rng.dirichlet(np.full(m, 0.3), size=n)
    elif kind == 2:
        rows = np.zeros((n, m))
        rows[np.arange(n), rng.integers(0, m, size=n)] = 1.0
    else:
        rows = rng.multinomial(10, np.full(m, 1.0 / m), size=n) / 10.0
    return ct.Profile(rows)


def scan(seed: int) -> list[ct.SolveReport]:
    """Every report of the scan at seed, case by case and rule by rule."""
    reports = []
    for case in range(CASES):
        profile = scan_profile(seed, case)
        reports += [ct.solve_ctr(profile, f) for f in RULES]
    return reports


def scan_ladder(seed: int) -> list[ct.SolveReport]:
    """Every ladder report of the scan at seed, case by case and rung by
    rung, each rung started from the previous rung's optimum."""
    reports = []
    for case in range(CASES):
        profile = scan_profile(seed, case)
        start = None
        for f in LADDER:
            reports.append(ct.solve_ctr(profile, f, start=start))
            start = reports[-1].allocation
    return reports


def digest(reports: list[ct.SolveReport]) -> str:
    """The first 12 hex digits of a SHA-256 over each report's allocation
    bytes, MRS gap and polish steps, in scan order."""
    sha = hashlib.sha256()
    for r in reports:
        sha.update(r.allocation.shares.tobytes())
        sha.update(struct.pack("<dq", r.mrs_gap, r.iterations))
    return sha.hexdigest()[:12]


def summary(reports: list[ct.SolveReport]) -> str:
    """The counts, steps and digest of one line of the scan's output."""
    certified = sum(r.converged for r in reports)
    steps = [r.iterations for r in reports]
    return f"certified {certified}, uncertified {len(reports) - certified}, steps {sum(steps)}, max steps {max(steps)}, digest {digest(reports)}"


def main(argv: list[str]) -> int:
    for seed in [int(arg) for arg in argv] or [1]:
        print(f"seed {seed}: {summary(scan(seed))}")
        print(f"seed {seed} ladder: {summary(scan_ladder(seed))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
