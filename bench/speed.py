"""Reference loops that track the speed of a shared host.

On the 2-core shared host this benchmark was built on, the same code ran up
to 40% slower for stretches of seconds to minutes, because of other tenants'
load.  Identical rounds then varied from 5.4 s to 7.6 s, and a workload's
throughput moved by 24% between runs minutes apart.

The benchmark therefore times each call between two runs of a fixed
reference loop that does the same kind of work without calling the
program.  It rescales the call's wall time to the loop's nominal speed:
``nominal_s = wall_s * nominal / reference``.  Interpreter-bound code and
code bound by large arrays slow down by different amounts, so there are two
loops, and each workload names the one that matches its work.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np
from scipy.optimize import linprog


class Reference:
    """A fixed loop and its nominal duration, which defines nominal speed."""

    def __init__(self, body: Callable[[], None], nominal_s: float):
        self._body = body
        self.nominal_s = nominal_s

    def seconds(self) -> float:
        """Best of three runs of the loop, in wall seconds."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._body()
            best = min(best, time.perf_counter() - t0)
        return best


_ROWS = np.linspace(0.0, 1.0, 96).reshape(12, 8)


def _interpreter_body() -> None:
    # interpreter steps and small-array numpy calls, like the subset loops
    # and the tiny first-order solves
    acc = 0
    for i in range(12000):
        acc += i & 7
    x = _ROWS
    for _ in range(150):
        x = np.minimum(x, 0.5).sum(axis=1, keepdims=True) * _ROWS


_rng = np.random.default_rng(2024)
_WIDE = _rng.random((2000, 50))
_SHARES = np.full(50, 0.02)
_LP_A = _rng.random((60, 40))
_LP_C = -_rng.random(40)
_LP_B = np.ones(60)


def _array_body() -> None:
    # overlap-sized passes over a 2000 x 50 matrix and a small HiGHS LP,
    # like the large first-order solves and the maxmin reference
    for _ in range(16):
        np.minimum(_WIDE, _SHARES).sum(axis=1)
    linprog(_LP_C, A_ub=_LP_A, b_ub=_LP_B, bounds=(0.0, 1.0), method="highs")


INTERPRETER = Reference(_interpreter_body, nominal_s=1.0e-3)
ARRAY = Reference(_array_body, nominal_s=5.0e-3)
