"""Step-up and step-down rejection procedures, compliance checking, the Simes
combination p-value, and the per-study ceiling on the false discovery
proportion.

Numerical conventions
---------------------
* Procedure thresholds compare p-values against ``alpha * j / n`` with plain
  binary floating-point comparison; no epsilon is added.
* Quantities of the form ``ceil(n * p / alpha)`` go through :func:`snap_ceil`,
  a ceiling that snaps values within one ulp of an integer before rounding
  up; this keeps rejection counts consistent with the float threshold
  comparisons and avoids ``ceil(2.0000000000000004) == 3`` artifacts.
  Ratios of these integer counts are then exact rationals.
* Ties among equal p-values are broken by original index (stable sort), so
  rejection sets are deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .study import PValueStudy, RejectionOutcome

__all__ = [
    "bh_step_up",
    "bh_step_down",
    "step_count",
    "is_compliant",
    "simes_pvalue",
    "simes_sorted",
    "simes_rejects",
    "fdp_upper_bound",
    "min_rejections_for",
    "snap_ceil",
    "snap_ceil_array",
]


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    return alpha


def _check_nulls(null_pvalues) -> np.ndarray:
    arr = np.asarray(null_pvalues, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty vector of null p-values")
    if np.any((arr < 0.0) | (arr > 1.0)) or np.any(~np.isfinite(arr)):
        raise ValueError("null p-values must lie in [0, 1]")
    return arr


def snap_ceil(x: float) -> int:
    """Ceiling with a guard that snaps values within one ulp of an integer.

    Prevents ``ceil(2.0000000000000004) == 3`` artifacts when the argument
    was produced by a float multiply/divide chain.
    """
    nearest = round(x)
    if abs(x - nearest) <= math.ulp(x):
        return int(nearest)
    return int(math.ceil(x))


def snap_ceil_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`snap_ceil`; returns integer-valued floats."""
    nearest = np.rint(x)
    return np.where(np.abs(x - nearest) <= np.spacing(x), nearest, np.ceil(x))


def min_rejections_for(pvalue: float, n: int, alpha: float) -> int:
    """Smallest rejection count R for which ``pvalue <= alpha * R / n``.

    Computed as ``ceil(n * pvalue / alpha)`` with the same guarded ceiling as
    the Monte Carlo paths, which keeps it consistent with the float threshold
    comparisons the procedures use (e.g. a p-value of 0.5 at ``alpha * 5 / 6``
    when ``0.6 * 5`` rounds to exactly 3.0).
    """
    if pvalue <= 0.0:
        raise ValueError("min_rejections_for requires a positive p-value")
    return max(snap_ceil(int(n) * pvalue / alpha), 1)


def step_count(sorted_p: np.ndarray, n: int, alpha: float, proc: str,
               offset: int = 0) -> int:
    """Rejection count of a step procedure on a size-`n` study whose `offset`
    smallest p-values pass (planted zeros), whose next are the ascending
    `sorted_p` and whose rest fail (ones). Position j passes iff
    ``p_(j) <= alpha * j / n``; step-up takes the last passing position,
    step-down the end of the leading run of them."""
    ok = sorted_p <= alpha * (offset + 1 + np.arange(sorted_p.size)) / n
    if proc == "step_up":
        passing = np.nonzero(ok)[0]
        return offset + int(passing[-1]) + 1 if passing.size else offset
    if proc == "step_down":
        return offset + sorted_p.size if ok.all() else offset + int(np.argmin(ok))
    raise ValueError(f"unknown procedure {proc!r}")


def _step_outcome(study: PValueStudy, alpha: float, proc: str) -> RejectionOutcome:
    # Both procedures reject exactly the p-values at or below alpha * R / n:
    # the R smallest all lie there and every larger one fails its threshold.
    alpha = _check_alpha(alpha)
    r = step_count(np.sort(study.pvalues), study.n, alpha, proc)
    return RejectionOutcome.from_indices(study, np.nonzero(study.pvalues <= alpha * r / study.n)[0])


def bh_step_up(study: PValueStudy, alpha: float) -> RejectionOutcome:
    """Step-up procedure: reject the R smallest p-values, where R is the last
    sorted position j with ``p_(j) <= alpha * j / n``."""
    return _step_outcome(study, alpha, "step_up")


def bh_step_down(study: PValueStudy, alpha: float) -> RejectionOutcome:
    """Step-down variant: reject the largest prefix of sorted p-values whose
    every member passes its own threshold ``alpha * j / n``."""
    return _step_outcome(study, alpha, "step_down")


def is_compliant(study: PValueStudy, outcome: RejectionOutcome, alpha: float) -> bool:
    """True iff every rejected p-value satisfies ``p <= alpha * R / n`` for
    the outcome's own rejection count R. Vacuously true for empty outcomes."""
    alpha = _check_alpha(alpha)
    idx = sorted(outcome.rejected)
    if idx and (idx[0] < 0 or idx[-1] >= study.n):
        raise ValueError("outcome indices out of range for the study")
    if not idx:
        return True
    cutoff = alpha * outcome.n_rejected / study.n
    return bool(np.all(study.pvalues[idx] <= cutoff))


def simes_sorted(sorted_p: np.ndarray) -> float:
    """Simes combination ``min(min_j n0 * p_(j) / j, 1)`` of ascending nulls."""
    return float(min(np.min(sorted_p.size * sorted_p / np.arange(1, sorted_p.size + 1)), 1.0))


def simes_pvalue(null_pvalues: Sequence[float]) -> float:
    """Simes combination of the null p-values: ``min_j n0 * p_(j) / j``.

    Never exceeds 1 for inputs in [0, 1] because the last term is ``p_(n0)``;
    the value is clamped anyway to guard against rounding.
    """
    return simes_sorted(np.sort(_check_nulls(null_pvalues)))


def simes_rejects(null_pvalues: Sequence[float], x: float) -> bool:
    """Whether the Simes combination falls at or below level `x`."""
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"level x must lie strictly inside (0, 1), got {x}")
    return simes_pvalue(null_pvalues) <= x


def fdp_upper_bound(null_pvalues: Sequence[float], n: int, alpha: float) -> Fraction:
    """Ceiling on the false discovery proportion of any compliant outcome.

    Returns ``min(max_j j / ceil(n * p_(j) / alpha), 1)`` over the sorted null
    p-values, as an exact rational. A zero null p-value makes the bound 1:
    rejecting it alone already realizes FDP = 1, matching the limit p -> 0+.
    """
    from .adversaries import anchor_choice  # adversaries builds on this module

    alpha = _check_alpha(alpha)
    arr = _check_nulls(null_pvalues)
    n = int(n)
    if n < arr.size:
        raise ValueError("n must be at least the number of null p-values")
    rank, ceiling = anchor_choice(np.sort(arr), n, alpha)
    return min(Fraction(rank, ceiling), Fraction(1))
