"""Step-up and step-down rejection procedures, compliance checking, the Simes
combination p-value, and the per-study ceiling on the false discovery
proportion.

Numerical conventions
---------------------
* Procedure thresholds compare p-values against ``alpha * j / n`` with plain
  binary floating-point comparison; no epsilon is added.
* The rejection count a p-value needs, ``ceil(n * p / alpha)``, is computed
  by :func:`threshold_ceil` as the smallest ``c >= 1`` with
  ``p <= alpha * c / n``: the very comparison the step procedures make, so
  the two never disagree, even within an ulp of a threshold. Ratios of these
  integer counts are then exact rationals.
* Kernels are row-wise: each row of a ``(rows, m)`` matrix of ascending
  p-values is one study, and the scalar functions are one-row calls.
* Ties among equal p-values are broken by original index (stable sort), so
  rejection sets are deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .study import PValueStudy, RejectionOutcome, check_count, check_open_unit, check_pvalues

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "bh_step_up",
    "bh_step_down",
    "step_count",
    "step_rule",
    "is_compliant",
    "simes_pvalue",
    "simes_sorted",
    "simes_rejects",
    "fdp_upper_bound",
    "min_rejections_for",
    "threshold_ceil",
]


def threshold_ceil(p: np.ndarray, n: int, alpha: float) -> np.ndarray:
    """Elementwise smallest ``c >= 1`` with ``p <= alpha * c / n`` in floats,
    as integer-valued floats: the ceiling of ``n * p / alpha``, corrected by
    one where that comparison disagrees with it (the float ceiling is off by
    at most one, e.g. ``ceil(2.0000000000000004) == 3``)."""
    c = np.ceil(p * (n / alpha))
    np.maximum(c, 1.0, out=c)
    c += p > alpha * c / n
    c -= (p <= alpha * (c - 1.0) / n) & (c > 1.0)
    return c


def min_rejections_for(pvalue: float, n: int, alpha: float) -> int:
    """Smallest rejection count R for which ``pvalue <= alpha * R / n``, the
    comparison the step procedures make (see :func:`threshold_ceil`)."""
    if pvalue <= 0.0:
        raise ValueError("min_rejections_for requires a positive p-value")
    return int(threshold_ceil(np.array([float(pvalue)]), check_count("n", n, 1), alpha)[0])


def step_count(sorted_p: np.ndarray, n: int, alpha: float, proc: str,
               offset=0) -> np.ndarray:
    """Row-wise rejection count of a step procedure on size-`n` studies whose
    `offset` smallest p-values pass (planted zeros; a scalar or one per row),
    whose next are the ascending rows of `sorted_p` and whose rest fail
    (ones). Position j passes iff ``p_(j) <= alpha * j / n``; see
    :func:`step_rule`."""
    offset = np.asarray(offset, dtype=np.int64)
    # No column past a row's count at or below its last threshold passes.
    width = int(np.count_nonzero(
        sorted_p <= (alpha * (offset + sorted_p.shape[1]) / n)[..., None], axis=1).max(initial=1))
    ok = sorted_p[:, :width] <= alpha * (offset[..., None] + np.arange(1.0, width + 1)) / n
    return offset + step_rule(ok, proc)


def step_rule(ok: np.ndarray, proc: str) -> np.ndarray:
    """Row-wise rejection count from a ``(rows, m)`` matrix of position tests
    (later positions fail): step-up takes the last passing position,
    step-down the end of the leading run."""
    m = ok.shape[1]
    if proc == "step_up":
        return np.where(ok.any(axis=1), m - np.argmax(ok[:, ::-1], axis=1), 0)
    if proc == "step_down":
        return np.where(ok.all(axis=1), m, np.argmin(ok, axis=1))
    raise ValueError(f"unknown procedure {proc!r}")


def _step_outcome(study: PValueStudy, alpha: float, proc: str) -> RejectionOutcome:
    # Both procedures reject exactly the p-values at or below alpha * R / n:
    # the R smallest all lie there and every larger one fails its threshold.
    alpha = check_open_unit("alpha", alpha)
    r = int(step_count(np.sort(study.pvalues)[None], study.n, alpha, proc)[0])
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
    alpha = check_open_unit("alpha", alpha)
    idx = sorted(outcome.rejected)
    if idx and (idx[0] < 0 or idx[-1] >= study.n):
        raise ValueError("outcome indices out of range for the study")
    if not idx:
        return True
    cutoff = alpha * outcome.n_rejected / study.n
    return bool(np.all(study.pvalues[idx] <= cutoff))


def simes_sorted(sorted_p: np.ndarray) -> np.ndarray:
    """Row-wise Simes combination ``min(min_j n0 * p_(j) / j, 1)`` of a
    ``(rows, n0)`` matrix of ascending nulls."""
    n0 = sorted_p.shape[1]
    return np.minimum(np.min(n0 * sorted_p / np.arange(1, n0 + 1), axis=1), 1.0)


def simes_pvalue(null_pvalues: Sequence[float]) -> float:
    """Simes combination of the null p-values: ``min_j n0 * p_(j) / j``.

    Never exceeds 1 for inputs in [0, 1] because the last term is ``p_(n0)``;
    the value is clamped anyway to guard against rounding.
    """
    return float(simes_sorted(check_pvalues(null_pvalues, "null p-values", sort=True)[None])[0])


def simes_rejects(null_pvalues: Sequence[float], x: float) -> bool:
    """Whether the Simes combination falls at or below level `x`."""
    x = check_open_unit("level x", x)
    return simes_pvalue(null_pvalues) <= x


def fdp_upper_bound(null_pvalues: Sequence[float], n: int, alpha: float) -> Fraction:
    """Ceiling on the false discovery proportion of any compliant outcome.

    Returns ``min(max_j j / ceil(n * p_(j) / alpha), 1)`` over the sorted null
    p-values, as an exact rational. A zero null p-value makes the bound 1:
    rejecting it alone already realizes FDP = 1, matching the limit p -> 0+.
    """
    from fractions import Fraction

    from .adversaries import anchor_choice  # adversaries builds on this module

    alpha = check_open_unit("alpha", alpha)
    arr = check_pvalues(null_pvalues, "null p-values")
    check_count("n", n, arr.size)  # n counts every null
    rank, ceiling = anchor_choice(np.sort(arr)[None], n, alpha)
    return min(Fraction(int(rank[0]), int(ceiling[0])), Fraction(1))
