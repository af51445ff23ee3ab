"""Constructions of non-null p-values that stress or maximize the false
discovery proportion.

All constructions here plant some number of zero-valued non-null p-values and
set the remaining non-nulls to one. They differ only in how the zero count is
chosen:

* the informed construction sees every null p-value and plants exactly enough
  zeros to drive a compliant procedure to the per-study FDP ceiling;
* the most-anti-conservative construction additionally respects the budget of
  available non-null slots, yielding the largest FDP any compliant outcome
  can realize;
* the Bonferroni-masked construction sees every sorted null p-value except
  the smallest, which caps how much damage it can do.

Completed studies use a canonical layout: nulls first (input order), then the
planted zeros, then the ones. Every statistic of interest is invariant to
permuting hypotheses, so the layout is a convention only.

Ranks come from one row-wise kernel, :func:`anchor_choice`: per row of
ascending nulls, a float argmax of ``j / c_j`` with ``c_j`` the smallest
``c >= 1`` for which ``p_(j) <= alpha * c / n``, refined in exact rational
arithmetic only on rows with float-tied candidates, ties to the largest rank.
Each adversary spec owns its row-wise planted-zero count (``plant``); the
scalar functions here are one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .procedures import threshold_ceil
from .study import PValueStudy, RejectionOutcome

__all__ = [
    "InformedAdversary",
    "MostAntiConservativeAdversary",
    "BonferroniMaskedAdversary",
    "FixedZerosAdversary",
    "AdversarySpec",
    "CompletedStudy",
    "anchor_choice",
    "max_fdp_rank",
    "feasible_max_fdp_rank",
    "informed_adversary",
    "most_anti_conservative",
    "masked_zero_count",
    "complete_study",
    "MASKED_STRATEGIES",
]

MASKED_STRATEGIES = ("plug_in_second", "shifted_argmax")


def anchor_choice(nulls_sorted: np.ndarray, n: int, alpha: float,
                  n1: Optional[int] = None, first_rank: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``(ranks, ceilings)`` maximizing ``rank / ceiling`` over each
    row of a ``(rows, m)`` matrix of ascending nulls, where a null's ceiling
    is the smallest ``c >= 1`` with ``p <= alpha * c / n`` and the first
    column has rank `first_rank`; ties resolve to the largest rank.

    With `n1` given, only ranks whose zero count ``ceiling - rank`` fits in
    `n1` compete, and ``(0, 0)`` means none does. Zero p-values are accepted
    (their ceiling is 1); callers validate their own inputs.
    """
    ceils = threshold_ceil(nulls_sorted, n, alpha)
    ranks = np.arange(first_rank, first_rank + nulls_sorted.shape[1], dtype=float)
    ratios = ranks / ceils
    if n1 is not None:
        ratios[ceils - ranks > n1] = -1.0
    best = ratios.max(axis=1)
    near = ratios >= (best * (1.0 - 1e-12))[:, None]
    pos = near.shape[1] - 1 - np.argmax(near[:, ::-1], axis=1)
    # The float ratios are within an ulp of the exact ones, so the exact
    # maximum is always near; only a row with a float tie pays for Fractions.
    for row in np.nonzero(np.count_nonzero(near, axis=1) > 1)[0].tolist():
        pos[row] = max(reversed(np.nonzero(near[row])[0].tolist()),
                       key=lambda i: Fraction(int(ranks[i]), int(ceils[row, i])))
    found = best > 0.0
    return (np.where(found, ranks[pos], 0).astype(np.int64),
            np.where(found, ceils[np.arange(pos.size), pos], 0).astype(np.int64))


@dataclass(frozen=True)
class InformedAdversary:
    """Sees all null p-values; plants zeros to reach the FDP ceiling."""

    def plant(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> tuple[np.ndarray, dict]:
        """Zero count per row of ascending nulls, and the CompletedStudy
        fields it sets (one value per row)."""
        rank, ceiling = anchor_choice(nulls_sorted, n, alpha)
        return np.clip(ceiling - rank, 0, n1), {"anchor_rank": rank}


@dataclass(frozen=True)
class MostAntiConservativeAdversary:
    """Plants exactly the zeros the most anti-conservative outcome rejects."""

    def plant(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> tuple[np.ndarray, dict]:
        rank, ceiling = anchor_choice(nulls_sorted, n, alpha, n1)
        return np.maximum(ceiling - rank, 0), {"anchor_rank": rank}


@dataclass(frozen=True)
class BonferroniMaskedAdversary:
    """Sees all sorted null p-values except the smallest."""

    strategy: str = "shifted_argmax"

    def __post_init__(self) -> None:
        if self.strategy not in MASKED_STRATEGIES:
            raise ValueError(
                f"unknown masked strategy {self.strategy!r}; "
                f"choose from {MASKED_STRATEGIES}"
            )

    def plant(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> tuple[np.ndarray, dict]:
        if nulls_sorted.shape[1] < 2:
            raise ValueError("masked construction needs at least two nulls")
        zeros = self.zeros_from_upper(nulls_sorted[:, 1:], n1, n, alpha)
        return zeros, {"masked_zero_count": zeros}

    def zeros_from_upper(self, upper: np.ndarray, n1: int, n: int, alpha: float) -> np.ndarray:
        """Zero count per row of ascending nulls of ranks 2..n0."""
        if self.strategy == "plug_in_second":
            rank, ceiling = anchor_choice(np.concatenate([upper[:, :1], upper], axis=1), n, alpha)
        else:
            rank, ceiling = anchor_choice(upper, n, alpha, first_rank=2)
        return np.clip(ceiling - rank, 0, n1)


@dataclass(frozen=True)
class FixedZerosAdversary:
    """Plants a fixed number of zeros regardless of the nulls."""

    zeros: int = 0

    def __post_init__(self) -> None:
        if int(self.zeros) < 0:
            raise ValueError("zero count must be nonnegative")

    def plant(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> tuple[np.ndarray, dict]:
        zeros = int(self.zeros)
        if zeros > n1:
            raise ValueError(f"cannot plant {zeros} zeros in {n1} non-null slots")
        return np.full(nulls_sorted.shape[0], zeros, dtype=np.int64), {}


AdversarySpec = Union[
    InformedAdversary,
    MostAntiConservativeAdversary,
    BonferroniMaskedAdversary,
    FixedZerosAdversary,
]


@dataclass(frozen=True)
class CompletedStudy:
    """A study assembled from given nulls plus constructed non-nulls.

    ``anchor_rank`` is the sorted-null rank the construction aims at (when it
    has one), ``masked_zero_count`` the zero count chosen by a masked
    construction, and ``planted_zeros`` the number of zero-valued non-nulls
    actually placed.
    """

    study: PValueStudy
    planted_zeros: int
    anchor_rank: Optional[int] = None
    masked_zero_count: Optional[int] = None


def _checked_nulls(null_pvalues) -> np.ndarray:
    arr = np.asarray(null_pvalues, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty vector of null p-values")
    if np.any((arr <= 0.0) | (arr > 1.0)):
        raise ValueError("adversary constructions require null p-values in (0, 1]")
    return arr


def _checked_split(null_pvalues, n1: int, n: int) -> tuple[np.ndarray, int, int]:
    arr = _checked_nulls(null_pvalues)
    if arr.size + int(n1) != int(n):
        raise ValueError(f"n0 + n1 must equal n, got {arr.size} + {n1} != {n}")
    return arr, int(n1), int(n)


def _one_row(null_pvalues) -> np.ndarray:
    return np.sort(_checked_nulls(null_pvalues))[None]


def _plant_one(adversary: AdversarySpec, arr: np.ndarray, n1: int, n: int,
               alpha: float) -> tuple[int, dict]:
    """One study's zero count and CompletedStudy fields, as Python ints."""
    zeros, fields = adversary.plant(np.sort(arr)[None], n1, n, alpha)
    return int(zeros[0]), {key: int(value[0]) for key, value in fields.items()}


def max_fdp_rank(null_pvalues, n: int, alpha: float) -> int:
    """Sorted-null rank maximizing ``j / ceil(n * p_(j) / alpha)``.

    Returns a 1-based rank; ties resolve to the largest rank.
    """
    return int(anchor_choice(_one_row(null_pvalues), int(n), alpha)[0][0])


def feasible_max_fdp_rank(null_pvalues, n1: int, n: int, alpha: float) -> int:
    """Like :func:`max_fdp_rank`, restricted to ranks whose required zero
    count ``ceil(n * p_(j) / alpha) - j`` fits in the `n1` non-null slots.

    Returns 0 when no rank is feasible.
    """
    return int(anchor_choice(_one_row(null_pvalues), int(n), alpha, int(n1))[0][0])


def informed_adversary(null_pvalues, n1: int, n: int, alpha: float) -> CompletedStudy:
    """Complete a study by planting ``min((ceil(n p_(j*)/alpha) - j*)_+, n1)``
    zeros at the anchor rank ``j*`` from :func:`max_fdp_rank`, with remaining
    non-nulls set to one."""
    return complete_study(null_pvalues, n1, n, alpha, InformedAdversary())


def most_anti_conservative(null_pvalues, n1: int, n: int, alpha: float) -> RejectionOutcome:
    """Rejection outcome of the most anti-conservative compliant procedure.

    Rejects the ``j`` smallest nulls plus the ``(ceil(n p_(j)/alpha) - j)_+``
    zero-valued non-nulls for the feasible anchor rank ``j``; rejects nothing
    when no rank is feasible. Indices refer to the canonical completed-study
    layout (both :func:`informed_adversary` and the most-anti-conservative
    completion place at least the required zeros right after the nulls).
    """
    arr, n1, n = _checked_split(null_pvalues, n1, n)
    zeros, fields = _plant_one(MostAntiConservativeAdversary(), arr, n1, n, alpha)
    rank = fields["anchor_rank"]
    rejected = [*np.argsort(arr, kind="stable")[:rank], *range(arr.size, arr.size + zeros)]
    return RejectionOutcome(rejected, n_false=rank)


def masked_zero_count(upper_sorted_nulls, n: int, n1: int, alpha: float,
                      strategy: str = "shifted_argmax") -> int:
    """Zero count chosen by a construction that never sees the smallest null.

    The input is the sorted null p-values with the smallest withheld, i.e.
    ranks 2..n0. Strategies:

    * ``plug_in_second``: duplicate the second-smallest null as a stand-in
      for the withheld one and run the informed rank selection on the result;
    * ``shifted_argmax``: maximize ``j / ceil(n * p_(j) / alpha)`` over ranks
      j >= 2 only and plant the zeros that rank calls for.

    The result is clamped to [0, n1].
    """
    adversary = BonferroniMaskedAdversary(strategy)
    arr = _checked_nulls(upper_sorted_nulls)
    if np.any(np.diff(arr) < 0.0):
        raise ValueError("upper null p-values must be sorted ascending")
    return int(adversary.zeros_from_upper(arr[None], int(n1), int(n), alpha)[0])


def complete_study(null_pvalues, n1: int, n: int, alpha: float,
                   adversary: AdversarySpec) -> CompletedStudy:
    """Apply an adversary description to the given nulls."""
    arr, n1, n = _checked_split(null_pvalues, n1, n)
    zeros, fields = _plant_one(adversary, arr, n1, n, alpha)
    pvalues = np.concatenate([arr, np.zeros(zeros), np.ones(n1 - zeros)])
    return CompletedStudy(PValueStudy(pvalues, np.arange(n) < arr.size), zeros, **fields)
