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
``c >= 1`` for which ``p_(j) <= alpha * c / n``, refined in exact integer
arithmetic only on rows with float-tied candidates, ties to the largest rank.
A one-pass float envelope ``(alpha / n) * j / p_(j)`` screens the columns, so
``c_j`` is worked out only where the row maximum can be. The worst-case
limit constant in ``mc`` runs the same kernel on partial sums with ``n = 1``.
Each adversary spec's ``plant`` returns its planted-zero count alone, one
int64 per row; the scalar functions here are one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .procedures import threshold_ceil
from .study import PValueStudy, RejectionOutcome, check_count, check_pvalues

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
    rows, width = nulls_sorted.shape
    ranks = np.arange(first_rank, first_rank + width, dtype=float)
    # A ceiling is at least max(1, n p / alpha) up to rounding, so rank /
    # ceiling is at most (alpha / n) * rank / p: exact ceilings are needed
    # only where that envelope reaches the exact ratio at its own argmax. A
    # zero or subnormal p gives an infinite envelope.
    with np.errstate(divide="ignore", over="ignore"):
        envelope = ranks / nulls_sorted
    if n1 is not None:
        # A rank is feasible iff p <= alpha * (n1 + rank) / n; the margin
        # keeps every feasible rank whatever the rounding.
        envelope[nulls_sorted > (alpha / n) * (n1 + ranks) * (1.0 + 1e-9)] = -np.inf
    top = envelope.argmax(axis=1)
    top_ceils = threshold_ceil(nulls_sorted[np.arange(rows), top], n, alpha)
    lower = ranks[top] / top_ceils
    if n1 is not None:
        lower[top_ceils - ranks[top] > n1] = -1.0  # keeps every feasible rank
    screen = envelope >= (lower * (1.0 - 1e-9) * (n / alpha))[:, None]
    row, col = np.divmod(np.flatnonzero(screen), width)
    ceils = threshold_ceil(nulls_sorted[row, col], n, alpha)
    cand_ranks = ranks[col]
    ratios = cand_ranks / ceils
    if n1 is not None:
        ratios[ceils - cand_ranks > n1] = -1.0
    best = np.full(rows, -1.0)
    np.maximum.at(best, row, ratios)
    # Candidates come in row-major order; a row's pick is its last near one.
    near = np.flatnonzero(ratios >= (best * (1.0 - 1e-12))[row])
    near_rows = row[near]
    pick = np.zeros(rows, dtype=np.intp)
    np.maximum.at(pick, near_rows, near)
    # The float ratios are within an ulp of the exact ones, so the exact
    # maximum is always near; only a row with a float tie is refined, by
    # cross-multiplying the integer counts (Python ints, exact), and only a
    # strictly larger ratio displaces a larger rank.
    for r in np.flatnonzero(np.bincount(near_rows, minlength=rows) > 1).tolist():
        top = pick[r]
        for i in reversed(near[near_rows == r].tolist()):
            if int(cand_ranks[i]) * int(ceils[top]) > int(cand_ranks[top]) * int(ceils[i]):
                top = i
        pick[r] = top
    found = best > 0.0
    rank_out, ceil_out = np.zeros((2, rows), dtype=np.int64)
    rank_out[found] = cand_ranks[pick[found]]
    ceil_out[found] = ceils[pick[found]]
    return rank_out, ceil_out


@dataclass(frozen=True)
class InformedAdversary:
    """Sees all null p-values; plants zeros to reach the FDP ceiling.

    Under step-up, with ``(rank, ceiling)`` from :func:`anchor_choice`, the
    FDP of the completed study is the anchor ratio ``rank / max(ceiling,
    rank)`` whenever the ``ceiling - rank`` zeros fit in `n1`; the Monte
    Carlo engine takes it so and plants and counts only the rows whose zero
    count clips to `n1`.
    """

    def plant(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> np.ndarray:
        """Zero count (int64) per row of a ``(rows, n0)`` matrix of ascending
        nulls."""
        rank, ceiling = anchor_choice(nulls_sorted, n, alpha)
        return np.clip(ceiling - rank, 0, n1)


@dataclass(frozen=True)
class MostAntiConservativeAdversary:
    """Plants exactly the zeros the most anti-conservative outcome rejects.

    Its zeros never clip, so under step-up the FDP of the completed study is
    always the anchor ratio ``rank / max(ceiling, rank, 1)`` of the
    `n1`-restricted :func:`anchor_choice` (0 where no rank is feasible), the
    most anti-conservative procedure's FDP; the Monte Carlo engine takes it
    so, without planting or counting.
    """

    def plant(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> np.ndarray:
        rank, ceiling = anchor_choice(nulls_sorted, n, alpha, n1)
        return np.maximum(ceiling - rank, 0)


@dataclass(frozen=True)
class BonferroniMaskedAdversary:
    """Sees all sorted null p-values except the smallest: ``plant`` never
    reads column 0."""

    strategy: str = "shifted_argmax"

    def __post_init__(self) -> None:
        if self.strategy not in MASKED_STRATEGIES:
            raise ValueError(
                f"unknown masked strategy {self.strategy!r}; "
                f"choose from {MASKED_STRATEGIES}"
            )

    def plant(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> np.ndarray:
        if nulls_sorted.shape[1] < 2:
            raise ValueError("masked construction needs at least two nulls")
        upper = nulls_sorted[:, 1:]
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
        check_count("zeros", self.zeros, 0)

    def plant(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> np.ndarray:
        if self.zeros > n1:
            raise ValueError(f"cannot plant {self.zeros} zeros in {n1} non-null slots")
        return np.full(nulls_sorted.shape[0], self.zeros, dtype=np.int64)


AdversarySpec = Union[
    InformedAdversary,
    MostAntiConservativeAdversary,
    BonferroniMaskedAdversary,
    FixedZerosAdversary,
]


@dataclass(frozen=True)
class CompletedStudy:
    """A study assembled from given nulls plus constructed non-nulls, with
    ``planted_zeros`` the number of zero-valued non-nulls placed."""

    study: PValueStudy
    planted_zeros: int


def _checked_split(null_pvalues, n1: int, n: int) -> np.ndarray:
    """The nulls, once ``n0 + n1 == n`` in plain integers."""
    arr = check_pvalues(null_pvalues, "null p-values", positive=True)
    check_count("n1", n1, 0)
    if arr.size + n1 != check_count("n", n, 1):
        raise ValueError(f"n0 + n1 must equal n, got {arr.size} + {n1} != {n}")
    return arr


def _one_row(null_pvalues, n: int) -> np.ndarray:
    """The nulls as one ascending row, once `n` counts them all."""
    row = check_pvalues(null_pvalues, "null p-values", positive=True, sort=True)
    check_count("n", n, row.size)
    return row[None]


def _plant_one(adversary: AdversarySpec, arr: np.ndarray, n1: int, n: int, alpha: float) -> int:
    """One study's zero count."""
    return int(adversary.plant(np.sort(arr)[None], n1, n, alpha)[0])


def max_fdp_rank(null_pvalues, n: int, alpha: float) -> int:
    """Sorted-null rank maximizing ``j / ceil(n * p_(j) / alpha)``.

    Returns a 1-based rank; ties resolve to the largest rank.
    """
    return int(anchor_choice(_one_row(null_pvalues, n), n, alpha)[0][0])


def feasible_max_fdp_rank(null_pvalues, n1: int, n: int, alpha: float) -> int:
    """Like :func:`max_fdp_rank`, restricted to ranks whose required zero
    count ``ceil(n * p_(j) / alpha) - j`` fits in the `n1` non-null slots.

    Returns 0 when no rank is feasible.
    """
    return int(anchor_choice(_one_row(null_pvalues, n), n, alpha, check_count("n1", n1, 0))[0][0])


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
    arr = _checked_split(null_pvalues, n1, n)
    ranks, ceilings = anchor_choice(np.sort(arr)[None], n, alpha, n1)
    rank, zeros = int(ranks[0]), max(int(ceilings[0] - ranks[0]), 0)
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
    arr = check_pvalues(upper_sorted_nulls, "null p-values", positive=True)
    if np.any(np.diff(arr) < 0.0):
        raise ValueError("upper null p-values must be sorted ascending")
    check_count("n1", n1, 0)
    check_count("n", n, arr.size + 1)  # the withheld null counts too
    # The stand-in smallest null is never read.
    return _plant_one(adversary, np.concatenate([arr[:1], arr]), n1, n, alpha)


def complete_study(null_pvalues, n1: int, n: int, alpha: float,
                   adversary: AdversarySpec) -> CompletedStudy:
    """Apply an adversary description to the given nulls."""
    arr = _checked_split(null_pvalues, n1, n)
    zeros = _plant_one(adversary, arr, n1, n, alpha)
    pvalues = np.concatenate([arr, np.zeros(zeros), np.ones(n1 - zeros)])
    return CompletedStudy(PValueStudy(pvalues, np.arange(n) < arr.size), zeros)
