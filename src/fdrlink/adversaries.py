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

The informed, most-anti-conservative and Bonferroni-masked specs each define
``anchor``, their ``(rank, ceiling)`` per row of sorted nulls, and share one
``plant``. :func:`completed_fdp` is the row-wise FDP of completed studies,
which the Monte Carlo engine takes, and :func:`fdp_upper_bound` the per-study
FDP ceiling as an exact rational; the other functions are one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .procedures import step_count, threshold_ceil
from .study import PValueStudy, RejectionOutcome, check_count, check_open_unit, check_pvalues

if TYPE_CHECKING:
    from fractions import Fraction

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
    "completed_fdp",
    "fdp_upper_bound",
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


class _Anchored:
    """An adversary whose ``anchor`` picks an int64 ``(rank, ceiling)`` per row
    of ascending nulls and which plants the zeros that anchor calls for."""

    def plant(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> np.ndarray:
        """Zero count (int64) per row of a ``(rows, n0)`` matrix of ascending
        nulls: ``ceiling - rank`` clipped to ``[0, n1]``."""
        rank, ceiling = self.anchor(nulls_sorted, n1, n, alpha)
        return np.clip(ceiling - rank, 0, n1)


@dataclass(frozen=True)
class InformedAdversary(_Anchored):
    """Sees all null p-values; plants zeros to reach the FDP ceiling."""

    def anchor(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> tuple:
        return anchor_choice(nulls_sorted, n, alpha)


@dataclass(frozen=True)
class MostAntiConservativeAdversary(_Anchored):
    """Plants exactly the zeros the most anti-conservative outcome rejects:
    its anchor takes only ranks whose zeros fit in `n1`, so they never clip,
    and its step-up FDP is that outcome's."""

    def anchor(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> tuple:
        return anchor_choice(nulls_sorted, n, alpha, n1)


@dataclass(frozen=True)
class BonferroniMaskedAdversary(_Anchored):
    """Sees all sorted null p-values except the smallest: ``anchor`` never
    reads column 0."""

    strategy: str = "shifted_argmax"

    def __post_init__(self) -> None:
        if self.strategy not in MASKED_STRATEGIES:
            raise ValueError(
                f"unknown masked strategy {self.strategy!r}; "
                f"choose from {MASKED_STRATEGIES}"
            )

    def anchor(self, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> tuple:
        if nulls_sorted.shape[1] < 2:
            raise ValueError("masked construction needs at least two nulls")
        upper = nulls_sorted[:, 1:]
        if self.strategy == "plug_in_second":
            return anchor_choice(np.concatenate([upper[:, :1], upper], axis=1), n, alpha)
        return anchor_choice(upper, n, alpha, first_rank=2)


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
    adversary, row = MostAntiConservativeAdversary(), np.sort(arr)[None]
    rank = int(adversary.anchor(row, n1, n, alpha)[0][0])
    zeros = int(adversary.plant(row, n1, n, alpha)[0])
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
    return int(adversary.plant(np.concatenate([arr[:1], arr])[None], n1, n, alpha)[0])


def complete_study(null_pvalues, n1: int, n: int, alpha: float,
                   adversary: AdversarySpec) -> CompletedStudy:
    """Apply an adversary description to the given nulls."""
    arr = _checked_split(null_pvalues, n1, n)
    zeros = int(adversary.plant(np.sort(arr)[None], n1, n, alpha)[0])
    pvalues = np.concatenate([arr, np.zeros(zeros), np.ones(n1 - zeros)])
    return CompletedStudy(PValueStudy(pvalues, np.arange(n) < arr.size), zeros)


def completed_fdp(adversary: AdversarySpec, nulls_sorted: np.ndarray, n1: int, n: int,
                  alpha: float, proc: str) -> np.ndarray:
    """Row-wise FDP of `proc` (``"step_up"`` or ``"step_down"``) on the
    studies `adversary` completes from a ``(rows, n0)`` matrix of ascending nulls.

    Under step-up an anchored adversary's FDP is its anchor ratio ``rank /
    max(ceiling, rank, 1)``, bit for bit the planted count's. With ``z =
    ceiling - rank <= n1`` zeros, step-up rejects them and the V smallest
    nulls, V the last rank j with ``c_j - j <= z``. The anchor rank passes (a
    ``plug_in_second`` rank 1 too: the smallest null is at most its stand-in),
    so V >= rank >= the anchor's first rank. Every anchor reads the nulls
    unchanged past column 0, so for V >= 2 it weighed ``V / c_V``, feasible
    under any `n1` restriction as ``c_V - V <= z``: ``rank / ceiling <= V /
    (z + V) <= V / c_V <= rank / ceiling``. V = 1 forces rank = 1, equality.
    With ``ceiling < rank`` no zero is planted and every rejection is a null's;
    a ``(0, 0)`` anchor (no feasible rank) plants none and rejects nothing.
    Rows whose zeros clip (``ceiling - rank > n1``) plant `n1` zeros and count,
    as step-down and fixed zeros do.
    """
    if proc == "step_up" and isinstance(adversary, _Anchored):
        rank, ceiling = adversary.anchor(nulls_sorted, n1, n, alpha)
        fdp = rank / np.maximum(np.maximum(ceiling, rank), 1)
        clipped = np.flatnonzero(ceiling - rank > n1)
        fdp[clipped] = completed_fdp(FixedZerosAdversary(n1), nulls_sorted[clipped],
                                     n1, n, alpha, proc)
        return fdp
    zeros = adversary.plant(nulls_sorted, n1, n, alpha)
    r = step_count(nulls_sorted, n, alpha, proc, offset=zeros)
    return (r - zeros) / np.maximum(r, 1)


def fdp_upper_bound(null_pvalues: Sequence[float], n: int, alpha: float) -> Fraction:
    """Ceiling on the false discovery proportion of any compliant outcome.

    Returns ``min(max_j j / ceil(n * p_(j) / alpha), 1)`` over the sorted null
    p-values, as an exact rational. A zero null p-value makes the bound 1:
    rejecting it alone already realizes FDP = 1, matching the limit p -> 0+.
    """
    from fractions import Fraction

    alpha = check_open_unit("alpha", alpha)
    arr = check_pvalues(null_pvalues, "null p-values")
    check_count("n", n, arr.size)  # n counts every null
    rank, ceiling = anchor_choice(np.sort(arr)[None], n, alpha)
    return min(Fraction(int(rank[0]), int(ceiling[0])), Fraction(1))
