"""Shared test helpers: exact and brute-force oracles, and distribution
distances. The oracles are per-element Python loops, independent of the
vectorized kernels they check."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from fdrlink import (FixedZerosAdversary, InformedAdversary, MostAntiConservativeAdversary,
                     PValueStudy, RejectionOutcome)

# Asymptotic Kolmogorov-Smirnov critical coefficient at the 1% level:
# sqrt(-0.5 * ln(0.005)). Critical distance = KS_COEFF_1PCT / sqrt(n).
KS_COEFF_1PCT = 1.6276236115189504


def ks_distance_uniform(samples) -> float:
    """Kolmogorov-Smirnov distance between the sample ECDF and Uniform(0,1)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - x), np.max(x - (grid - 1.0 / n))))


def threshold_ceil_oracle(p: float, n: int, alpha: float) -> int:
    """Smallest c >= 1 with ``p <= alpha * c / n`` in floats, by scanning that
    comparison from the exact ceiling of ``n * p / alpha`` (it is monotone in
    c, so the scan walks to the first passing c)."""
    exact = Fraction(n) * Fraction(p) / Fraction(alpha)
    c = max(-(-exact.numerator // exact.denominator), 1)
    while c > 1 and p <= alpha * (c - 1) / n:
        c -= 1
    while p > alpha * c / n:
        c += 1
    return c


def anchor_oracle(nulls_sorted, n: int, alpha: float, n1=None, first_rank: int = 1):
    """``(rank, ceiling)`` with the largest exact ratio ``rank / ceiling``,
    ties to the largest rank, over ranks whose zero count fits in `n1` (when
    given); ``(0, 0)`` when none does. A zero p-value has ceiling 1."""
    best = (0, 0)
    for j, p in enumerate(nulls_sorted, start=first_rank):
        c = threshold_ceil_oracle(float(p), n, alpha)
        if (n1 is None or c - j <= n1) and (best == (0, 0) or Fraction(j, c) >= Fraction(*best)):
            best = (j, c)
    return best


def planted_zeros_oracle(adv, nulls_sorted, n1: int, n: int, alpha: float) -> int:
    """Zero count each adversary plants, from :func:`anchor_oracle`."""
    if isinstance(adv, FixedZerosAdversary):
        return adv.zeros
    if isinstance(adv, (InformedAdversary, MostAntiConservativeAdversary)):
        feasible = n1 if isinstance(adv, MostAntiConservativeAdversary) else None
        rank, c = anchor_oracle(nulls_sorted, n, alpha, feasible)
    elif adv.strategy == "plug_in_second":
        rank, c = anchor_oracle([nulls_sorted[1], *nulls_sorted[1:]], n, alpha)
    else:
        rank, c = anchor_oracle(nulls_sorted[1:], n, alpha, first_rank=2)
    return min(max(c - rank, 0), n1)


def step_up_r_oracle(pvalues, alpha):
    """Brute-force scan: last sorted position passing its own threshold."""
    s = sorted(pvalues)
    n = len(s)
    best = 0
    for j in range(1, n + 1):
        if s[j - 1] <= alpha * j / n:
            best = j
    return best


def step_down_r_oracle(pvalues, alpha):
    s = sorted(pvalues)
    n = len(s)
    for j in range(1, n + 1):
        if s[j - 1] > alpha * j / n:
            return j - 1
    return n


def step_fdp_oracle(study: PValueStudy, alpha: float, proc: str) -> Fraction:
    """FDP of a step procedure: the R smallest p-values (stable order)."""
    r_oracle = step_up_r_oracle if proc == "step_up" else step_down_r_oracle
    r = r_oracle(study.pvalues, alpha)
    order = sorted(range(study.n), key=lambda i: study.pvalues[i])
    return Fraction(sum(bool(study.null_mask[i]) for i in order[:r]), max(r, 1))


def completed_fdp_oracle(adv, nulls_sorted, n1: int, n: int, alpha: float,
                         proc: str) -> Fraction:
    """FDP of a step procedure on the study `adv` completes: sorted nulls,
    the planted zeros, then ones."""
    zeros = planted_zeros_oracle(adv, nulls_sorted, n1, n, alpha)
    study = PValueStudy(list(nulls_sorted) + [0.0] * zeros + [1.0] * (n1 - zeros),
                        [True] * len(nulls_sorted) + [False] * n1)
    return step_fdp_oracle(study, alpha, proc)


def enumerate_compliant_outcomes(study: PValueStudy, alpha: float):
    """Every rejection set whose members all pass ``p <= alpha * |S| / n``."""
    n = study.n
    p = study.pvalues
    for size in range(0, n + 1):
        cutoff = alpha * size / n
        eligible = [i for i in range(n) if p[i] <= cutoff]
        if len(eligible) < size:
            continue
        for subset in combinations(eligible, size):
            yield RejectionOutcome.from_indices(study, subset)


def brute_force_max_fdp(study: PValueStudy, alpha: float) -> Fraction:
    """Largest FDP over all compliant outcomes, by exhaustive enumeration."""
    best = Fraction(0)
    for outcome in enumerate_compliant_outcomes(study, alpha):
        if outcome.fdp > best:
            best = outcome.fdp
    return best


def random_study(rng: np.random.Generator, max_n: int = 8,
                 grid: np.ndarray | None = None) -> PValueStudy:
    """Random study with p-values off the float-boundary danger zone."""
    n = int(rng.integers(1, max_n + 1))
    if grid is None:
        p = rng.random(n)
    else:
        p = rng.choice(grid, size=n)
    mask = rng.random(n) < 0.6
    return PValueStudy(p, mask)
