"""Shared test helpers: exact, brute-force and closed-form oracles, and
distribution distances. The oracles are per-element Python loops or direct
formulas, independent of the vectorized kernels they check."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from fdrlink import (BlockDependent, EquicorrelatedNormal, FixedZerosAdversary, IidUniform,
                     InformedAdversary, MostAntiConservativeAdversary, PrdnGaussian,
                     PValueStudy, RejectionOutcome)
from fdrlink.mc import BLOCK_REPS, block_rng

# Asymptotic Kolmogorov-Smirnov critical coefficient at the 1% level:
# sqrt(-0.5 * ln(0.005)). Critical distance = KS_COEFF_1PCT / sqrt(n).
KS_COEFF_1PCT = 1.6276236115189504

# One spec of each generator kind and law, small enough for exhaustive checks.
DRAW_SPECS = {
    "iid": IidUniform(5, 3),
    "equi-nonnull": EquicorrelatedNormal(150, 4, 0.3, mu_alt=1.5),
    "equi-two-sided": EquicorrelatedNormal(5, 2, -0.1, "two"),
    "prdn": PrdnGaussian(np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]]), (0, 2),
                         np.array([0.0, 2.0, 0.0])),
    "block-identical": BlockDependent((2, 1, 3), null_mask=[True, False, True, True, False,
                                                            True]),
    "block-equi-partial": BlockDependent((3, 2, 4, 1), "equicorrelated", 0.5,
                                         [True, False, False, False, True, True, False,
                                          True, True, False], 1.2),
    "wrap-block": BlockDependent((2, 3), "equicorrelated", 0.6, sided="two"),
}


def ks_distance_uniform(samples) -> float:
    """Kolmogorov-Smirnov distance between the sample ECDF and Uniform(0,1)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - x), np.max(x - (grid - 1.0 / n))))


def two_sided_from_one_sided(p: np.ndarray) -> np.ndarray:
    """Fold one-sided p-values: ``2p`` below 1/2, ``2(1-p)`` above."""
    p = np.asarray(p, dtype=float)
    return np.where(p <= 0.5, 2.0 * p, 2.0 * (1.0 - p))


def equicorrelated_sqrt(n: int, rho: float) -> np.ndarray:
    """The dense symmetric square root of the n x n equicorrelation matrix:
    eigenvalue ``1 + (n-1)*rho`` on the all-ones direction and ``1 - rho``
    on its complement."""
    a = math.sqrt(max(1.0 - rho, 0.0))
    b = math.sqrt(max(1.0 + (n - 1) * rho, 0.0))
    mat = np.full((n, n), (b - a) / n)
    mat[np.diag_indices(n)] += a
    return mat


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


def limit_ceil_oracle(sums: np.ndarray, alpha: float) -> np.ndarray:
    """Elementwise smallest ``c >= 1`` with ``S <= alpha * c`` in floats:
    each entry starts from ``ceil(S / alpha)`` and steps until the
    comparison holds at c and fails at ``c - 1`` (or ``c == 1``)."""
    c = np.maximum(np.ceil(sums / alpha), 1.0)
    while True:
        up = sums > alpha * c
        down = (c > 1.0) & (sums <= alpha * (c - 1.0))
        if not (up.any() or down.any()):
            return c
        c += up
        c -= down


def limit_ratios(sums: np.ndarray, alpha: float) -> np.ndarray:
    """The exact ratios ``j / c_j`` on every column of a row (or rows) of
    partial sums, with the ceilings of :func:`limit_ceil_oracle`."""
    return np.arange(1.0, sums.shape[-1] + 1) / limit_ceil_oracle(sums, alpha)


def limit_oracle(alpha: float, budget: int, reps: int, master_seed: int) -> np.ndarray:
    """Per-replication values of the worst-case limit constant at a fixed
    budget: one row after another on each block's generator, each drawing
    `budget` exponentials and taking the largest ratio over all of them
    (no screen), clipped to ``[alpha, 1]``."""
    values = []
    for block in range(-(-reps // BLOCK_REPS)):
        rng = block_rng(master_seed, block)
        for _ in range(min(BLOCK_REPS, reps - block * BLOCK_REPS)):
            sums = np.cumsum(rng.standard_exponential(budget))
            values.append(min(max(limit_ratios(sums, alpha).max(), alpha), 1.0))
    return np.array(values)


def _lundberg_exponent(alpha: float, x: float) -> float:
    """A lower bound, tight to rounding, on the positive root R of
    ``alpha * (e^R - 1) = x * R`` (x > alpha), by bisection."""
    lo, hi = 0.0, 50.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if alpha * math.expm1(mid) < x * mid:
            lo = mid
        else:
            hi = mid
    return lo


def _ruin_bounds(alpha: float, x: float, pmf: np.ndarray, tol: float,
                 steps: int) -> tuple[float, float]:
    """Bounds on ``P(X_c >= x c for some c >= 1)`` for the walk X with
    Poisson(alpha) steps: the DP over c carries the mass that has not
    crossed (indexed by X_c from `base`), the crossed mass is the lower
    bound, and Lundberg's inequality ``P(ruin | surplus u) <= e^{-R u}``
    bounds what the mass left would still add."""
    r = _lundberg_exponent(alpha, x)
    alive = np.ones(1)
    base = 0
    crossed = 0.0
    for c in range(1, steps + 1):
        mass = np.convolve(alive, pmf)
        cut = max(math.ceil(x * c) - base, 0)
        crossed += mass[cut:].sum()
        alive = mass[:cut]
        lead = int(np.argmax(alive > 1e-40))  # drop the mass far below the line
        alive = alive[lead:]
        base += lead
        if c % 32 == 0 or c == steps:
            surplus = x * c - (base + np.arange(alive.size))
            upper = min(1.0 - alive.sum() + float(alive @ np.exp(-r * surplus)), 1.0)
            if upper - crossed < tol:
                break
    return crossed, upper


def limit_bracket(alpha: float, points: int, tol: float = 1e-3,
                  steps: int = 5000) -> tuple[float, float]:
    """Deterministic bounds ``lo <= L <= hi`` on the limit constant
    ``L = E[min(M, 1)]``, ``M = sup_j j / ceil(S_j / alpha)``.

    ``ceil(S_j / alpha) <= c`` exactly when ``N(alpha c) >= j`` for the unit
    Poisson process N, so ``M >= x`` exactly when the walk
    ``X_c = N(alpha c)`` (Poisson(alpha) steps) reaches ``x c`` at some
    integer c >= 1: a discrete-time ruin event. Since ``M >= alpha`` almost
    surely, ``L = alpha + integral_alpha^1 P(M >= x) dx``; :func:`_ruin_bounds`
    bounds ``P(M >= x)`` at `points` equal steps of x, and monotone Riemann
    sums bound the integral."""
    pmf = [math.exp(-alpha)]
    while pmf[-1] > 1e-30:
        pmf.append(pmf[-1] * alpha / len(pmf))
    xs = alpha + (1.0 - alpha) * np.arange(points + 1) / points
    xs[-1] = 1.0
    bounds = np.array([_ruin_bounds(alpha, x, np.array(pmf), tol, steps) for x in xs[1:]])
    widths = np.diff(xs)
    lo = alpha + float(widths @ bounds[:, 0])
    hi = alpha + float(widths @ np.concatenate(([1.0], bounds[:-1, 1])))
    return lo, hi


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
