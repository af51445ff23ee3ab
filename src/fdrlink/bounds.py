"""Closed-form FDR bounds and the null-FDR curves they integrate against.

The central object is a curve ``F(x)`` giving the FDR of the step-up
procedure at level ``x`` when run on the null p-values alone; equivalently,
``F`` is the CDF of the Simes combination of the nulls. Every bound here is
either a direct formula or the linking integral

    level + level * integral_{level}^{1} F(x) / x**2 dx

evaluated in closed form for the supported curve shapes. No quadrature is
used in the shipped path; each curve knows the exact antiderivative of its
own integrand (tests cross-check against adaptive quadrature).

:func:`bounds_table` builds the ``fdrlink bounds`` rows straight from the
bound functions here; Guo-Rao is the log-correction ``S(n)*pi0*alpha`` at
``pi0 = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .study import check_count, check_open_unit, check_pvalues, is_int, is_real

__all__ = [
    "LinearCurve",
    "WorstCaseCurve",
    "EmpiricalCurve",
    "NullFdrCurve",
    "AlphaInterval",
    "link_bound_raw",
    "fdr_link_bound",
    "prdn_bound",
    "prdn_bound_pi0",
    "harmonic",
    "log_correction_bound",
    "arbitrary_dep_bound",
    "improvement_range",
    "fdx_bound",
    "guo_rao_reference",
    "bounds_table",
]


def _check_pi0(pi0: float) -> float:
    if not (is_real(pi0) and 0.0 < pi0 <= 1.0):
        raise ValueError(f"pi0 must be a real number in (0, 1], got {pi0!r}")
    return float(pi0)


@dataclass(frozen=True)
class LinearCurve:
    """F(x) = min(slope * x, 1)."""

    slope: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.slope) and self.slope >= 0.0):
            raise ValueError(f"slope must be finite and >= 0, got {self.slope}")

    def value(self, x: float) -> float:
        return min(self.slope * x, 1.0)

    def tail_integral(self, a: float) -> float:
        """integral_a^1 min(slope*x, 1) / x**2 dx, exactly."""
        a = check_open_unit("lower limit", a)
        c = self.slope
        if c <= 1.0:
            return c * math.log(1.0 / a)
        knee = 1.0 / c
        if a >= knee:
            return 1.0 / a - 1.0
        return c * math.log(1.0 / (c * a)) + (c - 1.0)


@dataclass(frozen=True)
class WorstCaseCurve:
    """F(x) = 1: nulls for which any positive level already rejects."""

    def value(self, x: float) -> float:
        return 1.0

    def tail_integral(self, a: float) -> float:
        a = check_open_unit("lower limit", a)
        return 1.0 / a - 1.0


@dataclass(frozen=True)
class EmpiricalCurve:
    """Cadlag empirical CDF built from Simes-combination samples.

    ``F(x)`` is the fraction of knots at or below ``x``; the linking integral
    sums the antiderivative ``-1/x`` over the constancy intervals, so the
    bound value is bit-reproducible for a fixed knot vector.
    """

    knots: np.ndarray

    def __init__(self, knots) -> None:
        object.__setattr__(self, "knots", check_pvalues(knots, "knots", sort=True))

    def value(self, x: float) -> float:
        return float(np.searchsorted(self.knots, x, side="right")) / self.knots.size

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.knots, x, side="right") / self.knots.size

    def tail_integral(self, a: float) -> float:
        a = check_open_unit("lower limit", a)
        m = self.knots.size
        inside = self.knots[(self.knots > a) & (self.knots < 1.0)]
        # Breakpoints of the step function on (a, 1]; F is constant between them.
        points = np.concatenate(([a], inside, [1.0]))
        levels = np.searchsorted(self.knots, points[:-1], side="right") / m
        return float(np.sum(levels * (1.0 / points[:-1] - 1.0 / points[1:])))


NullFdrCurve = Union[LinearCurve, WorstCaseCurve, EmpiricalCurve]


def link_bound_raw(level: float, curve: NullFdrCurve) -> float:
    """``level + level * integral_level^1 F(x)/x**2 dx`` without clamping."""
    level = check_open_unit("level", level)
    return level + level * curve.tail_integral(level)


def fdr_link_bound(pi0: float, alpha: float, curve: NullFdrCurve) -> float:
    """FDR ceiling for any compliant procedure at `alpha`, given the curve of
    the step-up FDR on the nulls alone. Clamped to [0, 1]."""
    pi0 = _check_pi0(pi0)
    alpha = check_open_unit("alpha", alpha)
    return min(max(link_bound_raw(pi0 * alpha, curve), 0.0), 1.0)


def prdn_bound(alpha: float) -> float:
    """FDR ceiling ``alpha + alpha * log(1/alpha)`` for positively regression
    dependent nulls, regardless of how the non-nulls depend on them."""
    return prdn_bound_pi0(1.0, alpha)


def prdn_bound_pi0(pi0: float, alpha: float) -> float:
    """Sharper form ``pi0*alpha + pi0*alpha * log(1/(pi0*alpha))``; never
    exceeds :func:`prdn_bound` since ``t + t*log(1/t)`` increases on (0, 1]."""
    pi0 = _check_pi0(pi0)
    alpha = check_open_unit("alpha", alpha)
    t = pi0 * alpha
    return t + t * math.log(1.0 / t)


_HARMONIC_CUTOFF = 10**6
_EULER_GAMMA = 0.57721566490153286061


@lru_cache(maxsize=256, typed=True)  # typed: 10.0 must not hit 10's entry
def harmonic(n: int) -> float:
    """n-th harmonic number ``1 + 1/2 + ... + 1/n``.

    Up to n = 1e6 the terms are summed with numpy's pairwise reduction; above
    it, ``log(n) + gamma + 1/(2n) - 1/(12n^2)`` (Euler-Maclaurin) is used,
    whose next term, ``1/(120n^4)``, is below 1e-25. Both are accurate to a
    relative error of a few 1e-16.
    """
    check_count("n", n, 1)
    if n <= _HARMONIC_CUTOFF:
        return float(np.sum(1.0 / np.arange(1, n + 1, dtype=float)))
    return math.fsum((math.log(n), _EULER_GAMMA, 0.5 / n, -1.0 / (12.0 * n * n)))


def _log_correction_raw(n: int, pi0: float, alpha: float) -> float:
    return harmonic(n) * _check_pi0(pi0) * check_open_unit("alpha", alpha)


def log_correction_bound(n: int, pi0: float, alpha: float) -> float:
    """Classic arbitrary-dependence ceiling ``min(S(n) * pi0 * alpha, 1)``."""
    return min(_log_correction_raw(n, pi0, alpha), 1.0)


def arbitrary_dep_bound(n0: int, pi0: float, alpha: float) -> float:
    """Arbitrary-dependence ceiling driven by the nulls alone.

    Equals 1 when ``alpha >= 1 / (pi0 * S(n0))`` and otherwise
    ``S(n0)*pi0*alpha * log(e / (S(n0)*pi0*alpha))``; identical to
    :func:`fdr_link_bound` with a ``LinearCurve(S(n0))``.
    """
    pi0 = _check_pi0(pi0)
    alpha = check_open_unit("alpha", alpha)
    s = harmonic(n0)
    t = s * pi0 * alpha
    if t >= 1.0:
        return 1.0
    return t * math.log(math.e / t)


@dataclass(frozen=True)
class AlphaInterval:
    """Open interval of nominal levels, possibly empty."""

    lower: float
    upper: float

    @property
    def is_empty(self) -> bool:
        return not self.lower < self.upper

    def grid(self, count: int) -> np.ndarray:
        """`count` interior points, evenly spaced (empty array if empty)."""
        if self.is_empty:
            return np.empty(0)
        pts = np.linspace(self.lower, self.upper, count + 2)[1:-1]
        return pts


def improvement_range(n: int, n0: int, pi0: float) -> AlphaInterval:
    """Open range of levels on which :func:`arbitrary_dep_bound` beats
    :func:`log_correction_bound`, intersected with (0, 1).

    Empty under the global null (n == n0), where the two bounds coincide.
    """
    pi0 = _check_pi0(pi0)
    if not (is_int(n) and is_int(n0) and n >= n0 >= 1):
        raise ValueError(f"need integers n >= n0 >= 1, got n={n!r}, n0={n0!r}")
    s0 = harmonic(n0)
    upper = 1.0 / (pi0 * s0)
    lower = math.exp(1.0 - harmonic(n) / s0) * upper
    return AlphaInterval(max(lower, 0.0), min(upper, 1.0))


def _fdx_raw(pi0: float, alpha: float, gamma: float) -> float:
    return _check_pi0(pi0) * check_open_unit("alpha", alpha) / check_open_unit("gamma", gamma)


def fdx_bound(pi0: float, alpha: float, gamma: float) -> float:
    """Ceiling ``min(pi0 * alpha / gamma, 1)`` on the probability that the
    false discovery proportion reaches `gamma`, for positively regression
    dependent nulls."""
    return min(_fdx_raw(pi0, alpha, gamma), 1.0)


def guo_rao_reference(n: int, alpha: float) -> float:
    """Worst-case global-null FDR value ``min(S(n) * alpha, 1)`` attained by a
    known adversarial joint distribution; used as a reference curve in
    consistency plots (the distribution itself is not constructed here)."""
    return log_correction_bound(n, 1.0, alpha)


_TABLE_HEADER = ("bound_name", "n", "n0", "pi0", "alpha", "gamma", "value", "clamped_flag")


def bounds_table(n: int, n0: int, pi0: float, alphas: Sequence[float],
                 gammas: Sequence[float] = ()) -> tuple[tuple[str, ...], list[list]]:
    """The header and rows of every closed-form bound at each level in
    `alphas`, and of the FDX bound at each `(alpha, gamma)` pair. A row holds
    its value clamped to 1 and whether clamping changed it."""
    check_count("n", n, check_count("n0", n0, 1))
    if not alphas:
        raise ValueError("alpha grid must be non-empty")
    rows: list[list] = []
    for alpha in alphas:
        raws = [("prdn", "", prdn_bound(alpha)),
                ("prdn_pi0", "", prdn_bound_pi0(pi0, alpha)),
                ("log_correction", "", _log_correction_raw(n, pi0, alpha)),
                ("arbitrary_dep", "", arbitrary_dep_bound(n0, pi0, alpha)),
                ("guo_rao", "", _log_correction_raw(n, 1.0, alpha))]
        raws += [("fdx", gamma, _fdx_raw(pi0, alpha, gamma)) for gamma in gammas]
        rows += [[name, n, n0, pi0, alpha, gamma, min(raw, 1.0), raw > 1.0]
                 for name, gamma, raw in raws]
    return _TABLE_HEADER, rows
