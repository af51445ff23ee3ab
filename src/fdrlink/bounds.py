"""Closed-form FDR bounds and the null-FDR curves they integrate against.

The central object is a curve ``F(x)`` giving the FDR of the step-up
procedure at level ``x`` when run on the null p-values alone; equivalently,
``F`` is the CDF of the Simes combination of the nulls. Every bound here is
either a direct formula or the linking integral

    level + level * integral_{level}^{1} F(x) / x**2 dx

evaluated in closed form for the supported curve shapes. No quadrature is
used in the shipped path; each curve knows the exact antiderivative of its
own integrand (tests cross-check against adaptive quadrature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np

__all__ = [
    "LinearCurve",
    "WorstCaseCurve",
    "EmpiricalCurve",
    "NullFdrCurve",
    "AlphaInterval",
    "BoundReport",
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
    "bound_report",
    "BOUND_NAMES",
]


def _check_open_unit(name: str, x: float) -> float:
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError(f"{name} must lie strictly inside (0, 1), got {x}")
    return x


def _check_pi0(pi0: float) -> float:
    pi0 = float(pi0)
    if not 0.0 < pi0 <= 1.0:
        raise ValueError(f"pi0 must lie in (0, 1], got {pi0}")
    return pi0


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
        a = _check_open_unit("lower limit", a)
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
        a = _check_open_unit("lower limit", a)
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
        arr = np.array(knots, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("expected a non-empty vector of knots")
        if np.any((arr < 0.0) | (arr > 1.0)) or np.any(~np.isfinite(arr)):
            raise ValueError("knots must lie in [0, 1]")
        arr.sort()
        arr.setflags(write=False)
        object.__setattr__(self, "knots", arr)

    def value(self, x: float) -> float:
        return float(np.searchsorted(self.knots, x, side="right")) / self.knots.size

    def values(self, x: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.knots, x, side="right") / self.knots.size

    def tail_integral(self, a: float) -> float:
        a = _check_open_unit("lower limit", a)
        m = self.knots.size
        inside = self.knots[(self.knots > a) & (self.knots < 1.0)]
        # Breakpoints of the step function on (a, 1]; F is constant between them.
        points = np.concatenate(([a], inside, [1.0]))
        levels = np.searchsorted(self.knots, points[:-1], side="right") / m
        return float(np.sum(levels * (1.0 / points[:-1] - 1.0 / points[1:])))


NullFdrCurve = Union[LinearCurve, WorstCaseCurve, EmpiricalCurve]


def link_bound_raw(level: float, curve: NullFdrCurve) -> float:
    """``level + level * integral_level^1 F(x)/x**2 dx`` without clamping."""
    level = _check_open_unit("level", level)
    return level + level * curve.tail_integral(level)


def fdr_link_bound(pi0: float, alpha: float, curve: NullFdrCurve) -> float:
    """FDR ceiling for any compliant procedure at `alpha`, given the curve of
    the step-up FDR on the nulls alone. Clamped to [0, 1]."""
    pi0 = _check_pi0(pi0)
    alpha = _check_open_unit("alpha", alpha)
    return min(max(link_bound_raw(pi0 * alpha, curve), 0.0), 1.0)


def prdn_bound(alpha: float) -> float:
    """FDR ceiling ``alpha + alpha * log(1/alpha)`` for positively regression
    dependent nulls, regardless of how the non-nulls depend on them."""
    alpha = _check_open_unit("alpha", alpha)
    return alpha + alpha * math.log(1.0 / alpha)


def prdn_bound_pi0(pi0: float, alpha: float) -> float:
    """Sharper form ``pi0*alpha + pi0*alpha * log(1/(pi0*alpha))``; never
    exceeds :func:`prdn_bound` since ``t + t*log(1/t)`` increases on (0, 1]."""
    pi0 = _check_pi0(pi0)
    alpha = _check_open_unit("alpha", alpha)
    t = pi0 * alpha
    return t + t * math.log(1.0 / t)


@lru_cache(maxsize=256)
def harmonic(n: int) -> float:
    """n-th harmonic number ``1 + 1/2 + ... + 1/n``.

    Summed in chunks with numpy's pairwise reduction and combined with
    ``math.fsum`` (exact compensated addition), accurate to a relative error
    of a few 1e-16 up to n = 1e9.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"harmonic number needs n >= 1, got {n}")
    chunk = 10_000_000
    partials = []
    lo = 1
    while lo <= n:
        hi = min(lo + chunk - 1, n)
        partials.append(np.sum(1.0 / np.arange(lo, hi + 1, dtype=float)))
        lo = hi + 1
    return math.fsum(partials)


def log_correction_bound(n: int, pi0: float, alpha: float) -> float:
    """Classic arbitrary-dependence ceiling ``min(S(n) * pi0 * alpha, 1)``."""
    pi0 = _check_pi0(pi0)
    alpha = _check_open_unit("alpha", alpha)
    return min(harmonic(n) * pi0 * alpha, 1.0)


def arbitrary_dep_bound(n0: int, pi0: float, alpha: float) -> float:
    """Arbitrary-dependence ceiling driven by the nulls alone.

    Equals 1 when ``alpha >= 1 / (pi0 * S(n0))`` and otherwise
    ``S(n0)*pi0*alpha * log(e / (S(n0)*pi0*alpha))``; identical to
    :func:`fdr_link_bound` with a ``LinearCurve(S(n0))``.
    """
    pi0 = _check_pi0(pi0)
    alpha = _check_open_unit("alpha", alpha)
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

    def contains(self, alpha: float) -> bool:
        return self.lower < alpha < self.upper

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
    n, n0 = int(n), int(n0)
    pi0 = _check_pi0(pi0)
    if n < n0 or n0 < 1:
        raise ValueError(f"need n >= n0 >= 1, got n={n}, n0={n0}")
    s0 = harmonic(n0)
    upper = 1.0 / (pi0 * s0)
    lower = math.exp(1.0 - harmonic(n) / s0) * upper
    return AlphaInterval(max(lower, 0.0), min(upper, 1.0))


def fdx_bound(pi0: float, alpha: float, gamma: float) -> float:
    """Ceiling ``min(pi0 * alpha / gamma, 1)`` on the probability that the
    false discovery proportion reaches `gamma`, for positively regression
    dependent nulls."""
    pi0 = _check_pi0(pi0)
    alpha = _check_open_unit("alpha", alpha)
    gamma = _check_open_unit("gamma", gamma)
    return min(pi0 * alpha / gamma, 1.0)


def guo_rao_reference(n: int, alpha: float) -> float:
    """Worst-case global-null FDR value ``min(S(n) * alpha, 1)`` attained by a
    known adversarial joint distribution; used as a reference curve in
    consistency plots (the distribution itself is not constructed here)."""
    alpha = _check_open_unit("alpha", alpha)
    return min(harmonic(int(n)) * alpha, 1.0)


@dataclass(frozen=True)
class BoundReport:
    """A named bound value with its parameters echoed and a clamping flag."""

    name: str
    value: float
    clamped: bool
    params: dict = field(default_factory=dict)


def _clamped_report(name: str, raw: float, **params) -> BoundReport:
    clamped = raw > 1.0
    return BoundReport(name=name, value=min(max(raw, 0.0), 1.0), clamped=clamped, params=params)


def bound_report(name: str, *, n: int | None = None, n0: int | None = None,
                 pi0: float | None = None, alpha: float | None = None,
                 gamma: float | None = None) -> BoundReport:
    """Evaluate a bound by name, echoing parameters and flagging clamping.

    Known names: prdn, prdn_pi0, log_correction, arbitrary_dep, fdx, guo_rao.
    """
    params = {k: v for k, v in
              dict(n=n, n0=n0, pi0=pi0, alpha=alpha, gamma=gamma).items()
              if v is not None}
    if name == "prdn":
        return _clamped_report(name, prdn_bound(alpha), **params)
    if name == "prdn_pi0":
        return _clamped_report(name, prdn_bound_pi0(pi0, alpha), **params)
    if name == "log_correction":
        raw = harmonic(int(n)) * _check_pi0(pi0) * _check_open_unit("alpha", alpha)
        return _clamped_report(name, raw, **params)
    if name == "arbitrary_dep":
        return _clamped_report(name, arbitrary_dep_bound(n0, pi0, alpha), **params)
    if name == "fdx":
        raw = _check_pi0(pi0) * _check_open_unit("alpha", alpha) / _check_open_unit("gamma", gamma)
        return _clamped_report(name, raw, **params)
    if name == "guo_rao":
        raw = harmonic(int(n)) * _check_open_unit("alpha", alpha)
        return _clamped_report(name, raw, **params)
    raise ValueError(f"unknown bound name: {name!r}")


BOUND_NAMES = ("prdn", "prdn_pi0", "log_correction", "arbitrary_dep", "fdx", "guo_rao")
