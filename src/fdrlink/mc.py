"""Seeded, reproducible Monte Carlo estimation of FDR, FDX, FDP moments, the
empirical null-FDR curve, and the worst-case FDR limit constant.

Reproducibility contract
------------------------
Every replication draws from its own generator, seeded by a fixed 64-bit
mixing function of ``(master_seed, replication_index)`` (SplitMix64 applied
to ``master_seed + (index + 1) * 0x9E3779B97F4A7C15``). Replication values
are assembled in index order and aggregated with exact compensated summation
(``math.fsum``), so estimates are bit-identical for a fixed
``(reps, master_seed)`` regardless of how replications are distributed over
worker processes.

Per-replication pipeline for FDR-type targets: sample the nulls, apply the
adversary (or keep the generated non-nulls when no adversary is given), run
the procedure, record the false discovery proportion. An adversary-completed
study is [zeros, sorted nulls, ones] in sorted order, so the step count runs
on the sorted nulls with the planted zeros as a rank offset. Rank, zero
count, step count and Simes value come from ``adversaries`` and ``procedures``.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adversaries import (AdversarySpec, InformedAdversary, MostAntiConservativeAdversary,
                          anchor_choice)
from .bounds import EmpiricalCurve, fdr_link_bound
from .dependence import GeneratorSpec, restrict_to_nulls, sample_arrays, sample_null_pvalues
from .procedures import simes_sorted, snap_ceil_array, step_count

__all__ = [
    "McConfig",
    "McEstimate",
    "LinkingReport",
    "PROCEDURES",
    "derive_seed",
    "fdp_values",
    "estimate_fdr",
    "estimate_fdx",
    "estimate_fdp_moment",
    "estimate_fdr0_curve",
    "estimate_worst_fdr_limit",
    "verify_linking",
]

PROCEDURES = ("step_up", "step_down", "most_anti_conservative")

_M64 = (1 << 64) - 1
_LIMIT_J_MAX = 10**7


def derive_seed(master_seed: int, index: int) -> int:
    """SplitMix64 mix of the master seed and a replication index."""
    z = (int(master_seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class McConfig:
    """Replication count, master seed, and an advisory worker hint."""

    reps: int
    master_seed: int = 0
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if int(self.reps) < 1:
            raise ValueError("reps must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error and seed provenance.

    For a single replication the sample standard deviation is undefined;
    ``stderr`` is then reported as 0 with ``stderr_degenerate`` set.
    """

    mean: float
    stderr: float
    reps: int
    master_seed: int
    stderr_degenerate: bool = False

    @classmethod
    def from_values(cls, values: np.ndarray, cfg: "McConfig") -> "McEstimate":
        """Mean and standard error of per-replication values (``math.fsum``)."""
        reps = int(values.size)
        mean = math.fsum(values.tolist()) / reps
        if reps == 1:
            return cls(mean, 0.0, reps, cfg.master_seed, stderr_degenerate=True)
        var = math.fsum(((v - mean) ** 2 for v in values.tolist())) / (reps - 1)
        return cls(mean, math.sqrt(var / reps), reps, cfg.master_seed)


@dataclass(frozen=True)
class LinkingReport:
    """Estimated FDR against the curve-linked bound from the same nulls."""

    lhs: McEstimate
    rhs: float
    slack: float


@dataclass(frozen=True)
class _FdpTask:
    gen: GeneratorSpec
    adv: Optional[AdversarySpec]
    proc: str
    alpha: float

    def one_rep(self, rng: np.random.Generator) -> float:
        n, alpha = self.gen.n, self.alpha
        if self.adv is None:
            p, mask = sample_arrays(self.gen, rng)
            r = step_count(np.sort(p), n, alpha, self.proc)
            return int(np.count_nonzero(p[mask] <= alpha * r / n)) / max(r, 1)
        nulls_sorted = np.sort(sample_null_pvalues(self.gen, rng))
        n1 = n - nulls_sorted.size
        if self.proc == "most_anti_conservative":
            rank, ceiling = anchor_choice(nulls_sorted, n, alpha, n1)
            return rank / max(ceiling, rank, 1)
        zeros, _ = self.adv.plant(nulls_sorted, n1, n, alpha)
        r = step_count(nulls_sorted, n, alpha, self.proc, offset=zeros)
        return (r - zeros) / max(r, 1)


@dataclass(frozen=True)
class _SimesTask:
    gen: GeneratorSpec

    def one_rep(self, rng: np.random.Generator) -> float:
        return simes_sorted(np.sort(sample_null_pvalues(self.gen, rng)))


@dataclass(frozen=True)
class _LimitTask:
    alpha: float
    j_floor: int

    def one_rep(self, rng: np.random.Generator) -> float:
        total = 0.0
        done = 0
        best = 0.0
        batch = self.j_floor
        while True:
            xi = rng.standard_exponential(batch)
            partial = total + np.cumsum(xi)
            ranks = np.arange(done + 1, done + batch + 1, dtype=float)
            ratios = ranks / snap_ceil_array(partial / self.alpha)
            best = max(best, float(ratios.max()))
            done += batch
            total = float(partial[-1])
            if best >= 1.0:
                return 1.0
            if done >= _LIMIT_J_MAX:
                return best
            # Stopping rule, checked at batch ends: j/ceil(S_j/alpha) is at
            # most alpha*j/S_j, so once that envelope falls below the running
            # maximum no later rank can overtake it (extending further is
            # harmless and only tightens the truncation).
            if done >= self.j_floor and self.alpha * done / total < best:
                return best
            batch = min(done, _LIMIT_J_MAX - done)


def _range_values(task, master_seed: int, start: int, stop: int) -> np.ndarray:
    out = np.empty(stop - start)
    for idx in range(start, stop):
        rng = np.random.Generator(np.random.PCG64(derive_seed(master_seed, idx)))
        out[idx - start] = task.one_rep(rng)
    return out


def _range_worker(args) -> tuple[int, np.ndarray]:
    task, master_seed, start, stop = args
    return start, _range_values(task, master_seed, start, stop)


def _replication_values(task, cfg: McConfig) -> np.ndarray:
    reps = int(cfg.reps)
    workers = cfg.workers or 1
    if workers <= 1 or reps < 4 * workers:
        return _range_values(task, cfg.master_seed, 0, reps)
    edges = np.linspace(0, reps, workers + 1, dtype=int)
    jobs = [(task, cfg.master_seed, int(a), int(b))
            for a, b in zip(edges[:-1], edges[1:]) if a < b]
    values = np.empty(reps)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for start, chunk in pool.map(_range_worker, jobs):
            values[start:start + chunk.size] = chunk
    return values


def fdp_values(gen: GeneratorSpec, adv: Optional[AdversarySpec], proc: str,
               alpha: float, cfg: McConfig) -> np.ndarray:
    """Per-replication false discovery proportions, in replication order;
    every FDP-type estimate is a reduction of this vector."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if proc not in PROCEDURES:
        raise ValueError(f"unknown procedure {proc!r}; choose from {PROCEDURES}")
    if proc == "most_anti_conservative" and \
            not isinstance(adv, (InformedAdversary, MostAntiConservativeAdversary)):
        raise ValueError("the most anti-conservative procedure needs an informed or "
                         "most-anti-conservative adversary to supply its zeros")
    return _replication_values(_FdpTask(gen, adv, proc, alpha), cfg)


def estimate_fdr(gen: GeneratorSpec, adv: Optional[AdversarySpec], proc: str,
                 alpha: float, cfg: McConfig) -> McEstimate:
    """Monte Carlo mean of the false discovery proportion."""
    return McEstimate.from_values(fdp_values(gen, adv, proc, alpha, cfg), cfg)


def estimate_fdx(gen: GeneratorSpec, adv: Optional[AdversarySpec], proc: str,
                 alpha: float, gamma: float, cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of ``P(FDP >= gamma)``."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    values = fdp_values(gen, adv, proc, alpha, cfg)
    return McEstimate.from_values((values >= gamma).astype(float), cfg)


def estimate_fdp_moment(gen: GeneratorSpec, adv: Optional[AdversarySpec], proc: str,
                        alpha: float, k: int, cfg: McConfig) -> McEstimate:
    """Monte Carlo mean of ``FDP**k``; k = 1 reproduces :func:`estimate_fdr`
    on the same seeds."""
    k = int(k)
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    return McEstimate.from_values(fdp_values(gen, adv, proc, alpha, cfg) ** k, cfg)


def estimate_fdr0_curve(null_gen: GeneratorSpec, cfg: McConfig) -> EmpiricalCurve:
    """Empirical CDF of the Simes combination over replications of the null
    generator: the estimated null-FDR curve at every level simultaneously."""
    if null_gen.n1 != 0:
        raise ValueError("estimate_fdr0_curve needs a generator restricted to nulls; "
                         "see restrict_to_nulls")
    if null_gen.n0 == 0:
        raise ValueError("generator has no null components")
    values = _replication_values(_SimesTask(null_gen), cfg)
    return EmpiricalCurve(values)


def estimate_worst_fdr_limit(alpha: float, cfg: McConfig,
                             extension_floor_multiplier: float = 1.0) -> McEstimate:
    """Monte Carlo estimate of the limiting worst-case FDR constant
    ``E[min(max_j j / ceil((xi_1 + ... + xi_j)/alpha), 1)]`` with iid
    standard-exponential increments.

    Each replication extends the partial-sum sequence adaptively: at least
    ``ceil(20/alpha)`` terms (scaled by `extension_floor_multiplier`, the
    knob used by the truncation-bias diagnostic), then doubling batches until
    the envelope ``alpha * j / S_j`` falls below the running maximum, with a
    hard cap of 1e7 terms.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if extension_floor_multiplier <= 0.0:
        raise ValueError("extension floor multiplier must be positive")
    j_floor = int(math.ceil(20.0 / alpha * extension_floor_multiplier))
    task = _LimitTask(alpha, min(j_floor, _LIMIT_J_MAX))
    return McEstimate.from_values(_replication_values(task, cfg), cfg)


def verify_linking(gen: GeneratorSpec, adv: Optional[AdversarySpec], alpha: float,
                   cfg: McConfig) -> LinkingReport:
    """Estimated FDR of the step-up procedure against the curve-linked bound
    computed from the same null generator; slack is bound minus estimate."""
    lhs = estimate_fdr(gen, adv, "step_up", alpha, cfg)
    curve = estimate_fdr0_curve(restrict_to_nulls(gen), cfg)
    rhs = fdr_link_bound(gen.n0 / gen.n, alpha, curve)
    return LinkingReport(lhs=lhs, rhs=rhs, slack=rhs - lhs.mean)
