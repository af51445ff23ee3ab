"""Seeded, reproducible Monte Carlo estimation of FDR, FDX, FDP moments, the
empirical null-FDR curve, and the worst-case FDR limit constant.

Reproducibility contract
------------------------
Replications come in fixed blocks of ``BLOCK_REPS`` (256): block k holds
replications ``256 k`` to ``256 k + 255``, and the last block holds what is
left. Block k draws from one generator, ``PCG64(derive_seed(master_seed, k))``
(see :func:`block_rng`), where ``derive_seed`` is a fixed 64-bit mixing
function (SplitMix64 applied to ``master_seed + (k + 1) *
0x9E3779B97F4A7C15``). The block's replications take their draws from that
generator one after another, in replication order. A spec's row-wise draw of
``r`` rows equals ``r`` successive one-row draws, so the engine's split of a
block into row chunks (to bound memory) changes no value, and the first R
values of a run are the values of a run with ``reps=R``. Values are
assembled in replication order and aggregated with exact compensated
summation (``math.fsum``), so estimates are bit-identical for a fixed
``(reps, master_seed)`` however the blocks are split.

Runs split the blocks into contiguous ranges, one per thread lane. Rows
wider than 256 values, where a block spans more than one row chunk, run in
at most ``workers`` lanes (default: one per available CPU) and at most one
per block; each lane holds about one row chunk and its temporaries in
flight. Narrower rows, single-block runs and ``workers=1`` stay in the
calling thread. The thread-pool machinery (``concurrent.futures``) is
imported when a run starts its first lanes, not with this module.

A row of the worst-case limit constant draws a fixed budget of
standard-exponential values (see :func:`estimate_worst_fdr_limit`); a row
chunk draws them in one call, which consumes the stream as one row after
another does. Its partial sums go through the same rank/ceiling kernel as
the adversaries, ``anchor_choice`` with ``n = 1``.

Pipeline for FDR-type targets, row-wise over a chunk of replications. With
an adversary: sample the rows of the null spec ``restrict_to_nulls(gen)``
(the Simes curve pass draws them too), plant the zeros and run the step
count on the sorted nulls with the zeros as a rank offset. Step-up against
the informed or most-anti-conservative adversary skips both: its FDP is the
anchor ratio ``rank / max(ceiling, rank)`` of ``anchor_choice`` (restricted
to `n1` for the most-anti-conservative one, as for that procedure), and
only informed rows whose zero count clips (``ceiling - rank > n1``) plant
`n1` zeros and count. Without an adversary, the generator is its own
p-value law: the sorted keys of its scores meet its cuts at
``alpha * j / n``, and the null keys the cut at R; a row with a key inside
a cut's window takes the p-value path (its p-values, sorted, through
``step_count``), so Gaussian rows call ``ndtr`` only there and every count
is the p-values'.
Rank, zero count, step rule and Simes value are the row-wise kernels of
``adversaries`` and ``procedures``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adversaries import (AdversarySpec, InformedAdversary, MostAntiConservativeAdversary,
                          anchor_choice)
from .bounds import EmpiricalCurve, fdr_link_bound
from .dependence import GeneratorSpec, restrict_to_nulls, sample_rows, sample_scores
from .procedures import simes_sorted, step_count, step_rule
from .study import check_count, check_open_unit, is_int

__all__ = [
    "McConfig",
    "McEstimate",
    "LinkingReport",
    "PROCEDURES",
    "BLOCK_REPS",
    "block_rng",
    "derive_seed",
    "check_procedure",
    "fdp_values",
    "estimate_fdr",
    "estimate_fdx",
    "estimate_fdp_moment",
    "estimate_fdr0_curve",
    "estimate_worst_fdr_limit",
    "verify_linking",
]

PROCEDURES = ("step_up", "step_down", "most_anti_conservative")

BLOCK_REPS = 256

_M64 = (1 << 64) - 1
# Row chunks hold about this many drawn values (512 KB of float64).
_CHUNK_VALUES = 1 << 16
# glibc serves an allocation above its mmap threshold (128 KiB at start) with
# a fresh mapping, page-faulted in on first use, and trims the heap top above
# twice the threshold; freeing a mapping raises the threshold to its size (up
# to 32 MiB). Freeing one buffer of four chunks before each run keeps
# chunk-sized temporaries on the heap; otherwise how often they are faulted in
# again depends on what the process allocated before (mc-iid benchmark:
# 120k-250k minor faults a pass, against about 2k).
_HEAP_HINT_VALUES = 4 * _CHUNK_VALUES


def __getattr__(name: str):
    # ProcessPoolExecutor is unused here; bench/spans.py wraps the name to
    # count pools. It is imported on first access only, because importing it
    # loads multiprocessing, which no run needs.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def derive_seed(master_seed: int, index: int) -> int:
    """SplitMix64 mix of the master seed and an index; replication block k
    is seeded with index k."""
    z = (int(master_seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def block_rng(master_seed: int, block: int) -> np.random.Generator:
    """The generator of replication block `block` (replications
    ``block * BLOCK_REPS`` onwards) under the seeding contract."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, block)))


@dataclass(frozen=True)
class McConfig:
    """Replication count, master seed, and the most thread lanes to use.

    A run whose rows are wider than 256 values splits its blocks over at
    most `workers` thread lanes (None, the default: one per available CPU),
    at most one per block, with identical values; each lane adds about one
    row chunk and its temporaries to the memory in flight. `workers=1` runs
    in the calling thread.

    Memory grows with `reps`: an estimate holds every replication's value,
    8 bytes each, and reduces them through a Python list of about 32 bytes
    more per value, so about 4 GB at 1e8 replications.
    """

    reps: int
    master_seed: int = 0
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        check_count("reps", self.reps, 1)
        if not is_int(self.master_seed):
            raise ValueError(f"master_seed must be an integer, got {self.master_seed!r}")
        if self.workers is not None and not (is_int(self.workers) and self.workers >= 1):
            raise ValueError(f"workers must be an integer >= 1 or None, got {self.workers!r}")


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

    @property
    def stderr_degenerate(self) -> bool:
        return self.reps == 1

    @classmethod
    def from_values(cls, values: np.ndarray, cfg: "McConfig") -> "McEstimate":
        """Mean and standard error of per-replication values (``math.fsum``)."""
        items = values.tolist()
        reps = len(items)
        mean = math.fsum(items) / reps
        if reps == 1:
            return cls(mean, 0.0, reps, cfg.master_seed)
        var = math.fsum((v - mean) ** 2 for v in items) / (reps - 1)
        return cls(mean, math.sqrt(var / reps), reps, cfg.master_seed)


@dataclass(frozen=True)
class LinkingReport:
    """Estimated FDR against the curve-linked bound from the same nulls."""

    lhs: McEstimate
    rhs: float

    @property
    def slack(self) -> float:
        """Bound minus estimate."""
        return self.rhs - self.lhs.mean


# A task turns `count` consecutive rows of a block's generator into one value
# each; `width` is about how many values a row draws, which sets the chunk.
# A task that needs only the nulls draws rows of the null spec `nulls`.


@dataclass(frozen=True)
class _FdpTask:
    gen: GeneratorSpec
    adv: Optional[AdversarySpec]
    proc: str
    alpha: float
    nulls: Optional[GeneratorSpec]  # restrict_to_nulls(gen) when adv is given
    cuts: Optional[tuple]  # gen.cuts(alpha * j / n), j = 0..n, when adv is None

    @property
    def width(self) -> int:
        return self.gen.n if self.adv is None else self.gen.n0

    def rows(self, rng: np.random.Generator, count: int) -> np.ndarray:
        n, alpha = self.gen.n, self.alpha
        if self.adv is None:
            raw, mask = sample_scores(self.gen, rng, count)
            lo, hi = self.cuts
            keys = self.gen.keys(raw)
            ranked = np.sort(keys, axis=1)
            ok = ranked <= lo[1:]
            r = step_rule(ok, self.proc)
            null_keys = keys[:, mask]
            below = null_keys <= lo[r][:, None]
            false = np.count_nonzero(below, axis=1)
            # A key inside a window it is tested against (exact cuts, lo is hi,
            # have none) sends its row through the p-values.
            redo = () if hi is lo else np.flatnonzero(
                ((ranked <= hi[1:]) != ok).any(axis=1)
                | ((null_keys <= hi[r][:, None]) != below).any(axis=1))
            if len(redo):
                p = self.gen.pvalues(raw[redo])
                r[redo] = step_count(np.sort(p, axis=1), n, alpha, self.proc)
                false[redo] = np.count_nonzero(p[:, mask] <= (alpha * r[redo] / n)[:, None],
                                               axis=1)
            return false / np.maximum(r, 1)
        nulls_sorted = sample_rows(self.nulls, rng, count)[0]
        nulls_sorted.sort(axis=1)
        n1 = self.gen.n1
        informed = self.proc == "step_up" and isinstance(self.adv, InformedAdversary)
        if informed:
            rank, ceiling = anchor_choice(nulls_sorted, n, alpha)
        elif self.proc == "most_anti_conservative" or (
                self.proc == "step_up" and isinstance(self.adv, MostAntiConservativeAdversary)):
            rank, ceiling = anchor_choice(nulls_sorted, n, alpha, n1)
        else:
            zeros = self.adv.plant(nulls_sorted, n1, n, alpha)
            r = step_count(nulls_sorted, n, alpha, self.proc, offset=zeros)
            return (r - zeros) / np.maximum(r, 1)
        # With z = ceiling - rank <= n1 zeros planted, step-up rejects them and
        # the V smallest nulls, V the last rank j with c_j - j <= z (so V >=
        # rank and c_V <= z + V): rank / ceiling <= V / (z + V) <= V / c_V <=
        # rank / ceiling, so its FDP is the anchor ratio. With ceiling < rank
        # no zero is planted and every rejection is a null's.
        fdp = rank / np.maximum(np.maximum(ceiling, rank), 1)
        if informed:  # where plant clips the zero count to n1: plant n1, count
            clipped = np.flatnonzero(ceiling - rank > n1)
            if len(clipped):
                r = step_count(nulls_sorted[clipped], n, alpha, "step_up", offset=n1)
                fdp[clipped] = (r - n1) / np.maximum(r, 1)
        return fdp


@dataclass(frozen=True)
class _SimesTask:
    gen: GeneratorSpec

    @property
    def width(self) -> int:
        return self.gen.n0

    def rows(self, rng: np.random.Generator, count: int) -> np.ndarray:
        nulls = sample_rows(self.gen, rng, count)[0]
        nulls.sort(axis=1)
        return simes_sorted(nulls)


@dataclass(frozen=True)
class _LimitTask:
    alpha: float

    @property
    def width(self) -> int:
        """The draws per row, J(alpha) = 1024 * max(1, ceil(20 alpha))."""
        return 1024 * max(1, math.ceil(20.0 * self.alpha))

    def rows(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Each row's largest ``j / c_j`` over its partial sums ``S_j``, with
        ``c_j`` the smallest ``c >= 1`` for which ``S_j <= alpha * c``: the
        anchor kernel on the sums with ``n = 1``, clipped to ``[alpha, 1]``."""
        sums = rng.standard_exponential((count, self.width))
        np.cumsum(sums, axis=1, out=sums)
        rank, ceiling = anchor_choice(sums, 1, self.alpha)
        return np.clip(rank / ceiling, self.alpha, 1.0)


def _block_values(task, master_seed: int, reps: int, first: int, stop: int) -> np.ndarray:
    """Values of replications ``first * BLOCK_REPS`` up to
    ``min(stop * BLOCK_REPS, reps)``, block by block, in row chunks."""
    chunk = max(1, _CHUNK_VALUES // max(task.width, 1))
    np.empty(_HEAP_HINT_VALUES)  # allocated and freed at once, see above
    parts = []
    for block in range(first, stop):
        rng = block_rng(master_seed, block)
        count = min(BLOCK_REPS, reps - block * BLOCK_REPS)
        parts.extend(task.rows(rng, min(chunk, count - done))
                     for done in range(0, count, chunk))
    return np.concatenate(parts)


def _lane_count(task, blocks: int, workers: Optional[int]) -> int:
    """Threads for a run: at most `workers` (None: one per available CPU),
    capped at the block count, where a block spans more than one row chunk.
    Runs on narrower rows keep one thread: lanes there were measured (2
    vCPUs, the mc-iid and dependent-link benchmarks) to save under 3% of the
    wall time for 7-11% more CPU time and 3-4% more peak memory."""
    if task.width * BLOCK_REPS <= _CHUNK_VALUES:
        return 1
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # not on every platform
            workers = os.cpu_count() or 1
    return min(workers, blocks)


def _replication_values(task, cfg: McConfig) -> np.ndarray:
    blocks = -(-cfg.reps // BLOCK_REPS)
    lanes = _lane_count(task, blocks, cfg.workers)
    edges = np.linspace(0, blocks, lanes + 1, dtype=int).tolist()
    jobs = [(task, cfg.master_seed, cfg.reps, a, b) for a, b in zip(edges[:-1], edges[1:])]
    if lanes == 1:
        return _block_values(*jobs[0])
    from concurrent.futures import ThreadPoolExecutor

    # This thread runs the first range while the others run the rest.
    with ThreadPoolExecutor(max_workers=lanes - 1) as pool:
        rest = [pool.submit(_block_values, *job) for job in jobs[1:]]
        first = _block_values(*jobs[0])
        return np.concatenate([first] + [lane.result() for lane in rest])


def check_procedure(proc: str, adv: Optional[AdversarySpec]) -> None:
    """Raise ValueError unless `proc` names a procedure that can run against `adv`."""
    if proc not in PROCEDURES:
        raise ValueError(f"unknown procedure {proc!r}; choose from {PROCEDURES}")
    if proc == "most_anti_conservative" and \
            not isinstance(adv, (InformedAdversary, MostAntiConservativeAdversary)):
        raise ValueError("the most anti-conservative procedure needs an informed or "
                         "most-anti-conservative adversary to supply its zeros")


def fdp_values(gen: GeneratorSpec, adv: Optional[AdversarySpec], proc: str,
               alpha: float, cfg: McConfig) -> np.ndarray:
    """Per-replication false discovery proportions, in replication order;
    every FDP-type estimate is a reduction of this vector."""
    alpha = check_open_unit("alpha", alpha)
    check_procedure(proc, adv)
    nulls = None if adv is None else restrict_to_nulls(gen)
    cuts = gen.cuts(alpha * np.arange(gen.n + 1.0) / gen.n) if adv is None else None
    return _replication_values(_FdpTask(gen, adv, proc, alpha, nulls, cuts), cfg)


def estimate_fdr(gen: GeneratorSpec, adv: Optional[AdversarySpec], proc: str,
                 alpha: float, cfg: McConfig) -> McEstimate:
    """Monte Carlo mean of the false discovery proportion."""
    return McEstimate.from_values(fdp_values(gen, adv, proc, alpha, cfg), cfg)


def estimate_fdx(gen: GeneratorSpec, adv: Optional[AdversarySpec], proc: str,
                 alpha: float, gamma: float, cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of ``P(FDP >= gamma)``."""
    gamma = check_open_unit("gamma", gamma)
    values = fdp_values(gen, adv, proc, alpha, cfg)
    return McEstimate.from_values((values >= gamma).astype(float), cfg)


def estimate_fdp_moment(gen: GeneratorSpec, adv: Optional[AdversarySpec], proc: str,
                        alpha: float, k: int, cfg: McConfig) -> McEstimate:
    """Monte Carlo mean of ``FDP**k``; k = 1 reproduces :func:`estimate_fdr`
    on the same seeds."""
    check_count("moment order", k, 1)
    return McEstimate.from_values(fdp_values(gen, adv, proc, alpha, cfg) ** k, cfg)


def estimate_fdr0_curve(null_gen: GeneratorSpec, cfg: McConfig) -> EmpiricalCurve:
    """Empirical CDF of the Simes combination over replications of the null
    generator: the estimated null-FDR curve at every level simultaneously."""
    if null_gen.n1 != 0:
        raise ValueError("estimate_fdr0_curve needs a generator restricted to nulls; "
                         "see restrict_to_nulls")
    values = _replication_values(_SimesTask(null_gen), cfg)
    return EmpiricalCurve(values)


def estimate_worst_fdr_limit(alpha: float, cfg: McConfig) -> McEstimate:
    """Monte Carlo estimate of the limiting worst-case FDR constant
    ``E[min(sup_j j / ceil((xi_1 + ... + xi_j)/alpha), 1)]`` with iid
    standard-exponential increments.

    Each replication takes the maximum over a fixed budget of
    ``J = 1024 * max(1, ceil(20 * alpha))`` partial sums and clips it to
    ``[alpha, 1]``; raising it to alpha is exact, since the supremum is at
    least alpha almost surely. The maximum over J terms falls short of the
    supremum on average by less than 1/20 of the standard error of a
    1e5-replication estimate, at alpha = 0.5 and at the levels the presets
    and the acceptance suite use (a paired test checks this).
    """
    alpha = check_open_unit("alpha", alpha)
    return McEstimate.from_values(_replication_values(_LimitTask(alpha), cfg), cfg)


def verify_linking(gen: GeneratorSpec, adv: Optional[AdversarySpec], alpha: float,
                   cfg: McConfig) -> LinkingReport:
    """Estimated FDR of the step-up procedure against the curve-linked bound
    computed from the same null generator; slack is bound minus estimate."""
    lhs = estimate_fdr(gen, adv, "step_up", alpha, cfg)
    curve = estimate_fdr0_curve(restrict_to_nulls(gen), cfg)
    rhs = fdr_link_bound(gen.n0 / gen.n, alpha, curve)
    return LinkingReport(lhs=lhs, rhs=rhs)
