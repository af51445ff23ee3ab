"""Samplers for the supported p-value dependence structures and structural
checks for positive-dependence conditions on Gaussian covariances.

Generator specs are declarative, immutable descriptions; sampling is a pure
function of ``(spec, seed)``. A spec's ``scores(rng, rows)`` draws ``rows``
studies at once as a row-major ``(rows, n)`` matrix of raw scores whose rows
are consecutive in the generator's stream: the matrix equals ``rows``
successive one-row draws, so splitting a draw into row chunks changes no
value. Which coordinates are nulls is a fact of the spec, not of a draw:
every spec has a ``null_mask`` and a draw is its matrix alone. A spec is
also its own p-value law: ``pvalues`` maps the scores to p-values (``draw``
is that map of ``scores``) as the level of their ``keys``, and ``keys`` and
``cuts`` decide ``p <= t`` without it. Every spec has a field ``sided``, and
:func:`TwoSidedWrap` returns its inner spec two-sided. A spec's
``nulls_only()`` is the spec of its null components alone; every null-only
draw, in the Monte Carlo engine and in :func:`sample_null_pvalues`, is a
``draw`` of that spec. Null p-values
are marginally Uniform(0, 1) under every Gaussian variant. Equicorrelated
draws use the closed-form square root of the equicorrelation matrix
(eigenvalues ``1 - rho`` and ``1 + (n-1) * rho``), applied in O(n) per draw;
a generic factorization is used only for arbitrary covariance matrices.

Each array input has one rule here: every covariance matrix passes
:func:`check_covariance` (square, finite, symmetric), every index set
:func:`check_index_set` (non-empty, distinct plain integers, in range) and
every null mask ``study.check_null_mask`` (booleans, one per p-value).
:func:`structural_checks` is the one report of the positive-dependence
checks on a covariance: PRDN, PRDS and the two-sided sign assignment.

The normal CDF and quantile wrappers carry a contract of max absolute error
at most 1e-12; they delegate to scipy's ``ndtr``/``ndtri``, which are
accurate to machine precision. scipy is imported on the first Gaussian draw,
cut or wrapper call, not with this module, so a process that draws only
uniform p-values never loads it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .study import PValueStudy, check_count, check_null_mask, is_int, is_real

__all__ = [
    "IidUniform",
    "EquicorrelatedNormal",
    "PrdnGaussian",
    "BlockDependent",
    "TwoSidedWrap",
    "GeneratorSpec",
    "sample",
    "sample_null_pvalues",
    "sample_rows",
    "sample_scores",
    "restrict_to_nulls",
    "equicorrelated_sqrt",
    "two_sided_from_one_sided",
    "block_adjusted_pvalues",
    "structural_checks",
    "prdn_check_gaussian",
    "prds_check_gaussian",
    "mtp2_sign_check",
    "conditional_slope",
    "vanishing_null_family",
    "normal_cdf",
    "normal_quantile",
]

_SEED_MASK = (1 << 64) - 1


def normal_cdf(x):
    """Standard normal CDF (max absolute error <= 1e-12)."""
    from scipy.special import ndtr
    return ndtr(x)


def normal_quantile(p):
    """Standard normal quantile (max absolute error <= 1e-12)."""
    from scipy.special import ndtri
    return ndtri(p)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


def check_covariance(sigma, name: str = "sigma") -> np.ndarray:
    """`sigma` as a float matrix, once it is square, finite and symmetric up
    to rounding: the one rule for every covariance matrix taken here."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {sigma.shape}")
    if not np.isfinite(sigma).all():
        raise ValueError(f"{name} has non-finite entries")
    if not np.allclose(sigma, sigma.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    return sigma


def check_index_set(idx, dim: int, name: str = "null_idx") -> tuple[int, ...]:
    """`idx` as a tuple in its given order, once it is a non-empty set of
    distinct plain integers in ``0..dim-1``: the one rule for index sets."""
    idx = tuple(idx)
    if not (idx and all(is_int(i) and 0 <= i < dim for i in idx) and len(set(idx)) == len(idx)):
        raise ValueError(f"{name} must be a non-empty set of distinct integers in "
                         f"0..{dim - 1}, got {idx!r}")
    return idx


def _check_sided(sided: str) -> None:
    if sided not in ("one", "two"):
        raise ValueError(f"sided must be 'one' or 'two', got {sided!r}")


# The relative window of a Gaussian cut on the level q that ndtr meets: 1e-10
# covers the errors of scipy's ndtr and ndtri (under 1e-12 down to q = 1e-308).
_CUT_REL = 1e-10


class _Spec:
    """A generator spec and its own p-value law. Its scores are z-scores
    unless `uniform` says they are uniforms, its p-values are `sided`
    (two-sided: ``2 * Phi(-|z|)``, or the fold ``2 * min(u, 1 - u)``), and
    it defines `n1` or `n`; its nulls are the first `n0` coordinates unless
    it defines `null_mask`. With ``(lo, hi) = cuts(t)``, keys at or below
    `lo` pass ``p <= t`` and keys above `hi` fail it: uniforms key
    themselves with exact cuts, z-scores key as ``-z`` against a widened
    ``ndtri``, and two-sided keys fold the score against half the level."""

    uniform = False

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    @property
    def n1(self) -> int:
        return self.n - self.n0

    @property
    def null_mask(self) -> np.ndarray:
        """A fresh bool vector marking the nulls: the first `n0`."""
        return np.arange(self.n) < self.n0

    def pvalues(self, raw: np.ndarray) -> np.ndarray:
        """The p-values of raw scores: the level of their keys (``Phi`` of a
        z-score's key), doubled when two-sided."""
        p = self.keys(raw) if self.uniform else normal_cdf(self.keys(raw))
        return p if self.sided == "one" else 2.0 * p

    def keys(self, raw: np.ndarray) -> np.ndarray:
        if self.uniform:
            return raw if self.sided == "one" else np.minimum(raw, 1.0 - raw)
        return -raw if self.sided == "one" else -np.abs(raw)

    def cuts(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = t if self.sided == "one" else t / 2
        if self.uniform:
            return q, q
        return (normal_quantile(q * (1.0 - _CUT_REL)),
                normal_quantile(np.minimum(q * (1.0 + _CUT_REL), 1.0)))

    def draw(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """`rows` studies as a ``(rows, n)`` p-value matrix."""
        return self.pvalues(self.scores(rng, rows))

    def nulls_only(self):
        """The generator of the null components alone: this spec with no
        non-nulls (a spec without an `n1` field defines its own)."""
        return self if self.n1 == 0 else replace(self, n1=0)


def _equicorrelate(z: np.ndarray, rho: float) -> np.ndarray:
    """Map iid standard normals to rho-equicorrelated ones along the last
    axis (each row an independent group) with the closed-form root in O(n),
    in place; returns `z`."""
    size = z.shape[-1]
    if rho == 0.0 or size == 1:
        return z
    a = math.sqrt(max(1.0 - rho, 0.0))
    b = math.sqrt(max(1.0 + (size - 1) * rho, 0.0))
    shift = (b - a) * z.mean(axis=-1, keepdims=True)
    z *= a
    z += shift
    return z


def _check_finite(name: str, x) -> None:
    if not (is_real(x) and math.isfinite(x)):
        raise ValueError(f"{name} must be finite and real, got {x!r}")


def _check_rho(name: str, rho, size: int) -> None:
    """The one equicorrelation rule: `rho` is finite, real, below 1 and, for
    `size` >= 2, at or above ``-1/(size-1)`` (less 1e-15 of rounding)."""
    _check_finite(name, rho)
    floor = -1.0 / (size - 1) if size >= 2 else -math.inf
    if not floor - 1e-15 <= rho < 1.0:
        raise ValueError(f"{name} must be in [{floor}, 1) for size {size}, got {rho!r}")


def _check_counts(n0, n1) -> None:
    check_count("n0", n0, 1)
    check_count("n1", n1, 0)


@dataclass(frozen=True)
class IidUniform(_Spec):
    """All p-values iid Uniform(0, 1), one-sided or folded two-sided; the
    first `n0` are the nulls."""

    n0: int
    n1: int = 0
    sided: str = "one"
    uniform = True

    def __post_init__(self) -> None:
        _check_counts(self.n0, self.n1)
        _check_sided(self.sided)

    def scores(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """`rows` studies as a ``(rows, n)`` score matrix."""
        return rng.random((rows, self.n))


@dataclass(frozen=True)
class EquicorrelatedNormal(_Spec):
    """Nulls from an equicorrelated Gaussian; non-nulls independent shifts.

    The null z-scores are `rho`-equicorrelated standard normals, admissible
    for ``-1/(n0-1) <= rho < 1``. Non-null z-scores are independent
    N(mu_alt, 1) draws. P-values are one- or two-sided.
    """

    n0: int
    n1: int = 0
    rho: float = 0.0
    sided: str = "one"
    mu_alt: float = 2.0

    def __post_init__(self) -> None:
        _check_counts(self.n0, self.n1)
        _check_sided(self.sided)
        _check_rho("rho", self.rho, self.n0)
        _check_finite("mu_alt", self.mu_alt)

    def scores(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        # Per row: the null normals, then the non-null ones.
        z = rng.standard_normal((rows, self.n))
        _equicorrelate(z[:, :self.n0], self.rho)
        z[:, self.n0:] += self.mu_alt
        return z


@dataclass(frozen=True, eq=False)
class PrdnGaussian(_Spec):
    """Gaussian p-values with an explicit covariance and null index set.

    `sigma` must be symmetric positive semidefinite with unit diagonal; the
    mean must vanish on the nulls, which the read-only `null_mask` marks.

    Size limit: construction factors `sigma` and its null block densely with
    ``eigh``, O(d^3) time for dimension d, and the instance keeps both
    matrices and their square roots (the null block in its null spec,
    built once), about ``16 * (d**2 + n0**2)`` bytes
    (1.6 GB at d = n0 = 10 000). Each drawn row costs a dense d-by-d product.
    Structured covariances at large d are :class:`BlockDependent` and
    :class:`EquicorrelatedNormal`, which keep no matrix.
    """

    sigma: np.ndarray
    null_idx: tuple[int, ...]
    mu: Optional[np.ndarray] = None
    sided: str = "one"
    # The default shadows _Spec's prefix property until __post_init__ sets it.
    null_mask: np.ndarray = field(init=False, repr=False, default=None)
    _sqrt: np.ndarray = field(init=False, repr=False)
    _nulls: "PrdnGaussian" = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_sided(self.sided)
        sigma = check_covariance(self.sigma)
        if not np.allclose(np.diag(sigma), 1.0, atol=1e-10):
            raise ValueError("sigma must have unit diagonal")
        dim = sigma.shape[0]
        idx = tuple(sorted(check_index_set(self.null_idx, dim)))
        mu = np.zeros(dim) if self.mu is None else np.asarray(self.mu, dtype=float)
        if mu.shape != (dim,):
            raise ValueError("mu must match sigma's dimension")
        if not np.isfinite(mu).all():
            raise ValueError("mu must be finite")
        if np.any(mu[list(idx)] != 0.0):
            raise ValueError("mean must be zero on the nulls")
        object.__setattr__(self, "sigma", _readonly(sigma))
        object.__setattr__(self, "null_idx", idx)
        object.__setattr__(self, "mu", _readonly(mu))
        object.__setattr__(self, "null_mask", _readonly(np.isin(np.arange(dim), idx)))
        object.__setattr__(self, "_sqrt", _readonly(_psd_sqrt(sigma)))
        object.__setattr__(self, "_nulls", self if len(idx) == dim else PrdnGaussian(
            sigma[np.ix_(idx, idx)], tuple(range(len(idx))), None, self.sided))

    @property
    def n(self) -> int:
        return int(self.sigma.shape[0])

    @property
    def n0(self) -> int:
        return len(self.null_idx)

    def scores(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        return self.mu + _times_rows(self._sqrt, rng.standard_normal((rows, self.n)))

    def nulls_only(self) -> "PrdnGaussian":
        return self._nulls


@dataclass(frozen=True, eq=False)
class BlockDependent(_Spec):
    """Independent blocks with an exchangeable law inside each block.

    ``within='identical'`` gives every member of a block the same uniform
    draw (the most adversarial exchangeable choice); ``'equicorrelated'``
    uses a `rho_w`-equicorrelated Gaussian inside each block, with non-null
    members shifted by `mu_alt`. Either kind is one- or two-sided by
    `sided`. Identical blocks take no `rho_w`; they carry no shift, so
    `mu_alt` goes unused. `null_mask` passes :func:`check_null_mask`.

    A draw takes every block's randomness from one generator call, in block
    order, which reproduces a draw block by block: one uniform per block, or
    one normal per member. The null spec keeps, of each block that holds a
    null, one block of its nulls alone; members of a block are exchangeable,
    so these have the joint law of the nulls of a full draw. It is built
    once, at construction.
    """

    block_sizes: tuple[int, ...]
    within: str = "identical"
    rho_w: Optional[float] = None
    null_mask: Optional[np.ndarray] = None
    mu_alt: float = 2.0
    sided: str = "one"
    _groups: tuple = field(init=False, repr=False)
    _nulls: Optional["BlockDependent"] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = tuple(self.block_sizes)
        if not sizes or not all(is_int(b) and b >= 1 for b in sizes):
            raise ValueError(f"block_sizes must be positive integers, got {self.block_sizes!r}")
        object.__setattr__(self, "block_sizes", sizes)
        _check_sided(self.sided)
        _check_finite("mu_alt", self.mu_alt)
        if self.within not in ("identical", "equicorrelated"):
            raise ValueError("within must be 'identical' or 'equicorrelated'")
        if self.within == "identical" and self.rho_w is not None:
            raise ValueError("identical blocks take no rho_w")
        if self.within == "equicorrelated":
            if self.rho_w is None:
                raise ValueError("equicorrelated blocks need rho_w")
            _check_rho("rho_w", self.rho_w, max(sizes))
        n = sum(sizes)
        mask = check_null_mask(np.ones(n, dtype=bool) if self.null_mask is None
                               else self.null_mask, n)
        object.__setattr__(self, "null_mask", mask)
        # One (blocks, size) position matrix per block size above 1.
        size_arr = np.array(sizes)
        starts = np.cumsum(size_arr) - size_arr
        object.__setattr__(self, "_groups", tuple(
            starts[size_arr == size][:, None] + np.arange(size)
            for size in np.unique(size_arr[size_arr > 1])))
        counts = np.add.reduceat(mask, starts)
        object.__setattr__(self, "_nulls", None if not mask.any() else self if mask.all() else
                           BlockDependent(tuple(counts[counts > 0].tolist()), self.within,
                                          self.rho_w, None, self.mu_alt, self.sided))

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    @property
    def n0(self) -> int:
        return int(np.count_nonzero(self.null_mask))

    @property
    def uniform(self) -> bool:
        return self.within == "identical"

    def scores(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        if self.within == "identical":
            return np.repeat(rng.random((rows, len(self.block_sizes))), self.block_sizes, axis=1)
        z = rng.standard_normal((rows, self.n))
        for idx in self._groups:
            z[:, idx] = _equicorrelate(z[:, idx], self.rho_w)
        return z + np.where(self.null_mask, 0.0, self.mu_alt)

    def nulls_only(self) -> "BlockDependent":
        if self._nulls is None:
            raise ValueError("generator has no null components")
        return self._nulls


GeneratorSpec = Union[IidUniform, EquicorrelatedNormal, PrdnGaussian, BlockDependent]


def TwoSidedWrap(inner: GeneratorSpec) -> GeneratorSpec:
    """`inner` with two-sided p-values: the same spec and scores with
    ``sided="two"``. An inner spec that is two-sided already is rejected. A
    :class:`PrdnGaussian` keeps its factors, so wrapping one costs no
    ``eigh``."""
    if inner.sided == "two":
        raise ValueError("TwoSidedWrap folds one-sided p-values; its inner "
                         "generator is two-sided already")
    if isinstance(inner, PrdnGaussian):  # replace() would run eigh again
        spec = copy.copy(inner)
        nulls = spec if inner._nulls is inner else copy.copy(inner._nulls)
        for part in (spec, nulls):
            object.__setattr__(part, "sided", "two")
            object.__setattr__(part, "_nulls", nulls)
        return spec
    return replace(inner, sided="two")


def _times_rows(root: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``root @ z_i`` for each row: one matrix-vector product per row, because
    a matrix product's rounding depends on how many rows it holds."""
    return np.array([root @ row for row in z]).reshape(z.shape)


def _psd_sqrt(sigma: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition."""
    vals, vecs = np.linalg.eigh(sigma)
    if vals.min() < -1e-8 * max(vals.max(), 1.0):
        raise ValueError(f"covariance is not positive semidefinite (min eig {vals.min():.3e})")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def equicorrelated_sqrt(n: int, rho: float) -> np.ndarray:
    """Closed-form symmetric square root of the n x n equicorrelation matrix.

    Built from the spectral decomposition: eigenvalue ``1 + (n-1)*rho`` on the
    all-ones direction and ``1 - rho`` on its complement.
    """
    check_count("n", n, 1)
    _check_rho("rho", rho, n)
    a = math.sqrt(max(1.0 - rho, 0.0))
    b = math.sqrt(max(1.0 + (n - 1) * rho, 0.0))
    mat = np.full((n, n), (b - a) / n)
    mat[np.diag_indices(n)] += a
    return mat


def sample_rows(spec: GeneratorSpec, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Draw `rows` studies as a ``(rows, n)`` p-value matrix; ``spec.null_mask``
    marks its nulls."""
    return spec.draw(rng, rows)


def sample_scores(spec: GeneratorSpec, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Draw `rows` studies as a ``(rows, n)`` matrix of raw scores
    (``spec.pvalues`` maps them to p-values)."""
    return spec.scores(rng, rows)


def sample_null_pvalues(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw only the null p-values of `spec`: one study of its null spec."""
    return restrict_to_nulls(spec).draw(rng, 1)[0]


def sample(spec: GeneratorSpec, seed: int) -> PValueStudy:
    """Draw one study; deterministic given ``(spec, seed)``. Any plain
    integer is a seed; it is taken modulo 2**64."""
    if not is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return PValueStudy(spec.draw(np.random.default_rng(seed & _SEED_MASK), 1)[0], spec.null_mask)


def restrict_to_nulls(spec: GeneratorSpec) -> GeneratorSpec:
    """The generator of the null components alone (a global-null spec)."""
    return spec.nulls_only()


def two_sided_from_one_sided(p):
    """Fold a one-sided p-value: ``2p`` below 1/2, ``2(1-p)`` above.

    Maps Uniform(0, 1) to Uniform(0, 1); accepts scalars or arrays.
    """
    arr = np.asarray(p, dtype=float)
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):  # NaN fails too
        raise ValueError("p-values must lie in [0, 1]")
    # Above 1/2, 1 - p is exact and the smaller of the two.
    folded = 2.0 * np.minimum(arr, 1.0 - arr)
    return float(folded) if np.isscalar(p) or arr.ndim == 0 else folded


def block_adjusted_pvalues(study: PValueStudy, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """One adjusted p-value per block: ``min(b_l * min_i p_i, 1)``."""
    flat = check_index_set([i for block in blocks for i in block], study.n, "blocks")
    if len(flat) != study.n or not all(len(block) for block in blocks):
        raise ValueError("blocks must partition the study indices")
    return np.array([min(len(block) * study.pvalues[list(block)].min(), 1.0)
                     for block in blocks])


def prdn_check_gaussian(sigma: np.ndarray, null_idx) -> bool:
    """Sufficient condition for positive regression dependence within the
    nulls of one-sided Gaussian p-values: nonnegative covariance between
    every pair of null coordinates."""
    sigma = check_covariance(sigma)
    idx = check_index_set(null_idx, len(sigma))
    return bool(np.all(sigma[np.ix_(idx, idx)] >= 0.0))


def prds_check_gaussian(sigma: np.ndarray, null_idx) -> bool:
    """The stronger condition: nonnegative covariance between every null
    coordinate and every coordinate, null or not."""
    sigma = check_covariance(sigma)
    return bool(np.all(sigma[list(check_index_set(null_idx, len(sigma)))] >= 0.0))


def structural_checks(sigma: np.ndarray, null_idx) -> tuple[bool, bool, Optional[str]]:
    """The structural report on a covariance and its nulls: the PRDN check,
    the PRDS check, and the two-sided sign assignment of the null block (in
    the order of `null_idx`) as a ``+``/``-`` string, None if none exists."""
    sigma = check_covariance(sigma)
    idx = check_index_set(null_idx, len(sigma))
    signs = mtp2_sign_check(sigma[np.ix_(idx, idx)])
    return (prdn_check_gaussian(sigma, idx), prds_check_gaussian(sigma, idx),
            None if signs is None else "".join("+" if s > 0 else "-" for s in signs))


def mtp2_sign_check(sigma0: np.ndarray) -> Optional[np.ndarray]:
    """Search for a diagonal +/-1 matrix B making ``-B @ inv(sigma0) @ B``
    nonnegative off the diagonal; None when no such B exists.

    With ``K = -inv(sigma0)``, every off-diagonal entry with ``|K_ij|`` above
    ``1e-10 * max|K|`` constrains ``b_i * b_j`` to ``sign(K_ij)``; smaller
    entries are treated as unconstrained (inverse-computation noise must not
    create spurious constraints). The constraints are solved by breadth-first
    sign propagation over the nonzero pattern, then verified.
    """
    sigma0 = check_covariance(sigma0, "sigma0")
    try:
        k_mat = -np.linalg.inv(sigma0)
    except np.linalg.LinAlgError as exc:
        raise ValueError("sigma0 is singular") from exc
    dim = k_mat.shape[0]
    tol = 1e-10 * np.abs(k_mat).max()
    signs = np.zeros(dim, dtype=int)
    for root in range(dim):
        if signs[root]:
            continue
        signs[root] = 1
        queue = [root]
        while queue:
            i = queue.pop()
            for j in range(dim):
                if j == i or abs(k_mat[i, j]) <= tol:
                    continue
                required = signs[i] * (1 if k_mat[i, j] > 0 else -1)
                if signs[j] == 0:
                    signs[j] = required
                    queue.append(j)
                elif signs[j] != required:
                    return None
    b = np.where(signs == 0, 1, signs)
    check = (b[:, None] * k_mat * b[None, :]).copy()
    np.fill_diagonal(check, 0.0)
    if check.min() < -tol:
        return None
    return b


def conditional_slope(sigma0: np.ndarray, i: int) -> np.ndarray:
    """Slope of the conditional mean of the remaining null z-scores given
    coordinate `i`: ``sigma0[i, -i] / sigma0[i, i]``."""
    sigma0 = check_covariance(sigma0, "sigma0")
    (i,) = check_index_set((i,), len(sigma0), "index i")
    if sigma0[i, i] == 0.0:
        raise ValueError("conditioning coordinate has zero variance")
    row = np.delete(sigma0[i], i)
    return row / sigma0[i, i]


def vanishing_null_family(l: int) -> tuple[int, int]:
    """Integer pair ``(n, n0)`` with ``n0 * log(n0) / n`` bounded across `l`:
    ``n0 = l`` and ``n = ceil(l * log(max(l, 2)))``, floored at ``n0``. The
    index must be a plain integer."""
    if not (is_int(l) and l >= 1):
        raise ValueError(f"family index must be an integer >= 1, got {l!r}")
    return max(math.ceil(l * math.log(max(l, 2))), l), l
