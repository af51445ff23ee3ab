"""Samplers for the supported p-value dependence structures and structural
checks for positive-dependence conditions on Gaussian covariances.

Generator specs are declarative, immutable descriptions; sampling is a pure
function of ``(spec, seed)``. A spec draws ``rows`` studies at once as a
row-major ``(rows, width)`` matrix whose rows are consecutive in the
generator's stream: the matrix equals ``rows`` successive one-row draws, so
splitting a draw into row chunks changes no value. Null p-values are
marginally Uniform(0, 1) under every Gaussian variant. Equicorrelated draws
use the closed-form square root of the equicorrelation matrix (eigenvalues
``1 - rho`` and ``1 + (n-1) * rho``), applied in O(n) per draw; a generic
factorization is used only for arbitrary covariance matrices.

The normal CDF and quantile wrappers carry a contract of max absolute error
at most 1e-12; they delegate to scipy's ``ndtr``/``ndtri``, which are
accurate to machine precision. scipy is imported on the first Gaussian draw
or wrapper call, not with this module, so a process that draws only uniform
p-values never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .study import PValueStudy

__all__ = [
    "IidUniform",
    "EquicorrelatedNormal",
    "PrdnGaussian",
    "BlockDependent",
    "TwoSidedWrap",
    "GeneratorSpec",
    "sample",
    "sample_arrays",
    "sample_null_pvalues",
    "sample_rows",
    "sample_null_rows",
    "restrict_to_nulls",
    "equicorrelated_sqrt",
    "two_sided_from_one_sided",
    "block_adjusted_pvalues",
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


def _check_sided(sided: str) -> None:
    if sided not in ("one", "two"):
        raise ValueError(f"sided must be 'one' or 'two', got {sided!r}")


def _pvalues_from_z(z: np.ndarray, sided: str) -> np.ndarray:
    from scipy.special import ndtr
    if sided == "one":
        return ndtr(-z)
    return 2.0 * ndtr(-np.abs(z))


def _equicorrelate(z: np.ndarray, rho: float) -> np.ndarray:
    """Map iid standard normals to rho-equicorrelated ones along the last
    axis (each row an independent group) with the closed-form root in O(n)."""
    size = z.shape[-1]
    if rho == 0.0 or size == 1:
        return z
    a = math.sqrt(max(1.0 - rho, 0.0))
    b = math.sqrt(max(1.0 + (size - 1) * rho, 0.0))
    return a * z + (b - a) * z.mean(axis=-1, keepdims=True)


@dataclass(frozen=True)
class IidUniform:
    """All p-values iid Uniform(0, 1); the first `n0` are the nulls."""

    n0: int
    n1: int = 0

    def __post_init__(self) -> None:
        if int(self.n0) < 1 or int(self.n1) < 0:
            raise ValueError("need n0 >= 1 and n1 >= 0")

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    def draw(self, rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """`rows` studies as a ``(rows, n)`` p-value matrix and the null mask."""
        return rng.random((rows, self.n)), np.arange(self.n) < self.n0

    def draw_nulls(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """Only the null p-values (their marginal joint law), ``(rows, n0)``."""
        return rng.random((rows, self.n0))

    def nulls_only(self) -> "IidUniform":
        """The generator of the null components alone."""
        return IidUniform(self.n0, 0)


@dataclass(frozen=True)
class EquicorrelatedNormal:
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
        if int(self.n0) < 1 or int(self.n1) < 0:
            raise ValueError("need n0 >= 1 and n1 >= 0")
        _check_sided(self.sided)
        if not self.rho < 1.0:
            raise ValueError(f"rho must be < 1, got {self.rho}")
        if self.n0 >= 2 and self.rho < -1.0 / (self.n0 - 1) - 1e-15:
            raise ValueError(
                f"rho={self.rho} below the admissible floor -1/(n0-1) = "
                f"{-1.0 / (self.n0 - 1)}"
            )

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    def draw(self, rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray]:
        # Per row: the null normals, then the non-null ones.
        z = rng.standard_normal((rows, self.n))
        z[:, :self.n0] = _equicorrelate(z[:, :self.n0], self.rho)
        z[:, self.n0:] += self.mu_alt
        return _pvalues_from_z(z, self.sided), np.arange(self.n) < self.n0

    def draw_nulls(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        return _pvalues_from_z(_equicorrelate(rng.standard_normal((rows, self.n0)), self.rho),
                               self.sided)

    def nulls_only(self) -> "EquicorrelatedNormal":
        return EquicorrelatedNormal(self.n0, 0, self.rho, self.sided, self.mu_alt)


@dataclass(frozen=True, eq=False)
class PrdnGaussian:
    """Gaussian p-values with an explicit covariance and null index set.

    `sigma` must be symmetric positive semidefinite with unit diagonal; the
    mean must vanish on the nulls.

    Size limit: construction factors `sigma` and its null block densely with
    ``eigh``, O(d^3) time for dimension d, and the instance keeps both
    matrices and their square roots, about ``16 * (d**2 + n0**2)`` bytes
    (1.6 GB at d = n0 = 10 000). Each drawn row costs a dense d-by-d product.
    Structured covariances at large d are :class:`BlockDependent` and
    :class:`EquicorrelatedNormal`, which keep no matrix.
    """

    sigma: np.ndarray
    null_idx: tuple[int, ...]
    mu: Optional[np.ndarray] = None
    sided: str = "one"
    _sqrt: np.ndarray = field(init=False, repr=False)
    _null_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_sided(self.sided)
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("sigma must be a square matrix")
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise ValueError("sigma must be symmetric")
        if not np.allclose(np.diag(sigma), 1.0, atol=1e-10):
            raise ValueError("sigma must have unit diagonal")
        dim = sigma.shape[0]
        idx = tuple(sorted(int(i) for i in self.null_idx))
        if len(set(idx)) != len(idx) or not idx:
            raise ValueError("null_idx must be a non-empty set of distinct indices")
        if idx[0] < 0 or idx[-1] >= dim:
            raise ValueError("null_idx out of range")
        mu = np.zeros(dim) if self.mu is None else np.asarray(self.mu, dtype=float)
        if mu.shape != (dim,):
            raise ValueError("mu must match sigma's dimension")
        if np.any(mu[list(idx)] != 0.0):
            raise ValueError("mean must be zero on the nulls")
        object.__setattr__(self, "sigma", _readonly(sigma))
        object.__setattr__(self, "null_idx", idx)
        object.__setattr__(self, "mu", _readonly(mu))
        object.__setattr__(self, "_sqrt", _readonly(_psd_sqrt(sigma)))
        null_block = sigma[np.ix_(idx, idx)]
        object.__setattr__(self, "_null_sqrt", _readonly(_psd_sqrt(null_block)))

    @property
    def n(self) -> int:
        return int(self.sigma.shape[0])

    @property
    def n0(self) -> int:
        return len(self.null_idx)

    @property
    def n1(self) -> int:
        return self.n - self.n0

    def draw(self, rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray]:
        z = self.mu + _times_rows(self._sqrt, rng.standard_normal((rows, self.n)))
        return _pvalues_from_z(z, self.sided), np.isin(np.arange(self.n), self.null_idx)

    def draw_nulls(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        return _pvalues_from_z(_times_rows(self._null_sqrt, rng.standard_normal((rows, self.n0))),
                               self.sided)

    def nulls_only(self) -> "PrdnGaussian":
        idx = list(self.null_idx)
        return PrdnGaussian(self.sigma[np.ix_(idx, idx)], tuple(range(len(idx))), None,
                            self.sided)


@dataclass(frozen=True, eq=False)
class BlockDependent:
    """Independent blocks with an exchangeable law inside each block.

    ``within='identical'`` gives every member of a block the same uniform
    draw (the most adversarial exchangeable choice); ``'equicorrelated'``
    uses a `rho_w`-equicorrelated Gaussian inside each block, with non-null
    members shifted by `mu_alt` before the one- or two-sided transform
    (identical blocks carry no shift).

    A draw takes every block's randomness from one generator call, in block
    order, which reproduces a draw block by block: one uniform per block, or
    one normal per member. A null draw skips the blocks without nulls.
    """

    block_sizes: tuple[int, ...]
    within: str = "identical"
    rho_w: Optional[float] = None
    null_mask: Optional[np.ndarray] = None
    mu_alt: float = 2.0
    sided: str = "one"
    _groups: tuple = field(init=False, repr=False)
    _held: Optional["BlockDependent"] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = tuple(int(b) for b in self.block_sizes)
        if not sizes or any(b < 1 for b in sizes):
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "block_sizes", sizes)
        _check_sided(self.sided)
        if self.within not in ("identical", "equicorrelated"):
            raise ValueError("within must be 'identical' or 'equicorrelated'")
        if self.within == "equicorrelated":
            if self.rho_w is None:
                raise ValueError("equicorrelated blocks need rho_w")
            bmax = max(sizes)
            if not self.rho_w < 1.0 or (bmax >= 2 and self.rho_w < -1.0 / (bmax - 1) - 1e-15):
                raise ValueError(f"rho_w={self.rho_w} inadmissible for block size {bmax}")
        n = sum(sizes)
        mask = np.ones(n, dtype=bool) if self.null_mask is None else \
            np.asarray(self.null_mask, dtype=bool)
        if mask.shape != (n,):
            raise ValueError("null mask must match the total block length")
        object.__setattr__(self, "null_mask", _readonly(mask))
        # One (blocks, size) position matrix per block size above 1, and the
        # spec of the blocks that hold a null (None if none does): its draw,
        # restricted to its nulls, is this spec's null draw.
        size_arr = np.array(sizes)
        starts = np.cumsum(size_arr) - size_arr
        object.__setattr__(self, "_groups", tuple(
            starts[size_arr == size][:, None] + np.arange(size)
            for size in np.unique(size_arr[size_arr > 1])))
        held = np.logical_or.reduceat(mask, starts)
        object.__setattr__(self, "_held", self if held.all() else None if not held.any() else
                           BlockDependent(tuple(size_arr[held].tolist()), self.within, self.rho_w,
                                          mask[np.repeat(held, size_arr)], self.mu_alt, self.sided))

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    @property
    def n0(self) -> int:
        return int(np.count_nonzero(self.null_mask))

    @property
    def n1(self) -> int:
        return self.n - self.n0

    def draw(self, rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray]:
        if self.within == "identical":
            p = np.repeat(rng.random((rows, len(self.block_sizes))), self.block_sizes, axis=1)
        else:
            z = rng.standard_normal((rows, self.n))
            for idx in self._groups:
                z[:, idx] = _equicorrelate(z[:, idx], self.rho_w)
            p = _pvalues_from_z(z + np.where(self.null_mask, 0.0, self.mu_alt), self.sided)
        return p, self.null_mask.copy()

    def draw_nulls(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """The nulls of a full draw of the blocks that hold one."""
        if self._held is None:
            raise ValueError("generator has no null components")
        p, mask = self._held.draw(rng, rows)
        return p[:, mask]

    def nulls_only(self) -> "BlockDependent":
        if self._held is None:
            raise ValueError("generator has no null components")
        held = self._held
        counts = np.add.reduceat(held.null_mask, np.cumsum(held.block_sizes) - held.block_sizes)
        return BlockDependent(tuple(counts.tolist()), self.within, self.rho_w, None,
                              self.mu_alt, self.sided)


@dataclass(frozen=True)
class TwoSidedWrap:
    """Fold an inner one-sided generator through the two-sided transform."""

    inner: "GeneratorSpec"

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def n0(self) -> int:
        return self.inner.n0

    @property
    def n1(self) -> int:
        return self.inner.n1

    def draw(self, rng: np.random.Generator, rows: int) -> tuple[np.ndarray, np.ndarray]:
        p, mask = self.inner.draw(rng, rows)
        return two_sided_from_one_sided(p), mask

    def draw_nulls(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        return two_sided_from_one_sided(self.inner.draw_nulls(rng, rows))

    def nulls_only(self) -> "TwoSidedWrap":
        return TwoSidedWrap(self.inner.nulls_only())


GeneratorSpec = Union[IidUniform, EquicorrelatedNormal, PrdnGaussian,
                      BlockDependent, TwoSidedWrap]


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
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    lead = 1.0 + (n - 1) * rho
    if lead < -1e-12 or rho >= 1.0:
        raise ValueError(f"rho={rho} inadmissible for n={n}")
    a = math.sqrt(max(1.0 - rho, 0.0))
    b = math.sqrt(max(lead, 0.0))
    mat = np.full((n, n), (b - a) / n)
    mat[np.diag_indices(n)] += a
    return mat


def sample_rows(spec: GeneratorSpec, rng: np.random.Generator,
                rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw `rows` studies: a ``(rows, n)`` p-value matrix and the null mask."""
    return spec.draw(rng, rows)


def sample_null_rows(spec: GeneratorSpec, rng: np.random.Generator, rows: int) -> np.ndarray:
    """Draw the null p-values of `rows` studies as a ``(rows, n0)`` matrix."""
    return spec.draw_nulls(rng, rows)


def sample_arrays(spec: GeneratorSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw one study as raw arrays ``(pvalues, null_mask)``."""
    p, mask = spec.draw(rng, 1)
    return p[0], mask


def sample_null_pvalues(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw only the null p-values of `spec` (their marginal joint law)."""
    return spec.draw_nulls(rng, 1)[0]


def sample(spec: GeneratorSpec, seed: int) -> PValueStudy:
    """Draw one study; deterministic given ``(spec, seed)``."""
    return PValueStudy(*sample_arrays(spec, np.random.default_rng(int(seed) & _SEED_MASK)))


def restrict_to_nulls(spec: GeneratorSpec) -> GeneratorSpec:
    """The generator of the null components alone (a global-null spec)."""
    return spec.nulls_only()


def two_sided_from_one_sided(p):
    """Fold a one-sided p-value: ``2p`` below 1/2, ``2(1-p)`` above.

    Maps Uniform(0, 1) to Uniform(0, 1); accepts scalars or arrays.
    """
    arr = np.asarray(p, dtype=float)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    folded = np.where(arr <= 0.5, 2.0 * arr, 2.0 * (1.0 - arr))
    return float(folded) if np.isscalar(p) or arr.ndim == 0 else folded


def block_adjusted_pvalues(study: PValueStudy, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """One adjusted p-value per block: ``min(b_l * min_i p_i, 1)``."""
    seen = sorted(int(i) for block in blocks for i in block)
    if seen != list(range(study.n)):
        raise ValueError("blocks must partition the study indices")
    out = np.empty(len(blocks))
    for pos, block in enumerate(blocks):
        idx = [int(i) for i in block]
        out[pos] = min(len(idx) * study.pvalues[idx].min(), 1.0)
    return out


def _as_index_set(null_idx, dim: int) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in null_idx)), dtype=int)
    if idx.size == 0:
        raise ValueError("null index set must be non-empty")
    if idx[0] < 0 or idx[-1] >= dim:
        raise ValueError("null indices out of range")
    return idx


def prdn_check_gaussian(sigma: np.ndarray, null_idx) -> bool:
    """Sufficient condition for positive regression dependence within the
    nulls of one-sided Gaussian p-values: nonnegative covariance between
    every pair of null coordinates."""
    sigma = np.asarray(sigma, dtype=float)
    idx = _as_index_set(null_idx, sigma.shape[0])
    return bool(np.all(sigma[np.ix_(idx, idx)] >= 0.0))


def prds_check_gaussian(sigma: np.ndarray, null_idx) -> bool:
    """The stronger condition: nonnegativity within the nulls plus
    nonnegativity between every null and every non-null coordinate."""
    sigma = np.asarray(sigma, dtype=float)
    idx = _as_index_set(null_idx, sigma.shape[0])
    if not prdn_check_gaussian(sigma, idx):
        return False
    other = np.setdiff1d(np.arange(sigma.shape[0]), idx)
    if other.size == 0:
        return True
    return bool(np.all(sigma[np.ix_(idx, other)] >= 0.0))


def mtp2_sign_check(sigma0: np.ndarray, rel_tol: float = 1e-10) -> Optional[np.ndarray]:
    """Search for a diagonal +/-1 matrix B making ``-B @ inv(sigma0) @ B``
    nonnegative off the diagonal; None when no such B exists.

    With ``K = -inv(sigma0)``, every off-diagonal entry with ``|K_ij|`` above
    ``rel_tol * max|K|`` constrains ``b_i * b_j`` to ``sign(K_ij)``; smaller
    entries are treated as unconstrained (inverse-computation noise must not
    create spurious constraints). The constraints are solved by breadth-first
    sign propagation over the nonzero pattern, then verified.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    if sigma0.ndim != 2 or sigma0.shape[0] != sigma0.shape[1]:
        raise ValueError("sigma0 must be square")
    try:
        k_mat = -np.linalg.inv(sigma0)
    except np.linalg.LinAlgError as exc:
        raise ValueError("sigma0 is singular") from exc
    dim = k_mat.shape[0]
    tol = rel_tol * np.abs(k_mat).max()
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
    sigma0 = np.asarray(sigma0, dtype=float)
    dim = sigma0.shape[0]
    i = int(i)
    if not 0 <= i < dim:
        raise ValueError("index out of range")
    if sigma0[i, i] == 0.0:
        raise ValueError("conditioning coordinate has zero variance")
    row = np.delete(sigma0[i], i)
    return row / sigma0[i, i]


def vanishing_null_family(l: int, schedule: Optional[Callable[[int], tuple[int, int]]] = None
                          ) -> tuple[int, int]:
    """Integer pair ``(n, n0)`` with ``n0 * log(n0) / n`` bounded across `l`.

    The default schedule is ``n0 = l``, ``n = ceil(l * log(max(l, 2)))``,
    floored at ``n0``; pass `schedule` to override.
    """
    l = int(l)
    if l < 1:
        raise ValueError("family index must be >= 1")
    if schedule is not None:
        n, n0 = schedule(l)
        n, n0 = int(n), int(n0)
    else:
        n0 = l
        n = max(math.ceil(l * math.log(max(l, 2))), n0)
    if not 1 <= n0 <= n:
        raise ValueError(f"schedule produced invalid pair (n={n}, n0={n0})")
    return n, n0
