"""Samplers for the supported p-value dependence structures and structural
checks for positive-dependence conditions on Gaussian covariances.

Generator specs are declarative, immutable descriptions; sampling is a pure
function of ``(spec, seed)``. A spec's ``scores(rng, rows)`` draws ``rows``
studies at once as a row-major ``(rows, n)`` matrix of raw scores whose rows
are consecutive in the generator's stream: the matrix equals ``rows``
successive one-row draws, so splitting a draw into row chunks changes no
value. Which coordinates are nulls is a fact of the spec, not of a draw:
every spec has a ``null_mask`` and a draw is its matrix alone. A spec is
also its own p-value law: a p-value is the ``level`` of its key, so
``pvalues(raw)`` is ``level(keys(raw))`` (``draw`` is that map of
``scores``, its keys written over the fresh scores), and ``keys`` and
``cuts`` decide ``p <= t`` without it. Every spec has a field ``sided``;
a two-sided spec is built with ``sided="two"``. A spec's
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

:func:`normal_cdf` and :func:`normal_quantile` carry a contract of max
absolute error at most 1e-12. They are numpy ports, step for step, of
Cephes' ``ndtr`` (through ``erf``/``erfc``) and three-range ``ndtri``, the
routines ``scipy.special`` runs; only numpy's ``exp`` and ``log`` set them
apart, and the tests hold them within 4 ulps of scipy's values. Gaussian
p-values and cuts go through the same kernels, so the package needs nothing
beyond numpy.
"""

from __future__ import annotations

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
    "GeneratorSpec",
    "sample",
    "sample_null_pvalues",
    "sample_rows",
    "sample_scores",
    "restrict_to_nulls",
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


# Cephes coefficients (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989). erf on |x| < 1 is x T(x^2)/U(x^2); erfc is
# exp(-x^2) P(x)/Q(x) on 1 <= x < 8 and R/S from 8 on; ndtri is P0/Q0 on its
# central range and P1/Q1, P2/Q2 in the tails.
# Every denominator's leading 1 is implicit.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
             1.39312609387279679503E1, -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
             -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
             4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
             1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
             1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
             2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)
_SQRT1_2 = 0.70710678118654752440
_SQRT_2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189  # exp(-2), ndtri's central-range edge
_MAXLOG = 7.09782712893383996843E2  # erfc is 0 once x^2 exceeds it
# Values per kernel pass: half an engine chunk (mc._CHUNK_VALUES), so that
# the pass's few 256 KB temporaries sit in the heap room mc keeps for them.
_SUB_VALUES = 1 << 15


def _horner(x: np.ndarray, coefs, monic: bool = False, out=None) -> np.ndarray:
    """Cephes ``polevl`` of `x`, or ``p1evl`` (leading 1 implicit) with
    `monic`: one rounded product and one rounded sum a step (into `out`)."""
    if monic:
        out = np.add(x, coefs[0], out=out)
    else:
        out = np.multiply(x, coefs[0], out=out)
        out += coefs[1]
    for c in coefs[1 if monic else 2:]:
        out *= x
        out += c
    return out


def _by_sub_chunks(kernel, a, *args):
    """`kernel(src, dst, *args)` over `a` as float64, `_SUB_VALUES` values
    at a time; an array of `a`'s shape, or a numpy scalar for a scalar."""
    a = np.asarray(a, dtype=float)
    out = np.empty(a.shape)
    src, dst = a.reshape(-1), out.reshape(-1)
    for start in range(0, src.size, _SUB_VALUES):
        kernel(src[start:start + _SUB_VALUES], dst[start:start + _SUB_VALUES], *args)
    return out[()]


def _erfc_tail(t: np.ndarray) -> np.ndarray:
    """Cephes ``erfc`` on ``t >= 1`` (inf included), overwriting `t`."""
    np.minimum(t, 27.0, out=t)  # 27**2 > _MAXLOG: keeps P/Q finite at inf
    t2 = t * t
    y = _horner(t, _ERFC_P)
    q = _horner(t, _ERFC_Q, monic=True)
    far = np.flatnonzero(t >= 8.0)
    if far.size:
        tf = t[far]
        y[far] = _horner(tf, _ERFC_R)
        q[far] = _horner(tf, _ERFC_S, monic=True)
    y *= np.exp(np.negative(t2, out=t), out=t)
    y /= q
    y[t2 > _MAXLOG] = 0.0
    return y


def _ndtr_into(a: np.ndarray, out: np.ndarray, fold: bool) -> None:
    """Cephes ``ndtr(a)`` into `out`, or with `fold` ``2 * ndtr(-|a|)``.

    With ``x = a / sqrt(2)``, ``ndtr`` is ``0.5 + 0.5 * erf(x)`` for
    ``|x| < 1``: Cephes' ``1 - erf`` branch of erfc on ``[1/sqrt(2), 1)``
    rounds to the same value. Beyond, it is ``0.5 * erfc(|x|)``, taken from
    1 where ``x > 0``. The central rational runs on every value, its
    argument clipped to [-1, 1] (to [0, 1] for the fold, which takes
    ``1 - erf(|x|)``), in `out` and two temporaries; erfc's only on the
    tail. `out` must not overlap `a`."""
    if fold:
        w = np.abs(a)
        w *= _SQRT1_2
    else:
        w = np.multiply(a, _SQRT1_2)
        np.maximum(w, -1.0, out=w)
    np.minimum(w, 1.0, out=w)
    w2 = w * w
    tail = np.flatnonzero(w2 == 1.0)  # |x| >= 1; NaN stays central
    erf = _horner(w2, _ERF_T, out=out)
    erf *= w
    erf /= _horner(w2, _ERF_U, monic=True, out=w)
    if fold:
        np.subtract(1.0, erf, out=erf)
    else:
        erf *= 0.5
        erf += 0.5
    if tail.size:
        x = a[tail] * _SQRT1_2
        half = _erfc_tail(np.abs(x))
        half *= 0.5
        if fold:  # 2 * ndtr(-|a|), not erfc: halving rounds a subnormal erfc
            half *= 2.0
        else:
            np.subtract(1.0, half, out=half, where=x > 0.0)
        out[tail] = half


def _ndtri_into(p: np.ndarray, out: np.ndarray) -> None:
    """Cephes ``ndtri`` into `out`: ``y = min(p, 1 - p)`` by its rule, the
    central rational in ``y - 1/2`` above exp(-2), the tails in
    ``sqrt(-2 log y)`` below (the near tail's rational below 8, the far
    tail's from 8). Each branch runs only on the values it serves."""
    y = np.clip(p, 0.0, 1.0)
    flip = y > 1.0 - _EXP_M2
    np.subtract(1.0, y, out=y, where=flip)
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    central = _horner(c2, _NDTRI_P0)
    central *= c2
    central /= _horner(c2, _NDTRI_Q0, monic=True)
    central *= c
    central += c
    central *= _SQRT_2PI
    out[mid] = central
    tail = np.flatnonzero(~mid)  # NaN takes the tail
    s = np.sqrt(-2.0 * np.log(np.maximum(y[tail], 5e-324)))
    tails = s - np.log(s) / s
    for part, num, den in ((s < 8.0, _NDTRI_P1, _NDTRI_Q1), (s >= 8.0, _NDTRI_P2, _NDTRI_Q2)):
        z = 1.0 / s[part]
        shift = _horner(z, num)
        shift *= z
        shift /= _horner(z, den, monic=True)
        tails[part] -= shift
    np.negative(tails, out=tails, where=~flip[tail])
    out[tail] = tails
    out[p == 0.0] = -np.inf
    out[p == 1.0] = np.inf
    out[(p < 0.0) | (p > 1.0)] = np.nan


def normal_cdf(x):
    """Standard normal CDF (max absolute error <= 1e-12): Cephes ``ndtr``."""
    return _by_sub_chunks(_ndtr_into, x, False)


def normal_quantile(p):
    """Standard normal quantile (max absolute error <= 1e-12): Cephes ``ndtri``."""
    return _by_sub_chunks(_ndtri_into, p)


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


# The relative window of a Gaussian cut on the level q that normal_cdf meets:
# 1e-10 covers the errors of the Cephes kernels above (a few ulps of the
# exact values, under 1e-12 relative down to q = 1e-308) and the spread of
# numpy's exp and log across versions and CPUs.
_CUT_REL = 1e-10


class _Spec:
    """A generator spec and its own p-value law. Its scores are z-scores
    unless `uniform` says they are uniforms, its p-values are `sided`
    (two-sided: ``2 * Phi(-|z|)``, or the fold ``2 * min(u, 1 - u)``), and
    it defines `n1` or `n`; its nulls are the first `n0` coordinates unless
    it defines `null_mask`. A p-value is the level of its key: uniforms key
    themselves and z-scores key as ``-z``, two-sided keys fold the score,
    and `level` maps a key to its p-value. `scores` must return a fresh
    matrix: `draw` and the FDP pass write the keys over it. With
    ``(lo, hi) = cuts(t)``, keys at or below `lo` pass ``p <= t`` and keys
    above `hi` fail it: uniforms have exact cuts, z-scores a widened
    ``ndtri``, and two-sided keys are cut at half the level."""

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
        """The p-values of raw scores: the level of their keys."""
        return self.level(self.keys(raw))

    def keys(self, raw: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The keys of raw scores: ``u`` or ``min(u, 1 - u)`` of uniforms,
        ``-z`` or ``-|z|`` of z-scores. Written into `out` when given (it may
        be `raw`); otherwise `raw` is left as it is."""
        if self.uniform:
            if self.sided == "one" and out is None:
                return raw
            keys = raw if out is raw else np.positive(raw, out=out)
            if self.sided == "two":  # min(u, 1 - u): 1 - u is the smaller above 1/2
                np.subtract(1.0, keys, out=keys, where=keys > 0.5)
            return keys
        if self.sided == "one":
            return np.negative(raw, out=out)
        keys = np.abs(raw, out=out)
        return np.negative(keys, out=keys)

    def level(self, keys: np.ndarray) -> np.ndarray:
        """The p-values of keys: a uniform key itself, a z-score key
        ``Phi(key)``, doubled when two-sided (``2 * Phi(-|key|)``)."""
        if not self.uniform:
            return _by_sub_chunks(_ndtr_into, keys, self.sided == "two")
        return keys if self.sided == "one" else 2.0 * keys

    def cuts(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = t if self.sided == "one" else t / 2
        if self.uniform:
            return q, q
        return (normal_quantile(q * (1.0 - _CUT_REL)),
                normal_quantile(np.minimum(q * (1.0 + _CUT_REL), 1.0)))

    def draw(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """`rows` studies as a ``(rows, n)`` p-value matrix: the level of the
        keys, which overwrite the fresh scores."""
        raw = self.scores(rng, rows)
        return self.level(self.keys(raw, out=raw))

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
    """`inner` with ``sided="two"``, rejecting an inner spec that is two-sided
    already. Kept for the benchmark harness; specs take ``sided="two"``."""
    if inner.sided == "two":
        raise ValueError("TwoSidedWrap folds one-sided p-values; its inner "
                         "generator is two-sided already")
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
