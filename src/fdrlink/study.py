"""Core value types: a p-value study and the outcome of a rejection procedure.

Both types are immutable after construction (frozen dataclasses over
read-only numpy arrays) and therefore safe to share across threads. The
one p-value vector rule, :func:`check_pvalues`, serves studies, the empirical
null-FDR curve, and the procedures' and adversaries' null inputs; the one
null-mask rule, :func:`check_null_mask`, serves studies and block specs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["PValueStudy", "RejectionOutcome"]


def is_int(value) -> bool:
    """A plain integer: ``2.5``, ``"3"`` and ``True`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number: ``True`` and ``"0.5"`` are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_count(name: str, value, low: int) -> int:
    """`value` once it is a plain integer of at least `low`: the one rule for
    counts, so that none is truncated or taken out of range."""
    if not (is_int(value) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_open_unit(name: str, x) -> float:
    """`x` as a float, once it is a real number strictly inside (0, 1)."""
    if not (is_real(x) and 0.0 < x < 1.0):
        raise ValueError(f"{name} must be a real number strictly inside (0, 1), got {x!r}")
    return float(x)


def check_pvalues(values, what: str = "p-values", positive: bool = False,
                  sort: bool = False) -> np.ndarray:
    """A read-only copy of `values` (sorted ascending with `sort`), once they
    form a non-empty 1-D vector in [0, 1], or in (0, 1] with `positive`."""
    arr = np.asarray(values, dtype=float)
    above = arr > 0.0 if positive else arr >= 0.0
    if arr.ndim != 1 or arr.size == 0 or not np.all(above & (arr <= 1.0)):  # NaN fails too
        raise ValueError(f"expected a non-empty vector of {what} in "
                         f"{'(0, 1]' if positive else '[0, 1]'}")
    arr = np.sort(arr) if sort else arr.copy()
    arr.setflags(write=False)
    return arr


def check_null_mask(mask, n: int, name: str = "null_mask") -> np.ndarray:
    """A read-only copy of `mask`, once it is a 1-D boolean vector of length
    `n`: the one rule for null masks, so that no ``1``, ``0.5`` or
    ``"False"`` is coerced to a bool."""
    arr = np.array(mask)
    if arr.dtype != bool or arr.shape != (n,):
        raise ValueError(f"{name} must be a 1-D boolean vector of length {n}, "
                         f"got dtype {arr.dtype} and shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PValueStudy:
    """A vector of p-values together with a mask marking the true nulls."""

    pvalues: np.ndarray
    null_mask: np.ndarray

    def __init__(self, pvalues, null_mask) -> None:
        pvalues = check_pvalues(pvalues)
        object.__setattr__(self, "pvalues", pvalues)
        object.__setattr__(self, "null_mask", check_null_mask(null_mask, pvalues.size))

    @classmethod
    def global_null(cls, pvalues) -> "PValueStudy":
        """Study in which every hypothesis is a true null."""
        arr = np.asarray(pvalues, dtype=float)
        return cls(arr, np.ones(arr.size, dtype=bool))

    @property
    def n(self) -> int:
        return int(self.pvalues.size)

    @property
    def n0(self) -> int:
        return int(np.count_nonzero(self.null_mask))

    @property
    def n1(self) -> int:
        return self.n - self.n0

    @property
    def pi0(self) -> float:
        return self.n0 / self.n

    @property
    def null_pvalues(self) -> np.ndarray:
        return self.pvalues[self.null_mask]

    @property
    def nonnull_pvalues(self) -> np.ndarray:
        return self.pvalues[~self.null_mask]


def _as_index(value, name: str) -> int:
    """`value` as an int: a Python or numpy integer, not a bool or a float."""
    if is_int(value) or isinstance(value, np.integer):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RejectionOutcome:
    """A rejection set with its counts and realized false discovery proportion.

    ``fdp`` is kept as an exact ratio of integers so that invariant tests can
    compare outcomes without any floating-point rounding; convert with
    ``float(outcome.fdp)`` for aggregation.
    """

    rejected: frozenset[int]
    n_rejected: int
    n_false: int
    fdp: Fraction

    def __init__(self, rejected: Iterable[int], n_false: int) -> None:
        from fractions import Fraction

        rejected_set = frozenset(_as_index(i, "a rejected index") for i in rejected)
        n_rejected = len(rejected_set)
        n_false = _as_index(n_false, "false rejection count")
        if n_false < 0 or n_false > n_rejected:
            raise ValueError("false rejection count must lie in [0, |rejected|]")
        object.__setattr__(self, "rejected", rejected_set)
        object.__setattr__(self, "n_rejected", n_rejected)
        object.__setattr__(self, "n_false", n_false)
        object.__setattr__(self, "fdp", Fraction(n_false, max(n_rejected, 1)))

    @classmethod
    def from_indices(cls, study: PValueStudy, indices: Iterable[int]) -> "RejectionOutcome":
        """Build an outcome for `study`, counting false rejections from its null mask."""
        idx = sorted({_as_index(i, "a rejected index") for i in indices})
        if idx and (idx[0] < 0 or idx[-1] >= study.n):
            raise ValueError("rejected indices out of range for the study")
        n_false = int(np.count_nonzero(study.null_mask[idx])) if idx else 0
        return cls(idx, n_false)

    @classmethod
    def empty(cls) -> "RejectionOutcome":
        return cls((), 0)
