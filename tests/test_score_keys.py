"""Exactness of the score-space FDP pass: a law's keys decide ``p <= t`` on
the side its cuts claim, keys inside a window go through the p-values, and
every spec's no-adversary FDPs equal those of the p-value path."""

from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy.special import ndtri

from fdrlink import (EquicorrelatedNormal, IidUniform, McConfig, McEstimate, PrdnGaussian,
                     PValueStudy, TwoSidedWrap, estimate_fdp_moment, estimate_fdx, fdp_values)
from fdrlink.dependence import PValueLaw
from fdrlink.mc import BLOCK_REPS, block_rng
from fdrlink.procedures import step_count

from _util import DRAW_SPECS, step_fdp_oracle

_GAUSSIAN_LAWS = {
    "one-sided": EquicorrelatedNormal(3).law,
    "two-sided": EquicorrelatedNormal(3, sided="two").law,
    "fold-of-one-sided": TwoSidedWrap(EquicorrelatedNormal(3)).law,
}


def _raws(law: PValueLaw, keys: np.ndarray) -> list[np.ndarray]:
    """The z-scores with these keys: ``-key``, and ``key`` too where the
    law keys ``-|z|``."""
    return [-keys] if law.sided == "one" else [-keys, keys]


def _thresholds() -> np.ndarray:
    """Levels ``alpha * j / n`` down to 1e-9, and a log grid besides."""
    levels = [np.geomspace(1e-9, 0.5, 400)]
    for alpha, n in ((0.01, 10_000_000), (0.05, 1100), (0.2, 37), (0.5, 10)):
        j = np.unique(np.geomspace(1, n, 300).round())
        levels.append(alpha * j / n)
    return np.unique(np.concatenate(levels))


@pytest.mark.parametrize("law", _GAUSSIAN_LAWS.values(), ids=_GAUSSIAN_LAWS.keys())
def test_gaussian_cuts_claim_the_right_side(law):
    t = _thresholds()
    lo, hi = law.cuts(t)
    assert np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi))
    passing = [lo]
    failing = [np.nextafter(hi, np.inf)]
    for _ in range(200):  # a band of ulps on each side of the window
        passing.append(np.nextafter(passing[-1], -np.inf))
        failing.append(np.nextafter(failing[-1], np.inf))
    for keys in passing:
        for raw in _raws(law, keys):
            assert np.all(law.keys(raw) == keys) and np.all(law.pvalues(raw) <= t)
    for keys in failing:
        for raw in _raws(law, keys):
            assert np.all(law.keys(raw) == keys) and np.all(law.pvalues(raw) > t)


@pytest.mark.parametrize("law", [IidUniform(3).law, TwoSidedWrap(IidUniform(3)).law,
                                 TwoSidedWrap(EquicorrelatedNormal(3, sided="two")).law],
                         ids=["uniform", "fold-of-uniform", "fold-of-two-sided"])
def test_exact_cuts_decide_every_key(law):
    t = _thresholds()
    lo, hi = law.cuts(t)
    assert lo is hi
    if law.score is None:  # no monotone key: the p-values key themselves
        raw = np.random.default_rng(5).standard_normal(4000)
        assert np.array_equal(law.keys(raw), law.pvalues(raw))
        return
    u = np.stack([t, t / 2, 1.0 - t / 2], axis=1)  # one row per threshold
    for shift in (-np.inf, np.inf):
        for _ in range(3):
            u = np.concatenate([u, np.nextafter(u, shift)], axis=1)
    u = np.clip(np.concatenate([u, np.zeros((len(t), 1)), np.ones((len(t), 1))], axis=1), 0, 1)
    assert np.array_equal(law.keys(u) <= lo[:, None], law.pvalues(u) <= t[:, None])


@dataclass(frozen=True)
class _FixedScores(EquicorrelatedNormal):
    """Every draw returns the rows of `z` in turn; the law records how many
    rows it maps to p-values."""

    z: tuple = ()
    mapped: list = field(default_factory=list, compare=False)

    @property
    def law(self) -> PValueLaw:
        base = super().law

        def pvalues(raw):
            self.mapped.append(len(raw))
            return base.pvalues(raw)

        return PValueLaw(pvalues, base.score, base.sided)

    def scores(self, rng, rows):
        z = np.array(self.z)
        return np.resize(z, (rows, z.shape[1])), np.arange(self.n) < self.n0


def _window_rows(cut, n: int, alpha: float) -> list[list[float]]:
    """Key rows with a key exactly at an unwidened cut ``cut(alpha * j / n)``:
    at a position whose test does not set R (step-up), at the cut at R,
    and at the cut at R for the non-null position."""
    t = alpha * np.arange(1.0, n + 1) / n
    low, high = -6.0, 0.0  # a key of 0 fails: p = 1/2 one-sided, 1 two-sided
    return [
        [low, cut(t[1]), cut(t[2]) - 0.01, cut(t[2]) - 0.01] + [high] * (n - 4),
        [low, low, cut(t[2])] + [high] * (n - 3),
        [high] * (n - 1) + [cut(t[0])],
    ]


@pytest.mark.parametrize("sided, fold", [("one", False), ("two", False), ("one", True)])
@pytest.mark.parametrize("proc", ["step_up", "step_down"])
def test_keys_inside_a_window_take_the_pvalue_path(sided, fold, proc):
    n, alpha = 10, 0.3
    cut = ndtri if sided == "one" and not fold else (lambda t: ndtri(t / 2))
    keys = np.array(_window_rows(cut, n, alpha))
    z = np.concatenate([-keys, keys]) if sided == "two" or fold else -keys
    inner = _FixedScores(7, 3, sided=sided, z=tuple(map(tuple, z)))
    spec = TwoSidedWrap(inner) if fold else inner
    values = fdp_values(spec, None, proc, alpha, McConfig(len(z), 4))
    assert sum(inner.mapped) == len(z)  # every row went through the p-values
    p = spec.law.pvalues(z)
    mask = np.arange(n) < inner.n0
    assert values.tolist() == [float(step_fdp_oracle(PValueStudy(row, mask), alpha, proc))
                               for row in p]


def _pvalue_path(spec, proc: str, alpha: float, cfg: McConfig) -> np.ndarray:
    """Per-replication FDPs the way the p-values give them: each block's
    rows drawn at once, sorted, counted with step_count."""
    values = []
    for block in range(-(-cfg.reps // BLOCK_REPS)):
        count = min(BLOCK_REPS, cfg.reps - block * BLOCK_REPS)
        p, mask = spec.draw(block_rng(cfg.master_seed, block), count)
        r = step_count(np.sort(p, axis=1), spec.n, alpha, proc)
        false = np.count_nonzero(p[:, mask] <= (alpha * r / spec.n)[:, None], axis=1)
        values.append(false / np.maximum(r, 1))
    return np.concatenate(values)


_SPECS = {
    **DRAW_SPECS,
    "prdn-two-sided": PrdnGaussian(np.array([[1.0, 0.5], [0.5, 1.0]]), (0,),
                                   np.array([0.0, 1.5]), "two"),
    "fold-of-uniform": TwoSidedWrap(IidUniform(6, 4)),
    "fold-of-two-sided": TwoSidedWrap(EquicorrelatedNormal(6, 3, 0.2, "two")),
    "equi-wide": EquicorrelatedNormal(300, 500, 0.5),
}


@pytest.mark.parametrize("spec", _SPECS.values(), ids=_SPECS.keys())
def test_every_spec_matches_the_pvalue_path(spec):
    cfg = McConfig(600, 23)
    for alpha in (0.01, 0.05, 0.2, 0.5):
        for proc in ("step_up", "step_down"):
            reference = _pvalue_path(spec, proc, alpha, cfg)
            values = fdp_values(spec, None, proc, alpha, cfg)
            assert values.tobytes() == reference.tobytes()
            assert estimate_fdx(spec, None, proc, alpha, 0.2, cfg) == \
                McEstimate.from_values((reference >= 0.2).astype(float), cfg)
            assert estimate_fdp_moment(spec, None, proc, alpha, 2, cfg) == \
                McEstimate.from_values(reference ** 2, cfg)
