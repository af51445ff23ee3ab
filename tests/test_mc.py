"""Tests for the Monte Carlo engine: reproducibility, fast-path consistency,
and the envelope properties of the estimates."""

import concurrent.futures
import math
import multiprocessing.process
import os
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from fdrlink import (
    BlockDependent,
    BonferroniMaskedAdversary,
    EquicorrelatedNormal,
    FixedZerosAdversary,
    IidUniform,
    InformedAdversary,
    McConfig,
    MostAntiConservativeAdversary,
    McEstimate,
    PrdnGaussian,
    PValueStudy,
    bh_step_down,
    bh_step_up,
    complete_study,
    derive_seed,
    estimate_fdp_moment,
    estimate_fdr,
    estimate_fdr0_curve,
    estimate_fdx,
    estimate_worst_fdr_limit,
    fdp_upper_bound,
    fdp_values,
    fdx_bound,
    masked_zero_count,
    normal_cdf,
    prdn_bound_pi0,
    restrict_to_nulls,
    sample,
    sample_null_pvalues,
    verify_linking,
)
import fdrlink.mc as mc
from fdrlink.adversaries import MASKED_STRATEGIES, anchor_choice
from fdrlink.mc import BLOCK_REPS, block_rng
from fdrlink.procedures import step_count

from _util import (
    DRAW_SPECS,
    KS_COEFF_1PCT,
    anchor_oracle,
    completed_fdp_oracle,
    ks_distance_uniform,
    limit_bracket,
    limit_oracle,
    limit_ratios,
    planted_zeros_oracle,
    step_fdp_oracle,
)


def _replication_rngs(master_seed: int, reps: int):
    """The generator of each replication, in replication order, under the
    seeding contract: a block's replications draw one after another from
    its generator, so each must be drawn before the next is asked for."""
    for block in range(-(-reps // BLOCK_REPS)):
        rng = block_rng(master_seed, block)
        for _ in range(min(BLOCK_REPS, reps - block * BLOCK_REPS)):
            yield rng


class TestSeeding:
    def test_derive_seed_is_stable(self):
        # Frozen values: the mixing function is part of the contract (these
        # are the first two outputs of the reference SplitMix64 sequence
        # seeded with zero).
        assert derive_seed(0, 0) == 16294208416658607535
        assert derive_seed(0, 1) == 7960286522194355700
        assert derive_seed(12345, 7) == derive_seed(12345, 7)
        assert derive_seed(12345, 7) != derive_seed(12345, 8)
        assert derive_seed(12345, 7) != derive_seed(12346, 7)

    def test_bit_identical_reruns(self):
        cfg = McConfig(reps=500, master_seed=99)
        a = estimate_fdr(IidUniform(20, 0), None, "step_up", 0.1, cfg)
        b = estimate_fdr(IidUniform(20, 0), None, "step_up", 0.1, cfg)
        assert a == b

    def test_worker_count_does_not_change_results(self):
        # Three blocks, one per lane: 300 nulls a row span two row chunks.
        reps = 2 * BLOCK_REPS + 3
        serial = McConfig(reps=reps, master_seed=5, workers=1)
        parallel = McConfig(reps=reps, master_seed=5, workers=3)
        gen = IidUniform(300, 30)
        adv = InformedAdversary()
        assert np.array_equal(fdp_values(gen, adv, "step_up", 0.1, serial),
                              fdp_values(gen, adv, "step_up", 0.1, parallel))
        a = estimate_fdr(gen, adv, "step_up", 0.1, serial)
        b = estimate_fdr(gen, adv, "step_up", 0.1, parallel)
        assert a.mean == b.mean and a.stderr == b.stderr

    @pytest.mark.parametrize("gen,adv", [
        (EquicorrelatedNormal(30, 60, 0.3), InformedAdversary()),
        # 2040 values a row: a block is drawn in row chunks of 32.
        (EquicorrelatedNormal(40, 2000, 0.2, mu_alt=3.0), None),
    ], ids=["equi-informed", "equi-none-chunked"])
    def test_prefix(self, gen, adv):
        reps = 100
        short = fdp_values(gen, adv, "step_up", 0.1, McConfig(reps, 3))
        longer = fdp_values(gen, adv, "step_up", 0.1, McConfig(reps + BLOCK_REPS + 7, 3))
        assert np.array_equal(short, longer[:reps])

    def test_row_chunks_change_no_value(self, monkeypatch):
        cfg = McConfig(BLOCK_REPS + 50, 3)
        for gen, adv in ((EquicorrelatedNormal(40, 2000, 0.2, mu_alt=3.0), None),
                         (IidUniform(3000, 100), InformedAdversary())):
            # 2040 and 3000 values a row: chunks of 32 and 21 rows.
            chunked = fdp_values(gen, adv, "step_up", 0.1, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(mc, "_CHUNK_VALUES", 1 << 30)
                assert np.array_equal(chunked, fdp_values(gen, adv, "step_up", 0.1, cfg))

    def test_reps_one_degenerate_stderr(self):
        est = estimate_fdr(IidUniform(5, 0), None, "step_up", 0.2, McConfig(1, 3))
        assert est.stderr == 0.0 and est.stderr_degenerate
        assert not McEstimate(0.5, 0.1, 2, 3).stderr_degenerate

    def test_stderr_sums_python_float_squares(self):
        # A 0/1 vector (the shape of FDX values) on which numpy's d * d and
        # Python's (v - mean) ** 2 round differently, so the square used
        # shows in the stderr bits.
        values = np.random.default_rng(5).permutation(np.repeat([1.0, 0.0], [834, 759]))
        items = values.tolist()
        mean = math.fsum(items) / len(items)

        def stderr(squares):
            return math.sqrt(math.fsum(squares) / (len(items) - 1) / len(items))

        reference = stderr((v - mean) ** 2 for v in items)
        assert stderr(((values - mean) * (values - mean)).tolist()) != reference
        assert McEstimate.from_values(values, McConfig(len(items), 5)).stderr == reference

    def test_config_validation(self):
        for reps in (0, -1, 2.5, True, "3", None):
            with pytest.raises(ValueError, match="reps"):
                McConfig(reps=reps)
        for workers in (0, -3, 1.5, True, "2"):
            with pytest.raises(ValueError, match="workers"):
                McConfig(reps=10, workers=workers)
        assert McConfig(10, workers=None).workers is None
        for seed in (1.5, True, "3"):
            with pytest.raises(ValueError, match="master_seed"):
                McConfig(300, seed)


# Three blocks, the last one partial.
_LANE_REPS = 2 * BLOCK_REPS + 37
_LANE_GAUSS = EquicorrelatedNormal(300, 30, 0.5)


def _lane_values(kind, cfg):
    if kind == "none-wide":  # 330 values a row
        return fdp_values(IidUniform(300, 30), None, "step_up", 0.1, cfg)
    if kind == "informed-300":
        return fdp_values(IidUniform(300, 30), InformedAdversary(), "step_up", 0.1, cfg)
    if kind == "simes-300":
        return estimate_fdr0_curve(IidUniform(300, 0), cfg).knots
    # Gaussian rows run the normal CDF kernel on both lanes at once.
    if kind == "informed-gauss":
        return fdp_values(_LANE_GAUSS, InformedAdversary(), "step_up", 0.1, cfg)
    if kind == "simes-gauss":
        return estimate_fdr0_curve(restrict_to_nulls(_LANE_GAUSS), cfg).knots
    est = estimate_worst_fdr_limit(0.05, cfg)
    return np.array([est.mean, est.stderr])


class TestLanes:
    """A run splits the blocks over at most ``workers`` threads (None: one per
    available CPU), where a block spans more than one row chunk."""

    @pytest.fixture
    def counting_threads(self, monkeypatch):
        started = []

        class CountingThreads(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        # mc imports the pool class from here when a run starts lanes.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingThreads)
        return started

    @pytest.mark.parametrize("kind", ["none-wide", "informed-300", "simes-300", "limit",
                                      "informed-gauss", "simes-gauss"])
    def test_lanes_change_no_value(self, counting_threads, kind):
        lanes = _lane_values(kind, McConfig(_LANE_REPS, 13))
        assert counting_threads == [2]  # this thread and two more
        assert np.array_equal(lanes, _lane_values(kind, McConfig(_LANE_REPS, 13, workers=1)))
        assert np.array_equal(lanes, _lane_values(kind, McConfig(_LANE_REPS, 13, workers=3)))
        assert counting_threads == [2, 2]  # workers=3 runs three lanes too

    def test_no_lane_where_it_does_not_pay(self, counting_threads, monkeypatch):
        processes = []
        monkeypatch.setattr(mc, "ProcessPoolExecutor",
                            lambda *args, **kwargs: processes.append(kwargs))
        narrow = IidUniform(100, 0)  # 100 values a row: one chunk holds a block
        fdp_values(narrow, InformedAdversary(), "step_up", 0.1, McConfig(_LANE_REPS, 1))
        fdp_values(narrow, None, "step_up", 0.1, McConfig(_LANE_REPS, 1))
        _lane_values("none-wide", McConfig(BLOCK_REPS, 1))
        _lane_values("limit", McConfig(BLOCK_REPS, 1))
        _lane_values("none-wide", McConfig(_LANE_REPS, 1, workers=1))
        assert counting_threads == [] and processes == []
        _lane_values("none-wide", McConfig(_LANE_REPS, 1))
        assert counting_threads == [2] and processes == []

    def test_workers_cap_the_lanes(self, counting_threads, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a run started a process")

        monkeypatch.setattr(mc, "ProcessPoolExecutor", no_process)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        for workers in (1, 2, 3, 4):  # three blocks
            _lane_values("none-wide", McConfig(_LANE_REPS, 1, workers=workers))
        _lane_values("none-wide", McConfig(BLOCK_REPS, 1, workers=4))  # one block
        assert counting_threads == [1, 2, 2]  # min(workers, blocks) - 1 besides this one

    def test_lanes_follow_the_available_cpus(self, counting_threads, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        _lane_values("none-wide", McConfig(_LANE_REPS, 1))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        _lane_values("none-wide", McConfig(_LANE_REPS, 1))
        assert counting_threads == [2]  # capped at the three blocks


@pytest.mark.parametrize("spec", DRAW_SPECS.values(), ids=DRAW_SPECS.keys())
def test_row_draws_are_successive_one_row_draws(spec):
    rows = 9
    for draw in (spec.draw, spec.scores):
        matrix = draw(np.random.default_rng(3), rows)
        assert type(matrix) is np.ndarray and matrix.shape == (rows, spec.n)
    p = spec.draw(np.random.default_rng(3), rows)
    rng = np.random.default_rng(3)
    assert np.array_equal(p, np.vstack([spec.draw(rng, 1) for _ in range(rows)]))
    null_spec = restrict_to_nulls(spec)
    nulls = null_spec.draw(np.random.default_rng(4), rows)
    rng = np.random.default_rng(4)
    assert nulls.shape == (rows, spec.n0)
    assert np.array_equal(nulls, np.vstack([null_spec.draw(rng, 1) for _ in range(rows)]))
    # Which coordinates are nulls is the spec's, not a draw's.
    mask = spec.null_mask.copy()
    assert mask.dtype == bool and mask.shape == (spec.n,)
    assert np.count_nonzero(mask) == spec.n0
    assert all(np.array_equal(mask, sample(spec, seed).null_mask) for seed in range(3))
    assert restrict_to_nulls(spec).null_mask.all()
    try:  # a spec hands out a fresh mask or a read-only one
        spec.null_mask[:] = ~mask
    except ValueError:
        pass
    assert np.array_equal(spec.null_mask, mask)


@pytest.mark.parametrize("spec", [
    *DRAW_SPECS.values(),
    BlockDependent((3,) * 13 + (1,), "equicorrelated", 0.5, np.arange(40) < 10, sided="two"),
], ids=[*DRAW_SPECS, "block-equi-mixed-two"])
def test_fdp_pass_and_simes_pass_read_the_same_nulls(spec):
    # With no planted zeros and every non-null at 1, step-up BH rejects only
    # nulls, and it rejects exactly when the nulls' Simes value is at most
    # alpha * n0 / n: one FDP of 1 per curve knot at or below that level.
    alpha, cfg = 0.3, McConfig(600, 11)
    fdp = fdp_values(spec, FixedZerosAdversary(0), "step_up", alpha, cfg)
    curve = estimate_fdr0_curve(restrict_to_nulls(spec), cfg)
    assert fdp.sum() == np.count_nonzero(curve.knots <= alpha * spec.n0 / spec.n)


def _single_draw_reference(spec, rng) -> np.ndarray:
    """One study as a single draw has always made it: the nulls' normals
    drawn and transformed on their own, then the non-nulls'. The subject is
    the draw, so Phi is the package's own."""
    if isinstance(spec, IidUniform):
        return rng.random(spec.n)
    if isinstance(spec, PrdnGaussian):
        return normal_cdf(-(spec.mu + spec._sqrt @ rng.standard_normal(spec.n)))
    z0 = rng.standard_normal(spec.n0)
    if spec.rho != 0.0:
        a, b = math.sqrt(1.0 - spec.rho), math.sqrt(1.0 + (spec.n0 - 1) * spec.rho)
        z0 = a * z0 + (b - a) * z0.mean()
    z = np.concatenate([z0, spec.mu_alt + rng.standard_normal(spec.n1)])
    return normal_cdf(-z) if spec.sided == "one" else 2.0 * normal_cdf(-np.abs(z))


@pytest.mark.parametrize("label", ["iid", "equi-nonnull", "equi-two-sided", "prdn"])
def test_one_row_draw_is_the_single_draw(label):
    # Block draws are checked against a per-block loop in test_dependence.
    spec = DRAW_SPECS[label]
    for seed in range(5):
        p = spec.draw(np.random.default_rng(seed), 1)[0]
        assert np.array_equal(p, _single_draw_reference(spec, np.random.default_rng(seed)))


class TestFastPathConsistency:
    """Per-replication FDPs agree exactly with oracles that share no code
    with the engine: the exact rank loop and brute-force step scans."""

    @pytest.mark.parametrize("proc,reference", [
        ("step_up", bh_step_up),
        ("step_down", bh_step_down),
    ])
    @pytest.mark.parametrize("adv", [
        InformedAdversary(),
        MostAntiConservativeAdversary(),
        BonferroniMaskedAdversary("plug_in_second"),
        BonferroniMaskedAdversary("shifted_argmax"),
        FixedZerosAdversary(3),
    ])
    def test_completed_fdp_matches_reference(self, proc, reference, adv):
        gen = EquicorrelatedNormal(8, 20, 0.3)
        alpha = 0.15
        values = fdp_values(gen, adv, proc, alpha, McConfig(120, 777))
        rows = []
        for fast, rng in zip(values, _replication_rngs(777, 120)):
            nulls = np.sort(sample_null_pvalues(gen, rng))
            rows.append(nulls)
            expected = completed_fdp_oracle(adv, nulls.tolist(), gen.n1, gen.n, alpha, proc)
            completed = complete_study(nulls, gen.n1, gen.n, alpha, adv)
            assert fast == float(expected) and reference(completed.study, alpha).fdp == expected
        # `plant` on all rows at once: one int64 zero count per row.
        zeros = adv.plant(np.array(rows), gen.n1, gen.n, alpha)
        assert zeros.dtype == np.int64 and zeros.shape == (len(rows),)
        assert 0 <= zeros.min() and zeros.max() <= gen.n1
        assert zeros.tolist() == [planted_zeros_oracle(adv, row.tolist(), gen.n1, gen.n, alpha)
                                  for row in rows]
        if isinstance(adv, BonferroniMaskedAdversary):
            assert zeros.tolist() == [masked_zero_count(row[1:], gen.n, gen.n1, alpha, adv.strategy)
                                      for row in rows]

    def test_most_anti_proc_matches_reference(self):
        gen = IidUniform(10, 25)
        alpha = 0.2
        values = fdp_values(gen, InformedAdversary(), "most_anti_conservative", alpha,
                            McConfig(150, 42))
        for fast, rng in zip(values, _replication_rngs(42, 150)):
            nulls = np.sort(sample_null_pvalues(gen, rng))
            rank, c = anchor_oracle(nulls.tolist(), gen.n, alpha, gen.n1)
            assert fast == (float(min(Fraction(rank, c), 1)) if rank else 0.0)

    def test_generic_path_matches_reference(self):
        gen = EquicorrelatedNormal(10, 5, 0.2, mu_alt=1.5)
        for proc in ("step_up", "step_down"):
            values = fdp_values(gen, None, proc, 0.25, McConfig(100, 9))
            for fast, rng in zip(values, _replication_rngs(9, 100)):
                study = PValueStudy(gen.draw(rng, 1)[0], gen.null_mask)
                assert fast == float(step_fdp_oracle(study, 0.25, proc))

    def test_most_anti_needs_matching_adversary(self):
        with pytest.raises(ValueError):
            estimate_fdr(IidUniform(5, 5), FixedZerosAdversary(0),
                         "most_anti_conservative", 0.1, McConfig(2, 0))
        with pytest.raises(ValueError):
            estimate_fdr(IidUniform(5, 5), None, "nope", 0.1, McConfig(2, 0))


@pytest.mark.parametrize("gen", [
    EquicorrelatedNormal(100, 1000, 0.5),
    EquicorrelatedNormal(100, 1000, 0.5, sided="two"),
    IidUniform(100, 1000),
], ids=["equi-one-sided", "equi-two-sided", "iid"])
def test_a_no_adversary_row_chunk_holds_one_score_matrix(gen):
    # The keys overwrite the scores and are sorted in place: beside the score
    # matrix a chunk holds its null keys and a few boolean matrices.
    alpha, rows = 0.05, mc._CHUNK_VALUES // gen.n
    task = mc._FdpTask(gen, None, "step_up", alpha, None,
                       gen.cuts(alpha * np.arange(gen.n + 1.0) / gen.n))
    rng = block_rng(3, 0)
    task.rows(rng, rows)  # warm-up
    tracemalloc.start()
    try:
        task.rows(rng, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * rows * gen.n * 8


@dataclass(frozen=True)
class _FixedNulls(IidUniform):
    """Generator stub whose draws return the rows of `nulls` in turn (one
    row, or a tuple of rows), and ones for the non-nulls."""

    nulls: tuple = ()

    def draw(self, rng, rows) -> np.ndarray:
        p = np.resize(np.array(self.nulls, ndmin=2), (rows, self.n0))
        return np.hstack([p, np.ones((rows, self.n1))])


def _plant_and_count(adv, nulls_sorted: np.ndarray, n1: int, n: int, alpha: float) -> np.ndarray:
    """Step-up FDP per row the long way: the adversary's zeros, then the count."""
    zeros = adv.plant(nulls_sorted, n1, n, alpha)
    r = step_count(nulls_sorted, n, alpha, "step_up", offset=zeros)
    return (r - zeros) / np.maximum(r, 1)


def _crafted_rows(n0: int, n: int, alpha: float, rng, rows: int = 200) -> np.ndarray:
    """Ascending null rows mixing zeros, levels ``alpha * c / n`` with the
    floats either side of them, and uniforms; a quarter are one value tied."""
    at = rng.choice(alpha * np.arange(1.0, n + 1) / n, (rows, n0))
    kinds = [np.zeros_like(at), at, np.nextafter(at, 0.0), np.nextafter(at, 1.0),
             rng.random((rows, n0))]
    p = np.choose(rng.integers(len(kinds), size=(rows, n0)), kinds)
    p[: rows // 4] = p[: rows // 4, :1]
    return np.sort(p, axis=1)


_ANCHOR_SOURCES = {**DRAW_SPECS, "iid-clipping": IidUniform(30, 1), "crafted": None}


@pytest.mark.parametrize("source", _ANCHOR_SOURCES.keys())
def test_step_up_fdp_is_the_anchor_ratio(source):
    """Step-up FDPs against every anchored adversary (informed,
    most-anti-conservative, and both Bonferroni-masked strategies), which
    the engine takes from the anchor ratio, equal planting the zeros and
    counting, bit for bit, clipped rows included."""
    spec = _ANCHOR_SOURCES[source]
    advs = (InformedAdversary(), MostAntiConservativeAdversary(),
            *map(BonferroniMaskedAdversary, MASKED_STRATEGIES))
    rng = np.random.default_rng(11)
    clipped = 0
    for n1 in (0, 1, 3, 400):
        for alpha in (0.01, 0.05, 0.2, 0.5):
            if spec is None:
                rows = _crafted_rows(8, 8 + n1, alpha, rng)
            else:
                rows = np.sort(restrict_to_nulls(spec).draw(rng, 200), axis=1)
            gen = _FixedNulls(rows.shape[1], n1, nulls=tuple(map(tuple, rows)))
            for adv in advs:
                values = fdp_values(gen, adv, "step_up", alpha, McConfig(len(rows), 0))
                assert values.tobytes() == _plant_and_count(adv, rows, n1, gen.n, alpha).tobytes()
            rank, ceiling = anchor_choice(rows, gen.n, alpha)
            clipped += np.count_nonzero(ceiling - rank > n1)
    assert clipped > 0
    if spec is None:
        return
    cfg = McConfig(600, 5)  # the spec itself, over three blocks
    for alpha in (0.05, 0.2):
        for adv in advs:
            expected = []
            for block in range(-(-cfg.reps // BLOCK_REPS)):
                count = min(BLOCK_REPS, cfg.reps - block * BLOCK_REPS)
                rows = restrict_to_nulls(spec).draw(block_rng(cfg.master_seed, block), count)
                expected.append(_plant_and_count(adv, np.sort(rows, axis=1), spec.n1, spec.n,
                                                 alpha))
            values = fdp_values(spec, adv, "step_up", alpha, cfg)
            assert values.tobytes() == np.concatenate(expected).tobytes()


@pytest.mark.filterwarnings("error")
class TestZeroNulls:
    """rng.random() can return 0.0: a zero null has FDP ceiling 1."""

    def test_kernel_floors_ceilings_at_one(self):
        def one(nulls, **kwargs):
            ranks, ceilings = anchor_choice(np.array([nulls]), 10, 0.1, **kwargs)
            return int(ranks[0]), int(ceilings[0])

        assert one([0.0, 0.0, 0.5]) == (2, 1)
        assert one([0.0, 0.0, 0.5], n1=7) == (2, 1)
        assert one([0.0, 0.5], first_rank=2) == (2, 1)

    @pytest.mark.parametrize("nulls", [(0.0, 0.5, 0.7), (0.0, 0.0, 0.5)])
    def test_one_replication(self, nulls):
        gen, alpha, cfg = _FixedNulls(len(nulls), 7, nulls=nulls), 0.1, McConfig(1, 0)
        # The informed construction realizes the ceiling of 1 ...
        assert fdp_values(gen, InformedAdversary(), "step_up", alpha, cfg).tolist() == [1.0]
        assert fdp_values(gen, InformedAdversary(), "most_anti_conservative", alpha,
                          cfg).tolist() == [1.0]
        # ... and the masked ones, blind to the smallest null, match the oracle.
        for strategy, proc in (("plug_in_second", "step_down"), ("shifted_argmax", "step_up")):
            adv = BonferroniMaskedAdversary(strategy)
            expected = completed_fdp_oracle(adv, nulls, gen.n1, gen.n, alpha, proc)
            assert fdp_values(gen, adv, proc, alpha, cfg).tolist() == [float(expected)]


class TestFdrEstimates:
    def test_global_null_iid_matches_alpha(self):
        # Under the global null the FDP is the indicator of any rejection,
        # whose mean is exactly alpha for independent uniforms.
        cfg = McConfig(reps=40_000, master_seed=11)
        est = estimate_fdr(IidUniform(40, 0), None, "step_up", 0.1, cfg)
        assert abs(est.mean - 0.1) <= 3.0 * est.stderr

    def test_all_ones_nonnulls_match_scaled_global_null(self):
        # Fixing every non-null to one reduces the step-up run to the nulls
        # at the proportionally scaled level.
        n0, n1, alpha = 50, 150, 0.2
        cfg = McConfig(reps=30_000, master_seed=13)
        lhs = estimate_fdr(IidUniform(n0, n1), FixedZerosAdversary(0), "step_up", alpha, cfg)
        rhs = estimate_fdr(IidUniform(n0, 0), None, "step_up", alpha * n0 / (n0 + n1),
                           McConfig(reps=30_000, master_seed=14))
        tol = 3.0 * math.hypot(lhs.stderr, rhs.stderr)
        assert abs(lhs.mean - rhs.mean) <= tol

    def test_prdn_envelope_across_adversaries(self):
        cfg = McConfig(reps=8_000, master_seed=17)
        gens = [IidUniform(30, 120), EquicorrelatedNormal(30, 120, 0.4)]
        adversaries = [InformedAdversary(), MostAntiConservativeAdversary(),
                       BonferroniMaskedAdversary("shifted_argmax"), FixedZerosAdversary(0)]
        for gen in gens:
            pi0 = gen.n0 / gen.n
            for adv in adversaries:
                for alpha in (0.05, 0.2):
                    est = estimate_fdr(gen, adv, "step_up", alpha, cfg)
                    assert est.mean <= prdn_bound_pi0(pi0, alpha) + 3.0 * est.stderr

    def test_fdp_bound_sandwich_per_replication(self):
        gen = IidUniform(25, 100)
        alpha = 0.15
        for adv in (InformedAdversary(), BonferroniMaskedAdversary("plug_in_second")):
            values = fdp_values(gen, adv, "step_up", alpha, McConfig(200, 23))
            for fdp, rng in zip(values, _replication_rngs(23, 200)):
                nulls = sample_null_pvalues(gen, rng)
                assert fdp <= float(fdp_upper_bound(nulls, gen.n, alpha)) + 1e-15

    def test_masked_envelope(self):
        cfg = McConfig(reps=10_000, master_seed=19)
        gen = IidUniform(40, 400)
        for strategy in ("plug_in_second", "shifted_argmax"):
            for proc in ("step_up", "step_down"):
                est = estimate_fdr(gen, BonferroniMaskedAdversary(strategy), proc, 0.1, cfg)
                assert est.mean <= 3.5 * 0.1 + 3.0 * est.stderr


class TestMaskedIdentities:
    """Moments of the sorted-null statistics behind the masked bound."""

    def test_second_order_statistic_identity(self):
        # E[alpha / (n p_(2))] equals pi0 * alpha for iid uniform nulls.
        rng = np.random.default_rng(29)
        n0, n1, alpha, reps = 50, 500, 0.1, 60_000
        n = n0 + n1
        p2 = np.sort(rng.random((reps, n0)), axis=1)[:, 1]
        values = alpha / (n * p2)
        mean = values.mean()
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(mean - n0 / n * alpha) <= 3.0 * se

    def test_tail_maximum_constant(self):
        # E[max_{j>=2} alpha j / (n p_(j))] stays below 2.5 * pi0 * alpha.
        rng = np.random.default_rng(31)
        n0, n1, alpha, reps = 50, 500, 0.1, 60_000
        n = n0 + n1
        sorted_p = np.sort(rng.random((reps, n0)), axis=1)
        ranks = np.arange(2, n0 + 1)
        values = np.max(alpha * ranks / (n * sorted_p[:, 1:]), axis=1)
        mean = values.mean()
        se = values.std(ddof=1) / math.sqrt(reps)
        assert mean <= 2.5 * (n0 / n) * alpha + 3.0 * se


class TestFdx:
    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            estimate_fdx(IidUniform(5, 0), None, "step_up", 0.1, 1.5, McConfig(2, 0))
        with pytest.raises(ValueError, match="gamma must be a real number"):
            estimate_fdx(IidUniform(5, 0), None, "step_up", 0.1, "0.5", McConfig(2, 0))
        with pytest.raises(ValueError, match="alpha must be a real number"):
            estimate_fdx(IidUniform(5, 0), None, "step_up", "0.1", 0.5, McConfig(2, 0))

    def test_bounded_by_fdx_envelope(self):
        cfg = McConfig(reps=10_000, master_seed=37)
        gen = EquicorrelatedNormal(30, 120, 0.3)
        pi0 = gen.n0 / gen.n
        for gamma in (0.1, 0.25, 0.5):
            est = estimate_fdx(gen, InformedAdversary(), "step_up", 0.1, gamma, cfg)
            assert est.mean <= fdx_bound(pi0, 0.1, gamma) + 3.0 * est.stderr

    def test_structurally_impossible_exceedance_is_zero(self):
        # Planting every non-null at zero caps the FDP at n0/(n0+zeros).
        gen = IidUniform(1, 20)
        est = estimate_fdx(gen, FixedZerosAdversary(20), "step_up", 0.3, 0.5,
                           McConfig(reps=2_000, master_seed=41))
        assert est.mean == 0.0


class TestMoments:
    def test_first_moment_reproduces_fdr_bitwise(self):
        cfg = McConfig(reps=3_000, master_seed=43)
        gen = IidUniform(20, 60)
        adv = InformedAdversary()
        assert estimate_fdp_moment(gen, adv, "step_up", 0.1, 1, cfg) == \
            estimate_fdr(gen, adv, "step_up", 0.1, cfg)

    def test_jensen_direction(self):
        cfg = McConfig(reps=20_000, master_seed=47)
        gen = IidUniform(20, 60)
        adv = InformedAdversary()
        first = estimate_fdp_moment(gen, adv, "step_up", 0.1, 1, cfg)
        second = estimate_fdp_moment(gen, adv, "step_up", 0.1, 2, cfg)
        assert second.mean >= first.mean ** 2 - 3.0 * second.stderr

    def test_zero_one_fdp_makes_all_moments_equal(self):
        # Under the global null the FDP is an indicator, so every moment
        # coincides with the first.
        cfg = McConfig(reps=5_000, master_seed=53)
        gen = IidUniform(25, 0)
        base = estimate_fdp_moment(gen, None, "step_up", 0.15, 1, cfg)
        for k in (2, 3, 5):
            est = estimate_fdp_moment(gen, None, "step_up", 0.15, k, cfg)
            assert est.mean == base.mean

    def test_moment_order_validated(self):
        with pytest.raises(ValueError):
            estimate_fdp_moment(IidUniform(5, 0), None, "step_up", 0.1, 0, McConfig(2, 0))

    @pytest.mark.parametrize("k", [2.5, True, "2"])
    def test_moment_order_must_be_a_plain_integer(self, k):
        # Neither truncated (2.5 -> 2) nor read as a number (True -> 1).
        with pytest.raises(ValueError, match="moment order"):
            estimate_fdp_moment(IidUniform(5, 0), None, "step_up", 0.1, k, McConfig(2, 0))


class TestFdr0Curve:
    def test_requires_null_only_generator(self):
        with pytest.raises(ValueError):
            estimate_fdr0_curve(IidUniform(5, 5), McConfig(10, 0))

    def test_iid_curve_in_ks_band(self):
        curve = estimate_fdr0_curve(IidUniform(25, 0), McConfig(20_000, 59))
        assert ks_distance_uniform(curve.knots) <= KS_COEFF_1PCT / math.sqrt(20_000)

    def test_identical_block_curve_in_ks_band(self):
        curve = estimate_fdr0_curve(BlockDependent((30,)), McConfig(20_000, 61))
        assert ks_distance_uniform(curve.knots) <= KS_COEFF_1PCT / math.sqrt(20_000)

    def test_single_null_curve_in_ks_band(self):
        curve = estimate_fdr0_curve(IidUniform(1, 0), McConfig(20_000, 67))
        assert ks_distance_uniform(curve.knots) <= KS_COEFF_1PCT / math.sqrt(20_000)


# The levels the limit constant is estimated at: E2's (pi0 = 1/11 times 0.2,
# 0.1, 0.05), C3's and the benchmark's (1/11 times 0.1, 0.05, 0.01), and 0.5.
LIMIT_LEVELS = (0.5, 0.2 / 11, 0.1 / 11, 0.05 / 11, 0.01 / 11)


def _limit_estimate(alpha: float, cfg: McConfig) -> tuple[McEstimate, np.ndarray]:
    """:func:`estimate_worst_fdr_limit` and the per-replication values it
    reduces."""
    seen = []
    reduce = McEstimate.from_values
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(McEstimate, "from_values",
                      lambda values, cfg: seen.append(values) or reduce(values, cfg))
        est = estimate_worst_fdr_limit(alpha, cfg)
    return est, seen[0]


@pytest.fixture(scope="module")
def limit_at_one_half():
    """The estimate at alpha = 0.5 over 1e5 replications, and its rows."""
    return _limit_estimate(0.5, McConfig(100_000, 101, workers=2))


class TestWorstFdrLimit:
    def test_bracketed_by_the_analytic_envelope(self):
        cfg = McConfig(reps=20_000, master_seed=71)
        for alpha in (0.1, 0.05):
            est = estimate_worst_fdr_limit(alpha, cfg)
            upper = alpha + alpha * math.log(1.0 / alpha)
            assert alpha < est.mean <= upper + 3.0 * est.stderr

    def test_inside_the_ruin_bracket(self, limit_at_one_half):
        # The bracket is rigorous up to rounding; 200 points make it
        # [0.82002, 0.82154], narrower than 4 stderr of the estimate.
        est, _ = limit_at_one_half
        lo, hi = limit_bracket(0.5, 200)
        assert lo - 4.0 * est.stderr <= est.mean <= hi + 4.0 * est.stderr

    @pytest.mark.parametrize("alpha", [0.5, 0.05])
    def test_share_of_ones_is_alpha(self, limit_at_one_half, alpha):
        # Takacs' ballot theorem: P(M >= 1) = alpha.
        if alpha == 0.5:
            values = limit_at_one_half[1]
        else:
            values = _limit_estimate(alpha, McConfig(100_000, 103))[1]
        share = np.count_nonzero(values == 1.0) / values.size
        assert abs(share - alpha) <= 4.0 * math.sqrt(alpha * (1.0 - alpha) / values.size)

    def test_budget_bias_below_a_twentieth_of_the_stderr(self):
        # The paired bias table behind J(alpha): on shared draws, the maximum
        # over 4J partial sums exceeds the one over J by less, on average,
        # than 1/20 of the standard error of a 1e5-replication estimate.
        rows, chunk = 4000, 16
        budgets = {alpha: mc._LimitTask(alpha).width for alpha in LIMIT_LEVELS}
        rng = np.random.default_rng(105)
        gaps = {alpha: [] for alpha in LIMIT_LEVELS}
        longest = {alpha: [] for alpha in LIMIT_LEVELS}
        for _ in range(rows // chunk):
            sums = np.cumsum(rng.standard_exponential((chunk, 4 * max(budgets.values()))), axis=1)
            for alpha, j in budgets.items():
                ratios = limit_ratios(sums[:, :4 * j], alpha)
                at_j = np.clip(ratios[:, :j].max(axis=1), alpha, 1.0)
                at_4j = np.clip(ratios.max(axis=1), alpha, 1.0)
                gaps[alpha].append(at_4j - at_j)
                longest[alpha].append(at_4j)
        for alpha in LIMIT_LEVELS:
            stderr_1e5 = np.concatenate(longest[alpha]).std(ddof=1) / math.sqrt(100_000)
            assert np.concatenate(gaps[alpha]).mean() <= stderr_1e5 / 20.0, alpha

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            estimate_worst_fdr_limit(1.2, McConfig(2, 0))

    @pytest.mark.parametrize("alpha, reps", [
        (0.1, 2 * BLOCK_REPS + 37),  # J = 2048: multi-block, partial last block
        (0.05 / 11, BLOCK_REPS + 3),  # J = 1024: chunks of 64 rows
        (0.5, 40),  # J = 10240: chunks of 6 rows, about half of them ones
    ], ids=["multi-block", "chunked", "ones"])
    def test_matches_one_walk_after_another(self, alpha, reps):
        cfg = McConfig(reps, 11)
        est, values = _limit_estimate(alpha, cfg)
        oracle = limit_oracle(alpha, mc._LimitTask(alpha).width, reps, 11)
        assert np.array_equal(values, oracle)
        assert est == McEstimate.from_values(oracle, cfg)
        assert ((alpha <= oracle) & (oracle <= 1.0)).all()
        assert alpha != 0.5 or (oracle == 1.0).any()


class TestVerifyLinking:
    def test_informed_slack_nonnegative(self):
        cfg = McConfig(reps=8_000, master_seed=79)
        report = verify_linking(IidUniform(40, 200), InformedAdversary(), 0.1, cfg)
        assert report.slack >= -3.0 * report.lhs.stderr
        assert report.rhs <= 1.0

    def test_tame_nonnulls_leave_large_slack(self):
        cfg = McConfig(reps=8_000, master_seed=83)
        report = verify_linking(IidUniform(40, 200), FixedZerosAdversary(0), 0.1, cfg)
        assert report.slack > 0.05

    def test_global_null_lhs_below_rhs(self):
        cfg = McConfig(reps=8_000, master_seed=89)
        report = verify_linking(IidUniform(40, 0), None, 0.1, cfg)
        assert report.slack >= -3.0 * report.lhs.stderr

    def test_informed_slack_shrinks_with_the_level(self):
        # In the tightness regime the gap between the linked bound and the
        # realized FDR closes as the level falls.
        cfg = McConfig(reps=12_000, master_seed=91)
        gen = IidUniform(40, 200)
        slacks = {a: verify_linking(gen, InformedAdversary(), a, cfg)
                  for a in (0.2, 0.1, 0.05)}
        tol = 3.0 * math.hypot(slacks[0.2].lhs.stderr, slacks[0.05].lhs.stderr)
        assert slacks[0.05].slack <= slacks[0.2].slack + tol


def test_replication_values_order_independent_of_chunking():
    gen, adv = IidUniform(10, 20), InformedAdversary()
    a = fdp_values(gen, adv, "step_up", 0.1, McConfig(reps=100, master_seed=97, workers=1))
    b = fdp_values(gen, adv, "step_up", 0.1, McConfig(reps=100, master_seed=97, workers=4))
    assert np.array_equal(a, b)
    assert McEstimate.from_values(a, McConfig(100, 97)) == \
        estimate_fdr(gen, adv, "step_up", 0.1, McConfig(100, 97))
