"""Tests for the adversarial non-null constructions."""

import warnings
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from fdrlink import (
    BonferroniMaskedAdversary,
    FixedZerosAdversary,
    InformedAdversary,
    MostAntiConservativeAdversary,
    IidUniform,
    bh_step_up,
    complete_study,
    equicorrelated_sqrt,
    fdp_upper_bound,
    feasible_max_fdp_rank,
    informed_adversary,
    is_compliant,
    masked_zero_count,
    max_fdp_rank,
    min_rejections_for,
    most_anti_conservative,
    sample,
)

from fdrlink.adversaries import anchor_choice

from _util import anchor_oracle, brute_force_max_fdp, threshold_ceil_oracle


def _near_boundary(draw, ceiling: int, n: int, alpha: float) -> float:
    """``alpha * ceiling / n`` moved by up to two ulps either way."""
    p = alpha * ceiling / n
    for _ in range(abs(k := draw(st.integers(-2, 2)))):
        p = float(np.nextafter(p, 2.0 if k > 0 else 0.0))
    return min(p, 1.0)


@st.composite
def _boundary_nulls(draw):
    """Sorted nulls within two ulps of ceiling boundaries: repeats drawn for
    small n and for n * p / alpha near 1e9, or a ladder of ceilings
    ``j * C + d_j`` (|d_j| <= 1) whose ratios tie within 1e-12 in floats."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 60) | st.integers(5 * 10**8, 2 * 10**9))
        alpha = draw(st.sampled_from([0.01, 0.05, 0.1, 0.25, 0.6]) | st.floats(0.001, 0.999))
        ceiling = st.integers(max(1, n - 50), n) | st.integers(1, n)
        pool = [_near_boundary(draw, draw(ceiling), n, alpha)
                for _ in range(draw(st.integers(1, 6)))]
        nulls = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
        n1, first_rank = draw(st.none() | st.integers(0, 3)), draw(st.sampled_from([1, 2]))
        return sorted(nulls), n, alpha, n1, first_rank
    n, alpha = draw(st.integers(10**9, 2 * 10**9)), draw(st.sampled_from([1e-3, 2e-4]))
    size = draw(st.integers(2, 4))
    big = draw(st.integers(int(n / alpha) // (2 * size), int(n / alpha) // size))
    ladder = [j * big + draw(st.integers(-1, 1)) for j in range(1, size + 1)]
    return sorted(_near_boundary(draw, c, n, alpha) for c in ladder), n, alpha, None, 1


@settings(max_examples=300, deadline=None)
@given(_boundary_nulls())
def test_anchor_kernel_matches_exact_oracle(case):
    nulls, n, alpha, n1, first_rank = case
    # The row sits between two others, so a row-wise slip would show.
    rows = np.array([np.full(len(nulls), 0.5), nulls, np.linspace(0.01, 1.0, len(nulls))])
    ranks, ceilings = anchor_choice(rows, n, alpha, n1, first_rank)
    assert (int(ranks[1]), int(ceilings[1])) == anchor_oracle(nulls, n, alpha, n1, first_rank)


def _just_above(c: int, n: int, alpha: float) -> float:
    """The smallest p whose ceiling is c + 1."""
    return float(np.nextafter(alpha * c / n, 1.0))


_FRACTION_C = threshold_ceil_oracle(0.3, 2 * 10**9, 1e-3)


@pytest.mark.parametrize("nulls, n, alpha, n1, first_rank, expected", [
    # Zero and subnormal nulls: an infinite envelope, ceiling 1.
    ([0.0, 0.0, 0.3, 0.7], 8, 0.1, None, 1, (2, 1)),
    ([5e-324, 0.3, 0.5], 5, 0.1, None, 1, (1, 1)),
    ([5e-324, 0.3, 0.5], 5, 0.1, 0, 1, (1, 1)),
    # Rank 1 has the largest envelope, but it sits just above alpha / n, so
    # its ceiling jumps to 2 and rank 2 (ceiling 3) wins.
    ([_just_above(1, 10, 0.1), 0.0201, 0.9], 10, 0.1, None, 1, (2, 3)),
    # Ranks 2..10 need 3 zeros, more than n1 = 2, so the envelope's argmax
    # (rank 10, within an ulp of feasible) is infeasible and rank 1 wins.
    ([0.029] + [_just_above(12, 12, 0.12)] * 9, 12, 0.12, 2, 1, (1, 3)),
    ([0.5, 0.6], 4, 0.1, 0, 1, (0, 0)),
    ([0.011, 0.015, 0.5], 10, 0.1, None, 2, (3, 2)),
    # 1/C and 2/(2C + 1) agree to 1e-12 in floats; only the exact refine
    # prefers the smaller rank.
    ([0.3, _just_above(2 * _FRACTION_C, 2 * 10**9, 1e-3)], 2 * 10**9, 1e-3, None, 1,
     (1, _FRACTION_C)),
], ids=["zeros", "subnormal", "subnormal-n1", "ceiling-jump", "argmax-infeasible",
        "none-feasible", "first-rank-2", "fraction-tie"])
def test_anchor_screen_edges(nulls, n, alpha, n1, first_rank, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ranks, ceilings = anchor_choice(np.array([nulls]), n, alpha, n1, first_rank)
    assert anchor_oracle(nulls, n, alpha, n1, first_rank) == expected
    assert (int(ranks[0]), int(ceilings[0])) == expected


class TestMaxFdpRank:
    def test_single_null(self):
        assert max_fdp_rank([0.4], 10, 0.1) == 1

    def test_two_nulls_distinct_ratios(self):
        # Ratios 1/2 and 2/50.
        assert max_fdp_rank([0.02, 0.5], 10, 0.1) == 1

    def test_largest_rank_wins(self):
        # Both ceilings are 1, so ratios 1 and 2; the larger rank wins.
        assert max_fdp_rank([0.01, 0.01], 10, 0.1) == 2

    def test_exact_ties_resolve_to_largest_rank(self):
        # Ceilings 1 and 2 give equal ratios 1/1 and 2/2.
        nulls = [0.005, 0.015]
        assert min_rejections_for(0.005, 10, 0.1) == 1
        assert min_rejections_for(0.015, 10, 0.1) == 2
        assert max_fdp_rank(nulls, 10, 0.1) == 2

    def test_rejects_zero_pvalues_and_empty_input(self):
        with pytest.raises(ValueError):
            max_fdp_rank([0.0, 0.5], 10, 0.1)
        with pytest.raises(ValueError):
            max_fdp_rank([], 10, 0.1)

    @pytest.mark.parametrize("call", [
        lambda: max_fdp_rank([np.nan, 0.01], 10, 0.05),
        lambda: feasible_max_fdp_rank([np.nan, 0.01], 8, 10, 0.05),
        lambda: masked_zero_count([0.01, np.nan], 10, 8, 0.05),
    ], ids=["max_fdp_rank", "feasible_max_fdp_rank", "masked_zero_count"])
    def test_rejects_nan_nulls(self, call):
        with pytest.raises(ValueError, match=r"null p-values in \(0, 1\]"):
            call()


class TestInformedAdversary:
    def test_known_zero_count(self):
        completed = informed_adversary([0.02, 0.5], 8, 10, 0.1)
        assert max_fdp_rank([0.02, 0.5], 10, 0.1) == 1
        assert completed.planted_zeros == 1
        assert completed.study.n1 == 8
        nonnull = completed.study.nonnull_pvalues
        assert sorted(nonnull) == [0.0] + [1.0] * 7

    def test_plus_clamp_no_zeros_needed(self):
        # ceil(10 * 0.001 / 0.5) = 1 = rank, so no zeros are planted.
        completed = informed_adversary([0.001], 5, 6, 0.5)
        assert completed.planted_zeros == 0
        assert np.all(completed.study.nonnull_pvalues == 1.0)

    def test_no_nonnull_slots(self):
        completed = informed_adversary([0.3, 0.7], 0, 2, 0.2)
        assert completed.study.n == 2
        assert np.all(completed.study.null_mask)
        assert list(completed.study.pvalues) == [0.3, 0.7]

    def test_nulls_untouched_and_counts_consistent(self):
        rng = np.random.default_rng(301)
        for _ in range(100):
            n0 = int(rng.integers(1, 20))
            n1 = int(rng.integers(0, 40))
            nulls = rng.uniform(1e-9, 1.0, n0)
            alpha = float(rng.uniform(0.02, 0.9))
            completed = informed_adversary(nulls, n1, n0 + n1, alpha)
            assert np.array_equal(completed.study.null_pvalues, nulls)
            assert completed.planted_zeros <= n1
            nonnull = completed.study.nonnull_pvalues
            assert int(np.sum(nonnull == 0.0)) == completed.planted_zeros

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            informed_adversary([0.1], 3, 10, 0.1)


class TestFeasibleRank:
    def test_infeasible_single_null(self):
        # ceil(50) - 1 = 49 zeros needed but none available.
        assert feasible_max_fdp_rank([0.5], 0, 10, 0.1) == 0

    def test_known_feasible_set(self):
        # Rank 1 needs 1 zero, rank 2 needs 48; only rank 1 fits in 8 slots.
        assert feasible_max_fdp_rank([0.02, 0.5], 8, 10, 0.1) == 1

    def test_equals_unrestricted_rank_when_slack(self):
        rng = np.random.default_rng(302)
        checked = 0
        while checked < 200:
            n0 = int(rng.integers(1, 15))
            n1 = int(rng.integers(0, 60))
            n = n0 + n1
            nulls = rng.uniform(1e-6, 1.0, n0)
            alpha = float(rng.uniform(0.05, 0.9))
            star = max_fdp_rank(nulls, n, alpha)
            needed = min_rejections_for(float(np.sort(nulls)[star - 1]), n, alpha) - star
            if max(needed, 0) <= n1:
                checked += 1
                assert feasible_max_fdp_rank(nulls, n1, n, alpha) == star


class TestMostAntiConservative:
    def test_empty_when_infeasible(self):
        out = most_anti_conservative([0.5], 0, 1, 0.1)
        assert out.n_rejected == 0 and out.fdp == 0

    def test_known_half(self):
        out = most_anti_conservative([0.02, 0.5], 8, 10, 0.1)
        assert out.n_false == 1 and out.n_rejected == 2
        assert out.fdp == Fraction(1, 2)

    def test_output_compliant_on_completed_study(self):
        rng = np.random.default_rng(303)
        for _ in range(150):
            n0 = int(rng.integers(1, 12))
            n1 = int(rng.integers(0, 30))
            nulls = rng.uniform(1e-6, 1.0, n0)
            alpha = float(rng.uniform(0.05, 0.9))
            completed = informed_adversary(nulls, n1, n0 + n1, alpha)
            out = most_anti_conservative(nulls, n1, n0 + n1, alpha)
            assert is_compliant(completed.study, out, alpha)

    def test_fdp_equals_feasible_ratio(self):
        rng = np.random.default_rng(304)
        for _ in range(200):
            n0 = int(rng.integers(1, 10))
            n1 = int(rng.integers(0, 25))
            n = n0 + n1
            nulls = rng.uniform(1e-6, 1.0, n0)
            alpha = float(rng.uniform(0.05, 0.9))
            out = most_anti_conservative(nulls, n1, n, alpha)
            rank = feasible_max_fdp_rank(nulls, n1, n, alpha)
            if rank == 0:
                assert out.fdp == 0
            else:
                c = min_rejections_for(float(np.sort(nulls)[rank - 1]), n, alpha)
                assert out.fdp == min(Fraction(rank, c), Fraction(1))

    def test_matches_brute_force_maximum(self):
        # On a completed study, no compliant outcome can beat it, and it is
        # itself attained.
        rng = np.random.default_rng(305)
        grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
        for _ in range(120):
            n0 = int(rng.integers(1, 4))
            n = int(rng.integers(n0, 7))
            n1 = n - n0
            nulls = np.sort(rng.choice(grid, size=n0))
            alpha = float(rng.choice([0.1, 0.3, 0.6]))
            completed = informed_adversary(nulls, n1, n, alpha)
            out = most_anti_conservative(nulls, n1, n, alpha)
            assert brute_force_max_fdp(completed.study, alpha) == out.fdp
            assert out.fdp <= fdp_upper_bound(nulls, n, alpha)


class TestAttainment:
    """The step-up procedure on informed-adversary studies hits the ceiling."""

    def test_exact_equality_when_feasible(self):
        rng = np.random.default_rng(306)
        feasible_seen = 0
        for trial in range(400):
            n0 = int(rng.integers(1, 30))
            n1 = 3000
            n = n0 + n1
            alpha = float(rng.choice([0.05, 0.1, 0.3]))
            # Mix unconstrained nulls with small ones that keep the required
            # zero count feasible.
            hi = 1.0 if trial % 2 else alpha
            nulls = rng.uniform(1e-9, hi, n0)
            completed = informed_adversary(nulls, n1, n, alpha)
            star = max_fdp_rank(nulls, n, alpha)
            needed = min_rejections_for(float(np.sort(nulls)[star - 1]), n, alpha) - star
            if needed > n1:
                continue
            feasible_seen += 1
            out = bh_step_up(completed.study, alpha)
            assert out.fdp == fdp_upper_bound(nulls, n, alpha)
            if needed >= 1:
                # Exactly the anchor-rank nulls plus that many zeros.
                assert out.n_false == star
                assert out.n_rejected - out.n_false == needed
        assert feasible_seen > 250

    def test_all_ones_when_anchor_needs_no_zeros(self):
        # When n * p_(j*) / alpha <= j*, every non-null is one and FDP is 1.
        rng = np.random.default_rng(307)
        confirmed = 0
        for _ in range(300):
            n0 = int(rng.integers(1, 8))
            n1 = int(rng.integers(1, 20))
            n = n0 + n1
            nulls = rng.uniform(1e-9, 0.4, n0)
            alpha = float(rng.choice([0.3, 0.6, 0.9]))
            star = max_fdp_rank(nulls, n, alpha)
            ceiling = min_rejections_for(float(np.sort(nulls)[star - 1]), n, alpha)
            if ceiling > star:
                continue
            confirmed += 1
            completed = informed_adversary(nulls, n1, n, alpha)
            assert completed.planted_zeros == 0
            out = bh_step_up(completed.study, alpha)
            assert out.n_false >= star
            assert out.n_rejected == out.n_false  # no non-null rejected
            assert out.fdp == 1
        assert confirmed > 20

    def test_most_anti_conservative_beats_step_up(self):
        rng = np.random.default_rng(308)
        for _ in range(200):
            n0 = int(rng.integers(1, 15))
            n1 = int(rng.integers(0, 40))
            n = n0 + n1
            nulls = rng.uniform(1e-9, 1.0, n0)
            alpha = float(rng.uniform(0.05, 0.9))
            completed = informed_adversary(nulls, n1, n, alpha)
            up = bh_step_up(completed.study, alpha)
            anti = most_anti_conservative(nulls, n1, n, alpha)
            assert anti.fdp >= up.fdp


class TestMaskedConstruction:
    def test_no_slots_gives_zero(self):
        for strategy in ("plug_in_second", "shifted_argmax"):
            assert masked_zero_count([0.2, 0.4], 10, 0, 0.1, strategy) == 0

    def test_all_ones_saturates_the_budget(self):
        # Huge ceilings force the zero count to the clamp.
        n, n1 = 50, 7
        assert masked_zero_count([1.0, 1.0, 1.0], n, n1, 0.01, "shifted_argmax") == n1
        assert masked_zero_count([1.0, 1.0, 1.0], n, n1, 0.01, "plug_in_second") == n1

    def test_deterministic(self):
        uppers = np.sort(np.random.default_rng(309).uniform(0.01, 1.0, 9))
        for strategy in ("plug_in_second", "shifted_argmax"):
            first = masked_zero_count(uppers, 40, 15, 0.1, strategy)
            again = masked_zero_count(uppers, 40, 15, 0.1, strategy)
            assert first == again

    def test_never_reads_the_smallest_null(self):
        # Same uppers, different withheld smallest value: identical counts,
        # equal to the count from the uppers alone (n0 = 2 leaves one upper).
        rng = np.random.default_rng(310)
        for strategy in ("plug_in_second", "shifted_argmax"):
            for _ in range(60):
                n0 = int(rng.integers(2, 12))
                uppers = np.sort(rng.uniform(0.2, 1.0, n0 - 1))
                n1 = int(rng.integers(0, 30))
                n = n0 + n1
                alpha = float(rng.uniform(0.05, 0.5))
                counts = set()
                for _ in range(4):
                    smallest = float(rng.uniform(1e-9, uppers[0]))
                    nulls = np.concatenate([[smallest], uppers])
                    completed = complete_study(
                        nulls, n1, n, alpha, BonferroniMaskedAdversary(strategy))
                    counts.add(completed.planted_zeros)
                assert counts == {masked_zero_count(uppers, n, n1, alpha, strategy)}

    def test_needs_two_nulls(self):
        with pytest.raises(ValueError):
            complete_study([0.4], 3, 4, 0.1, BonferroniMaskedAdversary())
        with pytest.raises(ValueError):
            masked_zero_count([], 4, 3, 0.1)

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            masked_zero_count([0.5, 0.2], 10, 3, 0.1)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            BonferroniMaskedAdversary("nope")
        with pytest.raises(ValueError):
            masked_zero_count([0.2, 0.4], 10, 3, 0.1, "nope")


class TestCompleteStudy:
    def test_fixed_zeros(self):
        completed = complete_study([0.3, 0.6], 5, 7, 0.1, FixedZerosAdversary(2))
        assert completed.planted_zeros == 2
        assert sorted(completed.study.nonnull_pvalues) == [0.0, 0.0, 1.0, 1.0, 1.0]
        with pytest.raises(ValueError):
            complete_study([0.3], 1, 2, 0.1, FixedZerosAdversary(5))

    def test_informed_dispatch(self):
        direct = informed_adversary([0.02, 0.5], 8, 10, 0.1)
        via = complete_study([0.02, 0.5], 8, 10, 0.1, InformedAdversary())
        assert np.array_equal(direct.study.pvalues, via.study.pvalues)
        assert via.planted_zeros == direct.planted_zeros == 1

    def test_most_anti_conservative_plants_exactly_needed(self):
        rng = np.random.default_rng(311)
        for _ in range(100):
            n0 = int(rng.integers(1, 10))
            n1 = int(rng.integers(0, 25))
            n = n0 + n1
            nulls = rng.uniform(1e-6, 1.0, n0)
            alpha = float(rng.uniform(0.05, 0.9))
            completed = complete_study(nulls, n1, n, alpha, MostAntiConservativeAdversary())
            out = most_anti_conservative(nulls, n1, n, alpha)
            if out.n_rejected:
                assert completed.planted_zeros == out.n_rejected - out.n_false
                assert is_compliant(completed.study, out, alpha)
            else:
                assert completed.planted_zeros == 0


class TestCountRule:
    """Counts are plain integers in range, never truncated: n1 >= 0 and
    n >= max(1, n0), with n0 the number of full nulls."""

    @pytest.mark.parametrize("call", [
        lambda: masked_zero_count([0.02, 0.03], 10, -3, 0.5),
        lambda: masked_zero_count([0.02, 0.03], 10.5, 3, 0.5),
        lambda: masked_zero_count([0.02, 0.03], 2, 0, 0.5),  # n0 = 3 with the withheld null
        lambda: max_fdp_rank([0.01, 0.02], 1, 0.05),
        lambda: max_fdp_rank([0.01], True, 0.05),
        lambda: fdp_upper_bound([0.01, 0.02], 10.9, 0.05),
        lambda: feasible_max_fdp_rank([0.01, 0.02], 2.7, 10, 0.05),
        lambda: feasible_max_fdp_rank([0.01, 0.02], 8, 1, 0.05),
        lambda: complete_study([0.01, 0.02], 2.9, 4.9, 0.05, InformedAdversary()),
        lambda: most_anti_conservative([0.01, 0.02], 8, 10.0, 0.05),
        lambda: min_rejections_for(0.01, 10.9, 0.05),
        lambda: equicorrelated_sqrt(3.9, 0.2),
        lambda: sample(IidUniform(3), 2.7),
        lambda: sample(IidUniform(3), "5"),
    ], ids=["masked-negative-n1", "masked-float-n", "masked-n-below-n0", "rank-n-below-n0",
            "rank-bool-n", "ceiling-float-n", "feasible-float-n1", "feasible-n-below-n0",
            "complete-float-counts", "anti-float-n", "min-rejections-float-n",
            "equicorrelated-float-n", "sample-float-seed", "sample-text-seed"])
    def test_rejected(self, call):
        with pytest.raises(ValueError, match="must be an integer"):
            call()

    def test_any_plain_integer_is_a_seed(self):
        spec = IidUniform(3)
        assert np.array_equal(sample(spec, -1).pvalues, sample(spec, 2**64 - 1).pvalues)
        assert np.array_equal(sample(spec, 2**64 + 5).pvalues, sample(spec, 5).pvalues)
