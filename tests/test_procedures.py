"""Tests for the procedure family, compliance, Simes, and the FDP ceiling."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fdrlink import (
    BlockDependent,
    PValueStudy,
    RejectionOutcome,
    bh_step_down,
    bh_step_up,
    fdp_upper_bound,
    is_compliant,
    min_rejections_for,
    simes_pvalue,
    simes_rejects,
)
from fdrlink.procedures import step_count, step_rule, threshold_ceil

from _util import (
    brute_force_max_fdp,
    enumerate_compliant_outcomes,
    random_study,
    step_down_r_oracle,
    step_up_r_oracle,
    threshold_ceil_oracle,
)


class TestStudyTypes:
    def test_study_validation(self):
        with pytest.raises(ValueError):
            PValueStudy([0.5, 1.2], [True, True])
        with pytest.raises(ValueError):
            PValueStudy([0.5, -0.1], [True, True])
        with pytest.raises(ValueError):
            PValueStudy([0.5], [True, False])
        with pytest.raises(ValueError):
            PValueStudy([], [])

    @pytest.mark.parametrize("build", [
        lambda: PValueStudy([0.1, 0.2], ["False", "True"]),
        lambda: PValueStudy([0.1, 0.2, 0.3], [1, 2, 0.5]),
        lambda: BlockDependent((3,), null_mask=[1, 0, 5]),
    ], ids=["strings", "numbers", "block-ints"])
    def test_a_null_mask_is_booleans_only(self, build):
        with pytest.raises(ValueError, match="null_mask must be a 1-D boolean vector"):
            build()

    def test_a_null_mask_takes_python_or_numpy_bools(self):
        assert PValueStudy([0.1, 0.2], [np.True_, False]).null_mask.tolist() == [True, False]
        assert BlockDependent((2, 1), null_mask=np.array([True, False, True])).n0 == 2

    def test_study_counts(self):
        s = PValueStudy([0.1, 0.2, 0.3], [True, False, True])
        assert (s.n, s.n0, s.n1) == (3, 2, 1)
        assert s.pi0 == pytest.approx(2 / 3)
        assert list(s.null_pvalues) == [0.1, 0.3]

    def test_study_immutable(self):
        s = PValueStudy([0.1, 0.2], [True, True])
        with pytest.raises(ValueError):
            s.pvalues[0] = 0.5

    def test_outcome_fdp_is_exact_fraction(self):
        s = PValueStudy([0.1, 0.2, 0.3], [True, True, False])
        out = RejectionOutcome.from_indices(s, [0, 2])
        assert out.fdp == Fraction(1, 2)
        assert RejectionOutcome.empty().fdp == 0

    def test_outcome_invariants(self):
        s = PValueStudy([0.1, 0.2], [True, True])
        with pytest.raises(ValueError):
            RejectionOutcome.from_indices(s, [5])
        with pytest.raises(ValueError):
            RejectionOutcome([0], n_false=2)

    @pytest.mark.parametrize("build", [
        lambda: RejectionOutcome.from_indices(
            PValueStudy([0.01, 0.5, 0.9], [True, False, True]), [0.7, True]),
        lambda: RejectionOutcome([1.5, 2.2], 1),
        lambda: RejectionOutcome([1, 2], 1.9),
        lambda: RejectionOutcome([1, 2], 1.0),
    ], ids=["from-indices-float-bool", "float-indices", "float-n-false", "integral-float"])
    def test_outcome_rejects_non_integer_indices(self, build):
        with pytest.raises(ValueError, match="must be an integer"):
            build()

    def test_outcome_takes_numpy_integers(self):
        s = PValueStudy([0.01, 0.5, 0.9], [True, False, True])
        out = RejectionOutcome.from_indices(s, np.nonzero(s.pvalues <= 0.5)[0])
        assert out.rejected == {0, 1} and out.n_false == 1
        assert all(type(i) is int for i in out.rejected)
        assert RejectionOutcome(np.array([2], dtype=np.int32), np.int64(1)).n_false == 1
        assert RejectionOutcome.from_indices(s, set()) == RejectionOutcome.empty()


class TestStepUp:
    def test_no_rejections(self):
        s = PValueStudy.global_null([1.0, 1.0, 1.0])
        out = bh_step_up(s, 0.1)
        assert out.n_rejected == 0 and out.rejected == frozenset()

    def test_single_pvalue_threshold_is_alpha(self):
        out = bh_step_up(PValueStudy.global_null([0.04]), 0.05)
        assert out.n_rejected == 1 and out.rejected == {0}

    def test_known_four_pvalues(self):
        # Thresholds 0.025, 0.05, 0.075, 0.1; only the first two pass.
        s = PValueStudy.global_null([0.01, 0.02, 0.3, 0.9])
        out = bh_step_up(s, 0.1)
        assert step_up_r_oracle(s.pvalues, 0.1) == 2
        assert out.n_rejected == 2 and out.rejected == {0, 1}

    def test_thresholds_are_inclusive(self):
        n, alpha = 7, 0.3
        s = PValueStudy.global_null([alpha * j / n for j in (1, 2, 3)] + [1.0] * 4)
        assert bh_step_up(s, alpha).n_rejected == step_up_r_oracle(s.pvalues, alpha) == 3
        assert bh_step_down(s, alpha).n_rejected == step_down_r_oracle(s.pvalues, alpha) == 3

    def test_alpha_domain(self):
        s = PValueStudy.global_null([0.5])
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                bh_step_up(s, bad)
            with pytest.raises(ValueError):
                bh_step_down(s, bad)

    def test_matches_oracle_on_random_studies(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            s = random_study(rng, max_n=12)
            alpha = float(rng.uniform(0.02, 0.9))
            assert bh_step_up(s, alpha).n_rejected == step_up_r_oracle(s.pvalues, alpha)


class TestStepDown:
    def test_no_rejections(self):
        assert bh_step_down(PValueStudy.global_null([1, 1, 1]), 0.1).n_rejected == 0

    def test_known_four_pvalues(self):
        s = PValueStudy.global_null([0.01, 0.02, 0.3, 0.9])
        assert bh_step_down(s, 0.1).n_rejected == 2

    def test_two_pvalues_sequential(self):
        # Thresholds 0.2, 0.4; sorted p-values 0.04, 0.2 both pass.
        s = PValueStudy.global_null([0.2, 0.04])
        out = bh_step_down(s, 0.4)
        assert out.n_rejected == 2

    def test_matches_oracle_on_random_studies(self):
        rng = np.random.default_rng(102)
        for _ in range(300):
            s = random_study(rng, max_n=12)
            alpha = float(rng.uniform(0.02, 0.9))
            assert bh_step_down(s, alpha).n_rejected == step_down_r_oracle(s.pvalues, alpha)

    def test_subset_of_step_up(self):
        rng = np.random.default_rng(103)
        for _ in range(300):
            s = random_study(rng, max_n=10)
            alpha = float(rng.uniform(0.02, 0.9))
            down = bh_step_down(s, alpha).rejected
            up = bh_step_up(s, alpha).rejected
            assert down <= up


class TestCompliance:
    def test_empty_outcome_trivially_compliant(self):
        s = PValueStudy.global_null([0.3, 0.7])
        assert is_compliant(s, RejectionOutcome.empty(), 0.05)

    def test_procedure_outputs_are_compliant(self):
        rng = np.random.default_rng(104)
        for _ in range(300):
            s = random_study(rng, max_n=10)
            alpha = float(rng.uniform(0.02, 0.9))
            assert is_compliant(s, bh_step_up(s, alpha), alpha)
            assert is_compliant(s, bh_step_down(s, alpha), alpha)

    def test_rejecting_a_large_pvalue_alone_is_not_compliant(self):
        s = PValueStudy([0.3, 0.01], [True, True])
        outcome = RejectionOutcome.from_indices(s, [0])  # 0.3 > 0.05 = alpha*R/n
        assert not is_compliant(s, outcome, 0.1)

    def test_out_of_range_indices_rejected(self):
        s = PValueStudy.global_null([0.3])
        with pytest.raises(ValueError):
            is_compliant(s, RejectionOutcome([3], 0), 0.1)


class TestSimes:
    def test_single_value_passthrough(self):
        assert simes_pvalue([0.37]) == 0.37

    def test_two_values(self):
        assert simes_pvalue([0.03, 0.04]) == pytest.approx(0.04)

    def test_all_ones(self):
        assert simes_pvalue([1.0, 1.0, 1.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            simes_pvalue([])

    def test_rejects_examples(self):
        assert simes_rejects([0.03, 0.04], 0.05)
        assert not simes_rejects([1.0] * 5, 0.99)
        assert simes_rejects([0.2], 0.3) == (0.2 <= 0.3)

    def test_equivalence_with_step_up_on_nulls(self):
        rng = np.random.default_rng(105)
        for _ in range(200):
            nulls = rng.random(int(rng.integers(1, 9)))
            for x in (0.01, 0.05, 0.2, 0.5, 0.9):
                lhs = simes_rejects(nulls, x)
                rhs = bh_step_up(PValueStudy.global_null(nulls), x).n_rejected >= 1
                assert lhs == rhs


class TestCeilings:
    def test_min_rejections_matches_fraction_oracle_off_boundaries(self):
        # Away from integer boundaries the guarded float ceiling agrees with
        # exact rational arithmetic over the float operands.
        rng = np.random.default_rng(106)
        for _ in range(500):
            p = float(rng.uniform(1e-6, 1.0))
            n = int(rng.integers(1, 500))
            alpha = float(rng.uniform(0.01, 0.99))
            ratio = Fraction(n) * Fraction(p) / Fraction(alpha)
            expected = -(-ratio.numerator // ratio.denominator)
            assert min_rejections_for(p, n, alpha) == expected

    def test_min_rejections_consistent_with_float_thresholds(self):
        # 0.6 * 5 rounds to exactly 3.0, so p = 0.5 is float-compliant at
        # R = 5; the rejection count must agree.
        assert 0.5 <= 0.6 * 5 / 6
        assert min_rejections_for(0.5, 6, 0.6) == 5

    def test_zero_pvalue_rejected(self):
        with pytest.raises(ValueError):
            min_rejections_for(0.0, 10, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ceiling_agrees_with_the_threshold_comparison(self, data):
        # p-values within two ulps of alpha * j / n, at small n with mixed
        # levels and where n * p / alpha is near 1e9. The ceiling must be the
        # smallest c with p <= alpha * c / n, so that step_count rejects the
        # null at exactly c.
        if data.draw(st.booleans()):
            n = data.draw(st.integers(1, 1999))
            alpha = data.draw(st.sampled_from([0.01, 0.05, 0.1, 0.3, 0.6]) | st.floats(1e-3, 0.999))
        else:
            n = data.draw(st.integers(10**6, 2 * 10**9))
            alpha = data.draw(st.sampled_from([1e-3, 2e-4, 0.05]))
        hi = max(1, min(10**9, int(n / alpha)))
        js = data.draw(st.lists(st.integers(1, hi) | st.integers(max(1, hi - 3), hi),
                                min_size=1, max_size=8))
        p = np.array([_ulp_shift(min(alpha * j / n, 1.0), data.draw(st.integers(-2, 2)))
                      for j in js])
        expected = [threshold_ceil_oracle(float(x), n, alpha) for x in p]
        assert threshold_ceil(p, n, alpha).tolist() == expected
        assert [min_rejections_for(float(x), n, alpha) for x in p] == expected
        for x, c in zip(p.tolist(), expected):
            if c <= n:  # one null after c - 1 planted zeros passes exactly at rank c
                row = np.array([[x]])
                assert step_count(row, n, alpha, "step_up", offset=c - 1)[0] == c
                if c >= 2:
                    assert step_count(row, n, alpha, "step_up", offset=c - 2)[0] == c - 2

    def test_ceiling_near_thresholds_scripted(self):
        # 20000 p-values within two ulps of alpha * j / n (n < 2000, mixed
        # alpha), where a ceiling that snaps values within an ulp of an
        # integer to it disagrees with the comparison on thousands.
        rng = np.random.default_rng(108)
        size = 20_000
        n = rng.integers(1, 2000, size)
        alpha = rng.choice([0.01, 0.05, 0.1, 0.15, 0.3, 0.6], size)
        p = np.minimum(alpha * np.ceil(rng.random(size) * n) / n, 1.0)
        k = rng.integers(-2, 3, size)
        for step in (1, 2):
            p = np.where(k >= step, np.nextafter(p, 2.0),
                         np.where(k <= -step, np.nextafter(p, 0.0), p))
        p = np.minimum(p, 1.0)
        x = n * p / alpha
        nearest = np.rint(x)
        snapped = np.maximum(np.where(np.abs(x - nearest) <= np.spacing(x), nearest, np.ceil(x)),
                             1.0)
        assert np.count_nonzero(p > alpha * snapped / n) > 1000
        c = threshold_ceil(p, n, alpha)
        assert np.all(p <= alpha * c / n)
        assert np.all((c == 1) | (p > alpha * (c - 1) / n))


def _ulp_shift(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = float(np.nextafter(x, 2.0 if k > 0 else 0.0))
    return min(x, 1.0)


def _full_width_count(sorted_p: np.ndarray, n: int, alpha: float, proc: str, offsets) -> list:
    """The step count of each row from every column's test, one by one."""
    counts = []
    for row, off in zip(sorted_p.tolist(), offsets):
        ok = [p <= alpha * (off + j) / n for j, p in enumerate(row, start=1)]
        if proc == "step_up":
            r = max((j for j, passes in enumerate(ok, start=1) if passes), default=0)
        else:
            r = next((j for j, passes in enumerate(ok) if not passes), len(ok))
        counts.append(off + r)
    return counts


@pytest.mark.parametrize("proc", ["step_up", "step_down"])
@pytest.mark.parametrize("alpha, n, m", [(0.05, 40, 30), (0.3, 12, 12), (0.6, 25, 9)])
def test_step_count_matches_the_full_width_rule(proc, alpha, n, m):
    # Rows of thresholds alpha * j / n one ulp either side or on the dot,
    # zeros, ones and ties, under a scalar and a per-row offset.
    rng = np.random.default_rng(int(alpha * 100) + m)
    rows = 400
    offsets = rng.integers(0, n - m + 1, rows)
    j = rng.integers(1, n + 1, (rows, m))
    p = np.minimum(alpha * j / n, 1.0)
    shift = rng.integers(-1, 2, (rows, m))
    p = np.where(shift > 0, np.nextafter(p, 2.0), np.where(shift < 0, np.nextafter(p, 0.0), p))
    kind = rng.random((rows, m))
    p = np.where(kind < 0.1, 0.0, np.where(kind > 0.9, 1.0, p))
    p[:, 1::3] = p[:, :-1:3]  # ties
    p = np.sort(np.minimum(p, 1.0), axis=1)
    assert step_count(p, n, alpha, proc, offset=offsets).tolist() == \
        _full_width_count(p, n, alpha, proc, offsets.tolist())
    for off in (0, n - m):
        assert step_count(p, n, alpha, proc, offset=off).tolist() == \
            _full_width_count(p, n, alpha, proc, [off] * rows)


class TestFdpUpperBound:
    def test_single_null_at_bonferroni_threshold(self):
        # ceil(n * (alpha/n) / alpha) = 1, so the bound is 1/1.
        n, alpha = 8, 0.25
        assert fdp_upper_bound([alpha / n], n, alpha) == 1

    def test_two_nulls_example(self):
        assert fdp_upper_bound([0.02, 0.5], 10, 0.1) == Fraction(1, 2)

    def test_all_ones(self):
        assert fdp_upper_bound([1.0, 1.0], 2, 0.5) == Fraction(1, 2)

    def test_zero_null_pvalue_gives_one(self):
        assert fdp_upper_bound([0.0, 0.4], 5, 0.1) == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fdp_upper_bound([0.1, 0.2], 1, 0.1)
        with pytest.raises(ValueError):
            fdp_upper_bound([], 3, 0.1)

    def test_every_compliant_outcome_below_bound(self):
        grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
        rng = np.random.default_rng(107)
        for _ in range(60):
            s = random_study(rng, max_n=5, grid=grid)
            if s.n0 == 0:
                continue
            alpha = float(rng.choice([0.1, 0.25, 0.5]))
            bound = fdp_upper_bound(s.null_pvalues, s.n, alpha)
            for outcome in enumerate_compliant_outcomes(s, alpha):
                assert outcome.fdp <= bound

    def test_brute_force_max_never_exceeds_bound_with_zero_nonnulls(self):
        rng = np.random.default_rng(108)
        grid = np.round(np.arange(0.01, 1.0, 0.01), 2)
        for _ in range(40):
            n0 = int(rng.integers(1, 4))
            nulls = rng.choice(grid, size=n0)
            n = 6
            alpha = 0.5
            zeros = n - n0
            study = PValueStudy(
                np.concatenate([nulls, np.zeros(zeros)]),
                np.array([True] * n0 + [False] * zeros),
            )
            bound = fdp_upper_bound(nulls, n, alpha)
            assert brute_force_max_fdp(study, alpha) <= min(bound, Fraction(1))


@settings(max_examples=60, deadline=None)
@given(
    pvals=st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=8),
    mask_bits=st.integers(min_value=0, max_value=255),
    perm_seed=st.integers(min_value=0, max_value=2**31 - 1),
    alpha=st.floats(min_value=0.02, max_value=0.95),
)
def test_permutation_invariance(pvals, mask_bits, perm_seed, alpha):
    """Procedures and compliance are invariant to re-indexing hypotheses."""
    n = len(pvals)
    mask = [(mask_bits >> i) & 1 == 1 for i in range(n)]
    study = PValueStudy(pvals, mask)
    order = np.random.default_rng(perm_seed).permutation(n)
    shuffled = PValueStudy(study.pvalues[order], study.null_mask[order])

    for proc in (bh_step_up, bh_step_down):
        base = proc(study, alpha)
        moved = proc(shuffled, alpha)
        assert moved.n_rejected == base.n_rejected
        assert moved.n_false == base.n_false
        assert moved.fdp == base.fdp
        # The rejected set maps through the permutation.
        assert moved.rejected == {int(np.nonzero(order == i)[0][0]) for i in base.rejected}

    if study.n0:
        assert simes_pvalue(study.null_pvalues) == simes_pvalue(shuffled.null_pvalues)
        nz = study.null_pvalues
        if np.all(nz > 0):
            assert fdp_upper_bound(nz, n, alpha) == fdp_upper_bound(shuffled.null_pvalues, n, alpha)


def test_step_rule_rejects_an_unknown_procedure():
    with pytest.raises(ValueError, match="unknown procedure 'bonferroni'"):
        step_rule(np.ones((2, 3), dtype=bool), "bonferroni")
