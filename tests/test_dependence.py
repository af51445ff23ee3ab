"""Tests for the dependence-structure samplers and structural checks."""

import itertools
import math

import numpy as np
import pytest

from fdrlink import (
    BlockDependent,
    EquicorrelatedNormal,
    IidUniform,
    PrdnGaussian,
    PValueStudy,
    block_adjusted_pvalues,
    conditional_slope,
    mtp2_sign_check,
    normal_cdf,
    normal_quantile,
    prdn_check_gaussian,
    prds_check_gaussian,
    restrict_to_nulls,
    sample,
    sample_null_pvalues,
    simes_pvalue,
    structural_checks,
    vanishing_null_family,
)
from fdrlink.dependence import TwoSidedWrap, _equicorrelate

from _util import KS_COEFF_1PCT, equicorrelated_sqrt, ks_distance_uniform, two_sided_from_one_sided

# Independent high-precision reference values (mpmath at 40 digits,
# rounded to 17 significant figures).
_QUANTILE_REFERENCE = {
    0.0000001: -5.1993375821928169,
    0.00001: -4.2648907939228246,
    0.001: -3.0902323061678135,
    0.05: -1.6448536269514727,
    0.15: -1.0364333894937896,
    0.25: -0.67448975019608174,
    0.35: -0.38532046640756762,
    0.45: -0.12566134685507403,
    0.5: 0.0,
}

_CDF_REFERENCE = {
    0.0: 0.5,
    1.0: 0.84134474606854295,
    2.0: 0.97724986805182079,
    3.0: 0.99865010196836991,
    -1.0: 0.15865525393145705,
}


class TestNormalSpecialFunctions:
    def test_quantile_reference_within_contract(self):
        for p, ref in _QUANTILE_REFERENCE.items():
            assert abs(normal_quantile(p) - ref) <= 1e-12
            if p >= 0.001:
                # Below this, 1 - p is itself off by more than the contract
                # allows once amplified by the quantile slope.
                assert abs(normal_quantile(1.0 - p) + ref) <= 1e-12

    def test_cdf_reference_within_contract(self):
        for x, ref in _CDF_REFERENCE.items():
            assert abs(normal_cdf(x) - ref) <= 1e-12

    def test_round_trip(self):
        for x in (-4.0, -1.3, 0.0, 0.7, 3.5):
            assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-12)


class TestEquicorrelatedSqrt:
    @pytest.mark.parametrize("n", [2, 10, 100, 1000])
    def test_square_root_identity(self, n):
        rhos = [-1.0 / (n - 1), -0.5 / (n - 1), 0.0, 0.3, 0.9]
        for rho in rhos:
            a = equicorrelated_sqrt(n, rho)
            target = np.full((n, n), rho)
            np.fill_diagonal(target, 1.0)
            err = np.abs(a @ a.T - target).max()
            assert err <= 1e-12 * max(1.0, np.abs(target).max())

    def test_fast_transform_matches_matrix(self):
        for n, rho in ((5, -0.2), (40, 0.6), (7, -1.0 / 6)):
            z = np.random.default_rng(11).standard_normal(n)
            direct = equicorrelated_sqrt(n, rho) @ z
            assert np.allclose(direct, _equicorrelate(z, rho), atol=1e-12)

    @pytest.mark.parametrize("build", [
        lambda size, rho: EquicorrelatedNormal(size, 0, rho),
        lambda size, rho: BlockDependent((size,), "equicorrelated", rho),
    ], ids=["equicorrelated", "block"])
    def test_one_rho_rule(self, build):
        # Below the floor -1/(size-1) by more than 1e-15 raises; within it builds.
        with pytest.raises(ValueError, match="rho(_w)? must be"):
            build(2, -1.0 - 1e-13)
        build(1201, -1.0 / 1200 - 9e-16)


class TestSpecValidation:
    def test_equicorrelated_floor(self):
        EquicorrelatedNormal(5, 0, -0.25)  # exactly -1/(n0-1)
        with pytest.raises(ValueError):
            EquicorrelatedNormal(5, 0, -0.3)
        with pytest.raises(ValueError):
            EquicorrelatedNormal(5, 0, 1.0)

    def test_prdn_gaussian_validation(self):
        good = np.array([[1.0, 0.3], [0.3, 1.0]])
        PrdnGaussian(good, (0,))
        with pytest.raises(ValueError):
            PrdnGaussian(np.array([[1.0, 2.0], [2.0, 1.0]]), (0,))  # not PSD
        with pytest.raises(ValueError):
            PrdnGaussian(np.array([[2.0, 0.0], [0.0, 1.0]]), (0,))  # diagonal
        with pytest.raises(ValueError):
            PrdnGaussian(good, (0,), mu=np.array([1.0, 0.0]))  # mean on null
        with pytest.raises(ValueError):
            PrdnGaussian(good, (0, 5))

    def test_block_validation(self):
        BlockDependent((3, 3, 2))
        with pytest.raises(ValueError):
            BlockDependent(())
        with pytest.raises(ValueError):
            BlockDependent((3, 0))
        with pytest.raises(ValueError):
            BlockDependent((3, 3), within="equicorrelated")  # rho_w missing
        with pytest.raises(ValueError):
            BlockDependent((3,), null_mask=[True, False])

    @pytest.mark.parametrize("kwargs", [dict(rho_w=0.5)])
    def test_identical_blocks_reject_what_they_ignore(self, kwargs):
        with pytest.raises(ValueError, match="identical blocks"):
            BlockDependent((3, 3), **kwargs)

    @pytest.mark.parametrize("build, message", [
        (lambda: EquicorrelatedNormal(50, 50, 0.1, mu_alt=np.nan), "mu_alt must be finite"),
        (lambda: BlockDependent((2,) * 50, "equicorrelated", 0.3, np.arange(100) < 50,
                                mu_alt=np.nan), "mu_alt must be finite"),
        (lambda: PrdnGaussian(np.eye(4), (0, 1), np.array([0, 0, np.nan, 1.0])),
         "mu must be finite"),
        (lambda: PrdnGaussian(np.eye(2), (0,), np.zeros(3)), "mu must match"),
    ], ids=["equicorrelated", "block", "prdn", "prdn-shape"])
    def test_nonfinite_means_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_counts(self):
        spec = EquicorrelatedNormal(10, 5, 0.2, sided="two")
        assert (spec.n, spec.n0, spec.n1) == (15, 10, 5)


class TestSampling:
    def test_deterministic_given_seed(self):
        for spec in (
            IidUniform(20, 5),
            EquicorrelatedNormal(15, 5, 0.4),
            BlockDependent((3, 3, 3)),
            EquicorrelatedNormal(10, 0, -0.1 / 9, sided="two"),
        ):
            a = sample(spec, 12345)
            b = sample(spec, 12345)
            c = sample(spec, 54321)
            assert np.array_equal(a.pvalues, b.pvalues)
            assert np.array_equal(a.null_mask, b.null_mask)
            assert not np.array_equal(a.pvalues, c.pvalues)

    def test_single_uniform_null(self):
        study = sample(IidUniform(1, 0), 7)
        assert study.n == 1 and study.null_mask[0]
        assert 0.0 <= study.pvalues[0] <= 1.0

    def test_equicorrelated_zero_rho_is_iid(self):
        # Mean pairwise correlation of recovered z-scores near zero.
        n0, reps = 100, 4000
        p = EquicorrelatedNormal(n0, 0, 0.0).draw(np.random.default_rng(21), reps)
        sums = np.sum(-normal_quantile(p), axis=1)
        pairwise = (np.var(sums) / n0 - 1.0) / (n0 - 1)
        assert abs(pairwise) <= 1e-3

    def test_extreme_negative_equicorrelation(self):
        # At rho = -1/(n-1) the z-scores sum to zero, so the mean pairwise
        # correlation estimate collapses to exactly -1/(n-1).
        n0, reps = 1000, 400
        p = EquicorrelatedNormal(n0, 0, -1.0 / 999).draw(np.random.default_rng(22), reps)
        sums = np.sum(-normal_quantile(p), axis=1)
        pairwise = (np.var(sums) / n0 - 1.0) / (n0 - 1)
        assert pairwise == pytest.approx(-1.0 / 999, abs=2e-5)

    def test_positive_equicorrelation_recovered(self):
        n0, reps, rho = 50, 4000, 0.5
        p = EquicorrelatedNormal(n0, 0, rho).draw(np.random.default_rng(23), reps)
        sums = np.sum(-normal_quantile(p), axis=1)
        pairwise = (np.var(sums) / n0 - 1.0) / (n0 - 1)
        assert pairwise == pytest.approx(rho, abs=0.06)

    def test_prdn_gaussian_covariance_recovered(self):
        sigma = np.array([
            [1.0, 0.5, 0.25, 0.0],
            [0.5, 1.0, 0.5, 0.0],
            [0.25, 0.5, 1.0, -0.3],
            [0.0, 0.0, -0.3, 1.0],
        ])
        spec = PrdnGaussian(sigma, (0, 1, 2))
        zs = -normal_quantile(spec.draw(np.random.default_rng(24), 6000))
        emp = np.cov(zs.T)
        assert np.abs(emp - sigma).max() <= 0.08

    @pytest.mark.parametrize("spec", [
        IidUniform(10, 0),
        EquicorrelatedNormal(10, 0, 0.5),
        EquicorrelatedNormal(10, 0, -1.0 / 9),
        EquicorrelatedNormal(10, 0, 0.3, sided="two"),
        BlockDependent((2, 3, 5)),
        BlockDependent((2, 3, 5), within="equicorrelated", rho_w=0.5),
        EquicorrelatedNormal(10, 0, 0.4, sided="two"),
    ])
    def test_null_marginals_uniform(self, spec):
        reps = 100_000
        coord = restrict_to_nulls(spec).draw(np.random.default_rng(25), reps)[:, 3]
        assert ks_distance_uniform(coord) <= KS_COEFF_1PCT / math.sqrt(reps)

    def test_identical_block_shares_one_draw(self):
        study = sample(BlockDependent((4,)), 3)
        assert np.all(study.pvalues == study.pvalues[0])

    def test_nonnull_shift_makes_small_pvalues(self):
        study = sample(EquicorrelatedNormal(50, 50, 0.0, mu_alt=3.0), 5)
        assert study.nonnull_pvalues.mean() < 0.25
        assert 0.3 < study.null_pvalues.mean() < 0.7


def _block_loop_draw(spec: BlockDependent, rng) -> np.ndarray:
    """Reference block-dependent draw, one generator call per block."""
    out, start = [], 0
    for size in spec.block_sizes:
        inside = spec.null_mask[start:start + size]
        start += size
        if spec.within == "identical":
            p = np.full(size, rng.random())
        else:
            z = rng.standard_normal(size)
            if spec.rho_w != 0.0 and size > 1:
                a = math.sqrt(1.0 - spec.rho_w)
                b = math.sqrt(max(1.0 + (size - 1) * spec.rho_w, 0.0))
                z = a * z + (b - a) * z.mean()
            z = z + np.where(inside, 0.0, spec.mu_alt)
            p = normal_cdf(-z) if spec.sided == "one" else 2.0 * normal_cdf(-np.abs(z))
        out.append(p)
    return np.concatenate(out)


class TestVectorizedBlockDraw:
    """One generator call for all blocks reproduces the per-block draws."""

    @pytest.mark.parametrize("within,rho_w,sided", [
        ("identical", None, "one"),
        ("equicorrelated", 0.5, "one"),
        ("equicorrelated", 0.7, "two"),
        ("equicorrelated", -0.004, "one"),
        ("equicorrelated", 0.0, "two"),
    ])
    def test_matches_block_loop(self, within, rho_w, sided):
        sizes = (1, 40, 3, 200, 9, 40, 1, 3, 2)
        rng = np.random.default_rng(26)
        mask = rng.random(sum(sizes)) < 0.4
        mask[41:44] = False  # a block without nulls
        specs = [BlockDependent(sizes, within, rho_w, mask, 1.3, sided),
                 BlockDependent(sizes, within, rho_w, None, 1.3, sided)]
        for spec, seed in itertools.product(specs, range(20)):
            p = spec.draw(np.random.default_rng(seed), 1)[0]
            assert np.array_equal(p, _block_loop_draw(spec, np.random.default_rng(seed)))
            nulls = sample_null_pvalues(spec, np.random.default_rng(seed))
            assert np.array_equal(nulls, _block_loop_draw(restrict_to_nulls(spec),
                                                          np.random.default_rng(seed)))

    def test_no_nulls_rejected(self):
        spec = BlockDependent((2, 3), null_mask=[False] * 5)
        with pytest.raises(ValueError):
            sample_null_pvalues(spec, np.random.default_rng(0))
        with pytest.raises(ValueError):
            restrict_to_nulls(spec)


class TestRestrictToNulls:
    def test_variants(self):
        assert restrict_to_nulls(IidUniform(5, 3)) == IidUniform(5, 0)
        eq = restrict_to_nulls(EquicorrelatedNormal(5, 3, 0.2))
        assert (eq.n0, eq.n1, eq.rho) == (5, 0, 0.2)
        sigma = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]])
        restricted = restrict_to_nulls(PrdnGaussian(sigma, (0, 2)))
        assert restricted.n == 2
        assert restricted.sigma[0, 1] == 0.0
        mask = np.array([True, False, True, True, False])
        blk = restrict_to_nulls(BlockDependent((2, 3), null_mask=mask))
        assert blk.block_sizes == (1, 2) and blk.n0 == 3
        assert restrict_to_nulls(IidUniform(4, 2, "two")) == IidUniform(4, 0, "two")

    def test_block_null_spec_is_built_once(self):
        for mask in (np.arange(12) < 5, None):
            spec = BlockDependent((3,) * 4, "equicorrelated", 0.5, mask)
            assert restrict_to_nulls(spec) is restrict_to_nulls(spec)


_SIGMA3 = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.0]])


class TestTwoSidedTransform:
    def test_branch_values(self):
        p = IidUniform(3, sided="two").pvalues(np.array([0.3, 0.8, 0.5]))
        assert p.tolist() == pytest.approx([0.6, 0.4, 1.0])

    def test_gaussian_wrap_is_exact_in_the_tails(self):
        z = np.array([-9.0, -6.0, -3.0, 3.0, 6.0, 9.0])
        p = EquicorrelatedNormal(3, sided="two").pvalues(z)
        assert p.tobytes() == (2.0 * normal_cdf(-np.abs(z))).tobytes()
        assert p[0] == 2.0 * normal_cdf(-9.0) > 0.0

    @pytest.mark.parametrize("spec, two_sided", [
        (IidUniform(4, 3), IidUniform(4, 3, "two")),
        (EquicorrelatedNormal(4, 3, 0.3), EquicorrelatedNormal(4, 3, 0.3, "two")),
        (PrdnGaussian(_SIGMA3, (0, 2), np.array([0.0, 1.5, 0.0])),
         PrdnGaussian(_SIGMA3, (0, 2), np.array([0.0, 1.5, 0.0]), "two")),
        (BlockDependent((2, 3), null_mask=np.arange(5) < 3),
         BlockDependent((2, 3), null_mask=np.arange(5) < 3, sided="two")),
        (BlockDependent((2, 3), "equicorrelated", 0.5, np.arange(5) < 3),
         BlockDependent((2, 3), "equicorrelated", 0.5, np.arange(5) < 3, sided="two")),
    ], ids=["iid", "equicorrelated", "prdn", "block-identical", "block-equicorrelated"])
    def test_a_wrap_is_its_inner_spec_two_sided(self, spec, two_sided):
        wrapped = TwoSidedWrap(spec)
        assert type(wrapped) is type(spec) and wrapped.sided == "two" and spec.sided == "one"
        raw = wrapped.scores(np.random.default_rng(8), 50)
        assert raw.tobytes() == spec.scores(np.random.default_rng(8), 50).tobytes()
        assert np.array_equal(wrapped.null_mask, spec.null_mask)
        expected = two_sided_from_one_sided(raw) if spec.uniform else \
            2.0 * normal_cdf(-np.abs(raw))
        assert wrapped.pvalues(raw).tobytes() == expected.tobytes()
        # The wrap and its null spec draw what the spec built two-sided does.
        for got, want in [(wrapped, two_sided),
                          (restrict_to_nulls(wrapped), restrict_to_nulls(two_sided))]:
            assert got.sided == "two" and restrict_to_nulls(got).sided == "two"
            p = got.draw(np.random.default_rng(5), 40)
            assert p.tobytes() == want.draw(np.random.default_rng(5), 40).tobytes()
            assert np.array_equal(got.null_mask, want.null_mask)

    @pytest.mark.parametrize("null_idx", [(0, 2), (0, 1, 2)], ids=["mixed", "all-null"])
    def test_a_prdn_wrap_carries_its_factors(self, null_idx):
        sigma = np.array([[1.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 1.0]])
        mu = np.array([0.0, 1.5, 0.0]) if len(null_idx) < 3 else None
        spec = PrdnGaussian(sigma, null_idx, mu)
        wrapped = TwoSidedWrap(spec)
        # The wrap leaves the one-sided spec and its null spec as they were.
        assert spec.sided == "one" and restrict_to_nulls(spec).sided == "one"
        assert (restrict_to_nulls(wrapped) is wrapped) == (len(null_idx) == 3)
        built = PrdnGaussian(sigma, null_idx, mu, sided="two")
        for got, want in [(wrapped, built), (restrict_to_nulls(wrapped), restrict_to_nulls(built))]:
            assert got.sided == "two" and restrict_to_nulls(got).sided == "two"
            assert got._sqrt.tobytes() == want._sqrt.tobytes()
            p = got.draw(np.random.default_rng(5), 40)
            assert p.tobytes() == want.draw(np.random.default_rng(5), 40).tobytes()
            assert np.array_equal(got.null_mask, want.null_mask)

    def test_uniform_to_uniform(self):
        n = 50_000
        folded = IidUniform(n, sided="two").draw(np.random.default_rng(26), 1)[0]
        assert ks_distance_uniform(folded) <= KS_COEFF_1PCT / math.sqrt(n)


class TestBlockAdjusted:
    def test_singleton_identity(self):
        study = PValueStudy.global_null([0.3, 0.8, 0.1])
        adjusted = block_adjusted_pvalues(study, [[0], [1], [2]])
        assert np.allclose(adjusted, study.pvalues)

    def test_three_member_block(self):
        study = PValueStudy.global_null([0.02, 0.5, 0.9])
        assert block_adjusted_pvalues(study, [[0, 1, 2]])[0] == pytest.approx(0.06)

    def test_clamp(self):
        study = PValueStudy.global_null([0.7, 0.9])
        assert block_adjusted_pvalues(study, [[0, 1]])[0] == 1.0

    def test_partition_checked(self):
        study = PValueStudy.global_null([0.7, 0.9])
        with pytest.raises(ValueError):
            block_adjusted_pvalues(study, [[0]])
        with pytest.raises(ValueError):
            block_adjusted_pvalues(study, [[0, 0], [1]])


class TestStructuralChecks:
    def test_identity_both_hold(self):
        assert prdn_check_gaussian(np.eye(3), [0, 1, 2])
        assert prds_check_gaussian(np.eye(3), [0, 1, 2])

    def test_negative_cross_entry(self):
        sigma = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 1.0]])
        assert prdn_check_gaussian(sigma, [0, 1])
        assert not prds_check_gaussian(sigma, [0, 1])

    def test_negative_null_entry(self):
        sigma = np.array([[1.0, -0.3, 0.2], [-0.3, 1.0, 0.1], [0.2, 0.1, 1.0]])
        assert not prdn_check_gaussian(sigma, [0, 1])
        assert not prds_check_gaussian(sigma, [0, 1])

    def test_report_signs_follow_the_index_order(self):
        sigma = np.array([[1.0, -0.4, 0.4], [-0.4, 1.0, -0.4], [0.4, -0.4, 1.0]])
        assert structural_checks(sigma, [0, 1, 2]) == (False, False, "+-+")
        assert structural_checks(sigma, [1, 0, 2]) == (False, False, "+--")
        assert structural_checks(sigma, [0, 2]) == (True, False, "++")


_SIGMA3 = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])


class TestInputRules:
    """Malformed indices and matrices raise: nothing is truncated or deduplicated."""

    @pytest.mark.parametrize("check", [prdn_check_gaussian, prds_check_gaussian])
    @pytest.mark.parametrize("idx", [[0, 1.9], [0, 0, 1], [True, False]],
                             ids=["float", "duplicate", "bool"])
    def test_null_index_sets(self, check, idx):
        with pytest.raises(ValueError, match="null_idx must be"):
            check(_SIGMA3, idx)

    @pytest.mark.parametrize("i", [1.7, True], ids=["float", "bool"])
    def test_conditional_slope_index(self, i):
        with pytest.raises(ValueError, match="index i must be"):
            conditional_slope(_SIGMA3, i)

    @pytest.mark.parametrize("blocks", [[[0, 1.0], [2]], [[0, True], [2]]],
                             ids=["float", "bool"])
    def test_block_indices(self, blocks):
        with pytest.raises(ValueError, match="blocks must be"):
            block_adjusted_pvalues(PValueStudy.global_null([0.1, 0.5, 0.9]), blocks)

    @pytest.mark.parametrize("check", [prdn_check_gaussian, prds_check_gaussian,
                                       lambda sigma, idx: conditional_slope(sigma, idx[0])],
                             ids=["prdn", "prds", "conditional_slope"])
    def test_non_square_sigma(self, check):
        with pytest.raises(ValueError, match="square"):
            check(np.ones((2, 3)), [0, 1])


def exhaustive_mtp2(sigma0: np.ndarray, rel_tol: float = 1e-10) -> bool:
    """Oracle: try every diagonal sign matrix."""
    k_mat = -np.linalg.inv(sigma0)
    dim = k_mat.shape[0]
    tol = rel_tol * np.abs(k_mat).max()
    for bits in itertools.product((1, -1), repeat=dim):
        b = np.array(bits)
        conj = b[:, None] * k_mat * b[None, :]
        off = conj[~np.eye(dim, dtype=bool)]
        if off.min() >= -tol:
            return True
    return False


class TestMtp2SignCheck:
    def test_positive_pair(self):
        signs = mtp2_sign_check(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert signs is not None and list(signs) == [1, 1]

    def test_odd_negative_cycle_infeasible(self):
        sigma = -0.2 * np.ones((3, 3)) + 1.2 * np.eye(3)
        assert not exhaustive_mtp2(sigma)
        assert mtp2_sign_check(sigma) is None

    def test_diagonal_unconstrained(self):
        signs = mtp2_sign_check(np.diag([1.0, 2.0, 0.5]))
        assert signs is not None and list(signs) == [1, 1, 1]

    def test_sign_flip_of_positive_matrix_is_feasible(self):
        base = 0.4 * np.ones((4, 4)) + 0.6 * np.eye(4)
        flip = np.diag([1.0, -1.0, 1.0, -1.0])
        signs = mtp2_sign_check(flip @ base @ flip)
        assert signs is not None

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(27)
        agree_feasible = 0
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            raw = rng.standard_normal((dim, dim))
            base = raw @ raw.T + dim * np.eye(dim)
            d = np.sqrt(np.diag(base))
            sigma = base / np.outer(d, d)
            flip = np.diag(rng.choice([-1.0, 1.0], dim))
            sigma = flip @ sigma @ flip
            expected = exhaustive_mtp2(sigma)
            signs = mtp2_sign_check(sigma)
            assert (signs is not None) == expected
            if signs is not None:
                agree_feasible += 1
                k_mat = -np.linalg.inv(sigma)
                conj = signs[:, None] * k_mat * signs[None, :]
                off = conj[~np.eye(dim, dtype=bool)]
                assert off.min() >= -1e-10 * np.abs(k_mat).max()
        assert agree_feasible > 20

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            mtp2_sign_check(np.ones((3, 3)))


class TestConditionalSlope:
    def test_diagonal_gives_zero(self):
        assert np.allclose(conditional_slope(np.eye(4), 1), 0.0)

    def test_two_by_two(self):
        sigma = np.array([[1.0, 0.35], [0.35, 1.0]])
        assert conditional_slope(sigma, 0) == pytest.approx([0.35])

    def test_zero_variance_coordinate_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            conditional_slope(np.diag([1.0, 0.0]), 1)

    def test_equicorrelated_nonnegative(self):
        for rho in (0.0, 0.3, 0.7):
            n = 6
            sigma = rho * np.ones((n, n)) + (1 - rho) * np.eye(n)
            assert prdn_check_gaussian(sigma, list(range(n)))
            for i in range(n):
                slope = conditional_slope(sigma, i)
                assert np.allclose(slope, rho)
                assert np.all(slope >= 0.0)


class TestVanishingNullFamily:
    def test_small_indices(self):
        assert vanishing_null_family(2) == (2, 2)
        assert vanishing_null_family(1) == (1, 1)

    def test_ratio_bounded(self):
        for l in range(1, 10_001):
            n, n0 = vanishing_null_family(l)
            assert n >= n0 >= 1
            if n0 >= 2:
                assert n0 * math.log(n0) / n <= 1.0 + 1e-12

    def test_index_must_be_a_plain_integer(self):
        for l in (2.7, 2.0, True, np.int64(2), "2", 0):
            with pytest.raises(ValueError, match="family index"):
                vanishing_null_family(l)


class TestSimesDistribution:
    """Distributional facts about the Simes combination under the samplers."""

    def _simes_samples(self, spec, reps, seed):
        nulls = restrict_to_nulls(spec).draw(np.random.default_rng(seed), reps)
        return np.array([simes_pvalue(row) for row in nulls])

    def test_exactly_uniform_under_independence(self):
        samples = self._simes_samples(IidUniform(20, 0), 20_000, 31)
        assert ks_distance_uniform(samples) <= KS_COEFF_1PCT / math.sqrt(samples.size)

    def test_identical_nulls_reduce_to_single_uniform(self):
        # All order statistics equal the shared draw, so the combination is
        # the draw itself.
        rng = np.random.default_rng(32)
        spec = BlockDependent((12,))
        for _ in range(50):
            nulls = sample_null_pvalues(spec, rng)
            assert simes_pvalue(nulls) == pytest.approx(nulls[0], abs=1e-15)

    @pytest.mark.parametrize("spec", [
        IidUniform(15, 0),
        EquicorrelatedNormal(15, 0, 0.5),
        EquicorrelatedNormal(15, 0, 0.0),
        PrdnGaussian(np.array([[0.6 ** abs(i - j) for j in range(6)] for i in range(6)]),
                     tuple(range(6))),
    ])
    def test_stochastically_dominates_uniform_under_positive_dependence(self, spec):
        reps = 20_000
        samples = self._simes_samples(spec, reps, 33)
        for x in (0.01, 0.05, 0.1, 0.25, 0.5, 0.9):
            emp = float(np.mean(samples <= x))
            assert emp <= x + 3.0 * math.sqrt(x * (1 - x) / reps)
