"""Tests for the closed-form bounds and curve integration."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from fdrlink import (
    AlphaInterval,
    EmpiricalCurve,
    LinearCurve,
    WorstCaseCurve,
    arbitrary_dep_bound,
    fdr_link_bound,
    fdx_bound,
    guo_rao_reference,
    harmonic,
    improvement_range,
    link_bound_raw,
    log_correction_bound,
    prdn_bound,
    prdn_bound_pi0,
)
from fdrlink.bounds import _HARMONIC_CUTOFF, bounds_table


def harmonic_oracle(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def quad_tail_integral(curve, a: float) -> float:
    """Adaptive quadrature of F(x)/x**2 over [a, 1], segment by segment."""
    if isinstance(curve, EmpiricalCurve):
        inner = [k for k in curve.knots if a < k < 1.0]
        points = [a, *inner, 1.0]
    elif isinstance(curve, LinearCurve) and curve.slope > 1.0:
        knee = 1.0 / curve.slope
        points = [a, knee, 1.0] if a < knee < 1.0 else [a, 1.0]
    else:
        points = [a, 1.0]
    total = 0.0
    for lo, hi in zip(points[:-1], points[1:]):
        val, _ = quad(lambda x: curve.value(x) / x**2, lo, hi, limit=200)
        total += val
    return total


class TestCurves:
    def test_worst_case_collapses_the_bound_to_one(self):
        for pi0, alpha in ((1.0, 0.05), (0.5, 0.2), (0.1, 0.9)):
            assert fdr_link_bound(pi0, alpha, WorstCaseCurve()) == pytest.approx(1.0)

    def test_worst_case_tail_integral_matches_quadrature(self):
        curve = WorstCaseCurve()
        assert [curve.value(x) for x in (1e-9, 0.5, 1.0)] == [1.0, 1.0, 1.0]
        for a in (0.01, 0.2, 0.9):
            assert curve.tail_integral(a) == pytest.approx(quad_tail_integral(curve, a),
                                                           rel=1e-10)

    def test_linear_one_closed_form(self):
        expected = 0.05 + 0.05 * math.log(20.0)
        assert fdr_link_bound(1.0, 0.05, LinearCurve(1.0)) == pytest.approx(expected, rel=1e-15)

    def test_linear_slope_formula(self):
        # For slope <= 1 the bound is t + c*t*log(1/t) with t = pi0*alpha.
        for c in (0.2, 0.7, 1.0):
            for pi0, alpha in ((1.0, 0.05), (0.5, 0.1)):
                t = pi0 * alpha
                expected = t + c * t * math.log(1.0 / t)
                got = fdr_link_bound(pi0, alpha, LinearCurve(c))
                assert got == pytest.approx(expected, rel=1e-14)
        # For slope > 1 the formula is an upper bound for the exact value.
        for c in (1.5, 4.0):
            t = 0.03
            exact = link_bound_raw(t, LinearCurve(c))
            assert exact <= t + c * t * math.log(1.0 / t) + 1e-15

    def test_linear_matches_quadrature(self):
        rng = np.random.default_rng(201)
        for _ in range(30):
            c = float(rng.uniform(0.0, 6.0))
            a = float(rng.uniform(0.005, 0.9))
            curve = LinearCurve(c)
            assert curve.tail_integral(a) == pytest.approx(
                quad_tail_integral(curve, a), rel=1e-10, abs=1e-12)

    def test_empirical_matches_quadrature(self):
        rng = np.random.default_rng(202)
        for _ in range(25):
            knots = rng.random(int(rng.integers(1, 120)))
            curve = EmpiricalCurve(knots)
            a = float(rng.uniform(0.01, 0.9))
            assert curve.tail_integral(a) == pytest.approx(
                quad_tail_integral(curve, a), rel=1e-10, abs=1e-12)

    def test_empirical_is_a_cdf(self):
        curve = EmpiricalCurve([0.2, 0.4, 0.4, 0.9])
        assert curve.value(0.1) == 0.0
        assert curve.value(0.2) == 0.25
        assert curve.value(0.4) == 0.75
        assert curve.value(1.0) == 1.0
        xs = np.linspace(0, 1, 101)
        vals = curve.values(xs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            LinearCurve(-0.5)
        with pytest.raises(ValueError):
            EmpiricalCurve([0.2, 1.4])
        with pytest.raises(ValueError):
            EmpiricalCurve([])

    def test_monotone_in_level_for_random_empirical_curves(self):
        rng = np.random.default_rng(203)
        grid = np.linspace(1e-3, 1 - 1e-3, 300)
        for _ in range(20):
            curve = EmpiricalCurve(rng.random(int(rng.integers(1, 60))))
            values = [link_bound_raw(float(t), curve) for t in grid]
            assert all(b - a >= -1e-12 for a, b in zip(values[:-1], values[1:]))


class TestPrdnBounds:
    def test_value_at_one_over_e(self):
        assert prdn_bound(1 / math.e) == pytest.approx(2 / math.e, rel=1e-15)

    def test_value_at_five_percent(self):
        assert prdn_bound(0.05) == pytest.approx(0.19978661367769955, rel=1e-14)

    def test_pi0_strengthening(self):
        assert prdn_bound_pi0(0.5, 0.05) == pytest.approx(
            0.025 + 0.025 * math.log(40.0), rel=1e-14)

    def test_dominance_chain(self):
        rng = np.random.default_rng(204)
        for _ in range(200):
            pi0 = float(rng.uniform(0.05, 1.0))
            alpha = float(rng.uniform(0.001, 0.99))
            assert prdn_bound_pi0(pi0, alpha) <= prdn_bound(alpha) + 1e-15

    def test_equals_linear_one_link_bound_exactly(self):
        rng = np.random.default_rng(205)
        for _ in range(100):
            pi0 = float(rng.uniform(0.05, 1.0))
            alpha = float(rng.uniform(0.001, 0.9))
            if prdn_bound_pi0(pi0, alpha) < 1.0:
                assert fdr_link_bound(pi0, alpha, LinearCurve(1.0)) == prdn_bound_pi0(pi0, alpha)

    def test_domain(self):
        with pytest.raises(ValueError):
            prdn_bound(0.0)
        with pytest.raises(ValueError):
            prdn_bound_pi0(0.0, 0.5)
        with pytest.raises(ValueError, match="alpha must be a real number"):
            prdn_bound("0.5")
        with pytest.raises(ValueError):
            prdn_bound(True)


class TestHarmonic:
    def test_small_values_exact(self):
        assert harmonic(1) == 1.0
        assert harmonic(3) == pytest.approx(float(Fraction(11, 6)), rel=1e-16)
        assert harmonic(10) == pytest.approx(float(harmonic_oracle(10)), rel=1e-15)
        assert harmonic(10) == pytest.approx(2.9289682539682538, rel=1e-15)

    def test_matches_fraction_oracle(self):
        for n in (2, 17, 100, 503):
            assert harmonic(n) == pytest.approx(float(harmonic_oracle(n)), rel=1e-14)

    def test_large_n_against_asymptotic(self):
        n = 10**6
        gamma = 0.5772156649015328606
        approx = math.log(n) + gamma + 1 / (2 * n) - 1 / (12 * n**2)
        assert harmonic(n) == pytest.approx(approx, rel=1e-12)

    def test_expansion_matches_exact_sum_around_cutoff(self):
        terms = [1.0 / k for k in range(1, _HARMONIC_CUTOFF + 4)]
        for n in range(_HARMONIC_CUTOFF - 2, _HARMONIC_CUTOFF + 4):
            assert harmonic(n) == pytest.approx(math.fsum(terms[:n]), rel=1e-15)

    def test_expansion_at_1e9(self):
        # H(1e9) = 21.30048150234794401668... (40-digit arithmetic)
        assert harmonic(10**9) == pytest.approx(21.300481502347944017, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            harmonic(0)


class TestClosedFormBounds:
    def test_log_correction_examples(self):
        assert log_correction_bound(1, 1.0, 0.3) == pytest.approx(0.3)
        assert log_correction_bound(3, 1.0, 0.1) == pytest.approx(11 / 60, rel=1e-14)
        assert log_correction_bound(10**4, 1.0, 0.5) == 1.0

    def test_arbitrary_dep_examples(self):
        # Boundary of the piecewise form.
        n0, pi0 = 5, 0.8
        alpha = 1.0 / (pi0 * harmonic(n0))
        assert arbitrary_dep_bound(n0, pi0, alpha) == 1.0
        expected = 0.15 * math.log(math.e / 0.15)
        assert arbitrary_dep_bound(2, 1.0, 0.1) == pytest.approx(expected, rel=1e-14)

    def test_arbitrary_dep_equals_link_bound_with_harmonic_slope(self):
        rng = np.random.default_rng(206)
        for _ in range(100):
            n0 = int(rng.integers(1, 400))
            pi0 = float(rng.uniform(0.05, 1.0))
            alpha = float(rng.uniform(0.001, 0.99))
            lhs = arbitrary_dep_bound(n0, pi0, alpha)
            rhs = fdr_link_bound(pi0, alpha, LinearCurve(harmonic(n0)))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_fdx_examples(self):
        assert fdx_bound(1.0, 0.05, 0.5) == pytest.approx(0.1)
        assert fdx_bound(1.0, 0.3, 0.2) == 1.0
        assert fdx_bound(0.5, 0.1, 0.25) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            fdx_bound(1.0, 0.05, 1.5)

    def test_guo_rao_examples(self):
        assert guo_rao_reference(1, 0.3) == pytest.approx(0.3)
        assert guo_rao_reference(3, 0.1) == pytest.approx(11 / 60, rel=1e-14)
        assert guo_rao_reference(10**4, 0.9) == 1.0

    def test_all_bounds_nondecreasing_in_alpha(self):
        alphas = np.linspace(0.005, 0.95, 120)
        evaluators = [
            prdn_bound,
            lambda a: prdn_bound_pi0(0.6, a),
            lambda a: log_correction_bound(50, 0.6, a),
            lambda a: arbitrary_dep_bound(50, 0.6, a),
            lambda a: fdx_bound(0.6, a, 0.25),
            lambda a: guo_rao_reference(50, a),
            lambda a: fdr_link_bound(0.6, a, EmpiricalCurve([0.1, 0.3, 0.8])),
        ]
        for f in evaluators:
            vals = [f(float(a)) for a in alphas]
            assert all(b - a >= -1e-12 for a, b in zip(vals[:-1], vals[1:]))


class TestImprovementRange:
    def test_global_null_is_empty(self):
        assert improvement_range(100, 100, 1.0).is_empty

    def test_known_endpoints(self):
        interval = improvement_range(200, 100, 0.5)
        s100 = float(harmonic_oracle(100))
        s200 = float(harmonic_oracle(200))
        upper = 1.0 / (0.5 * s100)
        lower = math.exp(1.0 - s200 / s100) * upper
        assert interval.lower == pytest.approx(lower, rel=1e-12)
        assert interval.upper == pytest.approx(upper, rel=1e-12)
        # Matches the quoted approximate range.
        assert interval.lower == pytest.approx(0.3375, abs=5e-5)
        assert interval.upper == pytest.approx(0.3856, abs=5e-5)

    def test_subset_of_unit_interval(self):
        rng = np.random.default_rng(207)
        for _ in range(100):
            n0 = int(rng.integers(1, 300))
            n = n0 + int(rng.integers(0, 500))
            interval = improvement_range(n, n0, float(rng.uniform(0.05, 1.0)))
            if not interval.is_empty:
                assert 0.0 <= interval.lower < interval.upper <= 1.0

    def test_strict_improvement_inside_range(self):
        rng = np.random.default_rng(208)
        done = 0
        while done < 50:
            n0 = int(rng.integers(2, 400))
            n = n0 + int(rng.integers(1, 800))
            pi0 = float(rng.uniform(0.1, 1.0))
            interval = improvement_range(n, n0, pi0)
            grid = interval.grid(15)
            if grid.size == 0:
                continue
            done += 1
            for alpha in grid:
                assert arbitrary_dep_bound(n0, pi0, float(alpha)) < \
                    log_correction_bound(n, pi0, float(alpha))

    def test_errors(self):
        for n, n0 in ((10, 20), (10.5, 5), (10, 5.0), (True, 1)):
            with pytest.raises(ValueError):
                improvement_range(n, n0, 0.5)

    def test_interval_grid(self):
        assert AlphaInterval(0.5, 0.2).grid(5).size == 0
        grid = AlphaInterval(0.2, 0.4).grid(5)
        assert grid.size == 5 and np.all((grid > 0.2) & (grid < 0.4))


def _table_row(name: str, n: int = 50, n0: int = 20, pi0: float = 0.5,
               alpha: float = 0.1, gamma: float = 0.3) -> list:
    """The row `name` of a one-level bounds table."""
    _, rows = bounds_table(n, n0, pi0, [alpha], [gamma])
    return next(row for row in rows if row[0] == name)


class TestReports:
    def test_clamped_flag(self):
        row = _table_row("guo_rao", n=10**4, alpha=0.9)
        assert row[6] == 1.0 and row[7] is True
        row = _table_row("prdn", n=10**4, alpha=0.9)
        assert row[6] < 1.0 and row[7] is False

    @pytest.mark.parametrize("name, bound, args", [
        ("log_correction", log_correction_bound, dict(n=50, pi0=0.4, alpha=0.1)),
        ("log_correction", log_correction_bound, dict(n=50, pi0=0.9, alpha=0.5)),
        ("fdx", fdx_bound, dict(pi0=0.4, alpha=0.1, gamma=0.3)),
        ("fdx", fdx_bound, dict(pi0=0.9, alpha=0.5, gamma=0.3)),
        ("guo_rao", guo_rao_reference, dict(n=50, alpha=0.1)),
        ("guo_rao", guo_rao_reference, dict(n=50, alpha=0.5)),
        ("prdn", prdn_bound, dict(alpha=0.3)),
        ("prdn_pi0", prdn_bound_pi0, dict(pi0=0.4, alpha=0.3)),
        ("arbitrary_dep", arbitrary_dep_bound, dict(n0=20, pi0=0.4, alpha=0.01)),
        ("arbitrary_dep", arbitrary_dep_bound, dict(n0=20, pi0=0.9, alpha=0.5)),
    ])
    def test_report_value_is_the_named_bound(self, name, bound, args):
        assert _table_row(name, **args)[6] == bound(**args)

    @pytest.mark.parametrize("name, args", [
        ("guo_rao", dict(n=10.7, alpha=0.1)),
        ("guo_rao", dict(n=True, alpha=0.1)),
        ("log_correction", dict(n=10.0, pi0=0.5, alpha=0.1)),
        ("arbitrary_dep", dict(n0=7.5, pi0=0.5, alpha=0.1)),
    ])
    def test_non_integer_counts_rejected(self, name, args):
        with pytest.raises(ValueError):
            _table_row(name, **args)

    def test_bounds_table_columns(self):
        header, rows = bounds_table(100, 60, 0.6, [0.05, 0.1], [0.25])
        assert header == ("bound_name", "n", "n0", "pi0", "alpha", "gamma",
                          "value", "clamped_flag")
        names = {row[0] for row in rows}
        assert names == {"prdn", "prdn_pi0", "log_correction", "arbitrary_dep",
                         "guo_rao", "fdx"}
        for row in rows:
            assert 0.0 <= row[6] <= 1.0
        with pytest.raises(ValueError):
            bounds_table(100, 60, 0.6, [])

    @pytest.mark.parametrize("n, n0", [(10, 20), (10, 0), (59, 60)])
    def test_bounds_table_needs_n_at_least_n0(self, n, n0):
        # improvement_range refuses these counts; the table must too.
        with pytest.raises(ValueError):
            bounds_table(n, n0, 0.5, [0.1])
