"""Tests for the distribution and joint-model layer."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from softprob.distributions import (
    BivariateGaussianModel,
    Gaussian,
    JointModel,
    Uniform,
    UserDefinedDistribution,
    joint_gaussian_additive,
    parse_distribution,
    parse_joint,
)
from softprob.errors import DomainError
from softprob.quadrature import integrate_1d, integrate_2d

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TestGaussian:
    def test_standard_pdf_at_zero(self):
        assert Gaussian(0, 1).pdf(0.0) == pytest.approx(0.3989422804, abs=1e-10)

    def test_standard_cdf_at_zero(self):
        assert Gaussian(0, 1).cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(DomainError):
            Gaussian(0, 0)
        with pytest.raises(DomainError):
            Gaussian(0, -1)

    def test_cdf_limits_at_ten_scales(self):
        d = Gaussian(2.0, 4.0)
        lo, hi = d.truncated_range()
        assert d.cdf(lo) < 1e-15
        assert d.cdf(hi) > 1.0 - 1e-15

    @given(st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-2, max_value=2),
           st.floats(min_value=0.25, max_value=4.0))
    def test_pdf_matches_cdf_derivative(self, x, mean, variance):
        d = Gaussian(mean, variance)
        h = 1e-6
        slope = (d.cdf(x + h) - d.cdf(x - h)) / (2 * h)
        assert math.isclose(d.pdf(x), slope, rel_tol=1e-5, abs_tol=1e-5)


class TestUniform:
    def test_unit_interval_pdf(self):
        assert Uniform(0, 1).pdf(0.5) == 1.0

    def test_outside_support(self):
        assert Uniform(0, 2).pdf(3.0) == 0.0

    def test_open_endpoints(self):
        d = Uniform(0, 1)
        assert d.pdf(0.0) == 0.0
        assert d.pdf(1.0) == 0.0

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(DomainError):
            Uniform(1, 1)
        with pytest.raises(DomainError):
            Uniform(2, 1)

    @given(st.floats(min_value=-5, max_value=5),
           st.floats(min_value=0.1, max_value=5))
    def test_interior_density_is_reciprocal_width(self, a, width):
        d = Uniform(a, a + width)
        assert d.pdf(a + width / 2) == pytest.approx(1.0 / width)

    def test_cdf_clamps(self):
        d = Uniform(0, 2)
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(1.0) == 0.5
        assert d.cdf(5.0) == 1.0


class TestUserDefined:
    def test_wraps_callables(self):
        d = UserDefinedDistribution(
            pdf=lambda x: 2.0 * x if 0 <= x <= 1 else 0.0,
            cdf=lambda x: min(max(x, 0.0), 1.0) ** 2,
            support=(0.0, 1.0))
        assert d.pdf(0.5) == 1.0
        assert d.cdf(0.5) == 0.25
        assert d.prob_between(0.0, 1.0) == 1.0


class TestJointGaussianAdditive:
    def test_output_marginal_is_variance_sum(self):
        j = joint_gaussian_additive(Gaussian(0, 1), Gaussian(0, 1))
        assert j.marginal_y.mean == 0.0
        assert j.marginal_y.variance == pytest.approx(2.0)

    def test_conditional_peaks_at_input_value(self):
        j = joint_gaussian_additive(Gaussian(0, 1), Gaussian(0, 1))
        for x in (-1.0, 0.0, 2.5):
            center = j.conditional_pdf(x, given_x=x)
            assert center > j.conditional_pdf(x + 0.3, given_x=x)
            assert center > j.conditional_pdf(x - 0.3, given_x=x)

    def test_joint_pdf_at_origin(self):
        j = joint_gaussian_additive(Gaussian(0, 1), Gaussian(0, 1))
        # f(0,0) = phi(0) * conditional density of y=0 given x=0
        want = INV_SQRT_2PI * INV_SQRT_2PI
        assert j.joint_pdf(0.0, 0.0) == pytest.approx(want, rel=1e-12)

    def test_marginalization_recovers_marginal_x(self):
        j = joint_gaussian_additive(Gaussian(0, 1), Gaussian(0, 1))
        y_lo, y_hi = j.marginal_y.truncated_range()
        for x in (-1.0, 0.5, 1.5):
            got = integrate_1d(lambda y: j.joint_pdf(x, y), y_lo, y_hi)
            assert math.isclose(got, j.marginal_x.pdf(x), rel_tol=1e-6)


class TestBivariateGaussianModel:
    def test_independent_joint_cdf_factorizes(self):
        j = BivariateGaussianModel(0, 0, 1, 1, 0.0)
        assert j.joint_cdf(0.0, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_correlated_joint_cdf_vs_quadrature(self):
        j = BivariateGaussianModel(0, 0, 1, 1, 0.6)
        x_lo, _ = j.marginal_x.truncated_range()
        y_lo, _ = j.marginal_y.truncated_range()
        want = integrate_2d(j.joint_pdf, x_lo, 0.3, y_lo, -0.2)
        assert math.isclose(j.joint_cdf(0.3, -0.2), want, rel_tol=1e-6)

    def test_partial_cdfs_match_generic_quadrature(self):
        j = BivariateGaussianModel(0.1, -0.2, 1.0, 2.0, 0.4)

        class Generic(JointModel):
            marginal_x = j.marginal_x
            marginal_y = j.marginal_y

            def joint_pdf(self, x, y):
                return j.joint_pdf(x, y)

            def conditional_pdf(self, x, y):
                return j.conditional_pdf(x, y)

        g = Generic()
        for x, y in ((0.0, 0.0), (0.5, -1.0), (-1.2, 0.7)):
            assert math.isclose(j.cdf_partial_x(x, y), g.cdf_partial_x(x, y),
                                rel_tol=1e-6, abs_tol=1e-9)
            assert math.isclose(j.cdf_partial_y(x, y), g.cdf_partial_y(x, y),
                                rel_tol=1e-6, abs_tol=1e-9)
            assert math.isclose(j.joint_cdf(x, y), g.joint_cdf(x, y),
                                rel_tol=1e-6, abs_tol=1e-9)

    def test_variances_too_far_apart_rejected(self):
        # the conditional slope rho * sqrt(var_y / var_x) overflows
        with pytest.raises(DomainError):
            BivariateGaussianModel(0, 0, 5e-324, 1.0, 0.5)

    def test_extreme_correlation_rejected(self):
        with pytest.raises(DomainError):
            BivariateGaussianModel(0, 0, 1, 1, 1.0)
        with pytest.raises(DomainError):
            BivariateGaussianModel(0, 0, 1, -1, 0.0)


class TestParsing:
    def test_gaussian_descriptor(self):
        d = parse_distribution({"kind": "gaussian", "mean": 1.0, "variance": 4.0})
        assert isinstance(d, Gaussian)
        assert d.mean == 1.0
        assert d.variance == 4.0

    def test_uniform_descriptor(self):
        d = parse_distribution({"kind": "uniform", "lo": 0.0, "hi": 2.0})
        assert isinstance(d, Uniform)
        assert (d.lo, d.hi) == (0.0, 2.0)

    def test_joint_descriptor(self):
        j = parse_joint({"kind": "joint_gaussian_additive",
                         "input": {"mean": 0, "variance": 1},
                         "noise": {"mean": 0, "variance": 1}})
        assert isinstance(j, BivariateGaussianModel)
        assert j.marginal_y.variance == pytest.approx(2.0)

    def test_bivariate_descriptor(self):
        j = parse_joint({"kind": "bivariate_gaussian", "mean_x": 0.5, "mean_y": -1.0,
                         "var_x": 1.0, "var_y": 2.0, "correlation": 0.25})
        assert isinstance(j, BivariateGaussianModel)
        assert j.rho == 0.25
        with pytest.raises(DomainError):
            parse_joint({"kind": "bivariate_gaussian", "mean_x": 0.0})

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            parse_distribution({"kind": "triangular", "lo": 0, "hi": 1})

    def test_missing_field_rejected(self):
        with pytest.raises(DomainError):
            parse_distribution({"kind": "gaussian", "mean": 0.0})
