"""Tests for the distribution and joint-model layer."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softprob.distributions import (
    BivariateGaussianModel,
    ContinuousDistribution,
    Gaussian,
    JointModel,
    Uniform,
    UserDefinedDistribution,
    joint_gaussian_additive,
    parse_distribution,
    parse_joint,
)
from softprob.errors import DomainError
from softprob.moments import MixedSet, soft_expectation
from softprob.quadrature import integrate_1d, integrate_2d

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _rel(want: float, rel: float = 1e-12):
    """want within a relative error rel, with no absolute slack for tiny tails."""
    return pytest.approx(want, rel=rel, abs=0.0)


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

    def test_scalar_pdf_is_the_array_density_at_one_point(self):
        d = Gaussian(0.3, 2.5)
        xs = np.random.default_rng(0).uniform(-50.0, 5.0, 2000)
        assert [d.pdf(x) for x in xs.tolist()] == d.pdf_array(xs).tolist()

    def test_far_points_give_zero_density_and_tails_without_warnings(self):
        d = Gaussian(0.0, 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.pdf(1e300) == 0.0
            assert d.cdf(1e300) == 1.0 and d.cdf(-1e300) == 0.0
            assert d.mass(-1e308, 1e308) == 1.0

    def test_cdf_keeps_the_lower_tail(self):
        # 0.5 * (1 + erf(z / sqrt(2))) is exactly 0 here
        assert Gaussian(0, 1).cdf(-10.0) == _rel(7.6198530241605261e-24)
        assert Gaussian(2.0, 4.0).cdf(-38.0) == _rel(2.7536241186062337e-89)


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

    def test_supports_wider_than_the_largest_float(self):
        # hi - lo overflows on each of these supports
        d = Uniform(-1e308, 1e308)
        assert d.pdf(0.0) == 5e-309
        assert d.cdf(0.0) == 0.5
        assert d.cdf(5e307) == 0.75
        assert d.mass(0.0, 1e308) == 0.5
        assert (d.location, d.scale) == (0.0, 1e308 / math.sqrt(3.0))
        assert Uniform(1e308, 1.7e308).location == 1.35e308
        assert Uniform(-1.7e308, 1.7e308).cdf(0.0) == 0.5

    def test_support_whose_density_overflows_is_rejected(self):
        for hi in (1e-320, 5e-324):
            with pytest.raises(DomainError, match="too narrow"):
                Uniform(0.0, hi)

    @pytest.mark.parametrize("lo, hi, x", [(0.0, 1.0, 0.3), (-3.7, 2.9, 1.1),
                                           (1e-3, 1.7e-3, 1.3e-3), (-1e200, 3e200, 7e199),
                                           (12.25, 12.75, 12.6)])
    def test_ordinary_supports_keep_the_reciprocal_width_bits(self, lo, hi, x):
        d = Uniform(lo, hi)
        density = 1.0 / (hi - lo)
        assert d.pdf(x) == density
        assert d.cdf(x) == (x - lo) * density
        assert d.location == 0.5 * (lo + hi)
        assert d.scale == (hi - lo) / math.sqrt(12.0)


class TestUserDefined:
    def test_wraps_callables(self):
        d = UserDefinedDistribution(
            pdf=lambda x: 2.0 * x if 0 <= x <= 1 else 0.0,
            cdf=lambda x: min(max(x, 0.0), 1.0) ** 2,
            support=(0.0, 1.0))
        assert d.pdf(0.5) == 1.0
        assert d.cdf(0.5) == 0.25

    @pytest.mark.parametrize("support", [(-math.inf, math.inf), (0.0, math.inf),
                                         (-math.inf, 0.0)])
    @pytest.mark.parametrize("hints", [{}, {"location": 100.0}, {"scale": 1.0}])
    def test_infinite_support_needs_location_and_scale(self, support, hints):
        g = Gaussian(100.0, 1.0)
        with pytest.raises(DomainError, match="location and scale"):
            UserDefinedDistribution(g.pdf, g.cdf, support, **hints)

    @pytest.mark.parametrize("which", ["pdf", "cdf"])
    def test_a_bad_value_names_x(self, which):
        d = UserDefinedDistribution(lambda x: -1.0, lambda x: 1.5, support=(0.0, 1.0))
        with pytest.raises(DomainError, match=rf"^{which} must be .* at x=0\.25$"):
            getattr(d, which)(0.25)

    def test_hints_place_the_generic_joint_cdf_window(self):
        # without the hints the window was (-10, 10) and joint_cdf(101, 101) was 0.0
        g = Gaussian(100.0, 1.0)
        d = UserDefinedDistribution(g.pdf, g.cdf, location=100.0, scale=1.0)

        class Independent(JointModel):
            marginal_x = marginal_y = d

            def joint_pdf(self, x, y):
                return d.pdf(x) * d.pdf(y)

            def conditional_pdf(self, y, given_x):
                return d.pdf(y)

        assert Independent().joint_cdf(101.0, 101.0) == pytest.approx(g.cdf(101.0) ** 2,
                                                                        rel=1e-8)


def test_default_window_needs_a_finite_support():
    # with location 0 and scale 1 on an infinite support, the window (-10, 10)
    # missed N(1000, 1): soft_expectation over (0, 2000) gave 999.9997118622981
    g = Gaussian(1000.0, 1.0)

    class Shifted(ContinuousDistribution):
        support = (-math.inf, math.inf)
        pdf, cdf = g.pdf, g.cdf

    for hint in ("location", "scale"):
        with pytest.raises(DomainError, match="Shifted must define location and scale"):
            getattr(Shifted(), hint)
    with pytest.raises(DomainError, match="infinite"):
        soft_expectation(Shifted(), MixedSet([], [(0.0, 2000.0)]))
    Shifted.location, Shifted.scale = 1000.0, 1.0
    assert soft_expectation(Shifted(), MixedSet([], [(0.0, 2000.0)])).real == _rel(1000.0)


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
            got = integrate_1d(lambda ys: np.array([j.joint_pdf(x, y) for y in ys]), y_lo, y_hi)
            assert math.isclose(got, j.marginal_x.pdf(x), rel_tol=1e-6)


class TestBivariateGaussianModel:
    def test_independent_joint_cdf_factorizes(self):
        j = BivariateGaussianModel(0, 0, 1, 1, 0.0)
        assert j.joint_cdf(0.0, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_correlated_joint_cdf_vs_quadrature(self):
        j = BivariateGaussianModel(0, 0, 1, 1, 0.6)
        x_lo, _ = j.marginal_x.truncated_range()
        y_lo, _ = j.marginal_y.truncated_range()
        want = integrate_2d(j.joint_pdf_grid, x_lo, 0.3, y_lo, -0.2)
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

    def test_scalar_conditional_pdf_is_the_grid_at_one_point(self):
        j = BivariateGaussianModel(0.3, -1.2, 2.0, 0.5, 0.6)
        xs, ys = np.random.default_rng(0).normal(0.0, 3.0, (2, 2000))
        for x, y in zip(xs.tolist(), ys.tolist()):
            grid = j.conditional_pdf_grid(np.array([y]), np.array([x]))[0, 0]
            assert j.conditional_pdf(y, x) == grid
            assert j.joint_pdf(x, y) == j.joint_pdf_grid(np.array([x]), np.array([y]))[0, 0]

    def test_tail_cdfs_keep_their_digits(self):
        # mpmath at 30-40 digits: closed forms, and the joint cdf as a 600-panel
        # quadrature of f_X(t) Phi((y - m(t)) / s); with 0.5*(1 + erf) the joint cdf
        # raised ConvergenceError and the other three were 0
        j = BivariateGaussianModel(0.5, -1.0, 2.0, 0.5, -0.7)
        assert j.joint_cdf(-1.3, -9.0) == _rel(8.6029909336024913e-68, 1e-10)
        assert j.cdf_partial_x(-1.3, -9.0) == _rel(1.1064346268026165e-66)
        assert j.cdf_partial_y(-1.3, -9.0) == _rel(2.9305213063286956e-66)
        assert j.conditional_cdf(-9.0, -1.3) == _rel(8.8167641050199394e-66)

    def test_variances_too_far_apart_rejected(self):
        # the slope of Y given X, rho * sqrt(var_y / var_x), overflows; or that
        # of X given Y, rho * sqrt(var_x / var_y), which cdf_partial_y reads:
        # (1e300, 1e-300) gave cdf_partial_y(0, 1e-160) = 0.0 where mpmath at
        # 40 digits gives 1.9947114019152752e+149; or var_x * (1 - rho^2)
        # underflows to 0, where cdf_partial_y raised ZeroDivisionError
        for var_x, var_y, rho in ((5e-324, 1.0, 0.5), (1e300, 1e-300, 0.5),
                                  (1.0, 5e-324, 0.5), (1e-320, 1e-310, 0.99999)):
            with pytest.raises(DomainError, match="too far apart"):
                BivariateGaussianModel(0, 0, var_x, var_y, rho)

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

    @pytest.mark.parametrize("bad", [None, [1.0], {"v": 1}, "one", 10 ** 400, True, "2"])
    def test_non_numeric_field_rejected(self, bad):
        with pytest.raises(DomainError, match="'variance' is not a number"):
            parse_distribution({"kind": "gaussian", "mean": 0.0, "variance": bad})
        with pytest.raises(DomainError, match="'variance' is not a number"):
            parse_joint({"kind": "joint_gaussian_additive",
                         "input": {"mean": 0, "variance": 1},
                         "noise": {"mean": 0, "variance": bad}})
        with pytest.raises(DomainError, match="'correlation' is not a number"):
            parse_joint({"kind": "bivariate_gaussian", "mean_x": 0, "mean_y": 0,
                         "var_x": 1, "var_y": 1, "correlation": bad})
