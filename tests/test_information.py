"""Tests for soft entropy, cross entropy, KL divergence, and mutual information."""

import math
import random
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import softprob.information as information
import softprob.quadrature as quadrature
from softprob.distributions import (
    BivariateGaussianModel,
    Gaussian,
    JointModel,
    Uniform,
    UserDefinedDistribution,
    joint_gaussian_additive,
)
from softprob.errors import ConvergenceError, DomainError
from softprob.information import (
    InfoConfig,
    ZLOGZ_COLLAPSE,
    soft_cross_entropy,
    soft_entropy,
    soft_kld,
    soft_mutual_information,
)
from softprob.moments import MixedSet, soft_expectation, soft_variance
from softprob.quadrature import BLOCK, QuadratureConfig, collect_stats, integrate_2d, total_stats
from softprob.softnum import ExtendedSoftNumber, SoftNumber

LN2 = math.log(2.0)
BASE2 = InfoConfig(log_base=2.0)
COLLAPSE = InfoConfig(zlogz_mode=ZLOGZ_COLLAPSE)
# the names soft_mutual_information accepts for its one form
FORMS = ["symmetric", "conditional"]


def _random_gaussian(rng: random.Random) -> Gaussian:
    return Gaussian(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0))


def _random_set(rng: random.Random) -> MixedSet:
    points = sorted(rng.uniform(-3.0, 3.0) for _ in range(2))
    lo = rng.uniform(3.5, 4.5)
    hi = lo + rng.uniform(0.5, 2.0)
    return MixedSet(points, [(lo, hi)])


class TestInfoConfig:
    def test_defaults(self):
        cfg = InfoConfig()
        assert cfg.log_base == math.e
        assert cfg.ln_base == 1.0

    @pytest.mark.parametrize("base", [0.0, -2.0, 1.0, math.nan, math.inf, 0.5])
    def test_bad_log_base_rejected(self, base):
        with pytest.raises(DomainError):
            InfoConfig(log_base=base)

    def test_bad_zlogz_mode_rejected(self):
        with pytest.raises(DomainError):
            InfoConfig(zlogz_mode="drop")

    def test_quadrature_override_reaches_every_run(self):
        # at the default tolerance each case refines some run past its first
        # round; under a loose override none of its runs does, so a run that
        # ignored the override would show depth 2
        loose = InfoConfig(quadrature=QuadratureConfig(rel_tol=1e-3))
        j = BivariateGaussianModel(0.0, 0.0, 1.0, 2.0, 0.6)
        sx = MixedSet([0.7], [(-9.0, 0.5), (1.0, 9.0)])
        sy = MixedSet([0.2], [(-9.0, -1.0), (0.5, 9.0)])
        cases = {"gaussian mi": lambda cfg: soft_mutual_information(j, sx, sy, cfg),
                 "generic mi": lambda cfg: soft_mutual_information(_GridOnly(j), sx, sy, cfg),
                 "entropy": lambda cfg: soft_entropy(Gaussian(0.0, 1.0), sx, cfg)}
        for name, run in cases.items():
            with collect_stats() as default:
                run(InfoConfig())
            with collect_stats() as override:
                run(loose)
            assert max(r.max_depth for r in default) >= 2, name
            assert override and {r.max_depth for r in override} == {1}, name


class TestEntropy:
    def test_unit_uniform_point_and_split_intervals(self):
        ms = MixedSet([0.5], [(0.0, 0.5), (0.5, 1.0)])
        value = soft_entropy(Uniform(0, 1), ms)
        assert value == ExtendedSoftNumber(-1.0, 0.0, 0.0)

    def test_empty_set_gives_absolute_zero(self):
        value = soft_entropy(Uniform(0, 1), MixedSet([], []))
        assert value == ExtendedSoftNumber(0.0, 0.0, 0.0)

    def test_uniform_0_2_full_interval(self):
        value = soft_entropy(Uniform(0, 2), MixedSet([], [(0.0, 2.0)]))
        assert value.zlogz == 0.0
        assert value.soft == 0.0
        assert value.real == pytest.approx(LN2, rel=1e-12)

    def test_gaussian_point_terms(self):
        phi0 = 1.0 / math.sqrt(2.0 * math.pi)
        value = soft_entropy(Gaussian(0, 1), MixedSet([0.0], []))
        assert value.zlogz == pytest.approx(-phi0, rel=1e-15)
        assert value.soft == pytest.approx(-phi0 * math.log(phi0), rel=1e-13)
        assert value.real == 0.0

    def test_gaussian_wide_interval_matches_closed_form(self):
        value = soft_entropy(Gaussian(0, 1), MixedSet([], [(-10.0, 10.0)]))
        assert value.real == pytest.approx(0.5 * math.log(2.0 * math.pi * math.e), abs=1e-8)

    def test_wide_interval_finds_the_bulk(self):
        # no Gauss node of the unsplit interval lands in the bulk, which made
        # the entropy 0
        value = soft_entropy(Gaussian(0, 1), MixedSet([], [(-1e6, 1e6)]))
        assert value.real == pytest.approx(0.5 * math.log(2.0 * math.pi * math.e), rel=1e-12)

    @pytest.mark.parametrize("interval, want", [((-50.0, 50.0), 1.4189385332046727),
                                                 ((0.0, 100.0), 0.7094692666023363)])
    def test_negligible_tails_converge(self, interval, want):
        # TINY_DENSITY cuts the integrand off near +/-37.14; a per-panel
        # test raised ConvergenceError on the panel holding that edge
        value = soft_entropy(Gaussian(0, 1), MixedSet([], [interval]))
        assert value.real == want

    def test_far_tail_interval_is_split_not_clipped(self):
        # (20, 30) lies outside the +/-10 sigma window; clipping to it gives 0
        value = soft_entropy(Gaussian(0, 1), MixedSet([], [(20.0, 30.0)]))
        assert value.real == pytest.approx(5.560020595838215e-87, rel=1e-12, abs=0.0)

    def test_zero_density_at_point_rejected(self):
        # the id predates the one zero-density rule: a listed point where the
        # density is 0 is not rejected but adds 0 on every axis
        for point in (2.0, 0.0):
            assert Uniform(0, 1).pdf(point) == 0.0
            value = soft_entropy(Uniform(0, 1), MixedSet([point], []))
            assert (value.zlogz, value.soft, value.real) == (0.0, 0.0, 0.0)

    def test_density_vanishing_inside_interval_uses_limit(self):
        value = soft_entropy(Uniform(0, 1), MixedSet([], [(0.5, 2.0)]))
        assert math.isfinite(value.real)
        assert value.real == pytest.approx(0.0, abs=1e-9)

    def test_collapse_mode_zeroes_first_axis_only(self):
        ms = MixedSet([0.25], [(0.4, 0.9)])
        axis = soft_entropy(Uniform(0, 1), ms)
        collapsed = soft_entropy(Uniform(0, 1), ms, COLLAPSE)
        assert collapsed.zlogz == 0.0
        assert axis.zlogz == -1.0
        assert collapsed.soft == axis.soft
        assert collapsed.real == axis.real

    def test_base_2_is_nats_divided_by_ln2_bitwise(self):
        ms = MixedSet([0.9], [(0.25, 0.75)])
        d = Gaussian(0.2, 1.3)
        nats = soft_entropy(d, ms)
        bits = soft_entropy(d, ms, BASE2)
        assert bits.zlogz == nats.zlogz / LN2
        assert bits.soft == nats.soft / LN2
        assert bits.real == nats.real / LN2


class TestCrossEntropy:
    def test_self_cross_entropy_reduces_to_entropy(self):
        ms = MixedSet([0.5, 0.95], [(0.2, 0.4), (1.0, 1.9)])
        d = Uniform(0, 2)
        assert soft_cross_entropy(d, d, ms) == soft_entropy(d, ms)
        g = Gaussian(0.3, 1.7)
        gs = MixedSet([2.5, 3.0], [(-2.0, 2.0)])
        assert soft_cross_entropy(g, g, gs) == soft_entropy(g, gs)

    def test_first_axis_matches_entropy_for_any_reference(self):
        rng = random.Random(4021)
        for _ in range(50):
            d = _random_gaussian(rng)
            d_hat = _random_gaussian(rng)
            ms = _random_set(rng)
            assert soft_cross_entropy(d, d_hat, ms).zlogz == soft_entropy(d, ms).zlogz

    def test_uniform_pair_example(self):
        value = soft_cross_entropy(Uniform(0, 1), Uniform(0, 2),
                                   MixedSet([], [(0.0, 1.0)]))
        assert value.zlogz == 0.0
        assert value.soft == 0.0
        assert value.real == pytest.approx(LN2, rel=1e-12)

    def test_reference_zero_at_point_rejected(self):
        with pytest.raises(DomainError):
            soft_cross_entropy(Uniform(0, 2), Uniform(0, 1), MixedSet([1.5], []))

    def test_reference_zero_on_interval_rejected(self):
        with pytest.raises(DomainError):
            soft_cross_entropy(Uniform(0, 2), Uniform(0, 1),
                               MixedSet([], [(1.2, 1.8)]))

    def test_collapse_mode_zeroes_first_axis(self):
        value = soft_cross_entropy(Uniform(0, 1), Uniform(0, 2),
                                   MixedSet([0.5], []), COLLAPSE)
        assert value.zlogz == 0.0
        assert value.soft == pytest.approx(LN2, rel=1e-12)


class TestKld:
    def test_self_divergence_is_absolute_zero_exactly(self):
        ms = MixedSet([-0.5, 0.25], [(0.5, 1.5), (2.0, 2.25)])
        d = Gaussian(0.1, 1.4)
        assert soft_kld(d, d, ms) == SoftNumber(0.0, 0.0)
        u = Uniform(-1, 3)
        assert soft_kld(u, u, ms) == SoftNumber(0.0, 0.0)

    def test_uniform_pair_gives_ln2(self):
        value = soft_kld(Uniform(0, 1), Uniform(0, 2),
                         MixedSet([0.5], [(0.0, 0.5), (0.5, 1.0)]))
        assert value.soft == pytest.approx(LN2, rel=1e-12)
        assert value.real == pytest.approx(LN2, rel=1e-12)

    def test_gaussian_point_term_closed_form(self):
        phi0 = 1.0 / math.sqrt(2.0 * math.pi)
        value = soft_kld(Gaussian(0, 1), Gaussian(1, 1), MixedSet([0.0], []))
        assert value.soft == pytest.approx(0.5 * phi0, rel=1e-12)
        assert value.real == 0.0

    def test_matches_cross_entropy_minus_entropy(self):
        rng = random.Random(917)
        for _ in range(25):
            d = _random_gaussian(rng)
            d_hat = _random_gaussian(rng)
            ms = _random_set(rng)
            kld = soft_kld(d, d_hat, ms)
            diff_soft = (soft_cross_entropy(d, d_hat, ms).soft
                         - soft_entropy(d, ms).soft)
            diff_real = (soft_cross_entropy(d, d_hat, ms).real
                         - soft_entropy(d, ms).real)
            assert kld.soft == pytest.approx(diff_soft, abs=1e-9)
            assert kld.real == pytest.approx(diff_real, abs=1e-9)

    def test_full_support_real_part_nonnegative(self):
        rng = random.Random(365)
        for _ in range(15):
            d = Gaussian(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
            d_hat = Gaussian(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
            lo = d.mean - 10.0 * d.sigma
            hi = d.mean + 10.0 * d.sigma
            value = soft_kld(d, d_hat, MixedSet([], [(lo, hi)]))
            assert value.real >= -1e-9

    def test_gaussian_pair_matches_closed_form(self):
        d = Gaussian(0.0, 1.0)
        d_hat = Gaussian(0.5, 2.0)
        value = soft_kld(d, d_hat, MixedSet([], [(-10.0, 10.0)]))
        expected = 0.5 * (math.log(2.0) + (1.0 + 0.25) / 2.0 - 1.0)
        assert value.real == pytest.approx(expected, rel=1e-9)

    def test_reference_zero_rejected(self):
        with pytest.raises(DomainError):
            soft_kld(Uniform(0, 2), Uniform(0, 1), MixedSet([1.5], []))
        with pytest.raises(DomainError):
            soft_kld(Uniform(0, 2), Uniform(0, 1), MixedSet([], [(1.2, 1.8)]))

    def test_base_2_is_nats_divided_by_ln2_bitwise(self):
        ms = MixedSet([0.5], [(0.0, 0.5), (0.5, 1.0)])
        nats = soft_kld(Uniform(0, 1), Uniform(0, 2), ms)
        bits = soft_kld(Uniform(0, 1), Uniform(0, 2), ms, BASE2)
        assert bits.soft == nats.soft / LN2
        assert bits.real == nats.real / LN2


STD = Gaussian(0.0, 1.0)


def _std_mass(a, b):
    """P(a < X < b) for X ~ N(0, 1), and its second moment over (a, b)."""
    phi = lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    mass = 0.5 * (math.erfc(a / math.sqrt(2.0)) - math.erfc(b / math.sqrt(2.0)))
    return mass, mass + a * phi(a) - b * phi(b)


class TestPointwiseRule:
    """Entropy, cross entropy and KLD use the pointwise rule of _mi_terms: a
    weight below TINY_DENSITY gives 0, and a term is an error only where it
    is not finite."""

    # f(37.5) of N(0, 1) is about 1.7e-306: positive, but below TINY_DENSITY
    FAR = MixedSet([37.5])

    def test_far_tail_point_adds_nothing(self):
        assert 0.0 < STD.pdf(37.5) < information.TINY_DENSITY
        entropy = soft_entropy(STD, self.FAR)
        assert entropy.soft == 0.0
        assert entropy.zlogz == pytest.approx(-STD.pdf(37.5), rel=1e-12, abs=0.0)
        assert soft_cross_entropy(STD, Gaussian(1.0, 1.0), self.FAR).soft == 0.0
        assert soft_kld(STD, Gaussian(1.0, 1.0), self.FAR) == SoftNumber(0.0, 0.0)

    def test_underflowed_density_gives_zero_in_every_functional(self):
        # f(40) of N(0, 1) underflows to 0, and each functional takes the
        # term as the pointwise rule's 0
        far = MixedSet([40.0])
        assert STD.pdf(40.0) == 0.0
        for value in (soft_entropy(STD, far), soft_cross_entropy(STD, Gaussian(1.0, 2.0), far)):
            assert (value.zlogz, value.soft, value.real) == (0.0, 0.0, 0.0)
        assert soft_kld(STD, Gaussian(1.0, 2.0), far) == SoftNumber(0.0, 0.0)
        assert soft_expectation(STD, far) == SoftNumber(0.0, 0.0)
        for form in FORMS:
            assert soft_mutual_information(STD_ADDITIVE, far, MixedSet([0.0]),
                                           form=form) == SoftNumber(0.0, 0.0)

    def test_far_tail_point_needs_no_reference_density(self):
        assert soft_cross_entropy(STD, Uniform(0, 1), self.FAR).soft == 0.0
        assert soft_kld(STD, Uniform(0, 1), self.FAR) == SoftNumber(0.0, 0.0)
        with pytest.raises(DomainError):
            soft_kld(STD, Uniform(0, 1), MixedSet([2.0]))

    def test_tiny_reference_density_on_an_interval_is_not_an_error(self):
        # over (2.64, 2.66), N(0, 0.005) falls from 1.2e-302 to 2.9e-307 while
        # f stays near 0.012
        a, b, v = 2.64, 2.66, 0.005
        mass, second = _std_mass(a, b)
        cross = second / (2.0 * v) + 0.5 * math.log(2.0 * math.pi * v) * mass
        entropy = 0.5 * second + 0.5 * math.log(2.0 * math.pi) * mass
        ms = MixedSet([], [(a, b)])
        assert soft_cross_entropy(STD, Gaussian(0.0, v), ms).real == pytest.approx(
            cross, rel=1e-12)
        assert soft_kld(STD, Gaussian(0.0, v), ms).real == pytest.approx(
            cross - entropy, rel=1e-12)
        # where the reference density underflows to 0 the term is -inf
        with pytest.raises(DomainError, match="non-finite"):
            soft_cross_entropy(STD, Gaussian(0.0, v), MixedSet([], [(3.0, 3.1)]))


def test_scalar_only_distribution_matches_the_gaussian_override():
    def scalar_only(g):
        return UserDefinedDistribution(g.pdf, g.cdf, location=g.mean, scale=g.sigma)

    g, g_hat = Gaussian(0.3, 1.7), Gaussian(-0.4, 2.5)
    u, u_hat = scalar_only(g), scalar_only(g_hat)
    ms = MixedSet([-2.0, 0.5], [(-1.0, 0.25), (1.0, 4.0), (5.0, 40.0)])
    pairs = [
        (soft_entropy(u, ms), soft_entropy(g, ms)),
        (soft_cross_entropy(u, u_hat, ms), soft_cross_entropy(g, g_hat, ms)),
        (soft_kld(u, u_hat, ms), soft_kld(g, g_hat, ms)),
        (soft_expectation(u, ms), soft_expectation(g, ms)),
        (soft_variance(u, ms)[1], soft_variance(g, ms)[1]),
    ]
    for generic, fast in pairs:
        got, want = tuple(vars(generic).values()), tuple(vars(fast).values())
        assert got == pytest.approx(want, rel=1e-12)


STD_ADDITIVE = joint_gaussian_additive(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))


def _mi_oracle_point(j, x, y):
    w = j.joint_pdf(x, y)
    return w * math.log(w / (j.marginal_x.pdf(x) * j.marginal_y.pdf(y)))


def _mi_oracle_pairs(j, xs, ys):
    """Dense numpy sum of the pointwise MI terms over every (x, y) pair,
    from the closed-form bivariate normal density."""
    gx, gy = np.meshgrid(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float),
                         indexing="ij")
    var_x, var_y, rho = j.var_x, j.var_y, j.rho
    zx = (gx - j.mean_x) / math.sqrt(var_x)
    zy = (gy - j.mean_y) / math.sqrt(var_y)
    norm = 2.0 * math.pi * math.sqrt(var_x * var_y * (1.0 - rho * rho))
    joint = np.exp(-(zx * zx - 2.0 * rho * zx * zy + zy * zy)
                   / (2.0 * (1.0 - rho * rho))) / norm
    fx = np.exp(-0.5 * zx * zx) / math.sqrt(2.0 * math.pi * var_x)
    fy = np.exp(-0.5 * zy * zy) / math.sqrt(2.0 * math.pi * var_y)
    return float(np.sum(joint * np.log(joint / (fx * fy))))


def _mi_oracle_rect(j, x_iv, y_iv, cells=1000):
    hx = (x_iv[1] - x_iv[0]) / cells
    hy = (y_iv[1] - y_iv[0]) / cells
    xs = np.linspace(x_iv[0], x_iv[1], cells, endpoint=False) + 0.5 * hx
    ys = np.linspace(y_iv[0], y_iv[1], cells, endpoint=False) + 0.5 * hy
    return _mi_oracle_pairs(j, xs, ys) * hx * hy


class TestMutualInformation:
    def test_independent_model_gives_absolute_zero_exactly(self):
        j = BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.0)
        sx = MixedSet([0.0], [(1.0, 2.0)])
        sy = MixedSet([0.5], [(-1.0, 0.25)])
        assert soft_mutual_information(j, sx, sy) == SoftNumber(0.0, 0.0)
        assert soft_mutual_information(_GridOnly(j), sx, sy) == SoftNumber(0.0, 0.0)

    def test_forms_agree_on_correlated_model(self):
        # "conditional" names a factorization of the same terms: on either path
        # it gives the default's value, bit for bit
        sx = MixedSet([0.2], [(0.5, 1.5)])
        sy = MixedSet([-0.3], [(0.1, 0.9)])
        for j in (STD_ADDITIVE, _GridOnly(STD_ADDITIVE)):
            default = soft_mutual_information(j, sx, sy)
            assert default.soft > 0.0 and default.real > 0.0
            assert soft_mutual_information(j, sx, sy, form="conditional") == default

    def test_symmetric_in_the_two_variables(self):
        j = BivariateGaussianModel(0.2, -0.4, 1.0, 2.0, 0.6)
        swapped = BivariateGaussianModel(-0.4, 0.2, 2.0, 1.0, 0.6)
        sx = MixedSet([0.1], [(0.3, 1.1)])
        sy = MixedSet([0.7], [(-1.0, 0.5)])
        a = soft_mutual_information(j, sx, sy)
        b = soft_mutual_information(swapped, sy, sx)
        assert a.soft == pytest.approx(b.soft, rel=1e-9, abs=1e-12)
        assert a.real == pytest.approx(b.real, rel=1e-6, abs=1e-10)

    def test_base_2_is_nats_divided_by_ln2_bitwise(self):
        sx = MixedSet([0.0], [(1.0, 2.0)])
        sy = MixedSet([0.0], [(1.0, 2.0)])
        nats = soft_mutual_information(STD_ADDITIVE, sx, sy)
        bits = soft_mutual_information(STD_ADDITIVE, sx, sy, BASE2)
        assert bits.soft == nats.soft / LN2
        assert bits.real == nats.real / LN2

    def test_zero_marginal_at_point_rejected(self):
        # the id predates the one zero-density rule: a point where a marginal
        # density is 0 is not rejected, its pairs weigh below TINY_DENSITY and add 0
        assert STD_ADDITIVE.marginal_x.pdf(60.0) == STD_ADDITIVE.marginal_y.pdf(80.0) == 0.0
        for sx, sy in ((MixedSet([60.0]), MixedSet([0.0])),
                       (MixedSet([0.0]), MixedSet([80.0]))):
            for form in FORMS:
                assert soft_mutual_information(STD_ADDITIVE, sx, sy,
                                               form=form) == SoftNumber(0.0, 0.0)

    def test_point_interval_cross_pairs_contribute_nothing(self):
        # on the Gaussian path and on the generic grid path
        sx = MixedSet([0.0, 0.4], [(1.0, 2.0)])
        sy = MixedSet([-0.1], [(0.5, 1.5), (2.0, 2.5)])
        x_points, y_points = MixedSet(sx.points, []), MixedSet(sy.points, [])
        for j in (STD_ADDITIVE, _GridOnly(STD_ADDITIVE)):
            full = soft_mutual_information(j, sx, sy)
            points_only = soft_mutual_information(j, x_points, y_points)
            intervals_only = soft_mutual_information(
                j, MixedSet([], sx.intervals), MixedSet([], sy.intervals))
            assert full.soft == points_only.soft
            assert full.real == intervals_only.real
            assert points_only.real == 0.0
            assert intervals_only.soft == 0.0
            # intervals on one axis only: x-intervals against y-points, and the reverse
            for one_sided in (soft_mutual_information(j, sx, y_points),
                              soft_mutual_information(j, x_points, sy)):
                assert one_sided.real == 0.0
                assert one_sided.soft == points_only.soft

    def test_unknown_form_rejected(self):
        with pytest.raises(DomainError):
            soft_mutual_information(STD_ADDITIVE, MixedSet([0.0], []),
                                    MixedSet([0.0], []), form="bayes")

    def test_additive_gaussian_point_term_closed_form(self):
        value = soft_mutual_information(STD_ADDITIVE, MixedSet([0.0], []),
                                        MixedSet([0.0], []))
        assert value.soft == pytest.approx(LN2 / (4.0 * math.pi), rel=1e-12)
        assert value.real == 0.0

    def test_additive_gaussian_rectangle_against_riemann_oracle(self):
        sx = MixedSet([], [(1.0, 2.0)])
        sy = MixedSet([], [(1.0, 2.0)])
        value = soft_mutual_information(STD_ADDITIVE, sx, sy)
        oracle = _mi_oracle_rect(STD_ADDITIVE, (1.0, 2.0), (1.0, 2.0), cells=1200)
        assert value.real == pytest.approx(oracle, rel=1e-5)

    def test_symmetric_point_term_matches_direct_formula(self):
        value = soft_mutual_information(STD_ADDITIVE, MixedSet([0.7], []),
                                        MixedSet([-0.4], []))
        assert value.soft == pytest.approx(
            _mi_oracle_point(STD_ADDITIVE, 0.7, -0.4), rel=1e-12)


class _ScalarOnly(JointModel):
    """Wraps a model but exposes only the scalar methods, so the point-pair
    sum goes through JointModel's default density grids."""

    def __init__(self, inner: JointModel):
        self.inner = inner

    @property
    def marginal_x(self):
        return self.inner.marginal_x

    @property
    def marginal_y(self):
        return self.inner.marginal_y

    def joint_pdf(self, x, y):
        return self.inner.joint_pdf(x, y)


class _FgmCopula(JointModel):
    """The Farlie-Gumbel-Morgenstern density 1 + theta*(1 - 2x)(1 - 2y) on the
    unit square, whose marginals are Uniform(0, 1): a user's model whose
    marginals have only the default pdf_array."""

    THETA = 0.8
    marginal_x = marginal_y = Uniform(0.0, 1.0)

    def joint_pdf(self, x, y):
        inside = 0.0 < x < 1.0 and 0.0 < y < 1.0
        return 1.0 + self.THETA * (1.0 - 2.0 * x) * (1.0 - 2.0 * y) if inside else 0.0


def test_uniform_marginals_take_the_broadcast_terms():
    # the terms broadcast a row of x against a column of y, so each marginal's
    # pdf_array sees a 2-D array
    c = lambda x, y: 1.0 + _FgmCopula.THETA * (1.0 - 2.0 * x) * (1.0 - 2.0 * y)
    xs, ys = [0.1, 0.35, 0.9], [0.2, 0.6]
    value = soft_mutual_information(_FgmCopula(), MixedSet(xs), MixedSet(ys))
    assert value.soft == pytest.approx(sum(c(x, y) * math.log(c(x, y)) for x in xs for y in ys),
                                       rel=1e-13)
    # c log c is smooth on the square: a 64-node Gauss-Legendre grid is exact to rounding
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (nodes + 1.0)
    grid = c(t[None, :], t[:, None])
    truth = 0.25 * float(weights @ (grid * np.log(grid)) @ weights)
    square = MixedSet([], [(0.0, 1.0)])
    assert soft_mutual_information(_FgmCopula(), square, square).real == pytest.approx(
        truth, rel=1e-9)


def _spread_points(rng: random.Random, n: int, sd: float) -> list[float]:
    return sorted({rng.gauss(0.0, sd) for _ in range(n)})


class TestPointPairSum:
    N_X = 128
    # rows of y per block of pointwise terms when X has N_X points; the Gaussian
    # transform takes N_X rows of x per block up to this many y points, fewer above
    ROWS = BLOCK // N_X

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("n_y", [1, ROWS - 1, ROWS, ROWS + 1, 300])
    def test_default_grid_matches_gaussian_override(self, form, n_y):
        rng = random.Random(n_y)
        j = BivariateGaussianModel(0.3, -0.2, 1.4, 0.9, 0.7)
        sx = MixedSet(_spread_points(rng, self.N_X, 1.2))
        sy = MixedSet(_spread_points(rng, n_y, 1.0))
        assert len(sx.points) == self.N_X and len(sy.points) == n_y
        fast = soft_mutual_information(j, sx, sy, form=form)
        generic = soft_mutual_information(_ScalarOnly(j), sx, sy, form=form)
        assert generic.soft == pytest.approx(fast.soft, rel=1e-12)
        assert generic.real == fast.real == 0.0

    @pytest.mark.parametrize("form", FORMS)
    def test_matches_dense_oracle_at_800_points(self, form):
        rng = random.Random(800)
        j = BivariateGaussianModel(0.0, 0.1, 1.0, 1.25, 0.89)
        xs = _spread_points(rng, 800, 1.0)
        ys = _spread_points(rng, 800, 1.1)
        value = soft_mutual_information(j, MixedSet(xs), MixedSet(ys), form=form)
        assert value.soft == pytest.approx(_mi_oracle_pairs(j, xs, ys), rel=1e-12)

    @pytest.mark.parametrize("form", FORMS)
    def test_independent_model_with_many_points_is_absolute_zero(self, form):
        rng = random.Random(7)
        j = BivariateGaussianModel(0.5, -1.0, 2.0, 0.5, 0.0)
        sx = MixedSet(_spread_points(rng, 500, 1.5))
        sy = MixedSet(_spread_points(rng, 400, 0.7))
        assert soft_mutual_information(j, sx, sy, form=form) == SoftNumber(0.0, 0.0)

    @pytest.mark.parametrize("form", FORMS)
    def test_far_tail_pair_adds_nothing(self, form):
        # f_{Y|X}(37.5 | 0) * f_X(0) is about 7e-307: nonzero but below TINY_DENSITY,
        # while the marginal densities at both points stay positive
        assert STD_ADDITIVE.joint_pdf(0.0, 37.5) < 1e-300
        near = soft_mutual_information(STD_ADDITIVE, MixedSet([0.0]), MixedSet([0.5]),
                                       form=form)
        both = soft_mutual_information(STD_ADDITIVE, MixedSet([0.0]),
                                       MixedSet([0.5, 37.5]), form=form)
        assert math.isfinite(both.soft)
        assert both == near

    def test_underflowing_marginal_product_is_a_domain_error(self):
        # each marginal density is about 1e-162, so their product underflows
        # to zero while the joint density stays well above TINY_DENSITY
        j, sx, sy, truth = POINT_PAIR_TRUTHS["underflowing marginal product"]
        with pytest.raises(DomainError):
            soft_mutual_information(_ScalarOnly(j), sx, sy)
        # the Gaussian transform never forms f_X * f_Y
        sym = soft_mutual_information(j, sx, sy, form="symmetric")
        assert sym == soft_mutual_information(j, sx, sy, form="conditional")
        assert sym.soft == pytest.approx(truth, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("z", [39.0, 40.0, 42.5])
    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_zero_density_of_a_narrow_marginal_is_a_domain_error(self, axis, z):
        # the id predates the one zero-density rule. With sd 1e-100,
        # exp(-z^2/2) underflows to 0 at these z although z^2/2 +
        # log(sd * sqrt(2 pi)) is below -log(TINY_DENSITY); the pair's weight,
        # taken in log space, is below TINY_DENSITY, so the pair adds 0
        point = z * 1e-100
        narrow, wide = (MixedSet([point]), MixedSet([0.0]))
        if axis == "X":
            j, sx, sy = BivariateGaussianModel(0.0, 0.0, 1e-200, 1.0, 0.5), narrow, wide
        else:
            j, sx, sy = BivariateGaussianModel(0.0, 0.0, 1.0, 1e-200, 0.5), wide, narrow
        marginal = j.marginal_x if axis == "X" else j.marginal_y
        assert marginal.pdf(point) == 0.0
        u = sx.points[0] / math.sqrt(j.var_x)
        v = sy.points[0] / math.sqrt(j.var_y)
        q = 1.0 - j.rho ** 2
        log_weight = (-0.5 * u * u - (v - j.rho * u) ** 2 / (2.0 * q)
                      - math.log(2.0 * math.pi * math.sqrt(j.var_x * j.var_y * q)))
        assert log_weight < math.log(information.TINY_DENSITY)
        for form in FORMS:
            assert soft_mutual_information(j, sx, sy, form=form) == SoftNumber(0.0, 0.0)

    @pytest.mark.parametrize("form", FORMS)
    @pytest.mark.parametrize("model", ["gaussian", "grid", "scalar"])
    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_far_points_add_nothing_on_every_path(self, axis, model, form):
        # the marginal densities are 0 at ±60 and ±80, so these points add 0
        j = {"gaussian": STD_ADDITIVE, "grid": _GridOnly(STD_ADDITIVE),
             "scalar": _ScalarOnly(STD_ADDITIVE)}[model]
        sx = MixedSet([-0.7, 0.0, 0.4], [(1.0, 2.0)])
        sy = MixedSet([-0.1, 1.7], [(0.5, 1.5)])
        if axis == "X":
            far_x, far_y = MixedSet([-80.0, *sx.points, 60.0], sx.intervals), sy
        else:
            far_x, far_y = sx, MixedSet([-60.0, *sy.points, 80.0], sy.intervals)
        far = soft_mutual_information(j, far_x, far_y, form=form)
        near = soft_mutual_information(j, sx, sy, form=form)
        if model == "gaussian":
            assert far == near
        else:
            # numpy sums each grid pairwise, and the far points' zero terms
            # regroup that sum, so the soft part may move in its last bit
            assert far.real == near.real
            assert far.soft == pytest.approx(near.soft, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_a_point_whose_square_overflows_is_a_domain_error(self, axis):
        # (1e200)^2 overflows, and inf * 0 leaves a NaN in the pair sum
        far, near = MixedSet([1e200]), MixedSet([0.0])
        sx, sy = (far, near) if axis == "X" else (near, far)
        with pytest.raises(DomainError, match=r"^point-pair sum of mutual information is nan$"):
            soft_mutual_information(STD_ADDITIVE, sx, sy)


def _mi_pairs_by_mpmath(mp, j: BivariateGaussianModel, xs, ys):
    """The point-pair sum of j's MI terms f_X f_{Y|X} log(f_{Y|X} / f_Y),
    with the model's float parameters and the points taken exactly."""
    mean_x, mean_y, var_x, var_y, rho = (
        mp.mpf(v) for v in (j.mean_x, j.mean_y, j.var_x, j.var_y, j.rho))
    q = 1 - rho * rho
    terms = []
    for x in xs:
        u = (x - mean_x) / mp.sqrt(var_x)
        f_x = mp.npdf(u) / mp.sqrt(var_x)
        for y in ys:
            v = (y - mean_y) / mp.sqrt(var_y)
            log_ratio = (v * v - (v - rho * u) ** 2 / q - mp.log(q)) / 2
            terms.append(f_x * mp.npdf(v - rho * u, 0, mp.sqrt(q)) / mp.sqrt(var_y) * log_ratio)
    return mp.fsum(terms)


def _near_independence(rho: float):
    rng = random.Random(0)
    xs = sorted(rng.gauss(0.0, 1.0) for _ in range(60))
    ys = sorted(rng.gauss(0.0, 1.0) for _ in range(60))
    return BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, rho), MixedSet(xs), MixedSet(ys)


# Point-pair sums that the pointwise rule gets wrong or cannot form:
# (model, X set, Y set, value of _mi_pairs_by_mpmath at 40 digits, which
# test_point_pair_truths_against_mpmath checks)
POINT_PAIR_TRUTHS = {
    "rho 1e-6": (*_near_independence(1e-6), 1.7028745713411996532e-06),
    "rho 1e-4": (*_near_independence(1e-4), 1.7095495593791544809e-04),
    "underflowing marginal product": (BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.999),
                                      MixedSet([27.3]), MixedSet([27.3]),
                                      1.6124031622206613566e-159),
}


@pytest.mark.parametrize("name", POINT_PAIR_TRUTHS)
def test_point_pair_truths_against_mpmath(name):
    mp = pytest.importorskip("mpmath")
    j, sx, sy, truth = POINT_PAIR_TRUTHS[name]
    with mp.workdps(40):
        value = _mi_pairs_by_mpmath(mp, j, sx.points, sy.points)
    assert float(value) == pytest.approx(truth, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("form", FORMS)
def test_pointwise_rule_near_independence_loses_digits_in_the_densities(form):
    # the pointwise rule is 4.0e-9 off the rho 1e-6 truth. The log is not
    # where the digits go: summed with every log taken exactly from the same
    # float densities, the terms are as far off, because each density
    # carries its own rounding and the log ratio is only about 1e-6
    mp = pytest.importorskip("mpmath")
    j, sx, sy, truth = POINT_PAIR_TRUTHS["rho 1e-6"]
    generic = soft_mutual_information(_GridOnly(j), sx, sy, form=form).soft
    assert generic == pytest.approx(truth, rel=1e-8, abs=0.0)
    x, y = sx.point_array[None, :], sy.point_array[:, None]
    f = j.joint_pdf_array(x, y)
    den = j.marginal_x.pdf_array(x) * j.marginal_y.pdf_array(y)
    with mp.workdps(40):
        exact_logs = mp.fsum(mp.mpf(a) * mp.log(mp.mpf(a) / mp.mpf(c)) for a, c in
                             zip(f.ravel().tolist(), den.ravel().tolist()))
    assert generic == pytest.approx(float(exact_logs), rel=1e-9, abs=0.0)


class TestGaussianPairSum:
    """A BivariateGaussianModel sums its point pairs as a Gauss transform; the
    pointwise rule over _mi_terms grids is its oracle."""

    @pytest.mark.parametrize("name", ["rho 1e-6", "rho 1e-4"])
    @pytest.mark.parametrize("form", FORMS)
    def test_near_independence_keeps_its_digits(self, name, form):
        # the pointwise rule's log of a ratio near 1 is 4.0e-9 (rho 1e-6) and
        # 1.5e-10 (rho 1e-4) off on these sums
        j, sx, sy, truth = POINT_PAIR_TRUTHS[name]
        value = soft_mutual_information(j, sx, sy, form=form)
        assert value.soft == pytest.approx(truth, rel=1e-13, abs=0.0)

    def test_agrees_with_pointwise_rule_on_random_models(self):
        # the sets cross the block boundary of both sums, and at |rho| near 1
        # far pairs fall below TINY_DENSITY
        rng = random.Random(9)
        for _ in range(250):
            rho = rng.choice((-1.0, 1.0)) * rng.uniform(0.01, 0.999)
            j = BivariateGaussianModel(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                                       10.0 ** rng.uniform(-2.0, 2.0),
                                       10.0 ** rng.uniform(-2.0, 2.0), rho)
            sx, sy = (
                MixedSet(sorted({mean + math.sqrt(var) * rng.gauss(0.0, 1.5)
                                 for _ in range(rng.randint(1, 300))}))
                for mean, var in ((j.mean_x, j.var_x), (j.mean_y, j.var_y)))
            xs, ys = np.array(sx.points), np.array(sy.points)
            scale = float(np.abs(information._mi_terms(j, xs[None, :], ys[:, None])).sum())
            fast = soft_mutual_information(j, sx, sy).soft
            for form in FORMS:
                grid = soft_mutual_information(_GridOnly(j), sx, sy, form=form).soft
                assert abs(fast - grid) <= 1e-12 * scale

    @pytest.mark.parametrize("form", FORMS)
    def test_weights_below_tiny_density_add_exactly_nothing(self, form):
        # under the additive model f_X(0) * f_{Y|X}(y | 0) = exp(-y^2/2) / (2 pi)
        def y_at(weight):
            return MixedSet([math.sqrt(-2.0 * math.log(2.0 * math.pi * weight))])

        x = MixedSet([0.0])
        below = soft_mutual_information(STD_ADDITIVE, x, y_at(0.5 * information.TINY_DENSITY),
                                        form=form)
        assert below == SoftNumber(0.0, 0.0)
        above = y_at(2.0 * information.TINY_DENSITY)
        value = soft_mutual_information(STD_ADDITIVE, x, above, form=form).soft
        generic = soft_mutual_information(_ScalarOnly(STD_ADDITIVE), x, above, form=form).soft
        assert value < 0.0
        assert value == pytest.approx(generic, rel=1e-12, abs=0.0)

    def test_forms_are_bit_equal(self):
        rng = random.Random(5)
        j = BivariateGaussianModel(0.4, -1.0, 2.0, 0.3, -0.93)
        sx = MixedSet(_spread_points(rng, 200, 1.5))
        sy = MixedSet(_spread_points(rng, 300, 0.6))
        sym = soft_mutual_information(j, sx, sy, form="symmetric")
        assert sym.soft > 0.0
        assert sym == soft_mutual_information(j, sx, sy, form="conditional")

    @pytest.mark.parametrize("form", FORMS)
    def test_never_takes_the_pointwise_terms(self, form, monkeypatch):
        def pointwise(*args):
            raise AssertionError("_mi_terms called for a BivariateGaussianModel")

        monkeypatch.setattr(information, "_mi_terms", pointwise)
        sx = MixedSet([-0.5, 0.25, 3.0], [(1.0, 2.0)])
        sy = MixedSet([0.0, 40.0], [(1.0, 2.0)])
        value = soft_mutual_information(STD_ADDITIVE, sx, sy, form=form)
        assert value.soft > 0.0 and value.real > 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho", [-0.999, 1e-300, 0.5, 0.999999])
    def test_raises_no_numpy_warning(self, rho):
        # far pairs, weights below TINY_DENSITY and an sd of X of 1e-150
        j = BivariateGaussianModel(0.0, 1.0, 1e-300, 1e2, rho)
        xs = np.array([-3.7e-149, -1e-150, 0.0, 2e-151, 3.7e-149])
        ys = np.array([-300.0, -40.0, 1.0, 5.0, 380.0])
        for _ in range(2):
            assert math.isfinite(information._gaussian_pair_sum(j, xs, ys))
            xs, ys = np.repeat(xs, 40), np.repeat(ys, 100)


def _abs_pair_terms(j, xs: np.ndarray, ys: np.ndarray) -> float:
    """sum |f_XY log(f_XY/(f_X f_Y))| over the point pairs, by the pointwise
    rule, in blocks of y rows."""
    return sum(float(np.abs(information._mi_terms(j, xs[None, :], ys[k:k + 100, None])).sum())
               for k in range(0, len(ys), 100))


def _dense_pair_sum(j, xs, ys, monkeypatch) -> float:
    """_gaussian_pair_sum with the Gauss transform forced dense."""
    with monkeypatch.context() as m:
        m.setattr(information, "_gauss_sums", information._dense_gauss_sums)
        return information._gaussian_pair_sum(j, xs, ys)


@pytest.fixture
def transform_calls(monkeypatch):
    """The panel counts of every Chebyshev transform run while the test runs."""
    calls = []
    interpolate = information._chebyshev_interpolate

    def spy(kernel, t, panels):
        calls.append(panels)
        return interpolate(kernel, t, panels)

    monkeypatch.setattr(information, "_chebyshev_interpolate", spy)
    return calls


def _interpolation_bound(w, v_powers, lo: float, width: float, panels: int,
                         targets: np.ndarray) -> np.ndarray:
    """The a-priori bound of _gauss_sums on |K_j - interpolant| at each target,
    with L = 0, minimised over r, plus 1e-13 of the kernel's size on the panel
    for rounding."""
    panel = np.minimum(((targets - lo) / width).astype(int), panels - 1)
    centre = lo + (panel + 0.5) * width
    gap = np.abs(w[None, :] - centre[:, None])
    weights = np.abs(v_powers)
    best = np.full((len(targets), weights.shape[1]), np.inf)
    for r in np.linspace(1.5, 30.0, 58):
        growth = (width * (r - 1.0 / r) / 4.0) ** 2
        if growth > 700.0:
            break
        dist = np.maximum(gap - width * (r + 1.0 / r) / 4.0, 0.0)
        m = math.exp(growth) * (np.exp(-dist * dist) @ weights)
        best = np.minimum(best, 4.0 * m * r ** (1 - information._PANEL_NODES) / (r - 1.0))
    on_panel = np.maximum(gap - width / 2.0, 0.0)
    return best + 1e-13 * (np.exp(-on_panel * on_panel) @ weights)


def _random_transform_models():
    """30 random models with point sets of 1 to 2,000 points a side and
    0.01 <= |rho| <= 0.999, as (model, xs, ys)."""
    rng = random.Random(17)

    def points(mean, var):
        # one side in four has at most 50 points, the others up to 2,000
        n = rng.randint(1, rng.choice((50, 2000, 2000, 2000)))
        return np.array(sorted({mean + math.sqrt(var) * rng.gauss(0.0, 1.5)
                                for _ in range(n)}))

    for _ in range(30):
        rho = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, math.log10(0.999))
        j = BivariateGaussianModel(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                                   10.0 ** rng.uniform(-2.0, 2.0),
                                   10.0 ** rng.uniform(-2.0, 2.0), rho)
        yield j, points(j.mean_x, j.var_x), points(j.mean_y, j.var_y)


def _nearest_source_admits(t: np.ndarray, w: np.ndarray) -> bool:
    """The reach rule in its nearest-source form: every target within
    _SOURCE_REACH of the nearest source."""
    ws = np.sort(w)
    k = np.searchsorted(ws, t).clip(1, len(ws) - 1)
    near = np.minimum(np.abs(t - ws[k - 1]), np.abs(ws[k] - t))
    return bool(near.max() <= information._SOURCE_REACH)


# offsets from a source at and around the reach, and gaps at and around twice it
_REACH_OFFSETS = (0.0, 1.0, 2.0, math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0), 2.5, 7.0)
_GAPS = (0.0, 0.5, 3.9, 4.0, math.nextafter(4.0, 0.0), math.nextafter(4.0, 5.0), 4.5, 9.0)


@st.composite
def _sources_and_targets(draw):
    """Sources from a random start and gaps, some wider than 4, in shuffled
    order, and targets anywhere around them: inside gaps, beyond the ends,
    and at and around the reach of a source."""
    start = draw(st.floats(-30.0, 30.0))
    steps = draw(st.lists(st.one_of(st.sampled_from(_GAPS), st.floats(0.0, 12.0)),
                          max_size=12))
    w = start + np.cumsum([0.0, *steps])
    near = st.tuples(st.sampled_from(w.tolist()), st.sampled_from(_REACH_OFFSETS),
                     st.sampled_from((-1.0, 1.0))).map(lambda c: c[0] + c[1] * c[2])
    t = draw(st.lists(st.one_of(near, st.floats(-60.0, 120.0)), min_size=1, max_size=20))
    return draw(st.permutations(w.tolist())), t


class TestChebyshevTransform:
    """_gauss_sums interpolates the Gauss transform's kernel from Chebyshev
    nodes where its cost model says so; the dense sum is its oracle."""

    def test_agrees_with_dense_sum_on_random_models(self, monkeypatch, transform_calls):
        for j, xs, ys in _random_transform_models():
            fast = information._gaussian_pair_sum(j, xs, ys)
            dense = _dense_pair_sum(j, xs, ys, monkeypatch)
            assert abs(fast - dense) <= 1e-12 * _abs_pair_terms(j, xs, ys)
        assert len(transform_calls) >= 10

    def test_node_exponents_stay_above_tiny_density(self, monkeypatch):
        # _node_gauss_sums has no TINY_DENSITY test; the admission rules
        # must keep every exponent it takes at or above log(TINY_DENSITY)
        lowest = []
        node_sums = information._node_gauss_sums

        def spy(top, s, w, v_powers):
            lowest.append(float((top - np.square(w - s[:, None])).min()))
            return node_sums(top, s, w, v_powers)

        monkeypatch.setattr(information, "_node_gauss_sums", spy)
        for j, xs, ys in _random_transform_models():
            information._gaussian_pair_sum(j, xs, ys)
        assert len(lowest) >= 10
        assert min(lowest) >= math.log(information.TINY_DENSITY)

    @settings(max_examples=500, deadline=None)
    @given(case=_sources_and_targets())
    # t - w rounds to 2.0 where the source shifted by 2, w + 2, rounds below t
    @example(case=([-3 * 2.0 ** -54], [2.0]))
    @example(case=([3 * 2.0 ** -54], [-2.0]))
    @example(case=([-3 * 2.0 ** -54, 9.0], [2.0]))
    def test_reach_rule_admits_what_the_nearest_source_form_admits(self, case):
        # _within_reach reads sources and targets in the pair sum's sorted order
        w, t = np.array(case[0]), np.array(case[1])
        admitted = information._within_reach(np.sort(w), np.sort(t))
        assert admitted == _nearest_source_admits(t, w)
        assert information._within_reach(np.sort(w), np.sort(t)[::-1]) == admitted

    @staticmethod
    def _takes(j, xs, ys, monkeypatch, transform_calls) -> bool:
        """Whether the pair sum takes the transform; where it does, it must
        agree with the dense sum to 1e-12 * sum|terms|."""
        before = len(transform_calls)
        value = information._gaussian_pair_sum(j, xs, ys)
        dense = _dense_pair_sum(j, xs, ys, monkeypatch)
        if len(transform_calls) == before:
            assert value == dense
            return False
        assert abs(value - dense) <= 1e-12 * _abs_pair_terms(j, xs, ys)
        return True

    def test_each_cost_model_branch_runs(self, monkeypatch, transform_calls):
        takes = lambda j, xs, ys: self._takes(j, xs, ys, monkeypatch, transform_calls)
        rng = np.random.default_rng(3)
        normal = lambda n, sd=1.0: np.sort(rng.normal(0.0, sd, n))
        # table1's 1 x 1 sums, and two points a side
        assert not takes(STD_ADDITIVE, np.array([1.0]), np.array([0.0]))
        assert not takes(STD_ADDITIVE, np.array([0.0, 20.0]), np.array([0.0, 30.0]))
        # too many panels for the targets: 200 a side at rho = 0.894 needs 8
        j = BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.894)
        assert not takes(j, normal(200), normal(200))
        # cheaper: 800 a side at rho = 0.3 needs ceil(span of rho*u/sqrt(2q)) panels
        j = BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.3)
        xs = normal(800)
        assert takes(j, xs, normal(800))
        span = 0.3 / math.sqrt(2.0 * 0.91) * (xs[-1] - xs[0])
        assert transform_calls[-1] == math.ceil(span) > 1
        # one x point, at 20 sds, lies more than 2 from every source in the
        # scaled variable (rho*u and v over sqrt(2q)), the others do not
        ys = normal(800)
        assert not takes(j, np.append(xs, 20.0), ys)
        # a cluster of y points far from every x point
        assert not takes(j, xs, np.sort(rng.uniform(5.0, 5.5, 400)))

    def test_pairs_below_tiny_density_stay_dense(self, monkeypatch, transform_calls):
        # the pairs of the last y point with the lowest x points weigh below
        # TINY_DENSITY while both marginal densities stay positive
        rng = np.random.default_rng(4)
        j = BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.3)
        xs = np.sort(rng.normal(0.0, 1.0, 800))
        ys = np.sort(rng.normal(0.0, 1.0, 800))
        assert self._takes(j, xs, ys, monkeypatch, transform_calls)
        # y points every 1.5 from 3 to 36.5 keep every target within reach
        ys = np.append(ys, np.arange(3.0, 37.0, 1.5))
        weight = lambda x, y: j.marginal_x.pdf(x) * j.conditional_pdf(y, x)
        assert weight(xs[0], ys[-1]) < information.TINY_DENSITY < weight(xs[-1], ys[-1])
        assert j.marginal_y.pdf(ys[-1]) > 0.0
        assert not self._takes(j, xs, ys, monkeypatch, transform_calls)

    def test_tiny_sds_factor_out_the_largest_lead(self, monkeypatch, transform_calls):
        # with sd 1e-60 a side, lead = -u^2/2 - log(2 pi sd^2 sqrt(q)) is up to 274.6
        sd, rho = 1e-60, 0.5
        j = BivariateGaussianModel(0.0, 0.0, sd * sd, sd * sd, rho)
        q = 1.0 - rho * rho

        def log_weight(u, v):
            return (-0.5 * u * u - math.log(2.0 * math.pi * sd * sd * math.sqrt(q))
                    - (v - rho * u) ** 2 / (2.0 * q))

        # the farthest pair's exp(-(w - t)^2) alone underflows, while its
        # weight stays above TINY_DENSITY
        u, v = np.linspace(-2.0, 2.0, 400), np.linspace(-2.0, 36.0, 600)
        assert math.exp(-(v[-1] - rho * u[0]) ** 2 / (2.0 * q)) == 0.0
        assert log_weight(u[0], v[-1]) > math.log(information.TINY_DENSITY)
        assert self._takes(j, sd * u, sd * v, monkeypatch, transform_calls)
        # x points 0 to 37.5 sds apart differ in lead by more than
        # -log(TINY_DENSITY), so exp(lead_i - max lead) would fall below it;
        # every pair's weight stays above it
        u, v = np.linspace(0.0, 37.5, 1000), np.linspace(1.84, 17.1, 1000)
        assert 37.5 ** 2 / 2.0 > -math.log(information.TINY_DENSITY)
        assert min(log_weight(u[-1], v[0]), log_weight(u[0], v[-1])) > math.log(
            information.TINY_DENSITY)
        assert not self._takes(j, sd * u, sd * v, monkeypatch, transform_calls)
        assert self._takes(j, sd * u[u < 36.0], sd * v, monkeypatch, transform_calls)

    def test_rho_zero_is_exactly_zero_and_repeats_give_the_same_bits(self, transform_calls):
        rng = np.random.default_rng(5)
        xs, ys = np.sort(rng.normal(0.0, 1.0, 1000)), np.sort(rng.normal(0.0, 1.0, 900))
        independent = BivariateGaussianModel(0.2, -0.1, 1.5, 0.7, 0.0)
        assert information._gaussian_pair_sum(independent, xs, ys) == 0.0
        j = BivariateGaussianModel(0.2, -0.1, 1.5, 0.7, -0.6)
        first = information._gaussian_pair_sum(j, xs, ys)
        assert transform_calls
        assert all(information._gaussian_pair_sum(j, xs, ys) == first for _ in range(3))
        # targets in any order give the same sum up to rounding
        shuffled = rng.permutation(xs)
        assert information._gaussian_pair_sum(j, shuffled, ys) == pytest.approx(first, rel=1e-14)

    @pytest.mark.parametrize("width", [0.5, 1.0, 2.0, 3.0, 4.0])
    def test_interpolation_error_within_a_priori_bound(self, width):
        rng = np.random.default_rng(int(10 * width))
        lo, panels = -1.0, 3
        w = np.sort(rng.uniform(lo - 3.0, lo + panels * width + 3.0, 300))
        v_powers = (w - 0.4)[:, None] ** np.arange(3.0)
        # sorted, as the pair sum gives them; the ends set lo and the width
        targets = np.sort(np.concatenate(([lo, lo + panels * width],
                                          rng.uniform(lo, lo + panels * width, 3000))))

        def kernel(s):
            return information._dense_gauss_sums(np.zeros(len(s)), s, w, v_powers)

        got = information._chebyshev_interpolate(kernel, targets, panels)
        assert np.array_equal(information._chebyshev_interpolate(kernel, targets[::-1], panels),
                              got[::-1])
        err = np.abs(got - kernel(targets))
        assert np.all(err <= _interpolation_bound(w, v_powers, lo, width, panels, targets))
        if width >= 3.0:
            # wide panels leave truncation that the bound must cover, not rounding
            assert err.max() > 1e-9

    @pytest.mark.filterwarnings("error")
    def test_targets_on_nodes_take_the_node_values(self):
        # on [0, 1], a node s_k <= -0.5 maps to t = (s_k + 1)/2 and back exactly;
        # the nodes descend, so these targets come first in descending order
        nodes = information._CHEB_NODES
        targets = np.concatenate(([1.0, 0.5], (nodes[nodes <= -0.5] + 1.0) / 2.0, [0.0]))
        w = np.linspace(-2.0, 3.0, 50)
        v_powers = w[:, None] ** np.arange(3.0)

        def kernel(s):
            return information._dense_gauss_sums(np.zeros(len(s)), s, w, v_powers)

        got = information._chebyshev_interpolate(kernel, targets, 1)
        on_node = np.isin(targets, (nodes + 1.0) / 2.0)
        assert on_node.sum() == np.sum(nodes <= -0.5)
        assert np.array_equal(got[on_node], kernel((nodes + 1.0) / 2.0)[nodes <= -0.5])
        assert np.allclose(got[~on_node], kernel(targets[~on_node]), rtol=1e-12, atol=0.0)


# Frozen outputs of the additive standard-Gaussian model on the five
# benchmark point/interval combinations, captured from a verified run and
# held to tight relative tolerance to catch accidental drift.
BENCHMARK_ROWS = (
    (0.0, 0.0, (1.0, 2.0), (1.0, 2.0),
     0.05515890003816289, 0.042381059437894865),
    (0.0, 1.0, (1.0, 2.0), (2.0, 3.0),
     0.009322475871656657, 0.03794068023798442),
    (1.0, 0.0, (2.0, 3.0), (1.0, 3.0),
     -0.008983090440488761, 0.018353244284944975),
    (1.0, 0.0, (20.0, 30.0), (10.0, 30.0),
     -0.008983090440488761, 2.7700175150504312e-87),
    (20.0, 30.0, (2.0, 3.0), (1.0, 3.0),
     7.448982254606816e-108, 0.018353244284944975),
)

# High-precision value of the row-4 tail integral, from the 1-D reduction of
# test_row4_tail_truth_against_mpmath; scipy QUADPACK on the same reduction
# agrees to about 2e-15.
ROW4_TAIL_TRUTH = 2.77001751505055e-87


def _mi_rect_by_mpmath(mp, j: BivariateGaussianModel, x_iv, y_iv, pieces: int):
    """The real MI of j over x_iv x y_iv: the y-integral in closed form, the x one by mpmath.

    Y | X = x is N(m(x), s^2) and Y is N(mean_y, var_y), so the y-integral
    of f_{Y|X} log(f_{Y|X} / f_Y) over (c, d) is a sum of truncated normal
    moments; mpmath.quad integrates f_X times it over x, in `pieces` equal
    parts of the x-interval within 12 sds of mean_x and one part on each
    side beyond. The model's float parameters are taken exactly.
    """
    mean_x, mean_y, var_x, var_y, rho = (
        mp.mpf(v) for v in (j.mean_x, j.mean_y, j.var_x, j.var_y, j.rho))
    s = mp.sqrt(var_y * (1 - rho * rho))
    slope = rho * mp.sqrt(var_y / var_x)
    c, d = (mp.mpf(v) for v in y_iv)

    def inner(x):
        delta = slope * (x - mean_x)
        a, b = (c - mean_y - delta) / s, (d - mean_y - delta) / s
        # both ends in the upper tail take the upper tails, so that P keeps its digits
        mass = mp.ncdf(-a) - mp.ncdf(-b) if a > 0 else mp.ncdf(b) - mp.ncdf(a)
        m1 = mp.npdf(a) - mp.npdf(b)
        m2 = mass + a * mp.npdf(a) - b * mp.npdf(b)
        return ((-mp.log1p(-rho * rho) / 2 + delta * delta / (2 * var_y)) * mass
                - rho * rho / 2 * m2 + s / var_y * delta * m1)

    lo, hi = (mp.mpf(v) for v in x_iv)
    sd = mp.sqrt(var_x)
    core_lo, core_hi = max(lo, mean_x - 12 * sd), min(hi, mean_x + 12 * sd)
    if core_lo < core_hi:
        edges = ([lo] * (lo < core_lo) + list(mp.linspace(core_lo, core_hi, pieces + 1))
                 + [hi] * (core_hi < hi))
    else:
        edges = list(mp.linspace(lo, hi, pieces + 1))
    # mpmath.quad stops on an absolute error estimate, so f_X is integrated
    # relative to its value at ref; at 1e-88 scale every estimate would pass at once
    ref = min(max(mean_x, lo), hi)
    return mp.npdf(ref, mean_x, sd) * mp.fsum(
        mp.quad(lambda x: mp.exp(((ref - mean_x) ** 2 - (x - mean_x) ** 2) / (2 * var_x))
                * inner(x), [a, b])
        for a, b in zip(edges, edges[1:]))


def test_row4_tail_truth_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        coarse, fine = (_mi_rect_by_mpmath(mp, STD_ADDITIVE, (20, 30), (10, 30), pieces)
                        for pieces in (5, 20))
    assert float(abs(coarse / fine - 1)) < 1e-20
    assert float(fine) == pytest.approx(ROW4_TAIL_TRUTH, rel=1e-12, abs=0.0)


# Real MI over rectangles much wider than the density, near independence,
# on a ridge and in the far tail, and two whose y-interval lies in one tail
# of Y | X, where P needs that tail's own erfc: (model, x-interval,
# y-interval, value of _mi_rect_by_mpmath at 40 digits, which
# test_closed_form_truths_against_mpmath checks)
_WIDE_Y = 0.07874861848452004169
CLOSED_FORM_TRUTHS = {
    "y over (0, 1e2)": (STD_ADDITIVE, (0.0, 1.0), (0.0, 1e2), _WIDE_Y),
    "y over (0, 1e4)": (STD_ADDITIVE, (0.0, 1.0), (0.0, 1e4), _WIDE_Y),
    "y over (0, 1e6)": (STD_ADDITIVE, (0.0, 1.0), (0.0, 1e6), _WIDE_Y),
    "y over (0, 1.2e308)": (STD_ADDITIVE, (0.0, 1.0), (0.0, 1.2e308), _WIDE_Y),
    "rho 1e-9": (BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 1e-9),
                 (-3.0, 3.0), (-3.0, 3.0), 4.714916345283468291e-19),
    "rho 1e-6": (BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 1e-6),
                 (-3.0, 3.0), (-3.0, 3.0), 4.714916345286019199e-13),
    "rho 1e-5": (BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 1e-5),
                 (-9.0, 9.0), (-9.0, 9.0), 5.0000000002500006308e-11),
    "rho 0.999": (BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.999),
                  (-3.0, 3.0), (-3.0, 3.0), 3.0848520199616025952),
    "underflowing box": (BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.999),
                         (29.9, 30.1), (29.9, 30.1), 2.2161841384618375602e-194),
    "y end 1.7e308, var_y 0.01": (BivariateGaussianModel(0.0, 0.0, 1.0, 0.01, 0.5),
                                  (0.0, 1.0), (0.0, 1.7e308), 0.041433956115413383305),
    "upper tail": (BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.5),
                   (0.0, 1.0), (6.0, 8.0), -2.5949606714828839733e-11),
    "lower tail": (BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, -0.5),
                   (0.0, 1.0), (-9.0, -7.0), -9.3173104722658719018e-15),
}


@pytest.mark.parametrize("name", CLOSED_FORM_TRUTHS)
def test_closed_form_truths_against_mpmath(name):
    mp = pytest.importorskip("mpmath")
    j, x_iv, y_iv, truth = CLOSED_FORM_TRUTHS[name]
    with mp.workdps(40):
        value = _mi_rect_by_mpmath(mp, j, x_iv, y_iv, 4)
    assert float(value) == pytest.approx(truth, rel=1e-15, abs=0.0)


class _GridOnly(_ScalarOnly):
    """A generic JointModel with the Gaussian model's array density: the
    _mi_terms path at numpy speed."""

    def joint_pdf_array(self, x, y):
        return self.inner.joint_pdf_array(x, y)


class TestGenericPath:
    """The generic 2-D path: y_integral's columns run together as the runs of one call."""

    MODEL = BivariateGaussianModel(-1.0, 2.0, 0.3, 4.0, -0.9)
    SX = MixedSet([-1.3], [(-2.0, -1.5), (-1.0, 0.0)])
    SY = MixedSet([2.7, 3.0], [(0.5, 2.5)])
    # value, record count and repr(tuple(total_stats(records))), taken before
    # the columns ran together; a change that moves them on purpose re-pins
    # them and says why
    PINNED = {
        "rectangle": ("0.5319505434652181", 49,
                      "(2352, 49, 49, 1, 4.371164476386913e-11, 0)"),
        "inner rectangle": ("0.2723243260912948", 49,
                            "(2352, 49, 49, 1, 1.3600232051658168e-15, 0)"),
        "joint cdf": ("0.04869977191149264", 177,
                      "(38448, 645, 645, 5, 3.48402180191766e-14, 0)"),
        "mi": ("(0.5017868475162656, 0.1378753329658447)", 97,
               "(4704, 97, 98, 1, 1.7483844233501245e-15, 0)"),
    }
    CASES = {
        "rectangle": lambda j: integrate_2d(j.joint_pdf_array, -2.0, 0.0, 0.0, 3.0),
        "inner rectangle": lambda j: integrate_2d(j.joint_pdf_array, -1.5, -0.5, 1.0, 2.5),
        "joint cdf": lambda j: _GridOnly(j).joint_cdf(-1.2, 2.5),
        "mi": lambda j: (lambda v: (v.soft, v.real))(
            soft_mutual_information(_GridOnly(j), TestGenericPath.SX, TestGenericPath.SY)),
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_values_and_stats_are_pinned_to_the_bit(self, case):
        with collect_stats() as records:
            value = self.CASES[case](self.MODEL)
        assert (repr(value), len(records), repr(tuple(total_stats(records)))) == \
            self.PINNED[case]

    def test_a_failing_column_gives_the_2d_estimate(self):
        # near independence the pointwise terms are rounding noise, so some
        # column meets no relative tolerance; the error carries the estimate
        # of the whole integral, not that column's 5.34e-15
        j = BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 1e-6)
        square = MixedSet([], [(-3.0, 3.0)])
        closed_form = soft_mutual_information(j, square, square).real
        for run in (lambda: soft_mutual_information(_GridOnly(j), square, square),
                    lambda: integrate_2d(lambda x, y: information._mi_terms(j, x, y),
                                         -3.0, 3.0, -3.0, 3.0)):
            with collect_stats() as records, pytest.raises(ConvergenceError) as err:
                run()
            assert str(err.value).startswith("at x=-0.015898597512525203, integral over "
                                             "(-3.0, 3.0) did not converge")
            assert err.value.best_estimate == pytest.approx(closed_form, rel=1e-4)
            # the outer run's record, after those of its 48 columns
            assert err.value.stats == records[-1] and len(records) == 49
            assert err.value.stats.nodes == 48


    @pytest.mark.parametrize("noise_first", [True, False])
    def test_the_first_failing_column_in_call_order_names_the_error(self, noise_first):
        # rounding-noise columns on one side of x = 0 fail only at their
        # cap; a non-finite value on the other side is met in the first
        # round. The column first in call order names the error.
        noise_side, nan_side = (-1.0, 1.0) if noise_first else (1.0, -1.0)

        def f(x, y):
            noise = 1e-17 * np.sin(1e7 * y) + 0.0 * x
            return np.where(noise_side * x > 0.0, noise,
                            np.where((nan_side * x > 0.5) & (y > 0.9), math.nan, 1.0))

        xs = np.linspace(-0.9, 0.9, 7)
        for run in (lambda: integrate_2d(f, -1.0, 1.0, 0.0, 1.0),
                    lambda: quadrature.y_integral(f, [(0.0, 1.0)])(xs)):
            with pytest.raises((ConvergenceError, DomainError)) as err:
                run()
            if noise_first:
                assert isinstance(err.value, ConvergenceError)
                assert re.match(r"at x=-0\.9\d*, integral over \(0\.0, 1\.0\) did not "
                                r"converge: it needs more than 4160 panels", str(err.value))
            else:
                assert type(err.value) is DomainError
                assert re.match(r"integrand returned non-finite value nan at "
                                r"\(-0\.9\d*, 0\.9\d*\)", str(err.value))

    def test_many_noise_columns_stay_bounded(self):
        # near independence many columns are rounding noise; the columns of
        # a call run in groups and end with the round in which one fails,
        # so their panels stay near one group's, however many x nodes
        j = BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 1e-6)
        sx = MixedSet([], [(-3.0 + 0.2 * k, -2.9 + 0.2 * k) for k in range(30)])
        with collect_stats() as records, pytest.raises(ConvergenceError) as err:
            soft_mutual_information(_GridOnly(j), sx, MixedSet([], [(-3.0, 3.0)]))
        columns = records[:-1]
        assert len(columns) == 30 * 48 and err.value.stats == records[-1]
        assert sum(r.panels for r in columns) <= quadrature.GROUP_PANELS + len(columns)
        closed_form = soft_mutual_information(j, sx, MixedSet([], [(-3.0, 3.0)])).real
        assert err.value.best_estimate == pytest.approx(closed_form, rel=1e-3)


def test_unit_ratio_tolerance_makes_matching_densities_cancel_exactly(monkeypatch):
    # an independent model on the generic path, and a normal against the same
    # normal written out by hand: every density ratio is 1 up to rounding
    j = _GridOnly(BivariateGaussianModel(0.3, -0.2, 1.7, 0.6, 0.0))
    sx = MixedSet([0.1, 0.5], [(-1.0, 0.0), (1.0, 2.5)])
    sy = MixedSet([0.9], [(-0.9, 0.4)])
    same_normal = UserDefinedDistribution(
        lambda x: math.exp(-(x - 0.3) ** 2 / 3.4) / math.sqrt(2.0 * math.pi * 1.7),
        lambda x: 0.5 * math.erfc((0.3 - x) / math.sqrt(3.4)),
        location=0.3, scale=math.sqrt(1.7))
    values = [lambda: soft_mutual_information(j, sx, sy),
              lambda: soft_kld(Gaussian(0.3, 1.7), same_normal, sx)]
    for value in values:
        assert value() == SoftNumber(0.0, 0.0)
    # without the tolerance the rounding noise is left for quadrature to meet
    monkeypatch.setattr(information, "UNIT_RATIO_TOLERANCE", 0.0)
    for value in values:
        with pytest.raises(ConvergenceError):
            value()


def _random_rectangle(rng: random.Random, rho: float):
    """A random Gaussian model with correlation rho, and a rectangle whose
    edges lie between -4 and +3 sds of each marginal."""
    j = BivariateGaussianModel(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                               rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0), rho)
    x_iv = sorted(j.mean_x + math.sqrt(j.var_x) * rng.uniform(-4.0, 3.0) for _ in range(2))
    y_iv = sorted(j.mean_y + math.sqrt(j.var_y) * rng.uniform(-4.0, 3.0) for _ in range(2))
    return j, tuple(x_iv), tuple(y_iv)


def _abs_terms_integral(j, x_iv, y_iv, n: int = 64) -> float:
    """The integral of |MI terms| over x_iv x y_iv, roughly: one n x n Gauss grid.

    |terms| has a kink where the log ratio is 0, so no relative tolerance
    can be met on it, but one fixed grid gets its size to a few digits.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
    hx, hy = (x_iv[1] - x_iv[0]) / 2, (y_iv[1] - y_iv[0]) / 2
    xs, ys = x_iv[0] + hx * (nodes + 1), y_iv[0] + hy * (nodes + 1)
    terms = np.abs(information._mi_terms(j, xs[None, :], ys[:, None]))
    return hx * hy * float(weights @ terms @ weights)


class TestIntervalGrid:
    """For a generic JointModel the real part of MI is an iterated integral:
    at each x node of the x run, one y run over the _mi_terms column."""

    @pytest.mark.parametrize("name", ["y over (0, 1e2)", "y over (0, 1e4)", "y over (0, 1e6)",
                                      "y over (0, 1.2e308)", "rho 0.999"])
    def test_matches_high_precision_truth(self, name):
        # y-intervals far wider than the density, and a ridge along y = x
        j, x_iv, y_iv, truth = CLOSED_FORM_TRUTHS[name]
        value = soft_mutual_information(_GridOnly(j), MixedSet([], [x_iv]), MixedSet([], [y_iv]))
        assert value.real == pytest.approx(truth, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("row", range(5))
    def test_table1_rows_match_the_closed_form(self, row):
        x0, y0, x_iv, y_iv, _, _ = BENCHMARK_ROWS[row]
        sx, sy = MixedSet([x0], [x_iv]), MixedSet([y0], [y_iv])
        closed = soft_mutual_information(STD_ADDITIVE, sx, sy)
        generic = soft_mutual_information(_GridOnly(STD_ADDITIVE), sx, sy)
        assert generic.real == pytest.approx(closed.real, rel=1e-15, abs=0.0)

    def test_near_independence_never_returns_a_wrong_value(self):
        # log ratios of order 1e-6 keep only about ten digits under the
        # pointwise rule, so the column runs may not converge; they must
        # not return a value off the truth
        j, x_iv, y_iv, truth = CLOSED_FORM_TRUTHS["rho 1e-6"]
        try:
            value = soft_mutual_information(_GridOnly(j), MixedSet([], [x_iv]),
                                            MixedSet([], [y_iv])).real
        except ConvergenceError as err:
            assert math.isfinite(err.best_estimate)
        else:
            assert value == pytest.approx(truth, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("form", FORMS)
    def test_default_grid_matches_gaussian_override_on_rectangle(self, form):
        sx, sy = MixedSet([], [(2.0, 3.0)]), MixedSet([], [(1.0, 3.0)])
        fast = soft_mutual_information(STD_ADDITIVE, sx, sy, form=form)
        generic = soft_mutual_information(_ScalarOnly(STD_ADDITIVE), sx, sy, form=form)
        assert fast.real > 0.0
        assert generic.real == pytest.approx(fast.real, rel=1e-12)

    def test_generic_joint_cdf_default_grid_matches_gaussian_override(self):
        j = BivariateGaussianModel(0.1, -0.2, 1.0, 2.0, 0.6)
        for x, y in ((0.3, -0.2), (-1.0, 1.5)):
            # on j itself JointModel.joint_cdf would run over the closed-form column
            fast = JointModel.joint_cdf(_GridOnly(j), x, y)
            assert fast == pytest.approx(j.joint_cdf(x, y), rel=1e-6)
            assert _ScalarOnly(j).joint_cdf(x, y) == pytest.approx(fast, rel=1e-12)

    def test_underflowing_marginal_product_on_rectangle_is_a_domain_error(self):
        # f_X * f_Y underflows to zero on the whole rectangle while the joint
        # density is about 1e-195; this was a ZeroDivisionError
        j = BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.999)
        box = MixedSet([], [(29.9, 30.1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                soft_mutual_information(_ScalarOnly(j), box, box)
            # the Gaussian model's closed form never forms f_X * f_Y
            sym = soft_mutual_information(j, box, box)
        truth = CLOSED_FORM_TRUTHS["underflowing box"][3]
        assert sym.real == pytest.approx(truth, rel=1e-12, abs=0.0)


class TestGaussianClosedForm:
    """The real MI of a BivariateGaussianModel integrates the closed-form
    y-integral over x; the generic grid path, which integrates the pointwise
    terms over y as well, is its oracle."""

    @pytest.mark.parametrize("name", CLOSED_FORM_TRUTHS)
    def test_matches_high_precision_truth(self, name):
        j, x_iv, y_iv, truth = CLOSED_FORM_TRUTHS[name]
        value = soft_mutual_information(j, MixedSet([], [x_iv]), MixedSet([], [y_iv]))
        assert value.real == pytest.approx(truth, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("j, end", [
        (STD_ADDITIVE, 1e6),
        # the conditional mean overflows at the far x nodes, where f_X is 0
        (BivariateGaussianModel(0.0, 0.0, 0.01, 100.0, 0.9), 1.7e308)])
    def test_wide_square_gives_the_whole_information(self, j, end):
        # -log(1 - rho^2)/2, ln(2)/2 for the additive model; the mass beyond the ends is nothing
        box = MixedSet([], [(-end, end)])
        value = soft_mutual_information(j, box, box)
        assert value.real == pytest.approx(-0.5 * math.log1p(-j.rho ** 2), rel=1e-12)
        if j is STD_ADDITIVE:
            assert value.real == pytest.approx(LN2 / 2, rel=1e-12)

    def test_agrees_with_grid_path_on_random_rectangles(self):
        # the grid path's runs meet a budget relative to the summed |panel
        # estimates|, so its error is relative to the integral of |terms|.
        # At small |rho| terms of both signs cancel and that integral is far
        # above the net value, and a column whose terms cancel to nearly 0
        # never meets a relative budget, hence the tiny abs_tol
        rng = random.Random(2024)
        for _ in range(300):
            j, x_iv, y_iv = _random_rectangle(rng, rng.uniform(-0.99, 0.99))
            scale = _abs_terms_integral(j, x_iv, y_iv)
            quad = InfoConfig(quadrature=QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16 * scale))
            sx, sy = MixedSet([], [x_iv]), MixedSet([], [y_iv])
            fast = soft_mutual_information(j, sx, sy, quad).real
            grid = soft_mutual_information(_GridOnly(j), sx, sy, quad).real
            assert abs(fast - grid) <= 1e-11 * scale

    @pytest.mark.parametrize("rho", [-0.0026, 0.013, 0.5, -0.99])
    def test_random_rectangles_against_mpmath(self, rho):
        mp = pytest.importorskip("mpmath")
        j, x_iv, y_iv = _random_rectangle(random.Random(rho), rho)
        value = soft_mutual_information(j, MixedSet([], [x_iv]), MixedSet([], [y_iv]))
        with mp.workdps(40):
            truth = float(_mi_rect_by_mpmath(mp, j, x_iv, y_iv, 4))
        assert value.real == pytest.approx(truth, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("y_intervals", [
        [(-3.0, -0.9), (-0.5, 1.7e308)],
        # (b - a)/2 overflows while (a + b)/2 is exactly 0
        [(-1.7e308, 1.7e308)]])
    def test_independent_model_is_exactly_zero(self, y_intervals):
        j = BivariateGaussianModel(0.3, 0.0, 2.0, 0.5, 0.0)
        sx = MixedSet([], [(-1e6, -1.0), (0.0, 0.5), (2.0, 1e300)])
        assert soft_mutual_information(j, sx, MixedSet([], y_intervals)).real == 0.0

    def test_many_intervals_keep_each_call_small(self, monkeypatch):
        # every x node meets every y-interval in the closed form, so 1,000
        # x-intervals against 1,000 y-intervals go in blocks of at most
        # BLOCK pairs, not 48,000 x nodes at once; past that many
        # y-intervals a call holds one x
        calls = []

        def counting(params, xs, y):
            calls.append((len(xs), y[0].shape[1]))
            return np.zeros(len(xs))

        monkeypatch.setattr(information, "_mi_y_integral", counting)
        j = BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.5)
        intervals = [(0.01 * k, 0.01 * k + 0.004) for k in range(-500, 500)]
        ms = MixedSet([], intervals)
        assert len(ms.intervals) == 1000
        value = soft_mutual_information(j, ms, ms)
        assert value.real == 0.0
        assert sum(n for n, _ in calls) == 48 * 1000
        assert all(n * m <= BLOCK for n, m in calls)
        assert max(n for n, _ in calls) == BLOCK // 1000
        calls.clear()
        many = MixedSet([], [(0.001 * k, 0.001 * k + 0.0004) for k in range(20000)])
        soft_mutual_information(j, MixedSet([], [(0, 1)]), many)
        assert calls == [(1, 20000)] * 48

    def test_an_x_alone_sums_its_intervals_as_it_does_beside_others(self):
        # each x adds its y-intervals in order: numpy's sum over them went
        # pairwise for a call of one x, which moved 0.3's last bits
        j = BivariateGaussianModel(0.1, -0.2, 1.3, 0.8, 0.6)
        ends = np.sort(np.random.default_rng(5).normal(-0.2, 1.5, 2000)).reshape(1000, 2)
        xs = np.array([0.3, 0.7, *np.linspace(-3.0, 3.0, 17)])
        together = j.mi_y_integral(xs, ends[:, 0], ends[:, 1])
        for x, value in zip(xs.tolist(), together.tolist()):
            assert j.mi_y_integral(np.array([x]), ends[:, 0], ends[:, 1]).tolist() == [value]
        assert j.mi_y_integral(xs[:2], ends[:, 0], ends[:, 1]).tolist() == together[:2].tolist()
        assert j.mi_y_integral(xs, np.empty(0), np.empty(0)).tolist() == [0.0] * len(xs)

    def test_many_intervals_keep_memory_small(self):
        j = BivariateGaussianModel(0.3, -0.2, 1.3, 0.8, 0.6)
        sx = MixedSet([], [(0.05 * k, 0.05 * k + 0.02) for k in range(-5, 5)])
        sy = MixedSet([], [(0.01 * k, 0.01 * k + 0.004) for k in range(-200, 200)])
        tracemalloc.start()
        try:
            value = soft_mutual_information(j, sx, sy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value.real > 0.0
        # a first call of all 480 x nodes against 400 y-intervals would hold
        # 1.5 MiB in each temporary, 32 MiB at the peak
        assert peak < 8 * 2 ** 20

    def test_forms_are_bit_equal(self):
        j = BivariateGaussianModel(0.2, -0.4, 1.0, 2.0, -0.6)
        sx = MixedSet([], [(-2.0, -0.5), (0.1, 1.3), (3.0, 40.0)])
        sy = MixedSet([], [(-5.0, -1.0), (0.5, 0.75)])
        sym = soft_mutual_information(j, sx, sy, form="symmetric")
        assert sym.real > 0.0
        assert sym == soft_mutual_information(j, sx, sy, form="conditional")


# The same five rows to the bit, as repr((soft, real)) of the default call:
# a change of any rounding anywhere on their path shows here. A change that
# moves them on purpose re-pins them and says why.
BENCHMARK_ROW_BITS = (
    "(0.05515890003816287, 0.04238105943789487)",
    "(0.00932247587165667, 0.03794068023798443)",
    "(-0.008983090440488761, 0.018353244284944975)",
    "(-0.008983090440488761, 2.7700175150505156e-87)",
    "(7.448982254607011e-108, 0.018353244284944975)",
)


class TestBenchmarkRegression:
    @pytest.mark.parametrize("row", range(5))
    def test_row_bits_are_pinned(self, row):
        x0, y0, x_iv, y_iv, _, _ = BENCHMARK_ROWS[row]
        value = soft_mutual_information(STD_ADDITIVE, MixedSet([x0], [x_iv]),
                                        MixedSet([y0], [y_iv]))
        assert repr((value.soft, value.real)) == BENCHMARK_ROW_BITS[row]

    @pytest.mark.parametrize("row", range(5))
    def test_row_values_are_stable(self, row):
        x0, y0, x_iv, y_iv, soft_ref, real_ref = BENCHMARK_ROWS[row]
        value = soft_mutual_information(STD_ADDITIVE, MixedSet([x0], [x_iv]),
                                        MixedSet([y0], [y_iv]))
        assert value.soft == pytest.approx(soft_ref, rel=1e-9, abs=0.0)
        assert value.real == pytest.approx(real_ref, rel=1e-9, abs=0.0)

    def test_rows_take_eight_integrand_calls(self):
        # one integrate_pieces run per row; only row 4's deep tail refines
        with collect_stats() as records:
            for x0, y0, x_iv, y_iv, _, _ in BENCHMARK_ROWS:
                soft_mutual_information(STD_ADDITIVE, MixedSet([x0], [x_iv]),
                                        MixedSet([y0], [y_iv]))
        assert [r.calls for r in records] == [1, 1, 1, 4, 1]
        assert total_stats(records).calls == 8

    def test_tail_rectangle_matches_high_precision_truth(self):
        value = soft_mutual_information(
            STD_ADDITIVE, MixedSet([1.0], [(20.0, 30.0)]),
            MixedSet([0.0], [(10.0, 30.0)]))
        assert value.real == pytest.approx(ROW4_TAIL_TRUTH, rel=1e-9, abs=0.0)
