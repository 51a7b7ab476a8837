"""Tests for soft entropy, cross entropy, KL divergence, and mutual information."""

import math
import random

import numpy as np
import pytest

from softprob.distributions import (
    BivariateGaussianModel,
    Gaussian,
    JointModel,
    Uniform,
    joint_gaussian_additive,
)
from softprob.errors import DomainError
from softprob.information import (
    FORM_CONDITIONAL,
    FORM_SYMMETRIC,
    InfoConfig,
    POINT_BLOCK_PAIRS,
    ZLOGZ_COLLAPSE,
    soft_cross_entropy,
    soft_entropy,
    soft_kld,
    soft_mutual_information,
)
from softprob.moments import MixedSet
from softprob.softnum import ExtendedSoftNumber, SoftNumber

LN2 = math.log(2.0)
BASE2 = InfoConfig(log_base=2.0)
COLLAPSE = InfoConfig(zlogz_mode=ZLOGZ_COLLAPSE)


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

    @pytest.mark.parametrize("base", [0.0, -2.0, 1.0, math.nan, math.inf])
    def test_bad_log_base_rejected(self, base):
        with pytest.raises(DomainError):
            InfoConfig(log_base=base)

    def test_bad_zlogz_mode_rejected(self):
        with pytest.raises(DomainError):
            InfoConfig(zlogz_mode="drop")

    def test_quadrature_override_used_for_both_dimensions(self):
        from softprob.quadrature import DEFAULT_1D, DEFAULT_2D, QuadratureConfig

        override = QuadratureConfig(rel_tol=1e-4)
        cfg = InfoConfig(quadrature=override)
        assert cfg.quad_1d() is override
        assert cfg.quad_2d() is override
        plain = InfoConfig()
        assert plain.quad_1d() is DEFAULT_1D
        assert plain.quad_2d() is DEFAULT_2D


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

    def test_zero_density_at_point_rejected(self):
        with pytest.raises(DomainError):
            soft_entropy(Uniform(0, 1), MixedSet([2.0], []))
        with pytest.raises(DomainError):
            soft_entropy(Uniform(0, 1), MixedSet([0.0], []))

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
        assert soft_mutual_information(j, sx, sy,
                                       form=FORM_CONDITIONAL) == SoftNumber(0.0, 0.0)

    def test_forms_agree_on_correlated_model(self):
        sx = MixedSet([0.2], [(0.5, 1.5)])
        sy = MixedSet([-0.3], [(0.1, 0.9)])
        sym = soft_mutual_information(STD_ADDITIVE, sx, sy, form=FORM_SYMMETRIC)
        cond = soft_mutual_information(STD_ADDITIVE, sx, sy, form=FORM_CONDITIONAL)
        assert abs(sym.soft - cond.soft) <= max(1e-8, 1e-6 * abs(sym.soft))
        assert abs(sym.real - cond.real) <= max(1e-8, 1e-6 * abs(sym.real))

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
        with pytest.raises(DomainError):
            soft_mutual_information(STD_ADDITIVE, MixedSet([60.0], []),
                                    MixedSet([0.0], []))
        with pytest.raises(DomainError):
            soft_mutual_information(STD_ADDITIVE, MixedSet([0.0], []),
                                    MixedSet([80.0], []))

    def test_point_interval_cross_pairs_contribute_nothing(self):
        sx = MixedSet([0.0, 0.4], [(1.0, 2.0)])
        sy = MixedSet([-0.1], [(0.5, 1.5), (2.0, 2.5)])
        full = soft_mutual_information(STD_ADDITIVE, sx, sy)
        points_only = soft_mutual_information(
            STD_ADDITIVE, MixedSet(sx.points, []), MixedSet(sy.points, []))
        intervals_only = soft_mutual_information(
            STD_ADDITIVE, MixedSet([], sx.intervals), MixedSet([], sy.intervals))
        assert full.soft == points_only.soft
        assert full.real == intervals_only.real
        assert points_only.real == 0.0
        assert intervals_only.soft == 0.0

    def test_unknown_form_rejected(self):
        with pytest.raises(DomainError):
            soft_mutual_information(STD_ADDITIVE, MixedSet([0.0], []),
                                    MixedSet([0.0], []), form="bayes")

    def test_additive_gaussian_point_term_closed_form(self):
        value = soft_mutual_information(STD_ADDITIVE, MixedSet([0.0], []),
                                        MixedSet([0.0], []),
                                        form=FORM_CONDITIONAL)
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

    def conditional_pdf(self, y, given_x):
        return self.inner.conditional_pdf(y, given_x)


def _spread_points(rng: random.Random, n: int, sd: float) -> list[float]:
    return sorted({rng.gauss(0.0, sd) for _ in range(n)})


class TestPointPairSum:
    N_X = 128
    ROWS = POINT_BLOCK_PAIRS // N_X  # rows of y per block when X has N_X points

    @pytest.mark.parametrize("form", [FORM_SYMMETRIC, FORM_CONDITIONAL])
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

    @pytest.mark.parametrize("form", [FORM_SYMMETRIC, FORM_CONDITIONAL])
    def test_matches_dense_oracle_at_800_points(self, form):
        rng = random.Random(800)
        j = BivariateGaussianModel(0.0, 0.1, 1.0, 1.25, 0.89)
        xs = _spread_points(rng, 800, 1.0)
        ys = _spread_points(rng, 800, 1.1)
        value = soft_mutual_information(j, MixedSet(xs), MixedSet(ys), form=form)
        assert value.soft == pytest.approx(_mi_oracle_pairs(j, xs, ys), rel=1e-12)

    @pytest.mark.parametrize("form", [FORM_SYMMETRIC, FORM_CONDITIONAL])
    def test_independent_model_with_many_points_is_absolute_zero(self, form):
        rng = random.Random(7)
        j = BivariateGaussianModel(0.5, -1.0, 2.0, 0.5, 0.0)
        sx = MixedSet(_spread_points(rng, 500, 1.5))
        sy = MixedSet(_spread_points(rng, 400, 0.7))
        assert soft_mutual_information(j, sx, sy, form=form) == SoftNumber(0.0, 0.0)

    @pytest.mark.parametrize("form", [FORM_SYMMETRIC, FORM_CONDITIONAL])
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
        j = BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.999)
        with pytest.raises(DomainError):
            soft_mutual_information(j, MixedSet([27.3]), MixedSet([27.3]))


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

# High-precision value of the row-4 tail integral: mpmath tanh-sinh on 44
# sub-intervals at 50 digits and scipy QUADPACK on the same 1-D reduction
# agree on these digits to about 1e-11.
ROW4_TAIL_TRUTH = 2.77001751507e-87


class TestBenchmarkRegression:
    @pytest.mark.parametrize("row", range(5))
    def test_row_values_are_stable(self, row):
        x0, y0, x_iv, y_iv, soft_ref, real_ref = BENCHMARK_ROWS[row]
        value = soft_mutual_information(STD_ADDITIVE, MixedSet([x0], [x_iv]),
                                        MixedSet([y0], [y_iv]),
                                        form=FORM_CONDITIONAL)
        assert value.soft == pytest.approx(soft_ref, rel=1e-9)
        assert value.real == pytest.approx(real_ref, rel=1e-9)

    def test_tail_rectangle_matches_high_precision_truth(self):
        value = soft_mutual_information(
            STD_ADDITIVE, MixedSet([1.0], [(20.0, 30.0)]),
            MixedSet([0.0], [(10.0, 30.0)]), form=FORM_CONDITIONAL)
        assert value.real == pytest.approx(ROW4_TAIL_TRUTH, rel=1e-9)
