"""Tests for soft probabilities of point and interval events."""

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softprob.distributions import BivariateGaussianModel, Gaussian, Uniform
from softprob.errors import DomainError, distinct_points
from softprob.information import soft_entropy
from softprob.moments import MixedSet
from softprob.probability import (
    IntervalEvent,
    Relation,
    ps2,
    ps_cond_point_given_interval,
    ps_cond_point_given_point,
    ps_eq,
    ps_interval,
    ps_intersect_point_interval,
    ps_leq,
    ps_lt,
    ps_neq,
    ps_points_intersection,
    ps_points_union,
    ps_union_point_interval,
)
from softprob.softnum import CONJUGATE, SoftNumber, cmp, soft_abs

STD = Gaussian(0, 1)
UNIT = Uniform(0, 1)
PHI0 = 1.0 / math.sqrt(2.0 * math.pi)

xs = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestEvents:
    def test_point_set_sorts_and_rejects_duplicates(self):
        # the one point-set rule, behind MixedSet and ps_points_union
        assert distinct_points([0.75, 0.25], "point") == [0.25, 0.75]
        with pytest.raises(DomainError, match="^duplicate point 0.3$"):
            distinct_points([0.3, 0.3], "point")

    def test_interval_needs_ordered_endpoints(self):
        with pytest.raises(DomainError):
            IntervalEvent(1.0, 1.0)
        with pytest.raises(DomainError):
            IntervalEvent(2.0, 1.0)

    def test_containment_respects_strictness(self):
        assert not IntervalEvent(0, 1, strict=True).contains(0.0)
        assert IntervalEvent(0, 1, strict=False).contains(0.0)


class TestPointEvents:
    def test_eq_is_density_on_soft_axis(self):
        got = ps_eq(STD, 0.0)
        assert got.real == 0.0
        assert got.soft == pytest.approx(0.3989422804, abs=1e-10)

    def test_eq_outside_support_is_absolute_zero(self):
        assert ps_eq(UNIT, 2.0).is_absolute_zero

    def test_eq_at_mode_dominates_under_cmp(self):
        for x in (-2.0, -0.5, 0.3, 1.7):
            assert cmp(ps_eq(STD, 0.0), ps_eq(STD, x)) == 1

    def test_lt_and_leq_at_gaussian_median(self):
        assert ps_lt(STD, 0.0) == SoftNumber(0.0, 0.5)
        got = ps_leq(STD, 0.0)
        assert got.soft == pytest.approx(0.39894, abs=1e-5)
        assert got.real == 0.5

    def test_lt_with_full_mass_below(self):
        assert ps_lt(UNIT, 1.0) == SoftNumber(0.0, 1.0)

    def test_neq_is_complement(self):
        got = ps_neq(STD, 0.0)
        assert got.real == 1.0
        assert got.soft == pytest.approx(-0.39894, abs=1e-5)
        assert ps_neq(UNIT, 2.0) == SoftNumber(0.0, 1.0)

    @given(xs)
    def test_leq_decomposes_exactly(self, x):
        assert ps_leq(STD, x) == ps_eq(STD, x) + ps_lt(STD, x)

    @given(xs)
    def test_eq_plus_neq_is_certainty(self, x):
        assert ps_eq(STD, x) + ps_neq(STD, x) == SoftNumber(0.0, 1.0)


class TestObservations:
    """The four conjugate-absolute-value facts about soft orderings."""

    @given(xs)
    def test_leq_differs_from_lt_but_abs_agree(self, x):
        leq, lt = ps_leq(STD, x), ps_lt(STD, x)
        assert leq != lt
        assert soft_abs(leq, CONJUGATE) == soft_abs(lt, CONJUGATE)
        assert cmp(soft_abs(leq, CONJUGATE), soft_abs(ps_eq(STD, x), CONJUGATE)) == 1

    def test_denser_point_wins_within_one_variable(self):
        x, y = 0.5, 1.5
        assert STD.pdf(x) > STD.pdf(y)
        assert cmp(ps_eq(STD, x), ps_eq(STD, y)) == 1
        assert soft_abs(ps_eq(STD, x), CONJUGATE).is_absolute_zero
        assert soft_abs(ps_eq(STD, y), CONJUGATE).is_absolute_zero

    def test_denser_point_wins_across_variables(self):
        other = Uniform(0, 4)
        assert STD.pdf(0.0) > other.pdf(1.0)
        assert cmp(ps_eq(STD, 0.0), ps_eq(other, 1.0)) == 1
        assert soft_abs(ps_eq(other, 1.0), CONJUGATE).is_absolute_zero

    @given(xs)
    def test_abs_of_leq_recovers_classical_cdf(self, x):
        got = soft_abs(ps_leq(STD, x), CONJUGATE)
        assert got == SoftNumber(0.0, STD.cdf(x))


class TestPointSets:
    def test_union_of_two_uniform_points(self):
        assert ps_points_union(UNIT, [0.25, 0.75]) == SoftNumber(2.0, 0.0)

    def test_empty_union_is_absolute_zero(self):
        assert ps_points_union(UNIT, []).is_absolute_zero

    def test_singleton_union_is_eq(self):
        assert ps_points_union(UNIT, [0.3]) == ps_eq(UNIT, 0.3)

    def test_union_rejects_duplicates(self):
        with pytest.raises(DomainError):
            ps_points_union(UNIT, [0.3, 0.3])

    def test_intersection_of_equal_points(self):
        assert ps_points_intersection(UNIT, [0.3, 0.3]) == SoftNumber(1.0, 0.0)

    def test_intersection_of_distinct_points_is_absolute_zero(self):
        assert ps_points_intersection(UNIT, [0.3, 0.4]).is_absolute_zero

    def test_singleton_intersection_is_eq(self):
        assert ps_points_intersection(UNIT, [0.3]) == ps_eq(UNIT, 0.3)

    @given(st.lists(xs, min_size=2, max_size=6, unique=True))
    def test_point_union_de_morgan_exact(self, points):
        x, y = points[0], points[1]
        union = ps_points_union(STD, [x, y])
        rhs = ps_eq(STD, x) + ps_eq(STD, y) - ps_points_intersection(STD, [x, y])
        assert union == rhs


class TestIntervalOps:
    def test_bare_interval_strict_and_closed(self):
        assert ps_interval(UNIT, IntervalEvent(0.25, 0.75)) == SoftNumber(0.0, 0.5)
        got = ps_interval(UNIT, IntervalEvent(0.25, 0.75, strict=False))
        assert got == SoftNumber(2.0, 0.5)

    def test_union_point_inside_strict(self):
        got = ps_union_point_interval(UNIT, 0.5, IntervalEvent(0.25, 0.75))
        assert got == SoftNumber(0.0, 0.5)

    def test_union_point_outside_strict(self):
        got = ps_union_point_interval(UNIT, 0.9, IntervalEvent(0.25, 0.75))
        assert got == SoftNumber(1.0, 0.5)

    def test_union_point_outside_closed(self):
        got = ps_union_point_interval(UNIT, 0.9,
                                      IntervalEvent(0.25, 0.75, strict=False))
        assert got == SoftNumber(3.0, 0.5)

    def test_intersect_point_inside(self):
        got = ps_intersect_point_interval(UNIT, 0.5, IntervalEvent(0.25, 0.75))
        assert got == SoftNumber(1.0, 0.0)

    def test_intersect_point_outside(self):
        got = ps_intersect_point_interval(UNIT, 0.9, IntervalEvent(0.25, 0.75))
        assert got.is_absolute_zero

    def test_endpoint_collision_rejected(self):
        iv = IntervalEvent(0.25, 0.75)
        for op in (ps_union_point_interval, ps_intersect_point_interval,
                   ps_cond_point_given_interval):
            with pytest.raises(DomainError):
                op(UNIT, 0.25, iv)
            with pytest.raises(DomainError):
                op(UNIT, 0.75, iv)

    @given(xs, st.floats(min_value=-2, max_value=1.8), st.floats(min_value=0.1, max_value=2),
           st.booleans())
    def test_de_morgan_sum_form_exact(self, x, lo, width, strict):
        iv = IntervalEvent(lo, lo + width, strict=strict)
        if x == iv.lo or x == iv.hi:
            return
        lhs = (ps_union_point_interval(STD, x, iv)
               + ps_intersect_point_interval(STD, x, iv))
        rhs = ps_eq(STD, x) + ps_interval(STD, iv)
        assert lhs == rhs

    @given(xs, st.floats(min_value=-2, max_value=1.8), st.floats(min_value=0.1, max_value=2))
    def test_de_morgan_subtraction_form_exact_for_strict(self, x, lo, width):
        iv = IntervalEvent(lo, lo + width, strict=True)
        if x == iv.lo or x == iv.hi:
            return
        union = ps_union_point_interval(STD, x, iv)
        rhs = (ps_eq(STD, x) + ps_interval(STD, iv)
               - ps_intersect_point_interval(STD, x, iv))
        assert union == rhs


class TestConditionals:
    def test_point_given_interval_inside(self):
        got = ps_cond_point_given_interval(UNIT, 0.5,
                                           IntervalEvent(0.25, 0.75, strict=False))
        assert got == SoftNumber(2.0, 0.0)

    def test_point_given_interval_outside(self):
        got = ps_cond_point_given_interval(UNIT, 0.9,
                                           IntervalEvent(0.25, 0.75, strict=False))
        assert got.is_absolute_zero

    def test_conditioning_raises_the_soft_coefficient(self):
        iv = IntervalEvent(-1.0, 1.0)
        for x in (-0.5, 0.0, 0.8):
            conditional = ps_cond_point_given_interval(STD, x, iv)
            assert conditional.soft >= ps_eq(STD, x).soft

    def test_zero_mass_condition_rejected(self):
        with pytest.raises(DomainError):
            ps_cond_point_given_interval(UNIT, 2.5, IntervalEvent(2.0, 3.0))

    def test_point_given_same_point(self):
        assert ps_cond_point_given_point(UNIT, 0.3, 0.3) == 1.0

    def test_point_given_other_point(self):
        assert ps_cond_point_given_point(UNIT, 0.3, 0.4) == 0.0

    def test_conditioning_on_impossible_point_rejected(self):
        with pytest.raises(DomainError):
            ps_cond_point_given_point(UNIT, 0.3, 2.0)

    @given(xs, xs)
    def test_kolmogorov_and_bayes_forms_agree(self, x, y):
        # Bayes form: Ps(X=x|X=y) = Ps(X=y|X=x) * Ps(X=x) / Ps(X=y); with
        # both marginal soft zeros positive this is the same indicator.
        fx, fy = STD.pdf(x), STD.pdf(y)
        assert fx > 0 and fy > 0
        kolmogorov = ps_cond_point_given_point(STD, x, y)
        bayes = (ps_cond_point_given_point(STD, y, x) * fx) / fy
        assert kolmogorov == pytest.approx(bayes, abs=1e-15)


INDEP = BivariateGaussianModel(0, 0, 1, 1, 0.0)


class TestPs2:
    def test_lt_lt_at_origin(self):
        got = ps2(INDEP, 0.0, 0.0, Relation.LT, Relation.LT)
        assert got.soft == 0.0
        assert got.real == pytest.approx(0.25, abs=1e-12)

    def test_eq_eq_at_origin(self):
        got = ps2(INDEP, 0.0, 0.0, Relation.EQ, Relation.EQ)
        assert got.real == 0.0
        assert got.soft == pytest.approx(0.1591549, abs=1e-7)

    def test_leq_leq_at_origin(self):
        got = ps2(INDEP, 0.0, 0.0, Relation.LEQ, Relation.LEQ)
        want_soft = 2.0 * PHI0 * 0.5 + 1.0 / (2.0 * math.pi)
        assert got.soft == pytest.approx(want_soft, abs=1e-9)
        assert got.real == pytest.approx(0.25, abs=1e-9)

    def test_atomic_table_against_closed_forms(self):
        x, y = 0.3, -0.4
        fx, fy = STD.pdf(x), STD.pdf(y)
        Fx, Fy = STD.cdf(x), STD.cdf(y)
        cases = {
            (Relation.LT, Relation.LT): SoftNumber(0.0, Fx * Fy),
            (Relation.EQ, Relation.LT): SoftNumber(fx * Fy, 0.0),
            (Relation.LT, Relation.EQ): SoftNumber(fy * Fx, 0.0),
            (Relation.EQ, Relation.EQ): SoftNumber(fx * fy, 0.0),
            (Relation.LEQ, Relation.LT): SoftNumber(fx * Fy, Fx * Fy),
            (Relation.LT, Relation.LEQ): SoftNumber(fy * Fx, Fx * Fy),
            (Relation.LEQ, Relation.EQ): SoftNumber(fy * Fx + fx * fy, 0.0),
            (Relation.EQ, Relation.LEQ): SoftNumber(fx * Fy + fx * fy, 0.0),
            (Relation.LEQ, Relation.LEQ): SoftNumber(
                fx * Fy + fy * Fx + fx * fy, Fx * Fy),
        }
        for (rx, ry), want in cases.items():
            got = ps2(INDEP, x, y, rx, ry)
            assert got.soft == pytest.approx(want.soft, abs=1e-9), (rx, ry)
            assert got.real == pytest.approx(want.real, abs=1e-9), (rx, ry)

    def test_decomposition_for_correlated_model(self):
        j = BivariateGaussianModel(0.2, -0.1, 1.0, 2.0, 0.5)
        rng = random.Random(11)
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5)
            y = rng.uniform(-1.5, 1.5)
            whole = ps2(j, x, y, Relation.LEQ, Relation.LEQ)
            parts = (ps2(j, x, y, Relation.LT, Relation.LT)
                     + ps2(j, x, y, Relation.LT, Relation.EQ)
                     + ps2(j, x, y, Relation.EQ, Relation.LT)
                     + ps2(j, x, y, Relation.EQ, Relation.EQ))
            assert whole.soft == pytest.approx(parts.soft, abs=1e-9)
            assert whole.real == pytest.approx(parts.real, abs=1e-9)

    def test_relation_type_checked(self):
        with pytest.raises(DomainError):
            ps2(INDEP, 0.0, 0.0, "lt", Relation.LT)


class TestTwoPrimitives:
    """Every event is soft-number algebra on ps_eq and ps_lt (with d.mass), bit for bit."""

    @given(xs)
    def test_leq_is_lt_plus_eq(self, x):
        for d in (STD, UNIT, Gaussian(1.5, 0.3)):
            assert ps_leq(d, x) == ps_lt(d, x) + ps_eq(d, x)

    @given(xs)
    def test_neq_is_one_minus_eq(self, x):
        for d in (STD, UNIT):
            assert ps_neq(d, x) == 1.0 - ps_eq(d, x)

    def test_neq_outside_a_support_has_a_positive_zero_soft_part(self):
        value = ps_neq(UNIT, 3.0)
        assert value == SoftNumber(0.0, 1.0) and math.copysign(1.0, value.soft) == 1.0

    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.2, 0.9), (20.0, 30.0), (-3.0, -2.0)])
    def test_closed_interval_is_open_plus_its_endpoints(self, lo, hi):
        for d in (STD, UNIT):
            closed = ps_interval(d, IntervalEvent(lo, hi, strict=False))
            assert closed == ps_interval(d, IntervalEvent(lo, hi)) + ps_points_union(d, [lo, hi])

    def test_union_with_an_outside_point_adds_its_eq(self):
        iv = IntervalEvent(-1.0, 1.0, strict=False)
        assert ps_union_point_interval(STD, 2.5, iv) == ps_interval(STD, iv) + ps_eq(STD, 2.5)
        assert ps_union_point_interval(STD, 0.5, iv) == ps_interval(STD, iv)

    def test_points_union_is_the_sum_of_eq(self):
        points = [-1.0, 0.25, 2.0]
        want = ps_eq(STD, -1.0) + ps_eq(STD, 0.25) + ps_eq(STD, 2.0)
        assert ps_points_union(STD, points) == want

    def test_eq_entropy_and_array_density_agree_bit_for_bit(self):
        # the scalar and array Gaussian densities differed by an ulp here
        x = 1.8844673057094008
        entropy = soft_entropy(STD, MixedSet([x]))
        assert ps_eq(STD, x).soft == -entropy.zlogz == STD.pdf_array(np.array([x]))[0]


class TestTails:
    """Far-tail probabilities keep their digits (mpmath oracle, relative error 1e-12)."""

    @staticmethod
    def _mp():
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        return mp

    def test_lt_far_below_the_mean(self):
        mp = self._mp()
        got = ps_lt(STD, -10.0)
        assert got.soft == 0.0
        assert got.real == pytest.approx(float(mp.ncdf(-10)), rel=1e-12, abs=0.0)
        assert got.real == pytest.approx(7.6198530241605261e-24, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("strict", [True, False])
    def test_interval_of_table_one_row_four(self, strict):
        mp = self._mp()
        got = ps_interval(STD, IntervalEvent(20.0, 30.0, strict=strict))
        mass = mp.ncdf(-20) - mp.ncdf(-30)
        assert got.real == pytest.approx(float(mass), rel=1e-12, abs=0.0)
        assert got.real == pytest.approx(2.7536241186062337e-89, rel=1e-12, abs=0.0)
        soft = 0.0 if strict else float(mp.npdf(20) + mp.npdf(30))
        assert got.soft == pytest.approx(soft, rel=1e-12, abs=0.0)

    def test_point_given_a_far_interval(self):
        mp = self._mp()
        got = ps_cond_point_given_interval(STD, 25.0, IntervalEvent(20.0, 30.0))
        want = mp.npdf(25) / (mp.ncdf(-20) - mp.ncdf(-30))
        assert got.real == 0.0
        assert got.soft == pytest.approx(float(want), rel=1e-12, abs=0.0)
        assert got.soft == pytest.approx(2.7795840705715068e-48, rel=1e-12, abs=0.0)
        outside = ps_cond_point_given_interval(STD, 5.0, IntervalEvent(20.0, 30.0))
        assert outside == SoftNumber.zero()

    def test_mass_reads_each_tail_on_its_side(self):
        mp = self._mp()
        d = Gaussian(1.5, 0.3)
        sd = mp.sqrt(mp.mpf(0.3))
        for lo, hi in ((-3.0, -2.0), (-3.0, 1.5), (0.0, 4.0), (9.0, 12.0), (1.5, 40.0)):
            a, b = (mp.mpf(lo) - 1.5) / sd, (mp.mpf(hi) - 1.5) / sd
            want = mp.ncdf(-a) - mp.ncdf(-b) if a >= 0 else mp.ncdf(b) - mp.ncdf(a)
            assert d.mass(lo, hi) == pytest.approx(float(want), rel=1e-12, abs=0.0)
        assert d.mass(-1e300, 1e300) == 1.0
