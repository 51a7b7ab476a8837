"""Tests for soft expectation and soft variance over mixed sets."""

import math

import numpy as np
import pytest

from softprob.distributions import Gaussian, Uniform
from softprob.errors import DomainError
from softprob.moments import (
    MixedSet,
    SoftMoments,
    soft_expectation,
    soft_expectation_of,
    soft_variance,
)
from softprob.softnum import SoftNumber

UNIT = Uniform(0, 1)
STD = Gaussian(0, 1)


class TestMixedSet:
    def test_disjoint_set_is_valid(self):
        ms = MixedSet([0.5], [(0.0, 0.25)])
        assert ms.points == (0.5,)
        assert ms.intervals == ((0.0, 0.25),)

    def test_point_inside_interval_rejected(self):
        with pytest.raises(DomainError):
            MixedSet([0.1], [(0.0, 0.25)])

    def test_point_at_open_endpoint_allowed(self):
        # the open interval does not contain its endpoints, so the set is
        # still disjoint
        ms = MixedSet([0.25], [(0.0, 0.25)])
        assert ms.points == (0.25,)

    @pytest.mark.parametrize("point, inside", [
        (0.5, False),  # before the first interval
        (1.0, False), (2.0, False), (5.0, False), (8.0, False),  # on an endpoint
        (1.5, True), (4.5, True), (7.5, True),  # inside an interval
        (3.0, False),  # between intervals
        (9.0, False),  # after the last interval
    ])
    def test_point_against_several_intervals(self, point, inside):
        intervals = [(7.0, 8.0), (1.0, 2.0), (4.0, 5.0), (5.0, 6.0)]
        if inside:
            with pytest.raises(DomainError, match="inside"):
                MixedSet([-1.0, point, 10.0], intervals)
        else:
            assert MixedSet([-1.0, point, 10.0], intervals).points == (-1.0, point, 10.0)

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(DomainError):
            MixedSet([], [(0.0, 0.5), (0.4, 1.0)])

    def test_touching_intervals_allowed(self):
        ms = MixedSet([], [(0.0, 0.5), (0.5, 1.0)])
        assert len(ms.intervals) == 2

    def test_duplicate_points_rejected(self):
        with pytest.raises(DomainError):
            MixedSet([0.3, 0.3], [])

    def test_canonical_ordering(self):
        ms = MixedSet([0.9, 0.1], [(0.5, 0.6), (0.2, 0.3)])
        assert ms.points == (0.1, 0.9)
        assert ms.intervals == ((0.2, 0.3), (0.5, 0.6))

    def test_closed_intervals_become_points_plus_open_intervals(self):
        ms = MixedSet.with_closed_intervals([], [(0.0, 0.25)])
        assert ms.points == (0.0, 0.25)
        assert ms.intervals == ((0.0, 0.25),)

    def test_closed_interval_points_are_a_union(self):
        # a listed point may repeat or equal an end: only MixedSet's own points are distinct
        ms = MixedSet.with_closed_intervals([1, 1], [(1, 2)])
        assert ms.points == (1.0, 2.0)
        assert ms.intervals == ((1.0, 2.0),)

    def test_dict_round_trip(self):
        ms = MixedSet([0.5], [(0.0, 0.25)])
        assert MixedSet.from_dict(ms.to_dict()) == ms

    @pytest.mark.parametrize("key", ["point", "Points"])
    def test_a_record_field_other_than_points_and_intervals_is_named(self, key):
        with pytest.raises(DomainError, match=f"^mixed-set record has unknown field '{key}'$"):
            MixedSet.from_dict({"points": [0.5], key: [1.0]})

    def test_empty_set(self):
        assert MixedSet().is_empty

    def test_stored_as_read_only_float_arrays(self):
        ms = MixedSet([0.9, 0.1], [(0.5, 0.6), (0.2, 0.3)])
        assert ms.point_array.tolist() == [0.1, 0.9]
        assert ms.lo.tolist() == [0.2, 0.5]
        assert ms.hi.tolist() == [0.3, 0.6]
        for values in (ms.point_array, ms.lo, ms.hi):
            assert values.dtype == np.float64
            with pytest.raises(ValueError):
                values[0] = 0.0

    def test_equality_hash_and_repr_follow_the_tuples(self):
        ms = MixedSet([1, 0], [(2, 3)])
        assert ms == MixedSet([0.0, 1.0], [[2.0, 3.0]])
        assert hash(ms) == hash(MixedSet([0.0, 1.0], [[2.0, 3.0]]))
        assert ms != MixedSet([0.0], [(2.0, 3.0)])
        assert repr(ms) == "MixedSet(points=(0.0, 1.0), intervals=((2.0, 3.0),))"

    def test_pieces_cut_only_at_breaks_strictly_inside(self):
        ms = MixedSet([0.5], [(2.0, 4.0), (-1.0, 0.0)])
        # breaks outside every interval or at an end cut nothing
        assert ms.pieces(()) == [(-1.0, 0.0), (2.0, 4.0)]
        assert ms.pieces((-5.0, -1.0, 0.0, 0.5, 2.0, 4.0, 9.0)) == [(-1.0, 0.0), (2.0, 4.0)]
        # a repeated break cuts once, and the pieces come in interval order,
        # whatever the order of the breaks
        assert ms.pieces((3.0, -0.5, 3.0, 2.5, -0.5)) == [
            (-1.0, -0.5), (-0.5, 0.0), (2.0, 2.5), (2.5, 3.0), (3.0, 4.0)]
        assert MixedSet([1.0]).pieces((1.0,)) == []

    @pytest.mark.parametrize("build", [
        lambda: MixedSet([10 ** 400]),
        lambda: MixedSet([], [(0, 10 ** 400)]),
        lambda: MixedSet.with_closed_intervals([10 ** 400]),
        lambda: MixedSet.with_closed_intervals([], [(0, 10 ** 400)]),
    ])
    def test_integer_too_large_for_a_float_is_a_domain_error(self, build):
        with pytest.raises(DomainError, match="number too large to represent as a float"):
            build()


class TestSoftExpectation:
    def test_uniform_point_and_interval(self):
        got = soft_expectation(UNIT, MixedSet([0.5], [(0.0, 0.25)]))
        assert got.soft == pytest.approx(0.5, abs=1e-12)
        assert got.real == pytest.approx(0.03125, abs=1e-12)

    def test_empty_set_is_absolute_zero(self):
        assert soft_expectation(UNIT, MixedSet()).is_absolute_zero

    def test_gaussian_point_at_zero(self):
        got = soft_expectation(STD, MixedSet([0.0], []))
        assert got.is_absolute_zero

    def test_identity_function_reduces_to_plain_expectation(self):
        ms = MixedSet([0.5], [(0.0, 0.25)])
        plain = soft_expectation(UNIT, ms)
        through_g = soft_expectation_of(UNIT, ms, lambda x: x)
        assert plain == through_g

    def test_constant_one_gives_set_mass(self):
        got = soft_expectation_of(UNIT, MixedSet([0.5], [(0.0, 0.25)]),
                                  lambda x: 1.0)
        assert got.soft == pytest.approx(1.0, abs=1e-12)
        assert got.real == pytest.approx(0.25, abs=1e-12)

    def test_log_density_of_uniform_vanishes(self):
        got = soft_expectation_of(UNIT, MixedSet([0.9], [(0.25, 0.75)]),
                                  lambda x: np.log(UNIT.pdf_array(x)))
        assert got.soft == 0.0
        assert abs(got.real) < 1e-15

    def test_non_finite_g_rejected(self):
        with pytest.raises(DomainError):
            soft_expectation_of(UNIT, MixedSet([0.5], []), lambda x: math.inf)

    def test_linearity_in_g(self):
        ms = MixedSet([0.5], [(0.0, 0.25), (0.6, 0.9)])
        g1 = np.sin
        g2 = lambda x: x * x
        combined = soft_expectation_of(UNIT, ms, lambda x: 2.0 * g1(x) - 3.0 * g2(x))
        part1 = soft_expectation_of(UNIT, ms, g1)
        part2 = soft_expectation_of(UNIT, ms, g2)
        want = 2.0 * part1 + (-3.0) * part2
        assert combined.soft == pytest.approx(want.soft, abs=1e-9)
        assert combined.real == pytest.approx(want.real, abs=1e-9)

    def test_matches_riemann_oracle(self):
        ms = MixedSet([], [(-1.0, 0.5)])
        got = soft_expectation(STD, ms)
        cells = 10 ** 5
        xs = -1.0 + (np.arange(cells) + 0.5) * (1.5 / cells)
        want = float(np.sum(xs * np.exp(-0.5 * xs * xs) / np.sqrt(2 * np.pi))
                     * (1.5 / cells))
        assert got.real == pytest.approx(want, abs=1e-5)


class TestSoftVariance:
    def test_full_coverage_uniform(self):
        value, rec = soft_variance(UNIT, MixedSet([0.5], [(0.0, 0.5), (0.5, 1.0)]))
        assert value.soft == pytest.approx(0.0, abs=1e-12)
        assert value.real == pytest.approx(1.0 / 12.0, abs=1e-9)
        assert rec.gamma1_sq == pytest.approx(0.0, abs=1e-12)
        assert rec.gamma2 == pytest.approx(0.0, abs=1e-12)

    def test_points_at_the_expectation_have_no_spread(self):
        # kappa = 0.5 for the symmetric interval pair, and the only point
        # sits exactly there
        _, rec = soft_variance(UNIT, MixedSet([0.5], [(0.0, 0.5), (0.5, 1.0)]))
        assert rec.gamma1_sq == 0.0

    def test_negative_soft_coefficient_witness(self):
        value, rec = soft_variance(UNIT, MixedSet([0.1], [(0.4, 0.6)]))
        assert rec.nu == pytest.approx(0.1, abs=1e-12)
        assert rec.kappa == pytest.approx(0.1, abs=1e-12)
        assert rec.gamma1_sq == pytest.approx(0.0, abs=1e-12)
        assert rec.gamma2 == pytest.approx(-0.08, abs=1e-12)
        assert value.soft == pytest.approx(-0.016, abs=1e-12)
        assert value.real == pytest.approx(49.0 / 1500.0, abs=1e-9)

    def test_component_record_is_consistent(self):
        value, rec = soft_variance(STD, MixedSet([-1.0, 0.5], [(1.0, 2.0)]))
        assert isinstance(rec, SoftMoments)
        assert rec.gamma == rec.gamma1_sq + 2.0 * rec.nu * rec.gamma2
        assert value == SoftNumber(rec.gamma, rec.lambda_sq)
        assert rec.gamma1_sq >= 0.0
        assert rec.lambda_sq >= 0.0

    def test_gamma2_tracks_interval_coverage(self):
        _, rec = soft_variance(UNIT, MixedSet([0.9], [(0.0, 0.5)]))
        coverage = 0.5
        assert rec.gamma2 == pytest.approx(-rec.kappa * (1.0 - coverage), abs=1e-12)

    @pytest.mark.parametrize("far", [1e160, -1e160, 1e200, 1e308, -1e308])
    def test_far_point_where_the_density_is_zero_adds_nothing(self, far):
        # (kappa - x)^2 overflows to inf there, and inf * 0 made the term NaN
        near = soft_variance(STD, MixedSet([0.5, -1.25], [(1.0, 2.0)]))
        assert soft_variance(STD, MixedSet([0.5, -1.25, far], [(1.0, 2.0)])) == near

    def test_far_point_of_a_wide_gaussian_adds_nothing(self):
        wide = Gaussian(0.0, 1e306)
        assert wide.pdf(1e155) == 0.0
        near = soft_variance(wide, MixedSet([3e152]))
        assert near[0].soft > 0.0
        assert soft_variance(wide, MixedSet([3e152, 1e155])) == near

    def test_far_interval_where_the_density_is_zero_adds_nothing(self):
        value, rec = soft_variance(STD, MixedSet([], [(1e160, 1e161)]))
        assert value == SoftNumber(0.0, 0.0)
        assert rec.kappa == 0.0

    def test_lambda_matches_riemann_oracle(self):
        ms = MixedSet([], [(0.5, 1.5)])
        value, rec = soft_variance(STD, ms)
        cells = 10 ** 5
        xs = 0.5 + (np.arange(cells) + 0.5) * (1.0 / cells)
        pdf = np.exp(-0.5 * xs * xs) / np.sqrt(2 * np.pi)
        want = float(np.sum((rec.kappa - xs) ** 2 * pdf) * (1.0 / cells))
        assert value.real == pytest.approx(want, abs=1e-5)


    def test_far_tail_interval_against_mpmath(self):
        # 0.5 * (1 + erf(z / sqrt(2))) gave the coverage mass(20, 30) as exactly 0
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        _, rec = soft_variance(STD, MixedSet([], [(20.0, 30.0)]))
        coverage = mp.ncdf(-20) - mp.ncdf(-30)
        first = mp.npdf(20) - mp.npdf(30)
        second = coverage + 20 * mp.npdf(20) - 30 * mp.npdf(30)
        kappa = first  # the integral of x f(x) over the interval
        want = {"kappa": kappa, "gamma2": -kappa * (1 - coverage),
                "lambda_sq": kappa * kappa * coverage - 2 * kappa * first + second}
        for name, value in want.items():
            assert getattr(rec, name) == pytest.approx(float(value), rel=1e-12, abs=0.0)
        assert STD.mass(20.0, 30.0) == pytest.approx(float(coverage), rel=1e-12, abs=0.0)
        assert STD.mass(20.0, 30.0) > 0.0

class TestBreakPoints:
    """soft_sum splits each interval at the density's location and at the
    ends of its truncation window, so one panel never straddles them."""

    def test_narrow_peak_inside_a_wide_interval(self):
        # no Gauss node of the unsplit interval comes near the peak, which
        # made the integral 0
        got = soft_expectation(Gaussian(3.0, 1e-4), MixedSet([], [(-1000.0, 1000.0)]))
        assert got.real == pytest.approx(3.0, rel=1e-12)

    def test_interval_holding_a_uniform_support_edge(self):
        # the jump at lo inside (a, b) made the unsplit result -0.890306381288418
        lo, hi = -3.6931839033103095, -0.20801534138919409
        a, b = -3.757673493567282, -2.7265749564273003
        got = soft_expectation(Uniform(lo, hi), MixedSet([], [(a, b)]))
        assert got.real == pytest.approx((b * b - lo * lo) / (2.0 * (hi - lo)), rel=1e-12)

    def test_interval_covering_the_whole_uniform_support(self):
        # both support edges inside one interval; this was a ConvergenceError
        value, rec = soft_variance(UNIT, MixedSet([], [(-1.0, 2.0)]))
        assert rec.kappa == pytest.approx(0.5, rel=1e-12)
        assert value.real == pytest.approx(1.0 / 12.0, rel=1e-12)
