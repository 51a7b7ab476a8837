"""Tests for the soft-number algebra core."""

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softprob.errors import DomainError
from softprob.softnum import (
    CONJUGATE,
    SIGN_RULE,
    ExtendedSoftNumber,
    SoftNumber,
    SymmetricPair,
    cmp,
    div,
    ext_from_dict,
    ext_to_dict,
    from_sp,
    lift,
    pow_nat,
    render_extended,
    render_soft,
    soft_abs,
    soft_from_dict,
    soft_to_dict,
    to_sp,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-6)
soft_numbers = st.builds(SoftNumber, finite, finite)


def close(s: SoftNumber, t: SoftNumber, tol: float = 1e-12) -> bool:
    return (math.isclose(s.soft, t.soft, rel_tol=tol, abs_tol=tol)
            and math.isclose(s.real, t.real, rel_tol=tol, abs_tol=tol))


class TestConstruction:
    def test_component_access(self):
        s = SoftNumber(1.5, -2.0)
        assert s.soft == 1.5
        assert s.real == -2.0

    def test_zero_classifiers(self):
        assert SoftNumber.zero().is_absolute_zero
        assert not SoftNumber.soft_zero(2.0).is_absolute_zero

    def test_non_finite_components_rejected(self):
        with pytest.raises(DomainError):
            SoftNumber(math.nan, 0.0)
        with pytest.raises(DomainError):
            SoftNumber(0.0, math.inf)

    def test_conjugate_flips_soft_coefficient(self):
        assert SoftNumber(3.0, 4.0).conjugate() == SoftNumber(-3.0, 4.0)


class TestAddMul:
    def test_add_is_componentwise(self):
        assert SoftNumber(1, 2) + SoftNumber(3, 4) == SoftNumber(4, 6)

    def test_add_absolute_zero_is_identity(self):
        s = SoftNumber(2.5, -1.0)
        assert s + SoftNumber.zero() == s

    def test_sub_self_is_absolute_zero(self):
        s = SoftNumber(2, 5)
        assert (s - s).is_absolute_zero

    def test_mul_example(self):
        assert SoftNumber(1, 2) * SoftNumber(3, 4) == SoftNumber(10, 8)

    def test_soft_zeros_annihilate(self):
        for a in (-2.0, 0.5, 7.0):
            for c in (-1.0, 3.0):
                assert (SoftNumber.soft_zero(a)
                        * SoftNumber.soft_zero(c)).is_absolute_zero

    def test_real_one_is_multiplicative_identity(self):
        s = SoftNumber(3.5, -0.25)
        assert SoftNumber(0, 1) * s == s

    def test_operator_sugar_with_scalars(self):
        s = SoftNumber(1, 2)
        assert 2.0 * s == SoftNumber(2, 4)
        assert s + 1.0 == SoftNumber(1, 3)

    # each binary operator's formula, on (soft, real) pairs; a scalar x is (0.0, x)
    FORMULAS = {
        "add": (operator.add, lambda a, b: (a[0] + b[0], a[1] + b[1])),
        "sub": (operator.sub, lambda a, b: (a[0] - b[0], a[1] - b[1])),
        "mul": (operator.mul, lambda a, b: (a[0] * b[1] + a[1] * b[0], a[1] * b[1])),
        "truediv": (operator.truediv,
                    lambda a, b: ((a[0] * b[1] - a[1] * b[0]) / b[1] / b[1], a[1] / b[1])),
    }
    OPERANDS = [SoftNumber(0.1, -2.5), SoftNumber(-3.0, 1e-100), SoftNumber(7.25, 3.0),
                3, -1, 0.7, -2.5e10]

    @pytest.mark.parametrize("name", FORMULAS)
    def test_operators_give_the_formula_bits_with_scalars_on_either_side(self, name):
        op, formula = self.FORMULAS[name]
        pair = lambda v: (v.soft, v.real) if isinstance(v, SoftNumber) else (0.0, float(v))
        for a in self.OPERANDS:
            for b in self.OPERANDS:
                if not (isinstance(a, SoftNumber) or isinstance(b, SoftNumber)):
                    continue
                got = op(a, b)
                assert type(got) is SoftNumber
                want = formula(pair(a), pair(b))
                assert (got.soft.hex(), got.real.hex()) == tuple(v.hex() for v in want), (a, b)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv, operator.lt, operator.le,
                                    operator.gt, operator.ge])
    def test_an_operand_of_another_type_is_not_implemented(self, op):
        s = SoftNumber(1.0, 2.0)
        for other in ("1", None, 1j):
            with pytest.raises(TypeError):
                op(s, other)
            with pytest.raises(TypeError):
                op(other, s)

    def test_comparisons_order_scalars_as_real_numbers(self):
        s = SoftNumber(-1.0, 2.0)
        assert s < 2 and 2 > s and s <= 2.0 and 2.0 >= s
        assert not (s > 2 or 2 < s or s >= 2.0 or 2.0 <= s)
        assert SoftNumber(1.0, 2.0) > 2 and 2 < SoftNumber(1.0, 2.0)

    @given(soft_numbers, soft_numbers)
    def test_add_commutes(self, s, t):
        assert close(s + t, t + s)

    @given(soft_numbers, soft_numbers)
    def test_mul_commutes(self, s, t):
        assert close(s * t, t * s)

    @given(soft_numbers, soft_numbers, soft_numbers)
    def test_add_associates(self, s, t, u):
        assert close((s + t) + u, s + (t + u))

    @given(soft_numbers, soft_numbers, soft_numbers)
    def test_mul_associates(self, s, t, u):
        assert close((s * t) * u, s * (t * u), tol=1e-9)

    @given(soft_numbers, soft_numbers, soft_numbers)
    def test_mul_distributes_over_add(self, s, t, u):
        assert close(s * (t + u), s * t + s * u, tol=1e-9)

    @given(soft_numbers)
    def test_additive_inverse(self, s):
        assert (s + (-s)).is_absolute_zero


class TestPow:
    def test_square_example(self):
        assert pow_nat(SoftNumber(2, 3), 2) == SoftNumber(12, 9)

    def test_zeroth_power_is_one(self):
        assert pow_nat(SoftNumber(5, 2), 0) == SoftNumber(0, 1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            pow_nat(SoftNumber(1, 2), -1)

    @given(soft_numbers, st.integers(min_value=0, max_value=6))
    def test_matches_repeated_multiplication(self, s, n):
        expected = SoftNumber(0, 1)
        for _ in range(n):
            expected = expected * s
        assert close(pow_nat(s, n), expected, tol=1e-9)

    def test_python_pow_operator(self):
        assert SoftNumber(2, 3) ** 2 == SoftNumber(12, 9)


class TestLift:
    def test_exp_at_pure_soft(self):
        got = lift(math.exp, math.exp, SoftNumber(2, 0))
        assert close(got, SoftNumber(2, 1))

    def test_log_at_one(self):
        got = lift(math.log, lambda x: 1.0 / x, SoftNumber(1, 1))
        assert close(got, SoftNumber(1, 0))

    def test_non_finite_result_rejected(self):
        with pytest.raises(DomainError):
            lift(math.log, lambda x: 1.0 / x, SoftNumber(1, 0))

    @given(st.builds(SoftNumber, finite, st.floats(min_value=-3.0, max_value=3.0)))
    def test_matches_central_difference(self, s):
        h = 1e-6
        slope = (math.exp(s.real + h) - math.exp(s.real - h)) / (2 * h)
        got = lift(math.exp, math.exp, s)
        assert got.real == math.exp(s.real)
        assert math.isclose(got.soft, s.soft * slope,
                            rel_tol=1e-5, abs_tol=1e-8)


class TestAbs:
    def test_sign_rule_negative_real(self):
        assert soft_abs(SoftNumber(2, -3), SIGN_RULE) == SoftNumber(-2, 3)

    def test_sign_rule_rejects_zero_real(self):
        with pytest.raises(DomainError):
            soft_abs(SoftNumber(5, 0), SIGN_RULE)

    def test_conjugate_drops_soft_part(self):
        assert soft_abs(SoftNumber(2, -3), CONJUGATE) == SoftNumber(0, 3)

    def test_conjugate_of_pure_soft_is_absolute_zero(self):
        assert soft_abs(SoftNumber(5, 0), CONJUGATE).is_absolute_zero

    def test_unknown_mode_rejected(self):
        with pytest.raises(DomainError):
            soft_abs(SoftNumber(1, 1), "other")


class TestDiv:
    def test_pure_soft_ratio(self):
        assert div(SoftNumber(1, 0), SoftNumber(1, 0)) == SoftNumber(0, 1)
        assert div(SoftNumber(3, 0), SoftNumber(2, 0)) == SoftNumber(0, 1.5)

    def test_soft_over_general(self):
        got = div(SoftNumber(2, 0), SoftNumber(7, 4))
        assert close(got, SoftNumber(0.5, 0))

    def test_absolute_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            div(SoftNumber(1, 2), SoftNumber.zero())

    def test_pure_soft_denominator_needs_pure_soft_numerator(self):
        with pytest.raises(DomainError):
            div(SoftNumber(1, 2), SoftNumber(3, 0))

    def test_a_tiny_real_part_divides_without_underflow(self):
        # d*d underflows to 0 at d = 1e-300, where dividing by d twice does not
        assert div(SoftNumber(0, 0), SoftNumber(1, 1e-300)) == SoftNumber(0.0, 0.0)
        assert div(SoftNumber(1, 1e-300), SoftNumber(1, 1e-300)) == SoftNumber(0.0, 1.0)
        # the soft part of this quotient, 3e600, is beyond the float range
        with pytest.raises(DomainError, match="^soft must be finite, got inf$"):
            SoftNumber(1, 1) / SoftNumber(-3.0, 1e-300)

    @given(soft_numbers, st.builds(SoftNumber, finite, nonzero))
    def test_div_inverts_mul(self, s, den):
        assert close(div(s * den, den), s, tol=1e-7)

    def test_truediv_operator(self):
        got = SoftNumber(2, 0) / SoftNumber(7, 4)
        assert close(got, SoftNumber(0.5, 0))
        assert close(SoftNumber(2, 4) / 2.0, SoftNumber(1, 2))


class TestCmp:
    def test_soft_coefficient_breaks_ties(self):
        assert cmp(SoftNumber(1, 0), SoftNumber(2, 0)) == -1

    def test_real_part_dominates(self):
        assert cmp(SoftNumber(99, 4), SoftNumber(1, 5)) == -1

    def test_reflexive(self):
        s = SoftNumber(3, 7)
        assert cmp(s, s) == 0

    @given(soft_numbers, soft_numbers)
    def test_antisymmetric(self, s, t):
        assert cmp(s, t) == -cmp(t, s)

    @given(soft_numbers, soft_numbers, soft_numbers)
    def test_transitive(self, s, t, u):
        if cmp(s, t) <= 0 and cmp(t, u) <= 0:
            assert cmp(s, u) <= 0

    @given(soft_numbers, soft_numbers)
    def test_total(self, s, t):
        assert cmp(s, t) in (-1, 0, 1)
        if cmp(s, t) == 0:
            assert s == t

    @given(soft_numbers, soft_numbers)
    def test_rich_comparison_agrees(self, s, t):
        assert (s < t) == (cmp(s, t) < 0)
        assert (s <= t) == (cmp(s, t) <= 0)
        assert (s > t) == (cmp(s, t) > 0)
        assert (s >= t) == (cmp(s, t) >= 0)


class TestSymmetricPair:
    def test_forward_examples(self):
        assert to_sp(SoftNumber(1, 1)) == SymmetricPair(2, 0.5)
        assert to_sp(SoftNumber(0, 1)) == SymmetricPair(1, 1)

    def test_zero_height_rejected(self):
        with pytest.raises(DomainError):
            to_sp(SoftNumber(1, -1))

    def test_inverse_examples(self):
        assert from_sp(SymmetricPair(2, 0.5)) == SoftNumber(1, 1)
        assert from_sp(SymmetricPair(0, 0.3)).is_absolute_zero

    def test_width_outside_unit_band_rejected(self):
        with pytest.raises(DomainError):
            from_sp(SymmetricPair(1, 1.5))
        with pytest.raises(DomainError):
            from_sp(SymmetricPair(1, -0.1))

    @given(st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1e-3, max_value=10.0))
    def test_round_trip_positive_components(self, a, b):
        s = SoftNumber(a, b)
        back = from_sp(to_sp(s))
        assert close(back, s)


class TestExtended:
    def test_componentwise_sum(self):
        a = ExtendedSoftNumber(1, 2, 3)
        b = ExtendedSoftNumber(4, 5, 6)
        assert a + b == ExtendedSoftNumber(5, 7, 9)

    def test_cancellation(self):
        e = ExtendedSoftNumber(1.5, -2.0, 0.25)
        assert e - e == ExtendedSoftNumber(0, 0, 0)
        assert -e + e == ExtendedSoftNumber(0, 0, 0)

    def test_without_zlogz_requires_clear_axis(self):
        assert ExtendedSoftNumber(0, 2, 3).without_zlogz() == SoftNumber(2, 3)
        with pytest.raises(DomainError):
            ExtendedSoftNumber(1, 2, 3).without_zlogz()


class TestSerialization:
    def test_render_soft(self):
        assert render_soft(SoftNumber(0.5, 2.0)) == "0.5*0~ + 2.0"

    def test_render_extended(self):
        got = render_extended(ExtendedSoftNumber(-1.0, 0.0, 0.5))
        assert got == "-1.0*0log0~ + 0.0*0~ + 0.5"

    def test_soft_dict_round_trip(self):
        s = SoftNumber(1.25, -3.5)
        assert soft_from_dict(soft_to_dict(s)) == s

    def test_ext_dict_round_trip(self):
        e = ExtendedSoftNumber(-1.0, 0.5, 0.25)
        assert ext_from_dict(ext_to_dict(e)) == e
