"""Every number, open interval and point set a caller passes in is checked by one helper each."""

import math
import re

import numpy as np
import pytest

import softprob as sp
from softprob.distributions import parse_distribution, parse_joint
from softprob.errors import DomainError, finite_float, is_count
from softprob.quadrature import integrate_pieces

N01 = sp.Gaussian(0.0, 1.0)
IV = sp.IntervalEvent(-1.0, 1.0)
MODEL = sp.BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.5)
ZERO = sp.SoftNumber.zero()
LEAF = sp.Leaf(0.0, 1)
POINT = sp.Observation.point(1.0)

# one caller's number v passed to each public entry point
ENTRY_POINTS = {
    "ps_eq": lambda v: sp.ps_eq(N01, v),
    "ps_lt": lambda v: sp.ps_lt(N01, v),
    "ps_leq": lambda v: sp.ps_leq(N01, v),
    "ps_neq": lambda v: sp.ps_neq(N01, v),
    "ps_points_intersection": lambda v: sp.ps_points_intersection(N01, [v, v]),
    "ps_union_point_interval": lambda v: sp.ps_union_point_interval(N01, v, IV),
    "ps_intersect_point_interval": lambda v: sp.ps_intersect_point_interval(N01, v, IV),
    "ps_cond_point_given_interval": lambda v: sp.ps_cond_point_given_interval(N01, v, IV),
    "ps_cond_point_given_point": lambda v: sp.ps_cond_point_given_point(N01, 0.0, v),
    "ps2": lambda v: sp.ps2(MODEL, v, 0.0, sp.Relation.EQ, sp.Relation.LT),
    "ps_points_union": lambda v: sp.ps_points_union(N01, [0.0, v]),
    "IntervalEvent": lambda v: sp.IntervalEvent(0.0, v),
    "Gaussian": lambda v: sp.Gaussian(v, 1.0),
    "Uniform": lambda v: sp.Uniform(0.0, v),
    "UserDefinedDistribution": lambda v: sp.UserDefinedDistribution(
        N01.pdf, N01.cdf, support=(0.0, v)),
    "BivariateGaussianModel": lambda v: sp.BivariateGaussianModel(0.0, 0.0, 1.0, v, 0.5),
    "Observation": lambda v: sp.Observation("point", value=v),
    "Observation.point": lambda v: sp.Observation.point(v),
    "Observation.interval": lambda v: sp.Observation.interval(0.0, v),
    "Leaf": lambda v: sp.Leaf(v, 1),
    "Split": lambda v: sp.Split("x", 0, v, ZERO, LEAF, LEAF),
    "SoftNumber": lambda v: sp.SoftNumber(v, 0.0),
    "ExtendedSoftNumber": lambda v: sp.ExtendedSoftNumber(v, 0.0, 0.0),
    "SoftNumber.__add__": lambda v: ZERO + v,
    "from_sp": lambda v: sp.from_sp(sp.SymmetricPair(v, 0.5)),
    "lift": lambda v: sp.lift(lambda x: v, lambda x: 1.0, ZERO),
    "ext_from_dict": lambda v: sp.ext_from_dict({"zlogz": v, "soft": 0.0, "real": 0.0}),
    "QuadratureConfig": lambda v: sp.QuadratureConfig(rel_tol=v),
    "InfoConfig": lambda v: sp.InfoConfig(log_base=v),
    "integrate_1d": lambda v: sp.integrate_1d(np.exp, 0.0, v),
}


def _user(pdf=N01.pdf, cdf=N01.cdf):
    return sp.UserDefinedDistribution(pdf, cdf, support=(-1.0, 1.0))


# operands of the wrong shape: an interval that is not a (lo, hi) pair, a
# point set that is not a sequence, a dataset row that is not a (features,
# label) pair or a cell that is not an Observation; a value of a caller's pdf
# or cdf that is not a density or a probability; quadrature settings that are
# not a QuadratureConfig
MALFORMED = {
    "MixedSet interval triple": lambda: sp.MixedSet([], [(1, 2, 3)]),
    "MixedSet interval number": lambda: sp.MixedSet([], [5]),
    "MixedSet points None": lambda: sp.MixedSet(None),
    "MixedSet intervals None": lambda: sp.MixedSet([], None),
    "with_closed_intervals triple": lambda: sp.MixedSet.with_closed_intervals([], [(1, 2, 3)]),
    "with_closed_intervals points number": lambda: sp.MixedSet.with_closed_intervals(5),
    "with_closed_intervals intervals number": lambda: sp.MixedSet.with_closed_intervals([], 5),
    "integrate_pieces triple": lambda: integrate_pieces(np.exp, [(0, 1, 2)]),
    "ps_points_union number": lambda: sp.ps_points_union(N01, 5),
    "ps_points_intersection number": lambda: sp.ps_points_intersection(N01, 5),
    "Dataset row not a pair": lambda: sp.Dataset(["a"], [(1,)] * 2),
    "Dataset cell not an Observation": lambda: sp.Dataset(["a"], [((1.0,), 2.0)] * 2),
    "Dataset feature names string": lambda: sp.Dataset("x1", [((POINT,), POINT)] * 2),
    "user pdf string": lambda: _user(pdf=lambda x: "a").pdf(0.5),
    "user pdf None": lambda: _user(pdf=lambda x: None).pdf(0.5),
    "user pdf negative": lambda: sp.soft_entropy(_user(pdf=lambda x: -1.0), sp.MixedSet([0.5])),
    "user pdf infinite": lambda: sp.soft_expectation(_user(pdf=lambda x: math.inf),
                                                     sp.MixedSet([], [(0.0, 0.5)])),
    "user cdf above 1": lambda: sp.ps_lt(_user(cdf=lambda x: 2.0), 0.5),
    "user cdf negative": lambda: _user(cdf=lambda x: -0.5).cdf(0.5),
    "user cdf NaN": lambda: _user(cdf=lambda x: math.nan).cdf(0.5),
    "InfoConfig quadrature number": lambda: sp.InfoConfig(quadrature=1e-6),
    "soft_expectation quadrature string": lambda: sp.soft_expectation(N01, sp.MixedSet([0.0]),
                                                                      "x"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_a_malformed_operand_is_a_domain_error(name):
    with pytest.raises(DomainError, match=r"^\w+ must be a"):
        MALFORMED[name]()


# every open interval, read by errors.open_interval: (constructor, its name in messages)
INTERVALS = {
    "MixedSet": (lambda lo, hi: sp.MixedSet([], [(lo, hi)]), "interval"),
    "with_closed_intervals": (lambda lo, hi: sp.MixedSet.with_closed_intervals([], [(lo, hi)]),
                              "interval"),
    "IntervalEvent": (sp.IntervalEvent, "interval"),
    "Observation.interval": (sp.Observation.interval, "interval observation"),
    "Uniform": (sp.Uniform, "uniform support"),
    "integrate_1d": (lambda lo, hi: sp.integrate_1d(np.exp, lo, hi), "piece"),
}


@pytest.mark.parametrize("name", INTERVALS)
@pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0)])
def test_an_interval_needs_lo_below_hi(name, lo, hi):
    build, what = INTERVALS[name]
    with pytest.raises(DomainError, match=f"^{what} needs lo < hi, got \\({lo!r}, {hi!r}\\)$"):
        build(lo, hi)


@pytest.mark.parametrize("value", [10 ** 400, math.inf, math.nan], ids=["1e400", "inf", "nan"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_a_number_no_float_holds_is_a_domain_error(name, value):
    with pytest.raises(DomainError):
        ENTRY_POINTS[name](value)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_accepts_a_finite_number(name):
    # so that the DomainError above comes from the value, not from a malformed call
    ENTRY_POINTS[name](2)


def test_numbers_are_stored_as_floats():
    iv = sp.IntervalEvent(0, 1)
    obs = sp.Observation.interval(0, 1)
    stored = (iv.lo, iv.hi, obs.lo, obs.hi, sp.Observation.point(1).value,
              sp.Leaf(1, 1).prediction, sp.QuadratureConfig(rel_tol=1).rel_tol,
              sp.InfoConfig(log_base=2).log_base)
    assert all(type(v) is float for v in stored)


class TestFiniteFloat:
    def test_returns_the_float(self):
        assert finite_float(3, "x") == 3.0 and type(finite_float(3, "x")) is float
        assert finite_float(np.float32(0.5), "x") == 0.5
        assert finite_float("1.5", "x") == 1.5

    def test_overflow_keeps_its_message(self):
        with pytest.raises(DomainError, match="^number too large to represent as a float$"):
            finite_float(-10 ** 400, "x")

    @pytest.mark.parametrize("value", [None, "abc", [1.0], 1j])
    def test_a_value_float_cannot_convert_names_what(self, value):
        with pytest.raises(DomainError, match="^mean must be a number, got "):
            finite_float(value, "mean")

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_value_names_what(self, value):
        with pytest.raises(DomainError, match=f"^mean must be finite, got {value!r}$"):
            finite_float(value, "mean")

    def test_allow_inf_passes_infinities_and_nan_on(self):
        assert finite_float(-math.inf, "end", allow_inf=True) == -math.inf
        assert math.isnan(finite_float(math.nan, "end", allow_inf=True))
        with pytest.raises(DomainError, match="too large"):
            finite_float(10 ** 400, "end", allow_inf=True)


class TestOverflowingResults:
    """A result too large for a float is a DomainError, not a bare OverflowError."""

    def test_pow_nat_real_part_overflow(self):
        with pytest.raises(DomainError, match="^power 2000 of the real part 2.0 overflows$"):
            sp.pow_nat(sp.SoftNumber(1.0, 2.0), 2000)

    def test_to_sp_height_overflow(self):
        with pytest.raises(DomainError, match="^height must be finite, got inf$"):
            sp.to_sp(sp.SoftNumber(1e308, 1e308))

    @pytest.mark.parametrize("record", [{"soft": "x", "real": 0}, {"soft": 0, "real": None},
                                        {"soft": 10 ** 400, "real": 0},
                                        {"soft": "1", "real": True}, {"soft": 1, "real": "2.5"}])
    def test_soft_from_dict_checks_each_number(self, record):
        with pytest.raises(DomainError):
            sp.soft_from_dict(record)
        assert sp.soft_from_dict({"soft": 1, "real": 2.5}) == sp.SoftNumber(1.0, 2.5)

    def test_soft_from_dict_names_the_field(self):
        with pytest.raises(DomainError,
                           match="^soft number record field 'soft' is not a number: 'x'$"):
            sp.soft_from_dict({"soft": "x", "real": 0})


# every kind of JSON record whose number fields errors.record_numbers reads:
# its reader, a valid record, and the record's name in messages
RECORDS = {
    "gaussian": (parse_distribution, {"kind": "gaussian", "mean": 0, "variance": 1},
                 "descriptor for 'gaussian'"),
    "uniform": (parse_distribution, {"kind": "uniform", "lo": 0, "hi": 1},
                "descriptor for 'uniform'"),
    "bivariate_gaussian": (parse_joint, {"kind": "bivariate_gaussian", "mean_x": 0,
                                         "mean_y": 0, "var_x": 1, "var_y": 1,
                                         "correlation": 0.5}, "joint descriptor"),
    "additive noise": (lambda noise: parse_joint({"kind": "joint_gaussian_additive",
                                                  "input": {"mean": 0, "variance": 1},
                                                  "noise": noise}),
                       {"mean": 0, "variance": 1}, "noise descriptor"),
    "soft number": (sp.soft_from_dict, {"soft": 0, "real": 1}, "soft number record"),
    "extended soft number": (sp.ext_from_dict, {"zlogz": 0, "soft": 0, "real": 1},
                             "extended soft number record"),
}


@pytest.mark.parametrize("kind", RECORDS)
@pytest.mark.parametrize("field", [0, -1], ids=["first", "last"])
def test_a_missing_record_field_is_named(kind, field):
    read, record, what = RECORDS[kind]
    read(record)
    name = [k for k in record if k != "kind"][field]
    with pytest.raises(DomainError, match=f"^{re.escape(what)} is missing field '{name}'$"):
        read({k: v for k, v in record.items() if k != name})


@pytest.mark.parametrize("kind", RECORDS)
@pytest.mark.parametrize("bad", [True, "1", 10 ** 400], ids=["bool", "string", "1e400"])
def test_a_record_field_that_is_no_float_is_named(kind, bad):
    read, record, what = RECORDS[kind]
    name = [k for k in record if k != "kind"][-1]
    with pytest.raises(DomainError, match=f"^{re.escape(what)} field '{name}' is not a "
                                          f"number: {re.escape(repr(bad))}$"):
        read({**record, name: bad})


@pytest.mark.parametrize("kind", ["soft number", "extended soft number"])
@pytest.mark.parametrize("record", [None, [0, 1], "soft", 1.0])
def test_a_soft_record_that_is_not_an_object_is_a_domain_error(kind, record):
    read, _, what = RECORDS[kind]
    with pytest.raises(DomainError, match=f"^{re.escape(what)} must be an object, got "):
        read(record)


# config fields of the wrong type, each a DomainError at construction
BAD_CONFIGS = {
    "tree max_depth str": lambda: sp.TreeConfig(max_depth="3"),
    "tree max_depth float": lambda: sp.TreeConfig(max_depth=2.5),
    "tree max_depth bool": lambda: sp.TreeConfig(max_depth=True),
    "tree min_rows None": lambda: sp.TreeConfig(min_rows=None),
    "tree min_rows float": lambda: sp.TreeConfig(min_rows=4.0),
    "tree min_gain float": lambda: sp.TreeConfig(min_gain=0.0),
    "tree min_gain None": lambda: sp.TreeConfig(min_gain=None),
    "tree info None": lambda: sp.TreeConfig(info=None),
    "tree info quadrature": lambda: sp.TreeConfig(info=sp.QuadratureConfig()),
    "split feature_index str": lambda: sp.Split("x", "0", 0.0, ZERO, LEAF, LEAF),
    "split feature int": lambda: sp.Split(3, 0, 0.0, ZERO, LEAF, LEAF),
    "split gain float": lambda: sp.Split("x", 0, 0.0, 1.0, LEAF, LEAF),
    "split left None": lambda: sp.Split("x", 0, 0.0, ZERO, None, LEAF),
    "split right dict": lambda: sp.Split("x", 0, 0.0, ZERO, LEAF, sp.tree_to_dict(LEAF)),
    "leaf count negative": lambda: sp.Leaf(1.0, count=-3),
    "leaf count str": lambda: sp.Leaf(1.0, count="3"),
    "leaf count float": lambda: sp.Leaf(1.0, count=2.5),
    "leaf count bool": lambda: sp.Leaf(1.0, count=True),
    "leaf count None": lambda: sp.Leaf(1.0, count=None),
    "interval strict str": lambda: sp.IntervalEvent(-1.0, 1.0, strict="false"),
    "interval strict None": lambda: sp.IntervalEvent(-1.0, 1.0, strict=None),
    "interval strict int": lambda: sp.IntervalEvent(-1.0, 1.0, strict=0),
}


@pytest.mark.parametrize("name", BAD_CONFIGS)
def test_a_config_field_of_the_wrong_type_is_a_domain_error(name):
    fields = "max_depth|min_rows|min_gain|info|feature_index|feature|gain|left|right|count|strict"
    with pytest.raises(DomainError, match=f"^({fields}) "):
        BAD_CONFIGS[name]()


def test_integer_fields_take_any_integer():
    assert sp.TreeConfig(max_depth=np.int64(3), min_rows=np.int32(2)).max_depth == 3
    assert sp.TreeConfig(min_gain=sp.SoftNumber(0.0, 1.0), info=sp.InfoConfig(log_base=2))
    assert [is_count(v) for v in (0, 7, np.int64(2), -1, True, 2.0, "3", None)] == [
        True, True, True, False, False, False, False, False]
