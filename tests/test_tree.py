"""Tests for the soft-MI decision-tree inducer and its dataset plumbing."""

import gc
import json
import math
import random
import re
import statistics
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softprob.information as information
import softprob.tree as tree
from softprob.distributions import BivariateGaussianModel
from softprob.errors import DegenerateModelError, DomainError
from softprob.information import soft_mutual_information
from softprob.moments import MixedSet
from softprob.quadrature import collect_stats
from softprob.softnum import SoftNumber, cmp
from softprob.tree import (
    INTERVAL,
    MAX_ABS_CORRELATION,
    POINT,
    Dataset,
    Leaf,
    Observation,
    Split,
    TreeConfig,
    _split_sum,
    build_mixed_sets,
    fit_joint_model,
    induce,
    parse_cell,
    parse_dataset,
    predict,
    read_table,
    split_gain,
    tree_from_dict,
    tree_to_dict,
)


def _synthetic_rows(seed: int, n: int = 200, interval_fraction: float = 0.0,
                    point=Observation.point, interval=Observation.interval):
    """Rows with y = x1 + noise(sd 0.5) and an uninformative x2.

    Cells are point(value) and interval(lo, hi).
    """
    rng = random.Random(seed)

    def obs(value: float):
        if rng.random() < interval_fraction:
            half = rng.uniform(0.1, 0.4)
            return interval(value - half, value + half)
        return point(value)

    rows = []
    for _ in range(n):
        x1 = rng.gauss(0.0, 1.0)
        x2 = rng.gauss(0.0, 1.0)
        y = x1 + rng.gauss(0.0, 0.5)
        rows.append(((obs(x1), obs(x2)), obs(y)))
    return rows


def _dataset(rows):
    return Dataset(["x1", "x2"], rows, label_name="y")


def _synthetic(seed: int, n: int = 200, interval_fraction: float = 0.0):
    return _dataset(_synthetic_rows(seed, n, interval_fraction))


def _column(cells):
    """The (lo, hi) arrays of a sequence of observations."""
    cells = list(cells)
    return (np.array([c.value if c.kind == POINT else c.lo for c in cells], dtype=float),
            np.array([c.value if c.kind == POINT else c.hi for c in cells], dtype=float))


def _fit(x, y):
    return fit_joint_model(_column(x), _column(y))


def _sets(col):
    return build_mixed_sets(_column(col))


def _cell(c):
    """An interval Observation of a (lo, hi) tuple, a point Observation of a number."""
    return Observation.interval(*c) if isinstance(c, tuple) else Observation.point(c)


_VALUES = st.one_of(st.integers(-4, 4).map(lambda k: k / 2), st.sampled_from([0.1, 0.7]))
_CELLS = st.one_of(
    _VALUES,
    st.tuples(_VALUES, st.sampled_from([0.5, 1.0, 2.0])).map(lambda t: (t[0], t[0] + t[1])))


def _leaf_rows(node) -> int:
    if isinstance(node, Leaf):
        return node.count
    return _leaf_rows(node.left) + _leaf_rows(node.right)


def _assert_bounds(node, depth: int, cfg: TreeConfig):
    if isinstance(node, Leaf):
        assert node.count >= 1
        return
    assert depth < cfg.max_depth
    assert _leaf_rows(node) >= cfg.min_rows
    assert cmp(node.gain, cfg.min_gain) > 0
    _assert_bounds(node.left, depth + 1, cfg)
    _assert_bounds(node.right, depth + 1, cfg)


class TestObservation:
    def test_point_fields(self):
        o = Observation.point(1.5)
        assert o.kind == "point"
        assert o.midpoint == 1.5

    def test_interval_fields(self):
        o = Observation.interval(1.0, 2.0)
        assert o.kind == "interval"
        assert o.midpoint == 1.5

    @pytest.mark.parametrize("value", [math.nan, math.inf, None])
    def test_bad_point_rejected(self, value):
        with pytest.raises(DomainError):
            Observation("point", value=value)

    @pytest.mark.parametrize("lo,hi", [(2.0, 1.0), (1.0, 1.0), (0.0, math.inf), (None, 1.0)])
    def test_bad_interval_rejected(self, lo, hi):
        with pytest.raises(DomainError):
            Observation("interval", lo=lo, hi=hi)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            Observation("fuzzy", value=1.0)

    def test_midpoint_of_a_huge_interval_is_finite(self):
        o = Observation.interval(1e308, 1.7e308)
        assert o.midpoint == 1.35e308
        node = Split(feature="a", feature_index=0, threshold=1.4e308,
                     gain=SoftNumber(0.0, 1.0),
                     left=Leaf(prediction=-1.0, count=1),
                     right=Leaf(prediction=1.0, count=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert predict(node, [o]) == -1.0


class TestParsing:
    def test_numeric_cell(self):
        assert parse_cell(" 2.5 ") == Observation.point(2.5)

    def test_interval_cell(self):
        assert parse_cell("1..2.5") == Observation.interval(1.0, 2.5)

    def test_malformed_cells_rejected(self):
        for text in ["abc", "1..zz", "..", "3..1"]:
            with pytest.raises(DomainError):
                parse_cell(text)

    def test_dataset_happy_path(self):
        text = "x1,x2,y\n1,2,3\n0.5..1.5,4,5\n\n2,0..1,6\n"
        ds = parse_dataset(text)
        assert ds.feature_names == ("x1", "x2")
        assert ds.label_name == "y"
        assert len(ds.lo) == 3
        assert (ds.lo[1, 0], ds.hi[1, 0]) == (0.5, 1.5)
        assert ds.lo[2, -1] == ds.hi[2, -1] == 6.0

    def test_cell_count_mismatch_names_line(self):
        with pytest.raises(DomainError, match="line 3"):
            parse_dataset("a,b\n1,2\n1,2,3\n")

    def test_malformed_cell_names_line(self):
        with pytest.raises(DomainError, match="line 2"):
            parse_dataset("a,b\nfoo,2\n")

    def test_errors_name_the_physical_line_after_blank_lines(self):
        with pytest.raises(DomainError, match="line 5: malformed numeric cell 'zz'"):
            parse_dataset("x1,x2,y\n1,2,3\n\n\n2,zz,6\n")
        with pytest.raises(DomainError, match="line 4: expected 3 cells, got 2"):
            parse_dataset("x1,x2,y\n1,2,3\n\n4,5\n")

    def test_read_table(self):
        header, rows = read_table("\n a ; b \n\n1 ; 0..2\n", delimiter=";")
        assert header == ["a", "b"]
        assert list(rows) == [[Observation.point(1.0), Observation.interval(0.0, 2.0)]]
        header, rows = read_table(" \n\n")
        assert header == [] and list(rows) == []

    @pytest.mark.parametrize("delimiter", ["", None, 1, b","])
    def test_a_delimiter_must_be_a_non_empty_string(self, delimiter):
        for text in ("a,b\n1,2\n2,3\n", ""):
            with pytest.raises(DomainError, match="delimiter must be a non-empty string"):
                read_table(text, delimiter)
        with pytest.raises(DomainError, match="delimiter must be a non-empty string"):
            parse_dataset("a,b\n1,2\n2,3\n", delimiter=delimiter)

    def test_header_only_rejected(self):
        with pytest.raises(DomainError):
            parse_dataset("a,b\n")

    def test_single_column_rejected(self):
        with pytest.raises(DomainError):
            parse_dataset("y\n1\n2\n")

    def test_alternate_delimiter(self):
        ds = parse_dataset("a;y\n1;2\n3;4\n", delimiter=";")
        assert ds.lo[0, 0] == ds.hi[0, 0] == 1.0


class TestDataset:
    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(DomainError):
            Dataset(["a", "a"], [((Observation.point(1), Observation.point(1)),
                                  Observation.point(0))] * 2)

    def test_row_arity_mismatch_rejected(self):
        rows = [((Observation.point(1),), Observation.point(0))] * 2
        with pytest.raises(DomainError):
            Dataset(["a", "b"], rows)

    def test_too_few_rows_rejected(self):
        with pytest.raises(DomainError):
            Dataset(["a"], [((Observation.point(1),), Observation.point(0))])

    def test_feature_index(self):
        ds = parse_dataset("a,b,y\n1,2,3\n4,5,6\n")
        assert ds.feature_index("b") == 1
        with pytest.raises(DomainError):
            ds.feature_index("missing")

    def test_cells_are_read_only_arrays_with_the_label_last(self):
        ds = Dataset(["a"], [((Observation.point(1),), Observation.interval(2, 3)),
                             ((Observation.interval(-1, 0),), Observation.point(4))])
        assert ds.lo.dtype == ds.hi.dtype == np.float64
        assert ds.lo.tolist() == [[1.0, 2.0], [-1.0, 4.0]]
        assert ds.hi.tolist() == [[1.0, 3.0], [0.0, 4.0]]
        with pytest.raises(ValueError):
            ds.lo[0, 0] = 5.0


class TestFitJointModel:
    def test_identical_columns_clip_correlation(self):
        col = [Observation.point(v) for v in (1.0, 2.0, 3.0, 4.0)]
        model = _fit(col, col)
        assert model.rho == 0.999

    def test_negated_column_clips_to_negative(self):
        col = [Observation.point(v) for v in (1.0, 2.0, 3.0, 4.0)]
        neg = [Observation.point(-v.value) for v in col]
        assert _fit(col, neg).rho == -0.999

    def test_shuffled_columns_nearly_uncorrelated(self):
        rng = random.Random(2718)
        values = [rng.gauss(0.0, 1.0) for _ in range(200)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        model = _fit([Observation.point(v) for v in values],
                                [Observation.point(v) for v in shuffled])
        assert abs(model.rho) < 0.3

    def test_interval_columns_widen_variance(self):
        mids = [1.0, 2.0, 3.0, 4.0]
        points = [Observation.point(m) for m in mids]
        intervals = [Observation.interval(m - 1.0, m + 1.0) for m in mids]
        base = _fit(points, points)
        widened = _fit(intervals, points)
        assert widened.var_x == pytest.approx(base.var_x + 4.0 / 12.0)
        assert widened.var_y == pytest.approx(base.var_y)

    def test_mean_and_variance_match_midpoint_statistics(self):
        rng = random.Random(5)
        xs = [Observation.point(rng.uniform(-1, 1)) for _ in range(20)]
        ys = [Observation.point(rng.uniform(-1, 1)) for _ in range(20)]
        model = _fit(xs, ys)
        assert model.mean_x == pytest.approx(statistics.fmean(o.value for o in xs))
        assert model.var_y == pytest.approx(statistics.variance(o.value for o in ys))

    def test_constant_column_is_degenerate(self):
        const = [Observation.point(2.0)] * 4
        varied = [Observation.point(v) for v in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(DegenerateModelError):
            _fit(const, varied)
        with pytest.raises(DegenerateModelError):
            _fit(varied, const)

    @pytest.mark.parametrize("value, n", [(0.1, 3), (0.7, 6), (1e-100, 5)])
    def test_inexact_mean_constant_column_is_degenerate(self, value, n):
        # the unshifted mean sum([value] * n) / n is an ulp off for 0.1 and 0.7
        const = [Observation.point(value)] * n
        varied = [Observation.point(float(v)) for v in range(1, n + 1)]
        with pytest.raises(DegenerateModelError):
            _fit(const, varied)
        with pytest.raises(DegenerateModelError):
            _fit(varied, const)

    @pytest.mark.parametrize("column", [
        [Observation.point(v) for v in (1e308, -1e308, 1e308, -1e308)],
        [Observation.point(1.0), Observation.point(2.0),
         Observation.interval(1e308, 1.7e308)],
    ])
    def test_overflowing_column_statistics_are_a_domain_error(self, column):
        varied = [Observation.point(float(v)) for v in range(len(column))]
        for args in ((column, varied), (varied, column)):
            with pytest.raises(DomainError) as info:
                _fit(*args)
            assert not isinstance(info.value, DegenerateModelError)

    def test_tiny_scale_columns_keep_their_correlation(self):
        rng = random.Random(11)
        xs = [rng.gauss(0.0, 1.0) for _ in range(50)]
        ys = [x + rng.gauss(0.0, 0.5) for x in xs]
        unit = _fit([Observation.point(v) for v in xs],
                               [Observation.point(v) for v in ys])
        tiny = _fit([Observation.point(v * 1e-100) for v in xs],
                               [Observation.point(v * 1e-100) for v in ys])
        assert tiny.rho == pytest.approx(unit.rho, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 9, 300, 2000])
    def test_covariance_sum_keeps_its_digits_where_it_cancels(self, n):
        # terms that cancel to about 1e-9 of their magnitude, as the deviation
        # products of nearly independent columns do, to a lesser degree
        rng = random.Random(n)
        half = [rng.gauss(0.0, 1.0) for _ in range(n // 2)]
        terms = half + [-t * (1.0 + rng.uniform(-1e-9, 1e-9)) for t in half] + [1e-300] * (n % 2)
        rng.shuffle(terms)
        exact = float(sum(map(Fraction, terms)))
        assert abs(_split_sum(np.array(terms)) - exact) <= math.ulp(exact)

    @pytest.mark.parametrize("terms, total", [
        ([1e307, -1e307, 1.0], 1.0),  # the largest terms the split takes
        ([1.5e308, -1.5e308, 1.0], 1.0),  # beyond them: the plain sum
        ([0.0, -0.0], 0.0),
        ([math.inf, 1.0], math.inf),
        ([math.inf, -math.inf], math.nan),
        ([math.nan, 1.0], math.nan),
    ])
    def test_covariance_sum_of_extreme_terms(self, terms, total):
        with np.errstate(invalid="ignore"):
            got = _split_sum(np.array(terms))
        assert got == total or math.isnan(got) and math.isnan(total)

    def test_too_short_columns_rejected(self):
        one = [Observation.point(1.0)]
        with pytest.raises(DomainError):
            _fit(one, one)
        with pytest.raises(DomainError):
            _fit(one * 2, one * 3)


class TestBuildMixedSets:
    def test_disjoint_inputs_pass_through(self):
        ms = _sets([Observation.point(1), Observation.point(2),
                               Observation.interval(3, 4)])
        assert ms.points == (1.0, 2.0)
        assert ms.intervals == ((3.0, 4.0),)

    def test_overlapping_intervals_merge(self):
        ms = _sets([Observation.interval(0, 2), Observation.interval(1, 3)])
        assert ms.points == ()
        assert ms.intervals == ((0.0, 3.0),)

    def test_point_inside_interval_absorbed(self):
        ms = _sets([Observation.point(1.5), Observation.interval(1, 2)])
        assert ms.points == ()
        assert ms.intervals == ((1.0, 2.0),)

    def test_touching_intervals_merge(self):
        ms = _sets([Observation.interval(0, 1), Observation.interval(1, 2)])
        assert ms.intervals == ((0.0, 2.0),)

    def test_duplicate_points_collapse(self):
        ms = _sets([Observation.point(1), Observation.point(1),
                               Observation.point(0)])
        assert ms.points == (0.0, 1.0)

    @pytest.mark.parametrize("point, absorbed", [
        (0.5, False),  # before the first interval
        (1.0, True), (2.0, True), (6.0, True), (8.0, True),  # on an endpoint
        (1.5, True), (5.0, True), (7.5, True),  # inside a merged interval
        (3.0, False), (6.5, False),  # between intervals
        (9.0, False),  # after the last interval
    ])
    def test_point_against_several_intervals(self, point, absorbed):
        col = [Observation.interval(*iv) for iv in ((7, 8), (1, 2), (4, 5), (5, 6))]
        ms = _sets(col + [Observation.point(point), Observation.point(-1.0)])
        assert ms.intervals == ((1.0, 2.0), (4.0, 6.0), (7.0, 8.0))
        assert ms.points == ((-1.0,) if absorbed else (-1.0, point))

    def test_sweep_matches_pairwise_scan(self):
        rng = random.Random(11)
        for _ in range(200):
            col = [Observation.point(rng.randint(0, 40) / 2) for _ in range(rng.randint(0, 12))]
            for _ in range(rng.randint(0, 5)):
                lo = rng.randint(0, 38) / 2
                col.append(Observation.interval(lo, lo + rng.randint(1, 6) / 2))
            ms = _sets(col)
            points = sorted({o.value for o in col if o.kind == POINT})
            assert ms.points == tuple(p for p in points if not any(
                lo <= p <= hi for lo, hi in ms.intervals))

    def test_point_on_merged_endpoint_absorbed(self):
        ms = _sets([Observation.point(2.0), Observation.interval(1, 2)])
        assert ms.points == ()
        assert ms.intervals == ((1.0, 2.0),)

    def test_empty_column(self):
        ms = _sets([])
        assert ms.points == ()
        assert ms.intervals == ()

    @pytest.mark.parametrize("n, interval_fraction, inputs", [(800, 0.0, 8), (2000, 0.25, 128)],
                             ids=["tree_points", "tree_mixed"])
    @pytest.mark.parametrize("seed", [1, 2201])
    def test_benchmark_root_sets_pass_the_public_checks(self, n, interval_fraction, inputs,
                                                        seed):
        # the root columns of the benchmark's tree datasets, drawn as its
        # workloads draw them: one seed per input from random.Random(seed)
        rng = random.Random(seed)
        for input_seed in [rng.randrange(2 ** 32) for _ in range(inputs)]:
            rows = _synthetic_rows(input_seed, n, interval_fraction,
                                   point=lambda v: (v, v), interval=lambda lo, hi: (lo, hi))
            cells = [(*features, label) for features, label in rows]
            for j in range(3):
                _assert_canonical(build_mixed_sets(
                    tuple(np.array([c[j][end] for c in cells]) for end in (0, 1))))

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(_CELLS, max_size=12))
    def test_sets_of_random_columns_pass_the_public_checks(self, cells):
        _assert_canonical(_sets(map(_cell, cells)))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.5]),
        st.floats(-1e300, 1e300)), max_size=40))
    def test_point_column_gives_the_points_of_the_merge(self, values):
        # one interval cell below every point sends the same points through
        # the interval merge; equal points (0.0 and -0.0) keep the same sign
        lo = np.array(values, dtype=float)
        fast = build_mixed_sets((lo, lo.copy()))
        merged = build_mixed_sets((np.append(lo, -1.5e308), np.append(lo, -1.2e308)))
        assert merged.intervals == ((-1.5e308, -1.2e308),)
        for got, want in ((fast.point_array, merged.point_array),
                          (fast.lo, merged.lo[:0]), (fast.hi, merged.hi[:0])):
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable


def _assert_canonical(ms):
    """ms, built without MixedSet's checks, passes them and is in merged canonical form."""
    assert MixedSet(ms.points, ms.intervals) == ms
    points, lo, hi = ms.point_array, ms.lo, ms.hi
    assert points.dtype == lo.dtype == hi.dtype == np.float64
    assert np.all(points[1:] > points[:-1])  # sorted and distinct
    assert np.all(lo < hi) and np.all(lo[1:] > hi[:-1])  # sorted, disjoint and not touching
    assert not np.any((lo[:, None] <= points) & (points <= hi[:, None]))  # none in or on one
    for values in (points, lo, hi):
        with pytest.raises(ValueError):
            values[...] = 0.0


class TestSplitGain:
    def test_informative_feature_beats_noise(self):
        ds = _synthetic(11, n=60)
        cfg = TreeConfig()
        informative = split_gain(ds, "x1", cfg)
        noise = split_gain(ds, "x2", cfg)
        assert cmp(informative, SoftNumber.zero()) > 0
        assert cmp(informative, noise) > 0

    def test_constant_feature_gives_absolute_zero(self):
        rows = [((Observation.point(1.0), Observation.point(float(i))),
                 Observation.point(float(i))) for i in range(8)]
        ds = Dataset(["const", "varied"], rows)
        assert split_gain(ds, "const", TreeConfig()) == SoftNumber.zero()

    @pytest.mark.parametrize("value", [0.1, 0.7])
    def test_inexact_mean_constant_feature_gives_absolute_zero(self, value):
        # Labels with a large mean and a small spread: a constant column's
        # rounding residue, if any, would turn into a large spurious gain.
        rows = [((Observation.point(value), Observation.point(float(i))),
                 Observation.point(1e8 + i * 1e-5)) for i in range(6)]
        ds = Dataset(["const", "varied"], rows)
        assert split_gain(ds, "const", TreeConfig()) == SoftNumber.zero()

    def test_unknown_feature_rejected(self):
        with pytest.raises(DomainError):
            split_gain(_synthetic(1, n=10), "nope", TreeConfig())

    def test_argmax_invariant_under_positive_scaling(self):
        ds = _synthetic(23, n=60)
        cfg = TreeConfig()
        gains = [split_gain(ds, name, cfg) for name in ds.feature_names]

        def argmax(values):
            best = 0
            for i in range(1, len(values)):
                if cmp(values[i], values[best]) > 0:
                    best = i
            return best

        baseline = argmax(gains)
        for c in (1e-6, 0.5, 3.7, 1e6):
            scaled = [SoftNumber(c * g.soft, c * g.real) for g in gains]
            assert argmax(scaled) == baseline


class TestInduce:
    def test_small_dataset_yields_single_leaf(self):
        rows = _synthetic_rows(3, n=3)
        node = induce(_dataset(rows), TreeConfig(min_rows=4))
        assert isinstance(node, Leaf)
        assert node.count == 3
        expected = statistics.fmean(label.midpoint for _, label in rows)
        assert node.prediction == pytest.approx(expected)

    def test_leaf_mean_of_a_huge_interval_label_is_finite(self):
        ds = Dataset(["a"], [((Observation.point(0.0),), Observation.interval(1e308, 1.7e308)),
                             ((Observation.point(1.0),), Observation.point(0.0))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert induce(ds, TreeConfig(min_rows=4)) == Leaf(prediction=6.75e307, count=2)

    def test_overflowing_leaf_mean_is_a_domain_error(self):
        ds = Dataset(["a"], [((Observation.point(float(i)),), Observation.point(1e308))
                             for i in range(2)])
        with pytest.raises(DomainError):
            induce(ds, TreeConfig(min_rows=4))

    def test_depth_one_splits_at_most_once(self):
        ds = _synthetic(7, n=40)
        node = induce(ds, TreeConfig(max_depth=1))
        assert isinstance(node, Split)
        assert isinstance(node.left, Leaf)
        assert isinstance(node.right, Leaf)

    def test_root_selects_informative_feature(self):
        ds = _synthetic(0, n=200)
        node = induce(ds, TreeConfig(max_depth=1))
        assert isinstance(node, Split)
        assert node.feature == "x1"
        assert node.feature_index == 0

    def test_threshold_is_median_of_midpoints(self):
        rows = _synthetic_rows(7, n=40)
        node = induce(_dataset(rows), TreeConfig(max_depth=1))
        mids = [features[node.feature_index].midpoint for features, _ in rows]
        assert node.threshold == statistics.median(mids)

    def test_determinism(self):
        ds = _synthetic(19, n=60, interval_fraction=0.3)
        cfg = TreeConfig(max_depth=3, min_rows=6)
        assert tree_to_dict(induce(ds, cfg)) == tree_to_dict(induce(ds, cfg))

    def test_bounds_respected_with_intervals(self):
        ds = _synthetic(29, n=80, interval_fraction=0.25)
        cfg = TreeConfig(max_depth=3, min_rows=8)
        _assert_bounds(induce(ds, cfg), 0, cfg)

    def test_large_min_gain_stops_splitting(self):
        ds = _synthetic(31, n=40)
        node = induce(ds, TreeConfig(min_gain=SoftNumber(0.0, 1e9)))
        assert isinstance(node, Leaf)

    @pytest.mark.parametrize("n, outlier", [(2000, 1e3), (1600, 1e6), (2000, 1e9)])
    def test_one_far_outlier_still_splits(self, n, outlier):
        # the outlier lies about sqrt(n) sd out under the fitted Gaussian,
        # where its marginal density underflows to 0; its pairs weigh below
        # TINY_DENSITY and add 0 to each gain
        rows = _synthetic_rows(5, n)
        (_, x2), y = rows[0]
        rows[0] = ((Observation.point(outlier), x2), y)
        assert isinstance(induce(_dataset(rows), TreeConfig(max_depth=3, min_rows=8)), Split)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            TreeConfig(max_depth=0)
        with pytest.raises(DomainError):
            TreeConfig(min_rows=1)

    @pytest.mark.parametrize("seed", [1, 2201])
    def test_benchmark_point_trees_take_the_transform_at_the_top(self, seed, monkeypatch):
        # the benchmark's tree_points datasets: 800 point rows, one seed per
        # input from random.Random(seed); the x1 gains of the root and of
        # both depth-1 nodes are the big pair sums, and a cost model that
        # sent them dense would add about 2 ms to a 6 ms induce
        taken, node = [], {}
        grow, pair_sum = tree._grow, information._gaussian_pair_sum
        interpolate = information._chebyshev_interpolate
        panels = []

        def grow_spy(ds, cfg, table, depth):
            node.update(depth=depth, feature=0)
            return grow(ds, cfg, table, depth)

        def pair_sum_spy(*args):
            before = len(panels)
            value = pair_sum(*args)
            taken.append((node["depth"], node["feature"], len(panels) > before))
            node["feature"] += 1
            return value

        def interpolate_spy(kernel, t, n):
            panels.append(n)
            return interpolate(kernel, t, n)

        monkeypatch.setattr(tree, "_grow", grow_spy)
        monkeypatch.setattr(information, "_gaussian_pair_sum", pair_sum_spy)
        monkeypatch.setattr(information, "_chebyshev_interpolate", interpolate_spy)
        rng = random.Random(seed)
        for input_seed in [rng.randrange(2 ** 32) for _ in range(8)]:
            taken.clear()
            induce(_synthetic(input_seed, n=800), TreeConfig(max_depth=3, min_rows=8))
            top = [path for depth, feature, path in taken if depth <= 1 and feature == 0]
            assert top == [True, True, True]

    def test_point_tree_is_the_same_with_the_gauss_transform_forced_dense(self, monkeypatch):
        def shape(node):
            if isinstance(node, Leaf):
                return node
            return (node.feature, node.threshold, shape(node.left), shape(node.right))

        def gains(node):
            if isinstance(node, Leaf):
                return []
            return [node.gain] + gains(node.left) + gains(node.right)

        panels = []
        interpolate = information._chebyshev_interpolate

        def spy(kernel, t, n):
            panels.append(n)
            return interpolate(kernel, t, n)

        ds = _synthetic(29, n=800)
        cfg = TreeConfig(max_depth=3, min_rows=8)
        monkeypatch.setattr(information, "_chebyshev_interpolate", spy)
        fast = induce(ds, cfg)
        assert len(panels) >= 2
        monkeypatch.setattr(information, "_gauss_sums", information._dense_gauss_sums)
        dense = induce(ds, cfg)
        assert shape(fast) == shape(dense)
        for a, b in zip(gains(fast), gains(dense), strict=True):
            assert a.real == b.real == 0.0
            assert a.soft == pytest.approx(b.soft, rel=1e-12, abs=0.0)


def _preorder(record: dict) -> list:
    """Every field of a tree_to_dict record, node by node in preorder."""
    if record["kind"] == "leaf":
        return [(record["prediction"], record["count"])]
    return [(record["feature"], record["feature_index"], record["threshold"],
             record["gain"]["soft"], record["gain"]["real"]),
            *_preorder(record["left"]), *_preorder(record["right"])]


class TestBitPins:
    # Trees on the benchmark's two kinds of data, pinned to the bit by the
    # repr of every field: a change of any rounding on the induce path
    # (fits, merges, medians, mutual information, leaf means) shows here.
    # A change that moves them on purpose re-pins them and says why.
    MIXED = [
        ("x1", 0, 0.008405867212171242, 0.019029624059355682, 0.7654215424164064),
        ("x1", 0, -0.6808998085835627, 0.001721193674286572, 0.3700431750388968),
        ("x1", 0, -1.1366195865260247, 0.0019280662288455206, 0.2509490087075399),
        (-1.653588676281599, 250),
        (-0.920920857272151, 250),
        ("x1", 0, -0.3117225638365682, 0.0, 0.04444211524127112),
        (-0.44157477285665864, 250),
        (-0.15074170968069578, 250),
        ("x1", 0, 0.6355199928228911, 0.0, 0.39399245354288404),
        ("x1", 0, 0.2843603685220294, 0.0, 0.04580635370636108),
        (0.15637779026041138, 250),
        (0.44084851696189814, 250),
        ("x1", 0, 1.1190620674865455, -1.7300790799740057e-14, 0.3103029861296107),
        (0.8748589932190751, 250),
        (1.65366144800731, 250),
    ]
    POINTS = [
        ("x1", 0, -0.010017484579148514, 28237.054755053912, 0.0),
        ("x1", 0, -0.6574739778147447, 9335.52242077981, 0.0),
        ("x1", 0, -1.060797133544415, 2492.829019287601, 0.0),
        (-1.6368335377059982, 100),
        (-0.9252677070371023, 100),
        ("x1", 0, -0.32109921323597207, 986.2378368114123, 0.0),
        (-0.4636149239354186, 100),
        (-0.14510524423213225, 100),
        ("x1", 0, 0.6602532002261401, 7768.5916539994, 0.0),
        ("x1", 0, 0.3176143958820431, 1026.9858834056452, 0.0),
        (0.15221769824213172, 100),
        (0.4665541221324399, 100),
        ("x1", 0, 1.2055673743591697, 1591.6770913807354, 0.0),
        (1.0106762533957216, 100),
        (1.677231960531927, 100),
    ]

    @pytest.mark.parametrize("seed, n, interval_fraction, pinned", [
        (11, 2000, 0.25, MIXED), (12, 800, 0.0, POINTS)], ids=["mixed", "points"])
    def test_tree_is_pinned_to_the_bit(self, seed, n, interval_fraction, pinned):
        ds = _synthetic(seed, n, interval_fraction)
        record = tree_to_dict(induce(ds, TreeConfig(max_depth=3, min_rows=8)))
        assert json.loads(json.dumps(record)) == record
        assert repr(_preorder(record)) == repr(pinned)


def _node_dataset(table: np.ndarray) -> Dataset:
    """The rows of a node table as a Dataset of the tests' two features."""
    lo, hi, _ = table
    cell = lambda a, b: Observation.point(a) if a == b else Observation.interval(a, b)
    rows = [tuple(cell(a, b) for a, b in zip(row_lo, row_hi))
            for row_lo, row_hi in zip(lo.T.tolist(), hi.T.tolist())]
    return _dataset([(row[:-1], row[-1]) for row in rows])


class TestNodeGains:
    """A node scores all its candidates in one tree._gain call: each gain is the one
    split_gain gives its feature alone, and an error is the one that split_gain on each
    feature in turn raises first."""

    @pytest.mark.parametrize("seed, n, interval_fraction", [(11, 2000, 0.25), (12, 800, 0.0)],
                             ids=["mixed", "points"])
    def test_gains_are_split_gain_to_the_bit(self, seed, n, interval_fraction, monkeypatch):
        nodes, gain = [], tree._gain

        def spy(table, *args):
            with collect_stats() as records:
                value = gain(table, *args)
            nodes.append((table, value, records))
            return value

        cfg = TreeConfig(max_depth=3, min_rows=8)
        # split_gain calls tree._gain too, so the spy watches induce alone
        with monkeypatch.context() as patch:
            patch.setattr(tree, "_gain", spy)
            induce(_synthetic(seed, n, interval_fraction), cfg)
        assert len(nodes) == 7
        for table, value, records in nodes:
            ds = _node_dataset(table)
            lone, lone_records = [], []
            for name in ds.feature_names:
                with collect_stats() as feature_records:
                    lone.append(split_gain(ds, name, cfg))
                lone_records += feature_records
            assert repr([(g.soft, g.real) for g in value]) == \
                repr([(g.soft, g.real) for g in lone])
            # the candidates' runs report what each feature's run alone reports
            assert records == lone_records
            assert len(records) == (len(ds.feature_names) if interval_fraction else 0)

    @staticmethod
    def _raised(call):
        with pytest.raises(DomainError) as err:
            call()
        return type(err.value), str(err.value)

    def _assert_loop_raises_the_same(self, ds):
        cfg = TreeConfig()
        table = tree._table(ds.lo, ds.hi)
        batched = self._raised(lambda: tree._gain(table, cfg))
        loop = self._raised(lambda: [split_gain(ds, name, cfg) for name in ds.feature_names])
        assert batched == loop
        return batched

    def test_the_first_failing_candidate_raises(self, monkeypatch):
        # x1 is fine, x2 too large to fit; the closed form is NaN for the
        # model of x1 or of x2, as chosen
        rows = _synthetic_rows(5, 60, 0.3)
        rows = [((x1, Observation.point(1e306 * (k % 3))), y)
                for k, ((x1, _), y) in enumerate(rows)]
        ds = _dataset(rows)
        closed_form = information._mi_y_integral
        # the fit of x2 fails, after x1's gain
        assert "not finite" in self._assert_loop_raises_the_same(ds)[1]
        # x1's real part fails first
        first_mean = fit_joint_model((ds.lo[:, 0], ds.hi[:, 0]),
                     (ds.lo[:, 2], ds.hi[:, 2])).mean_x
        monkeypatch.setattr(information, "_mi_y_integral", lambda p, xs, y: np.where(
            p[0] == first_mean, math.nan, closed_form(p, xs, y)))
        assert "non-finite value nan" in self._assert_loop_raises_the_same(ds)[1]

    def test_a_later_candidate_fails_after_the_first_gains(self, monkeypatch):
        ds = _synthetic(7, 300, 0.25)
        closed_form = information._mi_y_integral
        second_mean = fit_joint_model((ds.lo[:, 1], ds.hi[:, 1]),
                      (ds.lo[:, 2], ds.hi[:, 2])).mean_x
        monkeypatch.setattr(information, "_mi_y_integral", lambda p, xs, y: np.where(
            p[0] == second_mean, math.inf, closed_form(p, xs, y)))
        assert "non-finite value inf" in self._assert_loop_raises_the_same(ds)[1]


class TestMedian:
    """tree._median is statistics.median to the bit, 0.0 and -0.0 included."""

    @staticmethod
    def _assert_same(values):
        got, want = tree._median(np.array(values)), statistics.median(values)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), values

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 10, 799, 800, 2001])
    def test_random_values(self, n):
        rng = random.Random(n)
        for _ in range(20):
            self._assert_same([rng.gauss(0.0, 1.0) for _ in range(n)])
            # repeated values, so that the middle ones tie
            self._assert_same([rng.choice((-1.5, 0.25, 3.0)) for _ in range(n)])

    @pytest.mark.parametrize("n", [3, 4, 9, 10, 41, 40, 2001, 2000])
    def test_middles_that_mix_signed_zeros(self, n):
        # statistics.median keeps the input order of equal values, and 0.0
        # and -0.0 are the only equal floats whose bits differ
        rng = random.Random(n)
        for _ in range(30):
            values = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            for i in rng.sample(range(n), max(2, n // 3)):
                values[i] = rng.choice((0.0, -0.0))
            self._assert_same(values)
            self._assert_same(values[::-1])

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [1.0, 0.0, -0.0, -1.0, 0.0],
        [0.0, -0.0, -0.0, 1.0], [-0.0, 0.0, 0.0, -1.0]])
    def test_small_signed_zero_cases_in_both_orders(self, values):
        self._assert_same(values)
        self._assert_same(values[::-1])


class TestPredict:
    def test_single_leaf_is_constant(self):
        leaf = Leaf(prediction=4.25, count=9)
        assert predict(leaf, [Observation.point(0.0)]) == 4.25
        assert predict(leaf, []) == 4.25

    def test_split_routes_by_midpoint(self):
        node = Split(feature="a", feature_index=0, threshold=1.5,
                     gain=SoftNumber(0.0, 1.0),
                     left=Leaf(prediction=-1.0, count=1),
                     right=Leaf(prediction=1.0, count=1))
        assert predict(node, [Observation.point(1.0)]) == -1.0
        assert predict(node, [Observation.point(2.0)]) == 1.0
        assert predict(node, [Observation.interval(1.0, 4.0)]) == 1.0
        assert predict(node, [Observation.interval(0.0, 2.0)]) == -1.0

    def test_too_few_features_rejected(self):
        node = Split(feature="b", feature_index=1, threshold=0.0,
                     gain=SoftNumber(0.0, 1.0),
                     left=Leaf(0.0, 1), right=Leaf(1.0, 1))
        with pytest.raises(DomainError):
            predict(node, [Observation.point(0.0)])

    def test_schema_mismatch_rejected(self):
        node = Split(feature="a", feature_index=0, threshold=0.0,
                     gain=SoftNumber(0.0, 1.0),
                     left=Leaf(0.0, 1), right=Leaf(1.0, 1))
        with pytest.raises(DomainError):
            predict(node, [Observation.point(0.0)], feature_names=["z"])
        assert predict(node, [Observation.point(-1.0)], feature_names=["a"]) == 0.0

    def test_rmse_beats_global_mean(self):
        train = _synthetic_rows(41, n=200)
        test = _synthetic_rows(42, n=100)
        tree = induce(_dataset(train), TreeConfig(max_depth=3, min_rows=8))
        mean = statistics.fmean(label.midpoint for _, label in train)
        err_tree = []
        err_mean = []
        for features, label in test:
            truth = label.midpoint
            err_tree.append((predict(tree, features) - truth) ** 2)
            err_mean.append((mean - truth) ** 2)
        assert math.sqrt(statistics.fmean(err_tree)) < math.sqrt(statistics.fmean(err_mean))


class TestSerialization:
    def test_round_trip(self):
        ds = _synthetic(13, n=60, interval_fraction=0.2)
        tree = induce(ds, TreeConfig(max_depth=2, min_rows=6))
        assert tree_from_dict(tree_to_dict(tree)) == tree

    def test_leaf_round_trip(self):
        leaf = Leaf(prediction=0.5, count=3)
        assert tree_from_dict(tree_to_dict(leaf)) == leaf

    def test_malformed_records_rejected(self):
        leaf = {"kind": "leaf", "prediction": 0.5, "count": 1}
        split = {"kind": "split", "feature": "a", "feature_index": 0, "threshold": 0.5,
                 "gain": {"soft": 0.0, "real": 1.0}, "left": leaf, "right": leaf}
        for obj in [None, {}, {"kind": "branch"},
                    {"kind": "leaf", "prediction": "x"},
                    {"kind": "split", "feature": "a"},
                    {**leaf, "prediction": "0.5"}, {**leaf, "count": 2.7},
                    {**leaf, "count": -3}, {**leaf, "count": True},
                    {**split, "feature": None}, {**split, "feature_index": True},
                    {**split, "threshold": True},
                    {**split, "gain": {"soft": "1", "real": 0}}]:
            with pytest.raises(DomainError):
                tree_from_dict(obj)
        assert tree_from_dict(split) == Split("a", 0, 0.5, SoftNumber(0.0, 1.0),
                                              Leaf(0.5, 1), Leaf(0.5, 1))

    @pytest.mark.parametrize("change, message", [
        ({"count": -3}, "count must be an integer >= 0, got -3"),
        ({"count": "3"}, "count must be an integer >= 0, got '3'"),
        ({"prediction": None}, "malformed leaf record: prediction must be a number"),
        ({"threshold": "0"}, "malformed split record: threshold must be a number"),
        ({"feature": 3}, "feature must be a string, got 3"),
        ({"feature_index": -1}, "feature_index must be an integer >= 0, got -1"),
    ])
    def test_the_constructors_name_a_bad_field(self, change, message):
        # a leaf record's fields, or a split's whose children are that leaf;
        # _node_from_dict checks only that the numbers are JSON numbers
        leaf = {"kind": "leaf", "prediction": 0.5, "count": 1}
        split = {"kind": "split", "feature": "a", "feature_index": 0, "threshold": 0.5,
                 "gain": {"soft": 0.0, "real": 1.0}, "left": leaf, "right": leaf}
        record = {**(leaf if change.keys() <= {"count", "prediction"} else split), **change}
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            tree_from_dict(record)

    def test_every_tree_the_constructors_accept_round_trips(self):
        # each of these was accepted, and tree_to_dict or tree_from_dict then failed
        leaf = Leaf(1.0, count=np.int64(3))
        for build in (lambda: Leaf(1.0, count=-3), lambda: Leaf(1.0, count=None),
                      lambda: Split("a", 0, 0.5, 1.0, leaf, leaf),
                      lambda: Split(3, 0, 0.5, SoftNumber(0.0, 1.0), leaf, leaf),
                      lambda: Split("a", 0, 0.5, SoftNumber(0.0, 1.0), None, leaf)):
            with pytest.raises(DomainError):
                build()
        tree = Split("", np.int32(2), -0.5, SoftNumber(1.0, 0.0), leaf, Leaf(2.0, count=0))
        # numpy integers are stored as int, so the record is also JSON
        assert tree_from_dict(json.loads(json.dumps(tree_to_dict(tree)))) == tree

    def test_record_nested_past_the_recursion_limit_rejected(self):
        obj = {"kind": "leaf", "prediction": 1.0, "count": 1}
        for _ in range(1200):
            obj = {"kind": "split", "feature": "x1", "feature_index": 0, "threshold": 0.0,
                   "gain": {"soft": 0.0, "real": 0.0}, "left": obj, "right": obj}
        with pytest.raises(DomainError, match="nested too deeply"):
            tree_from_dict(obj)


# Reference of the tree's statistics, built one Observation at a time with
# the same sums: the oracle for induce's column arrays, which must give
# identical trees.

def _ref_column_stats(col):
    mids = np.array([o.midpoint for o in col])
    n = len(mids)
    base = float(mids[0])
    mean = base + float(np.sum(mids - base)) / n
    devs = mids - mean
    widths = np.array([o.hi - o.lo if o.kind == INTERVAL else 0.0 for o in col])
    var = (float(np.sum(devs * devs)) / (n - 1)
           + float(np.sum(widths * widths / 12.0)) / n)
    return mean, var, devs


def _ref_fit(x, y):
    mean_x, var_x, dev_x = _ref_column_stats(x)
    mean_y, var_y, dev_y = _ref_column_stats(y)
    cov = _split_sum(dev_x * dev_y) / (len(x) - 1)
    if var_x <= 0.0 or var_y <= 0.0:
        return None
    rho = cov / (math.sqrt(var_x) * math.sqrt(var_y))
    rho = max(-MAX_ABS_CORRELATION, min(MAX_ABS_CORRELATION, rho))
    return BivariateGaussianModel(mean_x, mean_y, var_x, var_y, rho)


def _ref_sets(col):
    merged = []
    for lo, hi in sorted((o.lo, o.hi) for o in col if o.kind == INTERVAL):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    points = sorted(set(o.value for o in col if o.kind == POINT))
    return MixedSet([p for p in points if not any(lo <= p <= hi for lo, hi in merged)],
                    merged)


def _ref_induce(names, rows, cfg, depth=0):
    labels = [label for _, label in rows]
    leaf = Leaf(prediction=statistics.fmean(o.midpoint for o in labels), count=len(rows))
    if len(rows) < cfg.min_rows or depth >= cfg.max_depth:
        return leaf
    best_index, best_gain = 0, None
    for index in range(len(names)):
        col = [features[index] for features, _ in rows]
        model = _ref_fit(col, labels)
        gain = (SoftNumber.zero() if model is None else soft_mutual_information(
            model, _ref_sets(col), _ref_sets(labels), cfg.info))
        if best_gain is None or cmp(gain, best_gain) > 0:
            best_index, best_gain = index, gain
    if cmp(best_gain, cfg.min_gain) <= 0:
        return leaf
    threshold = statistics.median(features[best_index].midpoint for features, _ in rows)
    left = [r for r in rows if r[0][best_index].midpoint <= threshold]
    right = [r for r in rows if r[0][best_index].midpoint > threshold]
    if not left or not right:
        return leaf
    return Split(feature=names[best_index], feature_index=best_index,
                 threshold=threshold, gain=best_gain,
                 left=_ref_induce(names, left, cfg, depth + 1),
                 right=_ref_induce(names, right, cfg, depth + 1))


def _column_rows(*columns):
    """Rows of cells from equal-length columns, the last one the label."""
    return [(tuple(map(_cell, r[:-1])), _cell(r[-1])) for r in zip(*columns)]


def _assert_matches_reference(rows, cfg):
    ds = Dataset([f"x{i}" for i in range(len(rows[0][0]))], rows)
    assert repr(tree_to_dict(induce(ds, cfg))) == repr(tree_to_dict(
        _ref_induce(ds.feature_names, rows, cfg)))


@st.composite
def _mixed_rows(draw):
    n = draw(st.integers(2, 12))
    columns = draw(st.lists(st.lists(_CELLS, min_size=n, max_size=n), min_size=2, max_size=3))
    return _column_rows(*columns)


class TestColumnarInduction:
    @pytest.mark.parametrize("columns", [
        # ties at the median
        ([1.0, 1.0, 1.0, 2.0, 2.0, 2.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
        ([0.5, 1.0, 1.0, 1.0, 3.0, 4.0, 1.0, 2.0], [1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 0.0, 1.0]),
        # constant columns whose unshifted mean is inexact
        ([0.1] * 3, [1.0, 2.0, 3.0]),
        ([0.7] * 6, [1e8 + i * 1e-5 for i in range(6)]),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.7] * 6),
        # duplicate points
        ([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0], [1.0, 1.0, 2.0, 5.0, 3.0, 3.0, 4.0, 9.0]),
        # touching and nested intervals
        ([(0.0, 1.0), (1.0, 2.0), (0.0, 4.0), (1.5, 1.75), 3.0, 5.0, (5.0, 6.0), 7.0],
         [0.0, 1.0, 2.0, 3.0, (1.0, 2.0), (2.0, 3.0), 6.0, 7.0]),
        # points on interval endpoints
        ([1.0, 2.0, (1.0, 2.0), 4.0, (4.0, 5.0), 5.0, 6.0, 8.0],
         [(0.0, 1.0), 1.0, 0.0, 3.0, 4.0, (4.0, 6.0), 6.0, 8.0]),
        # an all-interval column
        ([(i, i + 1.5) for i in range(8)], [0.0, 2.0, 1.0, 3.0, 5.0, 4.0, 7.0, 6.0]),
        ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [(i, i + 0.5) for i in (3, 1, 2, 0, 5, 4, 7, 6)]),
    ])
    def test_matches_reference_on_edge_cases(self, columns):
        rows = _column_rows(*columns)
        for cfg in (TreeConfig(max_depth=3, min_rows=2), TreeConfig(max_depth=1)):
            _assert_matches_reference(rows, cfg)

    @settings(max_examples=60, deadline=None)
    @given(rows=_mixed_rows(), max_depth=st.integers(1, 3))
    def test_matches_reference_on_random_mixed_data(self, rows, max_depth):
        _assert_matches_reference(rows, TreeConfig(max_depth=max_depth, min_rows=2))

    def test_matches_reference_on_synthetic_data(self):
        rows = _synthetic_rows(43, n=120, interval_fraction=0.25)
        _assert_matches_reference(rows, TreeConfig(max_depth=3, min_rows=8))

    def test_induce_leaves_no_reference_cycles(self):
        ds = _synthetic(47, n=80, interval_fraction=0.25)
        cfg = TreeConfig(max_depth=3, min_rows=8)
        induce(ds, cfg)
        gc.disable()
        try:
            gc.collect()
            induce(ds, cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()
