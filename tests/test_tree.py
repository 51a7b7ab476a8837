"""Tests for the soft-MI decision-tree inducer and its dataset plumbing."""

import math
import random
import statistics

import pytest

from softprob.errors import DegenerateModelError, DomainError
from softprob.softnum import SoftNumber, cmp
from softprob.tree import (
    Dataset,
    Leaf,
    Observation,
    Split,
    TreeConfig,
    build_mixed_sets,
    fit_joint_model,
    induce,
    parse_cell,
    parse_dataset,
    predict,
    split_gain,
    tree_from_dict,
    tree_to_dict,
)


def _synthetic(seed: int, n: int = 200, interval_fraction: float = 0.0):
    """Rows with y = x1 + noise(sd 0.5) and an uninformative x2."""
    rng = random.Random(seed)

    def obs(value: float) -> Observation:
        if rng.random() < interval_fraction:
            half = rng.uniform(0.1, 0.4)
            return Observation.interval(value - half, value + half)
        return Observation.point(value)

    rows = []
    for _ in range(n):
        x1 = rng.gauss(0.0, 1.0)
        x2 = rng.gauss(0.0, 1.0)
        y = x1 + rng.gauss(0.0, 0.5)
        rows.append(((obs(x1), obs(x2)), obs(y)))
    return Dataset(["x1", "x2"], rows, label_name="y")


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
        assert o.spread_variance == 0.0

    def test_interval_fields(self):
        o = Observation.interval(1.0, 2.0)
        assert o.kind == "interval"
        assert o.midpoint == 1.5
        assert o.spread_variance == pytest.approx(1.0 / 12.0)

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
        assert len(ds.rows) == 3
        assert ds.rows[1][0][0] == Observation.interval(0.5, 1.5)
        assert ds.rows[2][1] == Observation.point(6.0)

    def test_cell_count_mismatch_names_line(self):
        with pytest.raises(DomainError, match="line 3"):
            parse_dataset("a,b\n1,2\n1,2,3\n")

    def test_malformed_cell_names_line(self):
        with pytest.raises(DomainError, match="line 2"):
            parse_dataset("a,b\nfoo,2\n")

    def test_header_only_rejected(self):
        with pytest.raises(DomainError):
            parse_dataset("a,b\n")

    def test_single_column_rejected(self):
        with pytest.raises(DomainError):
            parse_dataset("y\n1\n2\n")

    def test_alternate_delimiter(self):
        ds = parse_dataset("a;y\n1;2\n3;4\n", delimiter=";")
        assert ds.rows[0][0][0] == Observation.point(1.0)


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


class TestFitJointModel:
    def test_identical_columns_clip_correlation(self):
        col = [Observation.point(v) for v in (1.0, 2.0, 3.0, 4.0)]
        model = fit_joint_model(col, col)
        assert model.rho == 0.999

    def test_negated_column_clips_to_negative(self):
        col = [Observation.point(v) for v in (1.0, 2.0, 3.0, 4.0)]
        neg = [Observation.point(-v.value) for v in col]
        assert fit_joint_model(col, neg).rho == -0.999

    def test_shuffled_columns_nearly_uncorrelated(self):
        rng = random.Random(2718)
        values = [rng.gauss(0.0, 1.0) for _ in range(200)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        model = fit_joint_model([Observation.point(v) for v in values],
                                [Observation.point(v) for v in shuffled])
        assert abs(model.rho) < 0.3

    def test_interval_columns_widen_variance(self):
        mids = [1.0, 2.0, 3.0, 4.0]
        points = [Observation.point(m) for m in mids]
        intervals = [Observation.interval(m - 1.0, m + 1.0) for m in mids]
        base = fit_joint_model(points, points)
        widened = fit_joint_model(intervals, points)
        assert widened.var_x == pytest.approx(base.var_x + 4.0 / 12.0)
        assert widened.var_y == pytest.approx(base.var_y)

    def test_mean_and_variance_match_midpoint_statistics(self):
        rng = random.Random(5)
        xs = [Observation.point(rng.uniform(-1, 1)) for _ in range(20)]
        ys = [Observation.point(rng.uniform(-1, 1)) for _ in range(20)]
        model = fit_joint_model(xs, ys)
        assert model.mean_x == pytest.approx(statistics.fmean(o.value for o in xs))
        assert model.var_y == pytest.approx(statistics.variance(o.value for o in ys))

    def test_constant_column_is_degenerate(self):
        const = [Observation.point(2.0)] * 4
        varied = [Observation.point(v) for v in (1.0, 2.0, 3.0, 4.0)]
        with pytest.raises(DegenerateModelError):
            fit_joint_model(const, varied)
        with pytest.raises(DegenerateModelError):
            fit_joint_model(varied, const)

    @pytest.mark.parametrize("value, n", [(0.1, 3), (0.7, 6), (1e-100, 5)])
    def test_inexact_mean_constant_column_is_degenerate(self, value, n):
        # fsum([value] * n) / n differs from value by an ulp for these.
        const = [Observation.point(value)] * n
        varied = [Observation.point(float(v)) for v in range(1, n + 1)]
        with pytest.raises(DegenerateModelError):
            fit_joint_model(const, varied)
        with pytest.raises(DegenerateModelError):
            fit_joint_model(varied, const)

    @pytest.mark.parametrize("column", [
        [Observation.point(v) for v in (1e308, -1e308, 1e308, -1e308)],
        [Observation.point(1.0), Observation.point(2.0),
         Observation.interval(1e308, 1.7e308)],
    ])
    def test_overflowing_column_statistics_are_a_domain_error(self, column):
        varied = [Observation.point(float(v)) for v in range(len(column))]
        for args in ((column, varied), (varied, column)):
            with pytest.raises(DomainError) as info:
                fit_joint_model(*args)
            assert not isinstance(info.value, DegenerateModelError)

    def test_tiny_scale_columns_keep_their_correlation(self):
        rng = random.Random(11)
        xs = [rng.gauss(0.0, 1.0) for _ in range(50)]
        ys = [x + rng.gauss(0.0, 0.5) for x in xs]
        unit = fit_joint_model([Observation.point(v) for v in xs],
                               [Observation.point(v) for v in ys])
        tiny = fit_joint_model([Observation.point(v * 1e-100) for v in xs],
                               [Observation.point(v * 1e-100) for v in ys])
        assert tiny.rho == pytest.approx(unit.rho, rel=1e-12)

    def test_too_short_columns_rejected(self):
        one = [Observation.point(1.0)]
        with pytest.raises(DomainError):
            fit_joint_model(one, one)
        with pytest.raises(DomainError):
            fit_joint_model(one * 2, one * 3)


class TestBuildMixedSets:
    def test_disjoint_inputs_pass_through(self):
        ms = build_mixed_sets([Observation.point(1), Observation.point(2),
                               Observation.interval(3, 4)])
        assert ms.points == (1.0, 2.0)
        assert ms.intervals == ((3.0, 4.0),)

    def test_overlapping_intervals_merge(self):
        ms = build_mixed_sets([Observation.interval(0, 2), Observation.interval(1, 3)])
        assert ms.points == ()
        assert ms.intervals == ((0.0, 3.0),)

    def test_point_inside_interval_absorbed(self):
        ms = build_mixed_sets([Observation.point(1.5), Observation.interval(1, 2)])
        assert ms.points == ()
        assert ms.intervals == ((1.0, 2.0),)

    def test_touching_intervals_merge(self):
        ms = build_mixed_sets([Observation.interval(0, 1), Observation.interval(1, 2)])
        assert ms.intervals == ((0.0, 2.0),)

    def test_duplicate_points_collapse(self):
        ms = build_mixed_sets([Observation.point(1), Observation.point(1),
                               Observation.point(0)])
        assert ms.points == (0.0, 1.0)

    def test_point_on_merged_endpoint_absorbed(self):
        ms = build_mixed_sets([Observation.point(2.0), Observation.interval(1, 2)])
        assert ms.points == ()
        assert ms.intervals == ((1.0, 2.0),)

    def test_empty_column(self):
        ms = build_mixed_sets([])
        assert ms.points == ()
        assert ms.intervals == ()


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
        ds = _synthetic(3, n=3)
        node = induce(ds, TreeConfig(min_rows=4))
        assert isinstance(node, Leaf)
        assert node.count == 3
        expected = statistics.fmean(label.midpoint for _, label in ds.rows)
        assert node.prediction == pytest.approx(expected)

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
        ds = _synthetic(7, n=40)
        node = induce(ds, TreeConfig(max_depth=1))
        mids = [features[node.feature_index].midpoint for features, _ in ds.rows]
        assert node.threshold == pytest.approx(statistics.median(mids))

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

    def test_config_validation(self):
        with pytest.raises(DomainError):
            TreeConfig(max_depth=0)
        with pytest.raises(DomainError):
            TreeConfig(min_rows=1)


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
        train = _synthetic(41, n=200)
        test = _synthetic(42, n=100)
        tree = induce(train, TreeConfig(max_depth=3, min_rows=8))
        mean = statistics.fmean(label.midpoint for _, label in train.rows)
        err_tree = []
        err_mean = []
        for features, label in test.rows:
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
        for obj in [None, {}, {"kind": "branch"},
                    {"kind": "leaf", "prediction": "x"},
                    {"kind": "split", "feature": "a"}]:
            with pytest.raises(DomainError):
                tree_from_dict(obj)
