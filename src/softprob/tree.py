"""Decision-tree induction driven by soft mutual information.

Rows may mix exact samples with interval observations. Each candidate
split fits a bivariate Gaussian to (feature, label), collects both columns
into MixedSets, and scores the feature by soft mutual information; the
soft-number total order then picks the winner, so interval evidence (real
part) dominates and point evidence (soft part) breaks ties.

Datasets and induction work on columns, not Observations. A column is a
pair of float arrays (lo, hi): a point has lo == hi == its value and an
interval keeps its endpoints, so lo < hi marks exactly the interval cells.
A Dataset holds its cells as two such arrays of shape (rows, features + 1),
the label last. `induce` computes every cell's midpoint once into a node
table of shape (3, features + 1, rows): the lo, hi and midpoint of each
column, each a contiguous row. A node is such a table, and each child
takes one boolean-mask slice of its parent's, in the parent's row order.
Fits, merges, medians and leaf means are array work. A node scores its
candidates together (_gains): their real parts share the label's
y-intervals, so they run as the runs of one quadrature call, and each
gain is the one split_gain gives alone, to the bit. The column
statistics are numpy's pairwise np.sum over the shifted midpoints and
their products, whose error is O(u log n) times the sum of the magnitudes
of the terms (Higham 2002, section 4.2); the covariance, which cancels
where the columns are nearly independent, first splits its terms
error-free (_split_sum). The threshold is the median of the midpoints, found by
selection (_median), and a leaf predicts fsum(midpoints) / n.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .distributions import BivariateGaussianModel, JointModel
from .errors import DegenerateModelError, DomainError, Record, finite_float, is_count, \
    is_number, open_interval, sequence
from .information import InfoConfig, _gaussian_mutual_information, soft_mutual_information
from .moments import MixedSet
from .softnum import SoftNumber, cmp, soft_from_dict, soft_to_dict

MAX_ABS_CORRELATION = 0.999

POINT = "point"
INTERVAL = "interval"


class Observation(Record):
    """A single measured value, either exact or known only to an interval, as floats."""

    def __init__(self, kind: str, value: Optional[float] = None, lo: Optional[float] = None,
                 hi: Optional[float] = None):
        if kind == POINT:
            value = finite_float(value, "point value")
        elif kind == INTERVAL:
            lo, hi = open_interval((lo, hi), "interval observation")
        else:
            raise DomainError(f"unknown observation kind {kind!r}")
        self._store_fields(kind=kind, value=value, lo=lo, hi=hi)

    @classmethod
    def point(cls, value: float) -> "Observation":
        return cls(POINT, value=value)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Observation":
        return cls(INTERVAL, lo=lo, hi=hi)

    @property
    def midpoint(self) -> float:
        if self.kind == POINT:
            return self.value
        return 0.5 * self.lo + 0.5 * self.hi


Row = tuple[tuple[Observation, ...], Observation]

# (lo, hi) float arrays of one column; lo == hi for a point, lo < hi for an interval
Column = tuple[np.ndarray, np.ndarray]


def _midpoints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Observation.midpoint of every cell.

    Halving before adding keeps the midpoint of any finite interval finite.
    A point keeps its value, because halving a subnormal value is inexact.
    """
    return np.where(lo == hi, lo, 0.5 * lo + 0.5 * hi)


class Dataset(Record):
    """Rows of cells as two read-only float arrays lo and hi of shape (rows, features + 1).

    The label is the last column, and a point cell has lo == hi. A dataset
    equals only itself.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, feature_names: Sequence[str], rows: Sequence[Row],
                 label_name: str = "label"):
        names = tuple(str(n) for n in sequence(feature_names, "feature_names", "strings"))
        if not names or len(set(names)) != len(names):
            raise DomainError(f"feature names must be nonempty and distinct: {names!r}")
        cells = []
        for row in rows:
            try:
                features, label = row
                features = tuple(features)
            except (TypeError, ValueError):
                raise DomainError(f"row must be a (features, label) pair, got {row!r}") from None
            if len(features) != len(names):
                raise DomainError(
                    f"row has {len(features)} features, expected {len(names)}")
            cells += features
            cells.append(label)
        for cell in cells:
            if not isinstance(cell, Observation):
                raise DomainError(f"cell must be an Observation, got {cell!r}")
        n = len(cells) // (len(names) + 1)
        if n < 2:
            raise DomainError("dataset needs at least 2 rows")
        lo = np.array([c.value if c.kind == POINT else c.lo for c in cells], dtype=float)
        hi = np.array([c.value if c.kind == POINT else c.hi for c in cells], dtype=float)
        lo, hi = lo.reshape(n, -1), hi.reshape(n, -1)
        lo.flags.writeable = hi.flags.writeable = False
        self._store_fields(feature_names=names, lo=lo, hi=hi, label_name=str(label_name))

    def feature_index(self, feature: str) -> int:
        try:
            return self.feature_names.index(feature)
        except ValueError:
            raise DomainError(f"unknown feature {feature!r}") from None


def parse_cell(text: str) -> Observation:
    """Parse "lo..hi" as an interval, anything else as a number."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            return Observation.interval(float(lo_text), float(hi_text))
        except ValueError as exc:
            raise DomainError(f"malformed interval cell {text!r}") from exc
    try:
        return Observation.point(float(text))
    except ValueError as exc:
        raise DomainError(f"malformed numeric cell {text!r}") from exc


def read_table(text: str, delimiter: str = ",") -> tuple[list[str], Iterator[list[Observation]]]:
    """Split delimited text into its header cells and an iterator over its rows of cells.

    Blank lines are skipped, and blank text has an empty header and no rows.
    Each row is checked and parsed as the iterator reaches it, so a caller
    checks the header before any row; an error names its line of the text.
    A delimiter that is not a non-empty string is a DomainError.
    """
    if not (isinstance(delimiter, str) and delimiter):
        raise DomainError(f"delimiter must be a non-empty string, got {delimiter!r}")
    lines = [(lineno, line) for lineno, line in
             enumerate((raw.strip() for raw in text.splitlines()), start=1) if line]
    header = [h.strip() for h in lines[0][1].split(delimiter)] if lines else []
    return header, (_parse_row(lineno, line, delimiter, len(header)) for lineno, line in lines[1:])


def _parse_row(lineno: int, line: str, delimiter: str, width: int) -> list[Observation]:
    """The cells of one table line, which must number width."""
    cells = line.split(delimiter)
    if len(cells) != width:
        raise DomainError(f"line {lineno}: expected {width} cells, got {len(cells)}")
    try:
        return [parse_cell(c) for c in cells]
    except DomainError as exc:
        raise DomainError(f"line {lineno}: {exc}") from exc


def parse_dataset(text: str, delimiter: str = ",") -> Dataset:
    """Parse delimited text: a header line, then one row per line.

    The last column is the label. Blank lines are skipped.
    """
    header, rows = read_table(text, delimiter)
    if len(header) == 1:
        raise DomainError("dataset needs at least one feature column and a label column")
    rows = [(row[:-1], row[-1]) for row in rows]
    if not rows:
        raise DomainError("dataset text needs a header line and at least one row")
    return Dataset(header[:-1], rows, label_name=header[-1])


class Leaf(Record):
    def __init__(self, prediction: float, count: int):
        if not is_count(count):
            raise DomainError(f"count must be an integer >= 0, got {count!r}")
        self._store_fields(prediction=finite_float(prediction, "leaf prediction"),
                           count=int(count))


class Split(Record):
    def __init__(self, feature: str, feature_index: int, threshold: float, gain: SoftNumber,
                 left: "TreeNode", right: "TreeNode"):
        threshold = finite_float(threshold, "split threshold")
        if not isinstance(feature, str):
            raise DomainError(f"feature must be a string, got {feature!r}")
        if not is_count(feature_index):
            raise DomainError(f"feature_index must be an integer >= 0, got {feature_index!r}")
        if not isinstance(gain, SoftNumber):
            raise DomainError(f"gain must be a SoftNumber, got {gain!r}")
        for name, child in (("left", left), ("right", right)):
            if not isinstance(child, (Leaf, Split)):
                raise DomainError(f"{name} must be a Leaf or Split, got {child!r}")
        self._store_fields(feature=feature, feature_index=int(feature_index), threshold=threshold,
                           gain=gain, left=left, right=right)


TreeNode = Union[Leaf, Split]


class TreeConfig(Record):
    def __init__(self, max_depth: int = 5, min_rows: int = 4,
                 min_gain: SoftNumber = SoftNumber.zero(), info: InfoConfig = InfoConfig()):
        if not (is_count(max_depth) and max_depth >= 1):
            raise DomainError(f"max_depth must be an integer >= 1, got {max_depth!r}")
        if not (is_count(min_rows) and min_rows >= 2):
            raise DomainError(f"min_rows must be an integer >= 2, got {min_rows!r}")
        if not isinstance(min_gain, SoftNumber):
            raise DomainError(f"min_gain must be a SoftNumber, got {min_gain!r}")
        if not isinstance(info, InfoConfig):
            raise DomainError(f"info must be an InfoConfig, got {info!r}")
        self._store_fields(max_depth=max_depth, min_rows=min_rows, min_gain=min_gain, info=info)


ColumnMoments = tuple[float, float, np.ndarray]


def _column_moments(lo: np.ndarray, hi: np.ndarray, mids: np.ndarray) -> ColumnMoments:
    """Mean and variance of a column with these midpoints, and each midpoint's deviation.

    The variance is that of the midpoints plus the mean spread variance
    (width^2/12, zero for points) of the cells. Each sum is numpy's
    pairwise np.sum, whose error is O(u log n) times the sum of the
    magnitudes of its terms (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, section 4.2), and whose order, unlike a BLAS dot
    product's, does not depend on the CPU. The mean is taken relative to
    the first midpoint, so a constant column has a mean equal to its value
    and deviations of exactly zero. A sum that overflows gives inf or NaN.
    """
    n = len(mids)
    base = float(mids[0])
    with np.errstate(over="ignore", invalid="ignore"):
        mean = base + float(np.add.reduce(mids - base)) / n
        devs = mids - mean
        width = hi - lo
        var = (float(np.add.reduce(devs * devs)) / (n - 1)
               + float(np.add.reduce(width * width / 12.0)) / n)
    return mean, var, devs


def _split_sum(terms: np.ndarray) -> float:
    """The sum of the terms, kept accurate where it cancels.

    One error-free split (ExtractVector of Rump, Ogita and Oishi, Accurate
    floating-point summation part I, SIAM J. Sci. Comput. 31, 2008) at
    sigma = 2^k >= (n + 2) * max|terms| cuts each term into a multiple of
    ulp(sigma), whose sum is exact in any order, and an exact remainder
    below ulp(sigma). Only the remainders' pairwise np.sum rounds, so the
    error bound is np.sum's times about 2n * 2^-53, 4.4e-13 at n = 2,000.
    The covariance of nearly independent columns cancels by factors of
    1e4 and more, and np.sum alone would pass its error, so magnified, on
    to the gain. Terms that are not finite, or so large that sigma would
    overflow, take the plain np.sum.
    """
    top = float(np.maximum.reduce(np.abs(terms)))
    k = math.frexp(top)[1] + (len(terms) + 2).bit_length()
    if not (0.0 < top < math.inf and k < 1024):
        return float(np.add.reduce(terms))
    sigma = math.ldexp(1.0, k)
    high = (sigma + terms) - sigma
    return float(np.add.reduce(high)) + float(np.add.reduce(terms - high))


def fit_joint_model(x: Column, y: Column) -> JointModel:
    """Fit a bivariate Gaussian to (feature, label) columns.

    Cells enter through their midpoints; interval cells also widen the
    column variance by width^2/12 (a uniform draw within the interval).
    Columns without variation cannot support a model, and columns whose
    statistics overflow are a domain error.
    """
    n = len(x[0])
    if n != len(y[0]) or n < 2:
        raise DomainError("need two columns of equal length >= 2")
    return _fit(_column_moments(*x, _midpoints(*x)), _column_moments(*y, _midpoints(*y)))


def _fit(x_moments: ColumnMoments, y_moments: ColumnMoments) -> JointModel:
    """fit_joint_model from the columns' moments; a node computes the label's once.

    The covariance is the _split_sum of the deviation products.
    """
    mean_x, var_x, dev_x = x_moments
    mean_y, var_y, dev_y = y_moments
    with np.errstate(over="ignore", invalid="ignore"):
        cov = _split_sum(dev_x * dev_y) / (len(dev_x) - 1)
    if not all(map(math.isfinite, (mean_x, var_x, mean_y, var_y, cov))):
        raise DomainError("column statistics are not finite; values too large to fit a model")
    if var_x <= 0.0 or var_y <= 0.0:
        raise DegenerateModelError(
            f"column variance vanished (var_x={var_x!r}, var_y={var_y!r})")
    rho = cov / (math.sqrt(var_x) * math.sqrt(var_y))
    rho = max(-MAX_ABS_CORRELATION, min(MAX_ABS_CORRELATION, rho))
    return BivariateGaussianModel(mean_x, mean_y, var_x, var_y, rho)


def build_mixed_sets(col: Column) -> MixedSet:
    """Collect a column into a MixedSet.

    Interval cells merge into maximal open intervals (touching ones
    included), duplicate points collapse, and points falling inside or on a
    merged interval are absorbed into it. The result is in canonical form,
    so it skips MixedSet's checks. Intervals are sorted by their start
    alone: those that share a start merge whatever their order. The points
    are tested against the merged intervals before they are sorted, so
    only the survivors are sorted. A column of points alone returns its
    sorted distinct points without the merge, the same arrays the merge
    would give (12 us instead of 29 us at 800 rows, timeit).
    """
    lo, hi = col
    is_interval = lo < hi
    if not is_interval.any():
        return MixedSet._from_canonical(_distinct(np.sort(lo)), np.empty(0), np.empty(0))
    ivs_lo, ivs_hi = lo.compress(is_interval), hi.compress(is_interval)
    order = ivs_lo.argsort()
    ivs_lo, ivs_hi = ivs_lo[order], ivs_hi[order]
    reach = np.maximum.accumulate(ivs_hi)  # right end of the merged interval so far
    starts = np.empty(len(ivs_lo), dtype=bool)
    starts[0] = True
    np.greater(ivs_lo[1:], reach[:-1], out=starts[1:])
    merged_lo = ivs_lo[starts]
    merged_hi = np.maximum.reduceat(ivs_hi, np.flatnonzero(starts))
    points = lo.compress(~is_interval)
    k = merged_hi.searchsorted(points)  # first merged interval not wholly left
    # a point stays unless it lies in or on that interval
    stays = (k == len(merged_hi)) | (points < merged_lo.take(k, mode="clip"))
    return MixedSet._from_canonical(_distinct(np.sort(points.compress(stays))),
                                    merged_lo, merged_hi)


def _distinct(points: np.ndarray) -> np.ndarray:
    """The sorted points without repeats; of equal ones (0.0 and -0.0) the first stays."""
    # np.unique would be shorter, but it imports numpy.ma, 10-15 ms a process
    distinct = np.empty(len(points), dtype=bool)
    distinct[:1] = True
    np.not_equal(points[1:], points[:-1], out=distinct[1:])
    return points.compress(distinct)


def _gain(x: Column, x_mids: np.ndarray, y_moments: ColumnMoments, y_set: MixedSet,
          cfg: TreeConfig) -> SoftNumber:
    """Gain of feature column x, midpoints x_mids, for the label with these moments and set."""
    try:
        model = _fit(_column_moments(*x, x_mids), y_moments)
    except DegenerateModelError:
        return SoftNumber.zero()
    return soft_mutual_information(model, build_mixed_sets(x), y_set, cfg.info)


def _gains(table: np.ndarray, label: int, y_moments: ColumnMoments, y_set: MixedSet,
           cfg: TreeConfig) -> list[SoftNumber]:
    """The _gain of every feature column of a node table, to the bit, the label being column label.

    The candidates' real parts share the label's y-intervals, so their MI
    is one _gaussian_mutual_information call. An error is the one that
    _gain on each feature in turn raises first.
    """
    lo, hi, mids = table
    gains = [SoftNumber.zero()] * label
    fitted, models, x_sets, failure = [], [], [], None
    for index in range(label):
        try:
            models.append(_fit(_column_moments(lo[index], hi[index], mids[index]), y_moments))
        except DegenerateModelError:
            continue
        except DomainError as err:
            failure = err
            break
        fitted.append(index)
        x_sets.append(build_mixed_sets((lo[index], hi[index])))
    for index, gain in zip(fitted, _gaussian_mutual_information(models, x_sets, y_set,
                                                                cfg.info)):
        gains[index] = gain
    if failure is not None:
        raise failure
    return gains


def split_gain(ds: Dataset, feature: str, cfg: TreeConfig) -> SoftNumber:
    """Soft-MI gain of splitting the dataset on the named feature."""
    index = ds.feature_index(feature)
    x = (ds.lo[:, index], ds.hi[:, index])
    y = (ds.lo[:, -1], ds.hi[:, -1])
    return _gain(x, _midpoints(*x), _column_moments(*y, _midpoints(*y)),
                 build_mixed_sets(y), cfg)


def _median(values: np.ndarray) -> float:
    """statistics.median of the values, which are not NaN.

    np.partition selects the one or two middle values without sorting the
    rest. It is not stable, but equal floats have equal bits except 0.0 and
    -0.0, so only a zero in the middle takes the stable sort, which keeps
    the input order of equal values as statistics.median's sort does.
    """
    n = len(values)
    h = n // 2
    middle = slice(h - 1 + n % 2, h + 1)
    ends = np.partition(values, (middle.start, h))[middle].tolist()
    if 0.0 in ends:
        ends = np.sort(values, kind="stable")[middle].tolist()
    return ends[0] if n % 2 else (ends[0] + ends[1]) / 2


def _leaf(label_mids: np.ndarray) -> Leaf:
    n = len(label_mids)
    try:
        return Leaf(prediction=math.fsum(label_mids.tolist()) / n, count=n)
    except OverflowError:
        raise DomainError("label values are too large to average") from None


def induce(ds: Dataset, cfg: TreeConfig = TreeConfig()) -> TreeNode:
    """Grow a tree greedily, one soft-MI argmax split at a time.

    A node stops splitting when it is too small, too deep, its best gain
    does not exceed cfg.min_gain under cmp, or a split fails to separate
    the rows. Ties in gain go to the lowest feature index.
    """
    table = np.stack((ds.lo.T, ds.hi.T, _midpoints(ds.lo, ds.hi).T))
    return _grow(ds, cfg, table, 0)


def _grow(ds: Dataset, cfg: TreeConfig, table: np.ndarray, depth: int) -> TreeNode:
    """The subtree of a node; table[:, c] holds column c's lo, hi and midpoints on its rows."""
    lo, hi, mids = table
    label = len(ds.feature_names)
    if table.shape[2] < cfg.min_rows or depth >= cfg.max_depth:
        return _leaf(mids[label])
    y = (lo[label], hi[label])
    gains = _gains(table, label, _column_moments(*y, mids[label]), build_mixed_sets(y), cfg)
    # the first of the largest gains, in cmp's order
    best_index = max(range(label), key=lambda index: (gains[index].real, gains[index].soft))
    if cmp(gains[best_index], cfg.min_gain) <= 0:
        return _leaf(mids[label])
    x_mids = mids[best_index]
    threshold = _median(x_mids)
    left = x_mids <= threshold
    if not 0 < np.count_nonzero(left) < len(left):
        return _leaf(mids[label])
    return Split(feature=ds.feature_names[best_index],
                 feature_index=best_index,
                 threshold=threshold,
                 gain=gains[best_index],
                 left=_grow(ds, cfg, table.compress(left, axis=2), depth + 1),
                 right=_grow(ds, cfg, table.compress(~left, axis=2), depth + 1))


def predict(t: TreeNode, features: Sequence[Observation],
            feature_names: Optional[Sequence[str]] = None) -> float:
    """Route an observation vector to a leaf and return its prediction."""
    node = t
    while isinstance(node, Split):
        if node.feature_index >= len(features):
            raise DomainError(
                f"tree refers to feature index {node.feature_index} but only "
                f"{len(features)} features were given")
        if feature_names is not None and (
                node.feature_index >= len(feature_names)
                or feature_names[node.feature_index] != node.feature):
            raise DomainError(
                f"feature schema mismatch at {node.feature!r}")
        if features[node.feature_index].midpoint <= node.threshold:
            node = node.left
        else:
            node = node.right
    return node.prediction


def tree_to_dict(t: TreeNode) -> dict:
    """Structured form of a tree, including each split's gain components."""
    if isinstance(t, Leaf):
        return {"kind": "leaf", "prediction": t.prediction, "count": t.count}
    return {"kind": "split", "feature": t.feature, "feature_index": t.feature_index,
            "threshold": t.threshold, "gain": soft_to_dict(t.gain),
            "left": tree_to_dict(t.left), "right": tree_to_dict(t.right)}


def tree_from_dict(obj: dict) -> TreeNode:
    """The tree of a tree_to_dict record; a malformed record is a DomainError."""
    try:
        return _node_from_dict(obj)
    except RecursionError:
        raise DomainError("tree record is nested too deeply") from None


def _node_from_dict(obj: dict) -> TreeNode:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError(f"tree record must be an object with a 'kind': {obj!r}")
    try:
        if obj["kind"] == "leaf" and is_number(obj["prediction"]):
            return Leaf(prediction=obj["prediction"], count=obj["count"])
        if obj["kind"] == "split" and is_number(obj["threshold"]):
            return Split(feature=obj["feature"], feature_index=obj["feature_index"],
                         threshold=obj["threshold"], gain=soft_from_dict(obj["gain"]),
                         left=_node_from_dict(obj["left"]),
                         right=_node_from_dict(obj["right"]))
    except KeyError as exc:
        raise DomainError(f"tree record is missing field {exc}") from None
    if obj["kind"] not in ("leaf", "split"):
        raise DomainError(f"unknown tree node kind {obj['kind']!r}")
    field = "prediction" if obj["kind"] == "leaf" else "threshold"
    raise DomainError(f"malformed {obj['kind']} record: {field} must be a number")
