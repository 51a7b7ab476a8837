"""Decision-tree induction driven by soft mutual information.

Rows may mix exact samples with interval observations. Each candidate
split fits a bivariate Gaussian to (feature, label), collects both columns
into MixedSets, and scores the feature by soft mutual information; the
soft-number total order then picks the winner, so interval evidence (real
part) dominates and point evidence (soft part) breaks ties.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .distributions import BivariateGaussianModel, JointModel
from .errors import DegenerateModelError, DomainError
from .information import InfoConfig, soft_mutual_information
from .moments import MixedSet
from .softnum import SoftNumber, cmp, soft_from_dict, soft_to_dict

MAX_ABS_CORRELATION = 0.999

POINT = "point"
INTERVAL = "interval"


@dataclass(frozen=True)
class Observation:
    """A single measured value, either exact or known only to an interval."""

    kind: str
    value: Optional[float] = None
    lo: Optional[float] = None
    hi: Optional[float] = None

    def __post_init__(self):
        if self.kind == POINT:
            if self.value is None or not math.isfinite(self.value):
                raise DomainError(f"point observation needs a finite value, got {self.value!r}")
        elif self.kind == INTERVAL:
            if (self.lo is None or self.hi is None
                    or not (math.isfinite(self.lo) and math.isfinite(self.hi))
                    or not self.lo < self.hi):
                raise DomainError(
                    f"interval observation needs finite lo < hi, got ({self.lo!r}, {self.hi!r})")
        else:
            raise DomainError(f"unknown observation kind {self.kind!r}")

    @classmethod
    def point(cls, value: float) -> "Observation":
        return cls(POINT, value=float(value))

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Observation":
        return cls(INTERVAL, lo=float(lo), hi=float(hi))

    @property
    def midpoint(self) -> float:
        if self.kind == POINT:
            return self.value
        return 0.5 * (self.lo + self.hi)

    @property
    def spread_variance(self) -> float:
        """Variance of a uniform draw within the observation: 0 for points."""
        if self.kind == POINT:
            return 0.0
        w = self.hi - self.lo
        return w * w / 12.0


Row = tuple[tuple[Observation, ...], Observation]


@dataclass(frozen=True)
class Dataset:
    feature_names: tuple[str, ...]
    rows: tuple[Row, ...]
    label_name: str = "label"

    def __init__(self, feature_names: Sequence[str], rows: Sequence[Row],
                 label_name: str = "label"):
        names = tuple(str(n) for n in feature_names)
        if not names or len(set(names)) != len(names):
            raise DomainError(f"feature names must be nonempty and distinct: {names!r}")
        packed = []
        for features, label in rows:
            features = tuple(features)
            if len(features) != len(names):
                raise DomainError(
                    f"row has {len(features)} features, expected {len(names)}")
            packed.append((features, label))
        if len(packed) < 2:
            raise DomainError("dataset needs at least 2 rows")
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "rows", tuple(packed))
        object.__setattr__(self, "label_name", str(label_name))

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


def parse_dataset(text: str, delimiter: str = ",") -> Dataset:
    """Parse delimited text: a header line, then one row per line.

    The last column is the label. Blank lines are skipped.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) < 2:
        raise DomainError("dataset text needs a header line and at least one row")
    header = [h.strip() for h in lines[0].split(delimiter)]
    if len(header) < 2:
        raise DomainError("dataset needs at least one feature column and a label column")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(delimiter)]
        if len(cells) != len(header):
            raise DomainError(
                f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
        try:
            obs = [parse_cell(c) for c in cells]
        except DomainError as exc:
            raise DomainError(f"line {lineno}: {exc}") from exc
        rows.append((tuple(obs[:-1]), obs[-1]))
    return Dataset(header[:-1], rows, label_name=header[-1])


@dataclass(frozen=True)
class Leaf:
    prediction: float
    count: int


@dataclass(frozen=True)
class Split:
    feature: str
    feature_index: int
    threshold: float
    gain: SoftNumber
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Split]


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int = 5
    min_rows: int = 4
    min_gain: SoftNumber = SoftNumber.zero()
    info: InfoConfig = field(default_factory=InfoConfig)

    def __post_init__(self):
        if self.max_depth < 1:
            raise DomainError(f"max_depth must be >= 1, got {self.max_depth!r}")
        if self.min_rows < 2:
            raise DomainError(f"min_rows must be >= 2, got {self.min_rows!r}")


def _column_stats(col: Sequence[Observation]) -> tuple[float, float, list[float]]:
    """Mean and variance of a column, plus each midpoint's deviation from the mean.

    Two-pass fsum sums: the variance is that of the midpoints plus the mean
    spread variance of the interval observations. The mean is taken relative
    to the first midpoint, so a constant column has a mean equal to its value
    and deviations of exactly zero.
    """
    mids = [o.midpoint for o in col]
    n = len(mids)
    base = mids[0]
    mean = base + math.fsum(m - base for m in mids) / n
    devs = [m - mean for m in mids]
    var = (math.fsum(d * d for d in devs) / (n - 1)
           + math.fsum(o.spread_variance for o in col) / n)
    return mean, var, devs


def fit_joint_model(feature_col: Sequence[Observation],
                    label_col: Sequence[Observation]) -> JointModel:
    """Fit a bivariate Gaussian to (feature, label) observation columns.

    Observations enter through their midpoints; interval observations also
    widen the column variance by width^2/12 (a uniform draw within the
    interval). Columns without variation cannot support a model, and
    columns whose statistics overflow are a domain error.
    """
    if len(feature_col) != len(label_col) or len(feature_col) < 2:
        raise DomainError("need two columns of equal length >= 2")
    try:
        mean_x, var_x, dev_x = _column_stats(feature_col)
        mean_y, var_y, dev_y = _column_stats(label_col)
        cov = math.fsum(dx * dy for dx, dy in zip(dev_x, dev_y)) / (len(dev_x) - 1)
        finite = all(map(math.isfinite, (mean_x, var_x, mean_y, var_y, cov)))
    except (OverflowError, ValueError):  # fsum overflowing or meeting inf - inf
        finite = False
    if not finite:
        raise DomainError("column statistics are not finite; values too large to fit a model")
    if var_x <= 0.0 or var_y <= 0.0:
        raise DegenerateModelError(
            f"column variance vanished (var_x={var_x!r}, var_y={var_y!r})")
    rho = cov / (math.sqrt(var_x) * math.sqrt(var_y))
    rho = max(-MAX_ABS_CORRELATION, min(MAX_ABS_CORRELATION, rho))
    return BivariateGaussianModel(mean_x, mean_y, var_x, var_y, rho)


def build_mixed_sets(col: Sequence[Observation]) -> MixedSet:
    """Collect a column into a MixedSet.

    Interval observations merge into maximal open intervals (touching ones
    included), duplicate points collapse, and points falling inside or on a
    merged interval are absorbed into it.
    """
    raw = sorted((o.lo, o.hi) for o in col if o.kind == INTERVAL)
    merged: list[tuple[float, float]] = []
    for lo, hi in raw:
        if merged and lo <= merged[-1][1]:
            last_lo, last_hi = merged[-1]
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    points = sorted(set(o.value for o in col if o.kind == POINT))
    kept = [p for p in points
            if not any(lo <= p <= hi for lo, hi in merged)]
    return MixedSet(kept, merged)


def _gain(rows: Sequence[Row], index: int, cfg: TreeConfig) -> SoftNumber:
    feature_col = [features[index] for features, _ in rows]
    label_col = [label for _, label in rows]
    try:
        model = fit_joint_model(feature_col, label_col)
    except DegenerateModelError:
        return SoftNumber.zero()
    sx = build_mixed_sets(feature_col)
    sy = build_mixed_sets(label_col)
    return soft_mutual_information(model, sx, sy, cfg.info)


def split_gain(ds: Dataset, feature: str, cfg: TreeConfig) -> SoftNumber:
    """Soft-MI gain of splitting the dataset on the named feature."""
    return _gain(ds.rows, ds.feature_index(feature), cfg)


def _leaf(rows: Sequence[Row]) -> Leaf:
    return Leaf(prediction=statistics.fmean(label.midpoint for _, label in rows),
                count=len(rows))


def induce(ds: Dataset, cfg: TreeConfig = TreeConfig()) -> TreeNode:
    """Grow a tree greedily, one soft-MI argmax split at a time.

    A node stops splitting when it is too small, too deep, its best gain
    does not exceed cfg.min_gain under cmp, or a split fails to separate
    the rows. Ties in gain go to the lowest feature index.
    """

    def grow(rows: Sequence[Row], depth: int) -> TreeNode:
        if len(rows) < cfg.min_rows or depth >= cfg.max_depth:
            return _leaf(rows)
        best_index = 0
        best_gain = _gain(rows, 0, cfg)
        for index in range(1, len(ds.feature_names)):
            gain = _gain(rows, index, cfg)
            if cmp(gain, best_gain) > 0:
                best_index, best_gain = index, gain
        if cmp(best_gain, cfg.min_gain) <= 0:
            return _leaf(rows)
        threshold = statistics.median(
            features[best_index].midpoint for features, _ in rows)
        left_rows = [r for r in rows if r[0][best_index].midpoint <= threshold]
        right_rows = [r for r in rows if r[0][best_index].midpoint > threshold]
        if not left_rows or not right_rows:
            return _leaf(rows)
        return Split(feature=ds.feature_names[best_index],
                     feature_index=best_index,
                     threshold=threshold,
                     gain=best_gain,
                     left=grow(left_rows, depth + 1),
                     right=grow(right_rows, depth + 1))

    return grow(ds.rows, 0)


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
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError(f"tree record must be an object with a 'kind': {obj!r}")
    try:
        if obj["kind"] == "leaf":
            return Leaf(prediction=float(obj["prediction"]), count=int(obj["count"]))
        if obj["kind"] == "split":
            return Split(feature=str(obj["feature"]),
                         feature_index=int(obj["feature_index"]),
                         threshold=float(obj["threshold"]),
                         gain=soft_from_dict(obj["gain"]),
                         left=tree_from_dict(obj["left"]),
                         right=tree_from_dict(obj["right"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed tree record: {exc}") from exc
    raise DomainError(f"unknown tree node kind {obj['kind']!r}")
