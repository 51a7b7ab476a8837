"""Acceptance suite: one test per top-level criterion.

Each test prints a single summary line (visible with -s, and in the
failure report otherwise) and asserts every obligation of its criterion
at the stated tolerance. Nothing here loosens a bound to pass: a
criterion that the implementation cannot meet fails loudly with the
computed-vs-reference numbers in the message.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from softprob.cli import TABLE1_ROWS
from softprob.distributions import (
    BivariateGaussianModel,
    Gaussian,
    JointModel,
    Uniform,
    joint_gaussian_additive,
)
from softprob.information import (
    InfoConfig,
    soft_cross_entropy,
    soft_entropy,
    soft_kld,
    soft_mutual_information,
)
from softprob.moments import MixedSet, soft_expectation, soft_variance
from softprob.probability import (
    IntervalEvent,
    Relation,
    ps2,
    ps_eq,
    ps_interval,
    ps_intersect_point_interval,
    ps_leq,
    ps_lt,
    ps_neq,
    ps_union_point_interval,
)
from softprob.quadrature import QuadratureConfig, integrate_1d, integrate_2d
from softprob.softnum import (
    CONJUGATE,
    SoftNumber,
    cmp,
    from_sp,
    lift,
    soft_abs,
    to_sp,
)
from softprob.tree import (
    Dataset,
    Leaf,
    Observation,
    Split,
    TreeConfig,
    induce,
    predict,
    split_gain,
)

LN2 = math.log(2.0)
PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def _report(n: int, title: str, detail: str = ""):
    line = f"criterion {n} ({title}): PASS"
    if detail:
        line += f" -- {detail}"
    print(line)


# --------------------------------------------------------------------------
# 1. Table 1 reproduction
# --------------------------------------------------------------------------

def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    model = joint_gaussian_additive(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
    misses = []
    for i, (x0, y0, x_iv, y_iv, ref_soft, ref_real, tol_soft, tol_real) in enumerate(
            TABLE1_ROWS, start=1):
        value = soft_mutual_information(model, MixedSet([x0], [x_iv]),
                                        MixedSet([y0], [y_iv]))
        for part, computed, ref, (kind, bound) in (
                ("soft", value.soft, ref_soft, tol_soft),
                ("real", value.real, ref_real, tol_real)):
            delta = abs(computed - ref)
            if kind == "rel":
                delta = delta / abs(ref)
            if delta > bound:
                misses.append(
                    f"row {i} {part}: computed={computed!r} reference={ref!r} "
                    f"{kind}_delta={delta!r} exceeds {bound!r}")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"table-1 run took {elapsed:.2f}s, budget is 10s"
    assert not misses, "table-1 rows outside tolerance:\n" + "\n".join(misses)
    _report(1, "table 1 reproduction", f"5/5 rows in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 2. Closed-form spot checks
# --------------------------------------------------------------------------

def test_criterion_2_closed_form_spot_checks():
    unit = Uniform(0.0, 1.0)

    expectation = soft_expectation(unit, MixedSet([0.5], [(0.0, 0.25)]))
    assert expectation.soft == pytest.approx(0.5, abs=1e-9)
    assert expectation.real == pytest.approx(0.03125, abs=1e-9)

    variance, _ = soft_variance(unit, MixedSet([], [(0.0, 1.0)]))
    assert variance.soft == pytest.approx(0.0, abs=1e-9)
    assert variance.real == pytest.approx(1.0 / 12.0, abs=1e-9)

    kld = soft_kld(unit, Uniform(0.0, 2.0), MixedSet([], [(0.0, 1.0)]))
    assert kld.real == pytest.approx(LN2, abs=1e-9)

    independent = BivariateGaussianModel(0.0, 0.0, 1.0, 1.0, 0.0)
    quadrant = ps2(independent, 0.0, 0.0, Relation.LEQ, Relation.LEQ)
    assert quadrant.soft == pytest.approx(0.558097, abs=1e-6)
    assert quadrant.real == pytest.approx(0.25, abs=1e-6)

    _report(2, "closed-form spot checks",
            "expectation, variance, KLD, and quadrant values match")


# --------------------------------------------------------------------------
# 3. Algebra property suite
# --------------------------------------------------------------------------

def _isclose(a: float, b: float, tol: float = 1e-11) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def test_criterion_3_algebra_properties():
    start = time.perf_counter()
    rng = random.Random(90210)
    cases = 1000

    def rand_soft(scale=10.0):
        return SoftNumber(rng.uniform(-scale, scale), rng.uniform(-scale, scale))

    one = SoftNumber(0.0, 1.0)
    for _ in range(cases):
        x, y, z = rand_soft(), rand_soft(), rand_soft()
        # ring laws
        assert x + y == y + x
        assert x * y == y * x
        s1, s2 = (x + y) + z, x + (y + z)
        assert _isclose(s1.soft, s2.soft) and _isclose(s1.real, s2.real)
        p1, p2 = (x * y) * z, x * (y * z)
        assert _isclose(p1.soft, p2.soft) and _isclose(p1.real, p2.real)
        d1, d2 = x * (y + z), x * y + x * z
        assert _isclose(d1.soft, d2.soft) and _isclose(d1.real, d2.real)
        assert x + SoftNumber.zero() == x
        assert x * one == x
        # nullity: the zero axis is nilpotent
        assert SoftNumber(x.soft, 0.0) * SoftNumber(y.soft, 0.0) == SoftNumber.zero()

    for _ in range(cases):
        s = SoftNumber(rng.uniform(1e-2, 1e2), rng.uniform(1e-2, 1e2))
        back = from_sp(to_sp(s))
        assert abs(back.soft - s.soft) <= 1e-12 * abs(s.soft)
        assert abs(back.real - s.real) <= 1e-12 * abs(s.real)

    grid = [-1.0, -0.5, 0.0, 0.5, 1.0]
    for _ in range(cases):
        x = SoftNumber(rng.choice(grid), rng.choice(grid))
        y = SoftNumber(rng.choice(grid), rng.choice(grid))
        z = SoftNumber(rng.choice(grid), rng.choice(grid))
        assert cmp(x, x) == 0
        assert cmp(x, y) == -cmp(y, x)
        assert cmp(x, y) in (-1, 0, 1)
        if cmp(x, y) <= 0 and cmp(y, z) <= 0:
            assert cmp(x, z) <= 0
        if cmp(x, y) == 0:
            assert x == y

    functions = (
        (math.exp, math.exp, -3.0, 3.0),
        (math.sin, math.cos, -1.0, 1.0),
        (math.log, lambda t: 1.0 / t, 0.2, 5.0),
        (lambda t: t ** 3 - 2.0 * t, lambda t: 3.0 * t * t - 2.0, 1.5, 3.0),
    )
    for _ in range(cases):
        f, df, lo, hi = functions[rng.randrange(len(functions))]
        s = SoftNumber(rng.uniform(-2.0, 2.0), rng.uniform(lo, hi))
        lifted = lift(f, df, s)
        h = 1e-6 * max(1.0, abs(s.real))
        central = (f(s.real + h) - f(s.real - h)) / (2.0 * h)
        assert lifted.real == f(s.real)
        assert lifted.soft == pytest.approx(s.soft * central, rel=1e-5, abs=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"algebra suite took {elapsed:.2f}s, budget is 5s"
    _report(3, "algebra properties", f"4x{cases} randomized cases in {elapsed:.2f}s")


# --------------------------------------------------------------------------
# 4. Soft-probability identity suite
# --------------------------------------------------------------------------

def _random_distribution(rng: random.Random):
    if rng.random() < 0.5:
        return Gaussian(rng.uniform(-2.0, 2.0), rng.uniform(0.25, 4.0))
    lo = rng.uniform(-3.0, 1.0)
    return Uniform(lo, lo + rng.uniform(0.5, 4.0))


def test_criterion_4_soft_probability_identities():
    rng = random.Random(777)

    # single-point decomposition and complement, exact in both components
    for _ in range(1000):
        d = _random_distribution(rng)
        x = rng.uniform(-4.0, 4.0)
        assert ps_lt(d, x) + ps_eq(d, x) == ps_leq(d, x)
        total = ps_eq(d, x) + ps_neq(d, x)
        assert total == SoftNumber(0.0, 1.0)

    # De Morgan on (point, interval) pairs, exact in both components
    for _ in range(1000):
        d = _random_distribution(rng)
        lo = rng.uniform(-3.0, 2.0)
        hi = lo + rng.uniform(0.25, 3.0)
        iv = IntervalEvent(lo, hi, strict=rng.random() < 0.5)
        x = rng.uniform(-4.0, 4.0)
        while x == lo or x == hi:
            x = rng.uniform(-4.0, 4.0)
        both = (ps_union_point_interval(d, x, iv)
                + ps_intersect_point_interval(d, x, iv))
        separate = ps_eq(d, x) + ps_interval(d, iv)
        assert both == separate, (d, x, iv)

    # two-variable decomposition against an independent closed form
    for _ in range(200):
        gx = Gaussian(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        gy = Gaussian(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        j = BivariateGaussianModel(gx.mean, gy.mean, gx.variance, gy.variance, 0.0)
        x, y = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        value = ps2(j, x, y, Relation.LEQ, Relation.LEQ)
        fx, Fx = gx.pdf(x), gx.cdf(x)
        fy, Fy = gy.pdf(y), gy.cdf(y)
        assert value.soft == pytest.approx(fx * Fy + Fx * fy + fx * fy, abs=1e-9)
        assert value.real == pytest.approx(Fx * Fy, abs=1e-9)

    # two-variable decomposition for correlated models
    j = BivariateGaussianModel(0.2, -0.1, 1.0, 2.0, 0.5)
    for _ in range(20):
        x, y = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        total = ps2(j, x, y, Relation.LEQ, Relation.LEQ)
        parts = (ps2(j, x, y, Relation.LT, Relation.LT)
                 + ps2(j, x, y, Relation.EQ, Relation.LT)
                 + ps2(j, x, y, Relation.LT, Relation.EQ)
                 + ps2(j, x, y, Relation.EQ, Relation.EQ))
        assert total.soft == pytest.approx(parts.soft, abs=1e-9)
        assert total.real == pytest.approx(parts.real, abs=1e-9)

    # the four stated observations about equality and inequality events
    zero = SoftNumber.zero()
    for _ in range(200):
        d = Gaussian(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        d2 = Gaussian(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        x, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        leq, lt, eq = ps_leq(d, x), ps_lt(d, x), ps_eq(d, x)
        # observation 1: the events differ, their magnitudes do not
        assert leq != lt
        assert soft_abs(leq, CONJUGATE) == soft_abs(lt, CONJUGATE)
        assert cmp(soft_abs(leq, CONJUGATE), soft_abs(eq, CONJUGATE)) > 0
        assert soft_abs(eq, CONJUGATE) == zero
        # observation 2: denser points get strictly larger equality events
        if d.pdf(x) > d.pdf(y):
            assert cmp(ps_eq(d, x), ps_eq(d, y)) > 0
        # observation 3: the same holds across two different variables
        if d.pdf(x) > d2.pdf(y):
            assert cmp(ps_eq(d, x), ps_eq(d2, y)) > 0
        # observation 4: the magnitude of "at most x" is the classical mass
        assert soft_abs(leq, CONJUGATE).real == d.cdf(x)
        assert soft_abs(leq, CONJUGATE).soft == 0.0

    _report(4, "soft-probability identities",
            "decomposition, De Morgan, 2-D decomposition, observations 1-4")


# --------------------------------------------------------------------------
# 5. Information identity suite
# --------------------------------------------------------------------------

def _random_info_set(rng: random.Random) -> MixedSet:
    points = sorted({rng.uniform(-3.0, 3.0) for _ in range(2)})
    lo = rng.uniform(3.5, 4.5)
    return MixedSet(points, [(lo, lo + rng.uniform(0.5, 2.0))])


class _Generic(JointModel):
    """A Gaussian model seen only through the surface every JointModel has,
    so that mutual information takes the generic quadrature path."""

    def __init__(self, inner: BivariateGaussianModel):
        self.inner = inner

    @property
    def marginal_x(self):
        return self.inner.marginal_x

    @property
    def marginal_y(self):
        return self.inner.marginal_y

    def joint_pdf(self, x, y):
        return self.inner.joint_pdf(x, y)

    def joint_pdf_array(self, x, y):
        return self.inner.joint_pdf_array(x, y)


def test_criterion_5_information_identities():
    rng = random.Random(5150)
    base2 = InfoConfig(log_base=2.0)

    for _ in range(100):
        d = Gaussian(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0))
        ms = _random_info_set(rng)
        assert soft_kld(d, d, ms) == SoftNumber(0.0, 0.0)

    for _ in range(100):
        d = Gaussian(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0))
        d_hat = Gaussian(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0))
        ms = _random_info_set(rng)
        assert soft_cross_entropy(d, d_hat, ms).zlogz == soft_entropy(d, ms).zlogz

    for _ in range(50):
        d = Gaussian(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0))
        d_hat = Gaussian(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0))
        ms = _random_info_set(rng)
        kld = soft_kld(d, d_hat, ms)
        cross = soft_cross_entropy(d, d_hat, ms)
        entropy = soft_entropy(d, ms)
        assert kld.soft == pytest.approx(cross.soft - entropy.soft, abs=1e-9)
        assert kld.real == pytest.approx(cross.real - entropy.real, abs=1e-9)

    for _ in range(25):
        d = Gaussian(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        d_hat = Gaussian(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0))
        full = MixedSet([], [(d.mean - 10.0 * d.sigma, d.mean + 10.0 * d.sigma)])
        assert soft_kld(d, d_hat, full).real >= -1e-9

    for _ in range(10):
        j = BivariateGaussianModel(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                   rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                                   rng.uniform(-0.8, 0.8))
        sx = MixedSet([rng.uniform(-1, 1)], [(1.5, 2.5)])
        sy = MixedSet([rng.uniform(-1, 1)], [(-2.5, -1.5)])
        closed = soft_mutual_information(j, sx, sy)
        generic = soft_mutual_information(_Generic(j), sx, sy)
        assert abs(closed.soft - generic.soft) <= max(1e-8, 1e-6 * abs(closed.soft))
        assert abs(closed.real - generic.real) <= max(1e-8, 1e-6 * abs(closed.real))

    # base change: base-2 components times ln 2 recover base-e components
    d = Gaussian(0.3, 1.4)
    d_hat = Gaussian(-0.2, 2.0)
    ms = MixedSet([0.1, 0.7], [(2.0, 3.0)])
    for nats, bits in (
            (soft_entropy(d, ms), soft_entropy(d, ms, base2)),
            (soft_cross_entropy(d, d_hat, ms), soft_cross_entropy(d, d_hat, ms, base2)),
    ):
        for n_c, b_c in ((nats.zlogz, bits.zlogz), (nats.soft, bits.soft),
                         (nats.real, bits.real)):
            assert abs(b_c * LN2 - n_c) <= 1e-12 * max(1.0, abs(n_c))
    nats = soft_kld(d, d_hat, ms)
    bits = soft_kld(d, d_hat, ms, base2)
    assert abs(bits.soft * LN2 - nats.soft) <= 1e-12 * max(1.0, abs(nats.soft))
    assert abs(bits.real * LN2 - nats.real) <= 1e-12 * max(1.0, abs(nats.real))

    _report(5, "information identities",
            "self-KLD, first-axis, difference, Gibbs, MI forms, base change")


# --------------------------------------------------------------------------
# 6. Quadrature oracle
# --------------------------------------------------------------------------

def _riemann_1d(f, a: float, b: float, cells: int = 200_000) -> float:
    xs = np.linspace(a, b, cells, endpoint=False)
    h = (b - a) / cells
    return float(np.sum(f(xs + 0.5 * h)) * h)


def _riemann_2d(f, ax, bx, ay, by, cells: int = 1000) -> float:
    xs = np.linspace(ax, bx, cells, endpoint=False)
    ys = np.linspace(ay, by, cells, endpoint=False)
    hx = (bx - ax) / cells
    hy = (by - ay) / cells
    gx, gy = np.meshgrid(xs + 0.5 * hx, ys + 0.5 * hy, indexing="ij")
    return float(np.sum(f(gx, gy)) * hx * hy)


def _std_phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


BATTERY_1D = (
    (lambda x: x * x, 0.0, 3.0),
    (lambda x: x ** 5 - 3.0 * x + 1.0, -2.0, 2.0),
    (np.sin, 0.0, math.pi),
    (lambda x: np.cos(3.0 * x) + 1.5, 0.0, 2.0),
    (np.exp, -1.0, 2.0),
    (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0),
    (lambda x: x * np.exp(-x * x), 0.0, 2.0),
    (lambda x: np.sqrt(1.0 + x), 0.0, 8.0),
    (lambda x: np.log(1.0 + x * x), -1.0, 3.0),
    (_std_phi, -3.0, 3.0),
    (lambda x: np.exp(-0.5 * ((x - 0.3) / 0.05) ** 2), 0.0, 1.0),
    (lambda x: np.sin(50.0 * x) + 2.0, 0.0, 3.0),
    (lambda x: np.exp(-x) * np.cos(10.0 * x) + 2.0, 0.0, 5.0),
    (lambda x: x ** 10, 0.0, 1.0),
    (lambda x: np.tanh(5.0 * x) + 2.0, -2.0, 2.0),
    (lambda x: 1.0 / (2.0 + np.sin(x)), 0.0, 10.0),
    (lambda x: np.exp(-np.abs(x)), -1.0, 2.0),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
    (_std_phi, 20.0, 21.0),  # tail mass below 1e-50
)


def test_criterion_6_quadrature_oracle():
    checked = 0
    for f, a, b in BATTERY_1D:
        adaptive = integrate_1d(f, a, b)
        brute = _riemann_1d(f, a, b)
        assert abs(adaptive - brute) <= 1e-3 * abs(brute), (a, b, adaptive, brute)
        checked += 1

    tail = integrate_1d(_std_phi, 20.0, 21.0)
    assert 0.0 < tail < 1e-50

    f2 = lambda x, y: np.exp(-x * x - y * y)
    adaptive = integrate_2d(f2, 0.0, 1.0, 0.0, 1.0)
    brute = _riemann_2d(f2, 0.0, 1.0, 0.0, 1.0, cells=1000)
    assert abs(adaptive - brute) <= 1e-3 * abs(brute)
    checked += 1

    assert checked == 20
    _report(6, "quadrature oracle", "20 integrands within 1e-3 of brute force")


# --------------------------------------------------------------------------
# 7. Tree behavior
# --------------------------------------------------------------------------

def _tree_rows(seed: int, n: int = 200, interval_fraction: float = 0.0) -> list:
    """y = x1 + noise with variance 0.25; x2 is independent noise."""
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
    return rows


def _tree_dataset(seed: int, n: int = 200, interval_fraction: float = 0.0) -> Dataset:
    return Dataset(["x1", "x2"], _tree_rows(seed, n, interval_fraction), label_name="y")


def _oracle_point_mi(model, xs, ys) -> float:
    """Dense-grid soft mutual information over all point pairs, in numpy."""
    gx = np.asarray(xs)[:, None]
    gy = np.asarray(ys)[None, :]
    vx, vy, rho = model.var_x, model.var_y, model.rho
    zx = (gx - model.mean_x) / math.sqrt(vx)
    zy = (gy - model.mean_y) / math.sqrt(vy)
    norm = 2.0 * math.pi * math.sqrt(vx * vy * (1.0 - rho * rho))
    joint = np.exp(-(zx * zx - 2.0 * rho * zx * zy + zy * zy)
                   / (2.0 * (1.0 - rho * rho))) / norm
    fx = np.exp(-0.5 * zx * zx) / math.sqrt(2.0 * math.pi * vx)
    fy = np.exp(-0.5 * zy * zy) / math.sqrt(2.0 * math.pi * vy)
    return float(np.sum(joint * np.log(joint / (fx * fy))))


def _leaf_rows(node) -> int:
    if isinstance(node, Leaf):
        return node.count
    return _leaf_rows(node.left) + _leaf_rows(node.right)


def _assert_tree_bounds(node, depth: int, cfg: TreeConfig):
    if isinstance(node, Leaf):
        assert node.count >= 1
        return
    assert depth < cfg.max_depth
    assert _leaf_rows(node) >= cfg.min_rows
    _assert_tree_bounds(node.left, depth + 1, cfg)
    _assert_tree_bounds(node.right, depth + 1, cfg)


def test_criterion_7_tree_behavior():
    from softprob.tree import build_mixed_sets, fit_joint_model

    cfg = TreeConfig(max_depth=1)
    for seed in range(20):
        ds = _tree_dataset(seed)
        gains = [split_gain(ds, name, cfg) for name in ds.feature_names]
        package_best = 0 if cmp(gains[0], gains[1]) >= 0 else 1

        oracle_values = []
        for index in range(2):
            feature_col = (ds.lo[:, index], ds.hi[:, index])
            label_col = (ds.lo[:, -1], ds.hi[:, -1])
            model = fit_joint_model(feature_col, label_col)
            sx = build_mixed_sets(feature_col)
            sy = build_mixed_sets(label_col)
            oracle_values.append(_oracle_point_mi(model, sx.points, sy.points))
        oracle_best = 0 if oracle_values[0] >= oracle_values[1] else 1

        assert package_best == 0, f"seed {seed}: package picked x2"
        assert oracle_best == 0, f"seed {seed}: oracle picked x2"
        for gain, oracle in zip(gains, oracle_values):
            assert gain.soft == pytest.approx(oracle, rel=1e-9, abs=1e-12)

        root = induce(ds, cfg)
        assert isinstance(root, Split)
        assert root.feature == "x1"

    bounded = _tree_dataset(3, n=120, interval_fraction=0.25)
    bounds_cfg = TreeConfig(max_depth=3, min_rows=10)
    _assert_tree_bounds(induce(bounded, bounds_cfg), 0, bounds_cfg)

    train = _tree_rows(0)
    held_out = _tree_rows(100, n=100)
    tree = induce(Dataset(["x1", "x2"], train, label_name="y"),
                  TreeConfig(max_depth=3, min_rows=8))
    global_mean = statistics.fmean(label.midpoint for _, label in train)
    sq_tree, sq_mean = [], []
    for features, label in held_out:
        truth = label.midpoint
        sq_tree.append((predict(tree, features) - truth) ** 2)
        sq_mean.append((global_mean - truth) ** 2)
    rmse_tree = math.sqrt(statistics.fmean(sq_tree))
    rmse_mean = math.sqrt(statistics.fmean(sq_mean))
    assert rmse_tree < rmse_mean, (rmse_tree, rmse_mean)

    _report(7, "tree behavior",
            f"20/20 roots on x1; RMSE {rmse_tree:.3f} < {rmse_mean:.3f}")
