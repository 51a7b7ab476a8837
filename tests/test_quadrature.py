"""Tests for the adaptive Gauss-Legendre integrators."""

import math
import warnings

import numpy as np
import pytest

from softprob.errors import ConvergenceError, DomainError
from softprob.quadrature import (
    BLOCK,
    DEFAULT_1D,
    PANEL_CAP,
    MAX_DEPTH,
    PIECE_PANELS,
    QuadratureConfig,
    QuadStats,
    _NODES,
    _WEIGHTS,
    _estimates,
    blocks,
    collect_stats,
    integrate_1d,
    integrate_2d,
    integrate_pieces,
    total_stats,
)


def test_rule_is_numpys_16_point_gauss_legendre_to_the_bit():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert _NODES.tobytes() == nodes.tobytes()
    assert _WEIGHTS.tobytes() == weights.tobytes()


def phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def riemann_1d(f, a: float, b: float, cells: int = 10 ** 6) -> float:
    xs = a + (np.arange(cells) + 0.5) * ((b - a) / cells)
    return float(np.sum(f(xs)) * ((b - a) / cells))


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_1D.rel_tol == 1e-9

    def test_invalid_settings_rejected(self):
        with pytest.raises(DomainError):
            QuadratureConfig(rel_tol=-1.0)


class TestIntegrate1D:
    def test_monomial(self):
        assert abs(integrate_1d(lambda x: x * x, 0.0, 1.0) - 1.0 / 3.0) < 1e-12

    def test_constant(self):
        assert integrate_1d(np.ones_like, 0.0, 1.0) == pytest.approx(1.0, abs=1e-13)

    def test_gaussian_density_vs_riemann(self):
        got = integrate_1d(phi, 1.0, 2.0)
        want = riemann_1d(lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi),
                          1.0, 2.0)
        assert abs(got - want) < 1e-6

    def test_linearity(self):
        f = np.sin
        g = lambda x: x ** 3
        lhs = integrate_1d(lambda x: 2.0 * f(x) + 3.0 * g(x), 0.0, 2.0)
        rhs = 2.0 * integrate_1d(f, 0.0, 2.0) + 3.0 * integrate_1d(g, 0.0, 2.0)
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)

    def test_interval_additivity(self):
        whole = integrate_1d(phi, -1.0, 2.0)
        parts = integrate_1d(phi, -1.0, 0.5) + integrate_1d(phi, 0.5, 2.0)
        assert math.isclose(whole, parts, rel_tol=1e-9, abs_tol=1e-12)

    def test_deterministic_reruns(self):
        first = integrate_1d(lambda x: np.exp(np.sin(3 * x)), 0.0, 5.0)
        second = integrate_1d(lambda x: np.exp(np.sin(3 * x)), 0.0, 5.0)
        assert first == second

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(DomainError):
            integrate_1d(phi, 1.0, 1.0)
        with pytest.raises(DomainError):
            integrate_1d(phi, 2.0, 1.0)

    def test_non_finite_sample_rejected(self):
        with pytest.raises(DomainError):
            integrate_1d(lambda x: np.full_like(x, math.nan), 0.0, 1.0)

    def test_non_finite_value_is_named(self):
        # finite in the first round, NaN at the last node of the second
        seen = []

        def f(xs):
            seen.append(xs)
            values = np.sin(20.0 * xs)
            if len(seen) == 2:
                values[-1] = math.nan
            return values

        with pytest.raises(DomainError) as err:
            integrate_1d(f, 0.0, 4.0)
        assert len(seen) == 2 and len(seen[1]) % 64 == 0
        assert f"nan at x={float(seen[1][-1])!r}" in str(err.value)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DomainError, match="shape"):
            integrate_1d(lambda xs: 1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="shape"):
            integrate_1d(lambda xs: np.ones((len(xs), 1)), 0.0, 1.0)

    def test_one_call_per_refinement_step(self):
        # the first round evaluates each piece's whole and both halves,
        # every later one the halves of both children of each split panel
        for pieces in ([(0.0, 4.0)], [(0.0, 1.0), (1.5, 4.0), (5.0, 9.0)]):
            sizes = []

            def f(xs):
                sizes.append(len(xs))
                return np.sin(20.0 * xs)

            with collect_stats() as records:
                integrate_pieces(f, pieces)
            assert sizes[0] == 48 * len(pieces)
            assert len(sizes) > 2 and all(n % 64 == 0 for n in sizes[1:])
            [stats] = records
            assert (stats.calls, stats.nodes) == (len(sizes), sum(sizes))

    def test_interval_wider_than_the_largest_float(self):
        # b - a overflows; midpoints and half-widths must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate_1d(lambda xs: np.full_like(xs, 1e-300), -1e308, 1.5e308)
        assert got == pytest.approx(2.5e8, rel=1e-12)

    def test_convergence_error_carries_best_estimate(self):
        cfg = QuadratureConfig(rel_tol=1e-15)
        # no panel MAX_DEPTH levels down resolves a step at pi/8 to 1e-15;
        # one panel a round is split, the one holding the step
        with pytest.raises(ConvergenceError, match=f"at depth {MAX_DEPTH}, ") as err:
            integrate_1d(lambda x: np.where(x < math.pi / 8.0, 0.0, 1.0), 0.0, 1.0, cfg)
        exact = 1.0 - math.pi / 8.0
        assert err.value.best_estimate == pytest.approx(exact, rel=1e-8)
        stats = err.value.stats
        assert (stats.stuck, stats.max_depth) == (1, MAX_DEPTH)
        assert (stats.calls, stats.nodes) == (MAX_DEPTH, 48 + 64 * (MAX_DEPTH - 1))
        assert stats.error > 1e-15 * exact

    def test_noise_hits_the_panel_cap(self):
        # rounding noise around a total of 0 meets no relative tolerance:
        # every round doubles the panels until the cap stops the run
        rng = np.random.default_rng(7)
        sizes = []

        def noise(xs):
            sizes.append(len(xs))
            return 1e-17 * rng.standard_normal(len(xs))

        with pytest.raises(ConvergenceError, match="panels") as err:
            integrate_1d(noise, 0.0, 1.0)
        stats = err.value.stats
        assert abs(err.value.best_estimate) < 1e-15
        assert stats.panels <= PANEL_CAP + PIECE_PANELS and stats.stuck == 0
        assert stats.nodes <= 64 * (PANEL_CAP + PIECE_PANELS)
        assert (stats.calls, stats.nodes) == (len(sizes), sum(sizes))
        assert max(sizes) <= BLOCK

    def test_error_names_the_first_pieces_only(self):
        pieces = [(float(k), k + 0.5) for k in range(1000)]
        cfg = QuadratureConfig(rel_tol=1e-15)
        with pytest.raises(ConvergenceError, match="need refining") as err:
            integrate_pieces(lambda xs: np.where(xs < math.pi / 8.0, 0.0, 1.0), pieces, cfg)
        message = str(err.value)
        assert "over (0.0, 0.5), (1.0, 1.5), (2.0, 2.5) and 997 more pieces" in message
        assert len(message) < 300

    def test_many_pieces_that_need_refining_converge(self):
        # more pieces than PANEL_CAP, every one refined: the cap grows with
        # the pieces, and no call evaluates more than BLOCK nodes
        pieces = [(float(k), k + 0.9) for k in range(PANEL_CAP + 1000)]
        sizes = []

        def f(xs):
            sizes.append(len(xs))
            return np.sin(120.0 * xs)

        with collect_stats() as records:
            got = integrate_pieces(f, pieces)
        [stats] = records
        assert stats.panels > 4 * len(pieces) and stats.max_depth >= 3
        assert (stats.calls, stats.nodes) == (len(sizes), sum(sizes))
        assert max(sizes) <= BLOCK
        exact = math.fsum((math.cos(120.0 * a) - math.cos(120.0 * b)) / 120.0
                          for a, b in pieces)
        assert abs(got - exact) <= stats.error + 1e-15


class TestIntegratePieces:
    # (integrand, pieces, exact value); the last two change sign
    KNOWN = [
        (lambda x: x * x, [(0.0, 1.0)], 1.0 / 3.0),
        (phi, [(-3.0, 0.0), (0.0, 2.0)], 0.5 * (math.erf(2.0 / math.sqrt(2.0))
                                               + math.erf(3.0 / math.sqrt(2.0)))),
        (lambda x: np.exp(-x) / (1.0 + x), [(0.0, 0.5), (0.5, 30.0)], None),
        (lambda x: 1.0 / x, [(1e-6, 1.0)], math.log(1e6)),
        (np.sin, [(0.0, 40.0)], 1.0 - math.cos(40.0)),
        (lambda x: np.cos(7.0 * x) * np.exp(-0.1 * x), [(0.0, 3.0), (3.0, 50.0)],
         (0.1 - math.exp(-5.0) * (0.1 * math.cos(350.0) - 7.0 * math.sin(350.0))) / 49.01),
    ]

    @pytest.mark.parametrize("k", range(len(KNOWN)))
    def test_error_estimate_bounds_the_true_error(self, k):
        f, pieces, exact = self.KNOWN[k]
        if exact is None:
            scipy_special = pytest.importorskip("scipy.special")
            exact = math.e * float(scipy_special.exp1(1.0) - scipy_special.exp1(31.0))
        for cfg in (QuadratureConfig(rel_tol=1e-5), DEFAULT_1D, QuadratureConfig(rel_tol=1e-13)):
            with collect_stats() as records:
                got = integrate_pieces(f, pieces, cfg)
            [stats] = records
            # a few ulps of slack: a first-round estimate can be exact
            assert abs(got - exact) <= stats.error + 8 * 2.0 ** -52 * abs(exact)

    def test_deterministic_reruns(self):
        f = lambda x: np.exp(np.sin(3 * x))
        pieces = [(0.0, 1.0), (1.0, 2.5), (4.0, 5.0)]
        assert integrate_pieces(f, pieces) == integrate_pieces(f, pieces)

    def test_panel_estimate_does_not_depend_on_its_batch(self):
        lo = np.linspace(0.0, 3.0, 40)
        hi = lo + np.linspace(0.1, 2.0, 40)
        f = lambda x: np.exp(np.sin(3 * x)) / (1.0 + x * x)
        lone = [float(_estimates(f, lo[i:i + 1], hi[i:i + 1])[0][0]) for i in range(40)]
        for k in (2, 3, 5, 7, 9, 17, 40):
            assert _estimates(f, lo[:k], hi[:k])[0].tolist() == lone[:k]
        # and past a block of panels, where a round takes several calls
        tiles = BLOCK // (16 * 20)
        estimates, calls = _estimates(f, np.tile(lo, tiles), np.tile(hi, tiles))
        assert calls > 1
        assert estimates.tolist() == lone * tiles

    def test_pieces_that_converge_at_once_sum_exactly(self):
        # a cubic is exact on every panel, so no piece is refined and the
        # run's result is the fsum of the lone runs'
        f = lambda x: x ** 3 - 2.0 * x
        pieces = [(-2.0, -1.0), (-0.5, 0.25), (0.25, 3.0)]
        with collect_stats() as records:
            got = integrate_pieces(f, pieces)
        assert records[0].calls == 1
        assert got == math.fsum(integrate_1d(f, a, b) for a, b in pieces)

    def test_no_pieces_make_no_call(self):
        with collect_stats() as records:
            assert integrate_pieces(lambda xs: 1 / 0, []) == 0.0
        assert records == []

    def test_bad_piece_rejected(self):
        with pytest.raises(DomainError):
            integrate_pieces(phi, [(0.0, 1.0), (2.0, 2.0)])
        with pytest.raises(DomainError):
            integrate_pieces(phi, [(0.0, math.inf)])


class TestStats:
    def test_collector_is_opt_in_and_nests(self):
        integrate_1d(phi, 0.0, 1.0)  # no collector open: nothing to record
        with collect_stats() as outer:
            integrate_1d(phi, 0.0, 1.0)
            with collect_stats() as inner:
                integrate_1d(phi, 0.0, 2.0)
            integrate_1d(phi, 0.0, 3.0)
        assert len(outer) == 2 and len(inner) == 1
        assert all(isinstance(r, QuadStats) for r in outer + inner)

    def test_totals(self):
        a = QuadStats(nodes=48, calls=1, panels=1, max_depth=1, error=0.25, stuck=0)
        b = QuadStats(nodes=240, calls=4, panels=4, max_depth=4, error=0.5, stuck=1)
        assert total_stats([a, b]) == QuadStats(nodes=288, calls=5, panels=5, max_depth=4,
                                                error=0.75, stuck=1)
        assert total_stats([]) == QuadStats(0, 0, 0, 0, 0.0, 0)


class TestBlocks:
    # (width, rows a block): 1,024 panels of 16 nodes, and the rows that the
    # point-pair sums took for 20 Chebyshev nodes, 128 and 800 points a row
    STEPS = [(0, BLOCK), (16, 1024), (20, 819), (128, 128), (800, 20), (BLOCK + 1, 1),
             (3 * BLOCK, 1)]

    @pytest.mark.parametrize("rows", [0, 1, 20, 819, 820, 2500])
    @pytest.mark.parametrize("width, step", STEPS)
    def test_blocks_partition_the_rows_in_order(self, rows, width, step):
        got = list(blocks(rows, width))
        assert [i for block in got for i in range(rows)[block]] == list(range(rows))
        assert [len(range(rows)[block]) for block in got] == (
            [step] * (rows // step) + ([rows % step] if rows % step else []))


def elementwise(f):
    """2-D integrand from a formula that may not broadcast, such as a constant:
    f(x, y) spread over the broadcast shape of x and y."""
    return lambda x, y: np.broadcast_to(f(x, y), np.broadcast_shapes(x.shape, y.shape))


class TestIntegrate2D:
    def test_separable_polynomial(self):
        got = integrate_2d(lambda x, y: x * y, 0.0, 1.0, 0.0, 1.0)
        assert abs(got - 0.25) < 1e-12

    def test_unit_area(self):
        got = integrate_2d(elementwise(lambda x, y: 1.0), 0.0, 1.0, 0.0, 1.0)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_product_factorizes(self):
        got = integrate_2d(lambda x, y: phi(x) * phi(y),
                           1.0, 2.0, 1.0, 2.0)
        one_dim = integrate_1d(phi, 1.0, 2.0)
        assert math.isclose(got, one_dim * one_dim, rel_tol=1e-7)

    def test_deterministic_reruns(self):
        f = lambda x, y: np.exp(-x * y) * np.cos(x + y)
        assert integrate_2d(f, 0.0, 2.0, 0.0, 2.0) == integrate_2d(f, 0.0, 2.0, 0.0, 2.0)

    def test_non_finite_sample_rejected(self):
        with pytest.raises(DomainError):
            integrate_2d(elementwise(lambda x, y: math.inf), 0.0, 1.0, 0.0, 1.0)

    def test_non_finite_grid_value_is_named(self):
        # finite on the nodes of the first call, NaN at the last node of the second
        seen = []

        def f(x, y):
            seen.append((x, y))
            values = np.ones(np.broadcast_shapes(x.shape, y.shape))
            if len(seen) == 2:
                values[-1] = math.nan
            return values

        with pytest.raises(DomainError) as err:
            integrate_2d(f, 0.0, 1.0, 0.0, 1.0)
        assert len(seen) == 2
        x, ys = seen[1]
        assert f"nan at ({float(x[0])!r}, {float(ys[-1])!r})" in str(err.value)

    def test_wrong_grid_shape_rejected(self):
        # a column is f(np.array([x]), ys) of shape ys.shape, not (len(ys), 1)
        with pytest.raises(DomainError, match="shape"):
            integrate_2d(lambda x, y: np.outer(y, x), 0.0, 1.0, 0.0, 1.0)

    def test_rectangle_wider_than_the_largest_float(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate_2d(elementwise(lambda x, y: 1e-300), 0.0, 1.0, -1e308, 1.5e308)
        assert got == pytest.approx(2.5e8, rel=1e-12)

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(DomainError):
            integrate_2d(elementwise(lambda x, y: 1.0), 0.0, 1.0, 1.0, 1.0)
