"""Tests for the adaptive Gauss-Legendre integrators."""

import math
import warnings

import numpy as np
import pytest

from softprob.errors import ConvergenceError, DomainError
from softprob.quadrature import (
    DEFAULT_1D,
    DEFAULT_2D,
    QuadratureConfig,
    integrate_1d,
    integrate_2d,
)


def phi(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def riemann_1d(f, a: float, b: float, cells: int = 10 ** 6) -> float:
    xs = a + (np.arange(cells) + 0.5) * ((b - a) / cells)
    return float(np.sum(f(xs)) * ((b - a) / cells))


class TestConfig:
    def test_defaults(self):
        assert DEFAULT_1D.rel_tol == 1e-9
        assert DEFAULT_2D.rel_tol == 1e-7

    def test_invalid_settings_rejected(self):
        with pytest.raises(DomainError):
            QuadratureConfig(rel_tol=-1.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_depth=0)


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
        # finite on the whole-interval nodes, NaN at the last refinement node
        seen = []

        def f(xs):
            seen.append(xs)
            values = np.ones_like(xs)
            if len(seen) == 2:
                values[-1] = math.nan
            return values

        with pytest.raises(DomainError) as err:
            integrate_1d(f, 0.0, 1.0, QuadratureConfig(rel_tol=1e-300))
        assert len(seen[1]) == 32
        assert f"nan at x={float(seen[1][-1])!r}" in str(err.value)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DomainError, match="shape"):
            integrate_1d(lambda xs: 1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="shape"):
            integrate_1d(lambda xs: np.ones((len(xs), 1)), 0.0, 1.0)

    def test_one_call_per_refinement_step(self):
        sizes = []

        def f(xs):
            sizes.append(len(xs))
            return np.sin(20.0 * xs)

        integrate_1d(f, 0.0, 4.0)
        assert sizes[0] == 16
        assert len(sizes) > 2 and set(sizes[1:]) == {32}

    def test_interval_wider_than_the_largest_float(self):
        # b - a overflows; midpoints and half-widths must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate_1d(lambda xs: np.full_like(xs, 1e-300), -1e308, 1.5e308)
        assert got == pytest.approx(2.5e8, rel=1e-12)

    def test_convergence_error_carries_best_estimate(self):
        cfg = QuadratureConfig(rel_tol=1e-15, max_depth=3)
        # |x - pi/8| has a kink no 3-level refinement resolves to 1e-15
        with pytest.raises(ConvergenceError) as err:
            integrate_1d(lambda x: abs(x - math.pi / 8.0), 0.0, 1.0, cfg)
        exact = ((math.pi / 8) ** 2 + (1 - math.pi / 8) ** 2) / 2.0
        assert err.value.best_estimate == pytest.approx(exact, rel=1e-3)


def on_grid(f):
    """Grid integrand [j, i] = f(xs[i], ys[j]) from a formula that broadcasts."""
    return lambda xs, ys: np.broadcast_to(f(xs, ys[:, None]), (len(ys), len(xs)))


class TestIntegrate2D:
    def test_separable_polynomial(self):
        got = integrate_2d(on_grid(lambda x, y: x * y), 0.0, 1.0, 0.0, 1.0)
        assert abs(got - 0.25) < 1e-12

    def test_unit_area(self):
        got = integrate_2d(on_grid(lambda x, y: 1.0), 0.0, 1.0, 0.0, 1.0)
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_product_factorizes(self):
        got = integrate_2d(on_grid(lambda x, y: phi(x) * phi(y)),
                           1.0, 2.0, 1.0, 2.0)
        one_dim = integrate_1d(phi, 1.0, 2.0)
        assert math.isclose(got, one_dim * one_dim, rel_tol=1e-7)

    def test_deterministic_reruns(self):
        f = on_grid(lambda x, y: np.exp(-x * y) * np.cos(x + y))
        assert integrate_2d(f, 0.0, 2.0, 0.0, 2.0) == integrate_2d(f, 0.0, 2.0, 0.0, 2.0)

    def test_non_finite_sample_rejected(self):
        with pytest.raises(DomainError):
            integrate_2d(on_grid(lambda x, y: math.inf), 0.0, 1.0, 0.0, 1.0)

    def test_non_finite_grid_value_is_named(self):
        # finite on the whole-rectangle nodes, NaN at the one refinement node
        # nearest the corner (1, 1)
        seen = []

        def f(xs, ys):
            seen.append((xs, ys))
            grid = np.ones((len(ys), len(xs)))
            if len(seen) == 2:
                grid[-1, -1] = math.nan
            return grid

        with pytest.raises(DomainError) as err:
            integrate_2d(f, 0.0, 1.0, 0.0, 1.0, QuadratureConfig(rel_tol=1e-300))
        xs, ys = seen[1]
        assert len(xs) == len(ys) == 32
        assert f"nan at ({float(xs[-1])!r}, {float(ys[-1])!r})" in str(err.value)

    def test_wrong_grid_shape_rejected(self):
        with pytest.raises(DomainError, match="shape"):
            integrate_2d(lambda xs, ys: xs * ys, 0.0, 1.0, 0.0, 1.0)

    def test_one_grid_call_per_refinement_step(self):
        shapes = []

        def f(xs, ys):
            shapes.append((len(ys), len(xs)))
            return np.outer(np.exp(ys), np.sin(20.0 * xs))

        integrate_2d(f, 0.0, 4.0, 0.0, 1.0)
        assert shapes[0] == (16, 16)
        assert len(shapes) > 2 and set(shapes[1:]) == {(32, 32)}

    def test_rectangle_wider_than_the_largest_float(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate_2d(lambda xs, ys: np.full((len(ys), len(xs)), 1e-300),
                               0.0, 1.0, -1e308, 1.5e308)
        assert got == pytest.approx(2.5e8, rel=1e-12)

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(DomainError):
            integrate_2d(on_grid(lambda x, y: 1.0), 0.0, 1.0, 1.0, 1.0)
