"""Adaptive Gauss-Legendre quadrature in one and two dimensions.

Panels are refined by bisection (quartering in 2-D) until the refined
estimate agrees with the parent estimate to a relative tolerance, with an
optional absolute floor. Termination is relative by default because the
integrals this package cares about range over hundreds of orders of
magnitude; an absolute cutoff would silently zero the tail cases.

The 1-D integrand is a scalar function f(x). The 2-D integrand is a grid
function: f(xs, ys) takes two 1-D arrays and returns the array
[len(ys), len(xs)] with [j, i] = f(xs[i], ys[j]), the layout of
JointModel.joint_pdf_grid. The first whole-rectangle estimate is one call
on the 16x16 Gauss nodes, and each refinement step evaluates its four
child panels with one call on the 32x32 tensor grid of their nodes.

Everything here is pure and deterministic: panels are visited depth-first
left to right and accepted values are combined with an exact running sum,
so repeated calls return bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import numpy.polynomial.legendre as _legendre

from .errors import ConvergenceError, DomainError

# An integrand made of rounding noise never meets a relative tolerance at
# any depth. Once this many panels have bottomed out, refinement clearly
# is not helping and the traversal stops early instead of exhausting the
# whole refinement tree.
STUCK_PANEL_CAP = 128


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 0.0
    points_per_panel: int = 16
    max_depth: int = 30

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0.0):
            raise DomainError(f"abs_tol must be nonnegative, got {self.abs_tol!r}")
        if self.points_per_panel < 2:
            raise DomainError("points_per_panel must be at least 2")
        if self.max_depth < 1:
            raise DomainError("max_depth must be at least 1")


DEFAULT_1D = QuadratureConfig(rel_tol=1e-9)
DEFAULT_2D = QuadratureConfig(rel_tol=1e-7)


@lru_cache(maxsize=None)
def _gauss_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    nodes, weights = _legendre.leggauss(n)
    return tuple(float(t) for t in nodes), tuple(float(w) for w in weights)


def _sample(f: Callable[[float], float], x: float) -> float:
    y = float(f(x))
    if not math.isfinite(y):
        raise DomainError(f"integrand returned non-finite value {y!r} at x={x!r}")
    return y


def _panel_1d(f, a: float, b: float, nodes, weights) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = 0.0
    for t, w in zip(nodes, weights):
        acc += w * _sample(f, mid + half * t)
    return acc * half


def _accept(refined: float, whole: float, cfg: QuadratureConfig) -> bool:
    return abs(refined - whole) <= max(cfg.rel_tol * abs(refined), cfg.abs_tol)


def integrate_1d(f: Callable[[float], float], a: float, b: float,
                 cfg: Optional[QuadratureConfig] = None) -> float:
    """Integrate f over (a, b), a < b, both finite."""
    if cfg is None:
        cfg = DEFAULT_1D
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"need finite bounds with a < b, got ({a!r}, {b!r})")
    nodes, weights = _gauss_rule(cfg.points_per_panel)
    accepted: list[float] = []
    stuck: list[tuple[float, float, float]] = []
    # work stack of (lo, hi, parent estimate, depth); children are pushed
    # right before left so panels pop in left-to-right order
    stack = [(a, b, _panel_1d(f, a, b, nodes, weights), 1)]
    while stack:
        lo, hi, whole, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel_1d(f, lo, mid, nodes, weights)
        right = _panel_1d(f, mid, hi, nodes, weights)
        refined = left + right
        if _accept(refined, whole, cfg):
            accepted.append(refined)
            continue
        if depth >= cfg.max_depth:
            stuck.append((lo, hi, abs(refined - whole)))
            accepted.append(refined)
            if len(stuck) >= STUCK_PANEL_CAP:
                break
            continue
        stack.append((mid, hi, right, depth + 1))
        stack.append((lo, mid, left, depth + 1))
    total = math.fsum(accepted) + math.fsum(whole for _, _, whole, _ in stack)
    if stuck:
        lo, hi, gap = stuck[0]
        raise ConvergenceError(
            f"integral over ({a!r}, {b!r}) did not converge in {len(stuck)} "
            f"panel(s) at depth {cfg.max_depth}; worst panel ({lo!r}, {hi!r}) "
            f"moved by {gap!r} on the last refinement",
            best_estimate=total)
    return float(total)


def _panel_nodes(edges: tuple[float, ...], nodes: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes of each panel between consecutive edges, and each panel's half-width."""
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half = 0.5 * (hi - lo)
    return ((0.5 * (lo + hi))[:, None] + half[:, None] * nodes).ravel(), half


def _grid_panels(f, xedges: tuple[float, ...], yedges: tuple[float, ...],
                 nodes: np.ndarray, weights: np.ndarray) -> list[float]:
    """Gauss-Legendre estimates of every panel of the tensor grid with these edges.

    f is called once on all the nodes. The estimates come back row by row,
    y panels outer and x panels inner.
    """
    xs, xh = _panel_nodes(xedges, nodes)
    ys, yh = _panel_nodes(yedges, nodes)
    grid = np.asarray(f(xs, ys), dtype=float)
    if grid.shape != (len(ys), len(xs)):
        raise DomainError(f"grid integrand returned shape {grid.shape}, "
                          f"expected {(len(ys), len(xs))}")
    if not np.isfinite(grid).all():
        j, i = np.argwhere(~np.isfinite(grid))[0]
        raise DomainError(f"integrand returned non-finite value {float(grid[j, i])!r} "
                          f"at ({float(xs[i])!r}, {float(ys[j])!r})")
    n = len(nodes)
    cells = grid.reshape(len(yh), n, len(xh), n)
    sums = np.einsum("j,ajbi,i->ab", weights, cells, weights)
    sums *= xh
    sums *= yh[:, None]
    return sums.ravel().tolist()


def integrate_2d(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 x_lo: float, x_hi: float, y_lo: float, y_hi: float,
                 cfg: Optional[QuadratureConfig] = None) -> float:
    """Integrate the grid function f over the open rectangle (x_lo, x_hi) x (y_lo, y_hi).

    f(xs, ys) returns the array [len(ys), len(xs)] of f(xs[i], ys[j]); a
    non-finite value in it is a DomainError naming the first bad (x, y).
    """
    if cfg is None:
        cfg = DEFAULT_2D
    if not (math.isfinite(x_lo) and math.isfinite(x_hi) and x_lo < x_hi):
        raise DomainError(f"need finite x bounds with x_lo < x_hi, got ({x_lo!r}, {x_hi!r})")
    if not (math.isfinite(y_lo) and math.isfinite(y_hi) and y_lo < y_hi):
        raise DomainError(f"need finite y bounds with y_lo < y_hi, got ({y_lo!r}, {y_hi!r})")
    nodes, weights = (np.array(v) for v in _gauss_rule(cfg.points_per_panel))
    accepted: list[float] = []
    stuck_count = 0
    [whole] = _grid_panels(f, (x_lo, x_hi), (y_lo, y_hi), nodes, weights)
    stack = [(x_lo, x_hi, y_lo, y_hi, whole, 1)]
    while stack:
        xlo, xhi, ylo, yhi, whole, depth = stack.pop()
        xm = 0.5 * (xlo + xhi)
        ym = 0.5 * (ylo + yhi)
        quads = ((xlo, xm, ylo, ym), (xm, xhi, ylo, ym),
                 (xlo, xm, ym, yhi), (xm, xhi, ym, yhi))
        parts = _grid_panels(f, (xlo, xm, xhi), (ylo, ym, yhi), nodes, weights)
        refined = (parts[0] + parts[1]) + (parts[2] + parts[3])
        if _accept(refined, whole, cfg):
            accepted.append(refined)
            continue
        if depth >= cfg.max_depth:
            stuck_count += 1
            accepted.append(refined)
            if stuck_count >= STUCK_PANEL_CAP:
                break
            continue
        for q, part in zip(reversed(quads), reversed(parts)):
            stack.append((*q, part, depth + 1))
    total = math.fsum(accepted) + math.fsum(item[4] for item in stack)
    if stuck_count:
        raise ConvergenceError(
            f"2-D integral over ({x_lo!r}, {x_hi!r}) x ({y_lo!r}, {y_hi!r}) did "
            f"not converge in {stuck_count} panel(s) at depth {cfg.max_depth}",
            best_estimate=total)
    return float(total)
