"""Adaptive Gauss-Legendre quadrature in one and two dimensions.

Panels are refined by bisection (quartering in 2-D) until the refined
estimate agrees with the parent estimate to a relative tolerance, with an
optional absolute floor. Termination is relative by default because the
integrals this package cares about range over hundreds of orders of
magnitude; an absolute cutoff would silently zero the tail cases.

Integrands take arrays. The 1-D integrand f(xs) takes a 1-D array of
nodes and returns the array of f at each of them. The 2-D integrand is a
grid function: f(xs, ys) takes two 1-D arrays and returns the array
[len(ys), len(xs)] with [j, i] = f(xs[i], ys[j]), the layout of
JointModel.joint_pdf_grid. The first whole-interval estimate is one call
on the 16 Gauss nodes (16x16 in 2-D), and each refinement step evaluates
all its child panels with one call: 32 nodes for the two halves in 1-D,
the 32x32 tensor grid for the four quarters in 2-D. A result of the wrong
shape, or a non-finite value in it, is a DomainError that names the
first bad point. The 1-D soft quantities reach integrate_1d through
moments.soft_sum, which evaluates the same array kernel on a MixedSet's
points with sample_1d and splits its intervals at the density's break
points before integrating them.

Everything here is pure and deterministic: panels are visited depth-first
left to right and accepted values are combined with an exact running sum,
so repeated calls return bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    max_depth: int = 30

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol >= 0.0):
            raise DomainError(f"abs_tol must be nonnegative, got {self.abs_tol!r}")
        if self.max_depth < 1:
            raise DomainError("max_depth must be at least 1")


DEFAULT_1D = QuadratureConfig(rel_tol=1e-9)
DEFAULT_2D = QuadratureConfig(rel_tol=1e-7)

_NODES, _WEIGHTS = _legendre.leggauss(16)
_NODES.flags.writeable = _WEIGHTS.flags.writeable = False


def _checked(f, args: tuple, shape: tuple[int, ...], where: Callable[[tuple], str]
             ) -> np.ndarray:
    """f(*args) as a float array of the given shape, all finite.

    Anything else is a DomainError; where(k) names the point behind the
    first non-finite entry k. Floating-point warnings are off while f runs,
    because this check reports what they would.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = np.asarray(f(*args), dtype=float)
    if values.shape != shape:
        raise DomainError(f"integrand returned shape {values.shape}, expected {shape}")
    if not np.isfinite(values).all():
        k = tuple(np.argwhere(~np.isfinite(values))[0])
        raise DomainError(f"integrand returned non-finite value {float(values[k])!r} "
                          f"at {where(k)}")
    return values


def sample_1d(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """f(xs) for a 1-D integrand, checked as every panel's values are."""
    return _checked(f, (xs,), xs.shape, lambda k: f"x={float(xs[k[0]])!r}")


def _accept(refined: float, whole: float, cfg: QuadratureConfig) -> bool:
    return abs(refined - whole) <= max(cfg.rel_tol * abs(refined), cfg.abs_tol)


def _describe(box: tuple[float, ...]) -> str:
    """(lo, hi) in 1-D, (x_lo, x_hi) x (y_lo, y_hi) in 2-D."""
    return " x ".join(f"({lo!r}, {hi!r})" for lo, hi in zip(box[::2], box[1::2]))


def _adapt(refine, root: tuple[float, ...], whole: float, cfg: QuadratureConfig) -> float:
    """Refine the box root depth-first until every panel meets the tolerance.

    A box is (lo, hi) in 1-D and (x_lo, x_hi, y_lo, y_hi) in 2-D.
    refine(box) returns the child boxes, their estimates and the refined
    estimate of box. Children are pushed last first, so that panels pop
    in left-to-right order.
    """
    accepted: list[float] = []
    stuck: list[tuple[tuple[float, ...], float]] = []
    stack = [(root, whole, 1)]
    while stack:
        box, whole, depth = stack.pop()
        children, parts, refined = refine(box)
        if _accept(refined, whole, cfg):
            accepted.append(refined)
            continue
        if depth >= cfg.max_depth:
            stuck.append((box, abs(refined - whole)))
            accepted.append(refined)
            if len(stuck) >= STUCK_PANEL_CAP:
                break
            continue
        for child, part in zip(reversed(children), reversed(parts)):
            stack.append((child, part, depth + 1))
    total = math.fsum(accepted) + math.fsum(item[1] for item in stack)
    if stuck:
        box, gap = stuck[0]
        raise ConvergenceError(
            f"integral over {_describe(root)} did not converge in {len(stuck)} "
            f"panel(s) at depth {cfg.max_depth}; first stuck panel {_describe(box)} "
            f"moved by {gap!r} on the last refinement", best_estimate=total)
    return float(total)


def _mid(lo, hi):
    """(lo + hi) / 2, halving first so that no finite lo, hi overflow."""
    return 0.5 * lo + 0.5 * hi


def _panel_nodes(edges: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes of each panel between consecutive edges, and each panel's half-width."""
    pairs = tuple(zip(edges, edges[1:]))
    mid = np.array([_mid(lo, hi) for lo, hi in pairs])
    half = np.array([0.5 * hi - 0.5 * lo for lo, hi in pairs])
    return (mid[:, None] + half[:, None] * _NODES).ravel(), half


def _panels(f, edges: tuple[float, ...]) -> list[float]:
    """Gauss-Legendre estimates of every panel between consecutive edges, from one call of f."""
    xs, half = _panel_nodes(edges)
    sums = sample_1d(f, xs).reshape(len(half), len(_NODES)) @ _WEIGHTS
    sums *= half
    return sums.tolist()


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 cfg: Optional[QuadratureConfig] = None) -> float:
    """Integrate f over (a, b), a < b, both finite.

    f(xs) returns the array of f at each of the nodes xs; a non-finite
    value in it is a DomainError naming the first bad x.
    """
    if cfg is None:
        cfg = DEFAULT_1D
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"need finite bounds with a < b, got ({a!r}, {b!r})")

    def refine(box):
        lo, hi = box
        mid = _mid(lo, hi)
        left, right = _panels(f, (lo, mid, hi))
        return ((lo, mid), (mid, hi)), (left, right), left + right

    [whole] = _panels(f, (a, b))
    return _adapt(refine, (a, b), whole, cfg)


def _grid_panels(f, xedges: tuple[float, ...], yedges: tuple[float, ...]) -> list[float]:
    """Gauss-Legendre estimates of every panel of the tensor grid with these edges.

    f is called once on all the nodes. The estimates come back row by row,
    y panels outer and x panels inner.
    """
    xs, xh = _panel_nodes(xedges)
    ys, yh = _panel_nodes(yedges)
    grid = _checked(f, (xs, ys), (len(ys), len(xs)),
                    lambda k: f"({float(xs[k[1]])!r}, {float(ys[k[0]])!r})")
    n = len(_NODES)
    cells = grid.reshape(len(yh), n, len(xh), n)
    sums = np.einsum("j,ajbi,i->ab", _WEIGHTS, cells, _WEIGHTS)
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

    def refine(box):
        xlo, xhi, ylo, yhi = box
        xm = _mid(xlo, xhi)
        ym = _mid(ylo, yhi)
        quads = ((xlo, xm, ylo, ym), (xm, xhi, ylo, ym),
                 (xlo, xm, ym, yhi), (xm, xhi, ym, yhi))
        parts = _grid_panels(f, (xlo, xm, xhi), (ylo, ym, yhi))
        return quads, parts, (parts[0] + parts[1]) + (parts[2] + parts[3])

    [whole] = _grid_panels(f, (x_lo, x_hi), (y_lo, y_hi))
    return _adapt(refine, (x_lo, x_hi, y_lo, y_hi), whole, cfg)
