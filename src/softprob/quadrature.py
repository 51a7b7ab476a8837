"""Adaptive Gauss-Legendre quadrature, in one dimension and iterated in two.

Integrands take arrays. The 1-D integrand f(xs) takes a 1-D array of
nodes and returns the array of f at each of them. The 2-D integrand
f(x, y) works elementwise over the broadcast of its two arrays, as
JointModel.joint_pdf_array does: a column is f(np.array([x]), ys), of
shape ys.shape. A result of the wrong shape, or a non-finite value in it,
is a DomainError that names the first bad point. Every estimate is the
16-node Gauss-Legendre rule on a panel.

1-D integrals run in rounds, after MATLAB's quadgk (Shampine, J. Comput.
Appl. Math. 211, 2008), with the global error test of QUADPACK's QAG
(Piessens et al. 1983). All the pieces of one integral start as the
panels of one run (integrate_pieces; integrate_1d is the one-piece case),
and each round evaluates all its new panels together. A run keeps its
panels in one field-major table of shape (5, panels), a row each for lo,
hi, the whole estimate and the two halves, so that a round selects,
repeats and writes every field in one array call. A panel's estimate
is the sum of its halves and its error estimate |halves - whole|. The
first round evaluates every piece's whole and halves, 48 nodes a piece.
Until the summed error meets the budget max(rel_tol * sum|estimate|,
abs_tol), each round bisects every panel whose error exceeds
budget/len(panels) and evaluates the halves of the new panels, 64 nodes a
split panel. The budget is relative by default because the integrals this
package cares about range over hundreds of orders of magnitude; an
absolute cutoff would silently zero the tail cases. Rounds double the
panels of an integrand made of rounding noise, which no relative
tolerance stops, so a run that would pass PANEL_CAP panels plus
PIECE_PANELS a piece raises ConvergenceError, as does one whose remaining
error sits in panels at MAX_DEPTH. A round calls the integrand once a
block of its panels (blocks), so that what one call holds does not grow
with the pieces. Each panel's 16 values are summed on their own row, so
a panel's estimate does not depend on the other panels in its call; the
result is the math.fsum of the panel estimates. Each run reports a
QuadStats record, which collect_stats gathers.

2-D integrals are iterated 1-D ones, the "iterated" method of Shampine's
quad2d (Appl. Math. Comput. 202, 2008): y_integral(f, y_pieces) is the
x-integrand whose value at each x node is one integrate_pieces run over
the y-pieces, on the column f(np.array([x]), ys), and an integrate_pieces run
over the x-pieces integrates it (integrate_2d is the one-rectangle case).
moments.soft_sum evaluates its array kernel on a MixedSet's points with
sample_1d and integrates it over all the pieces of its intervals in one
run.

Everything here is pure and deterministic, so repeated calls return
bit-identical results.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, Record, finite_float, open_interval

# A 1-D run that would hold more than PANEL_CAP panels plus PIECE_PANELS a
# piece raises ConvergenceError. An integrand made of rounding noise never
# meets a relative tolerance, and each round doubles its panels. A piece's
# share is room to bisect toward one point down to MAX_DEPTH, two panels a
# level. A piece is depth 1, and a panel at MAX_DEPTH is never bisected.
PANEL_CAP = 1 << 12
PIECE_PANELS = 64
MAX_DEPTH = 30

# the floats that one block of a batched array call holds (see blocks)
BLOCK = 1 << 14


class QuadStats(NamedTuple):
    """What one 1-D run did, the (abserr, neval, ier) of QUADPACK.

    nodes: integrand values computed. calls: integrand calls, one per
    block of a round's panels (blocks). panels: panels at the end.
    max_depth: the deepest panel, a piece being depth 1. error: the summed
    error estimate of the result. stuck: panels at MAX_DEPTH that still
    needed bisecting when the run stopped (0 when it converged).
    """

    nodes: int
    calls: int
    panels: int
    max_depth: int
    error: float
    stuck: int


_RECORDS: ContextVar[Optional[list[QuadStats]]] = ContextVar("softprob_quad_stats",
                                                               default=None)


@contextmanager
def collect_stats() -> Iterator[list[QuadStats]]:
    """Collect the QuadStats of every 1-D run in the block, in order, into the list it yields.

    Collectors are per context (contextvars); an inner one hides the outer
    one until it closes.
    """
    records: list[QuadStats] = []
    token = _RECORDS.set(records)
    try:
        yield records
    finally:
        _RECORDS.reset(token)


def total_stats(records: Sequence[QuadStats]) -> QuadStats:
    """One record for several runs: the deepest max_depth, the sums of the rest."""
    return QuadStats(nodes=sum(r.nodes for r in records), calls=sum(r.calls for r in records),
                     panels=sum(r.panels for r in records),
                     max_depth=max((r.max_depth for r in records), default=0),
                     error=math.fsum(r.error for r in records),
                     stuck=sum(r.stuck for r in records))


class QuadratureConfig(Record):
    def __init__(self, rel_tol: float = 1e-9, abs_tol: float = 0.0):
        rel_tol, abs_tol = finite_float(rel_tol, "rel_tol"), finite_float(abs_tol, "abs_tol")
        if not rel_tol > 0.0:
            raise DomainError(f"rel_tol must be positive, got {rel_tol!r}")
        if not abs_tol >= 0.0:
            raise DomainError(f"abs_tol must be nonnegative, got {abs_tol!r}")
        self._store_fields(rel_tol=rel_tol, abs_tol=abs_tol)


DEFAULT_1D = QuadratureConfig()

# the 16-node Gauss-Legendre rule on [-1, 1]: numpy.polynomial.legendre.leggauss(16),
# written out in full digits so that importing this module computes nothing
_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])
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


def _describe(piece: tuple[float, float]) -> str:
    return "({!r}, {!r})".format(*piece)


def _mid(lo, hi):
    """(lo + hi) / 2, halving first so that no finite lo, hi overflow."""
    return 0.5 * lo + 0.5 * hi


def blocks(rows: int, width: int) -> Iterator[slice]:
    """The slices of range(rows), in order, BLOCK // width rows each (at least one;
    the last may end past rows), that a batched array call on rows of width
    floats takes one at a time, so that its temporaries (about BLOCK floats,
    128 KiB) stay in cache however many points, panels or intervals there are."""
    step = max(1, BLOCK // max(1, width))
    return map(slice, range(0, rows, step), range(step, rows + step, step))


def _estimates(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, int]:
    """Gauss-Legendre estimates of the panels (lo[i], hi[i]), and the calls of f, one a block.

    Each panel's row is reduced on its own: a matrix-vector product may
    round a row differently with other rows beside it, so a panel's
    estimate would depend on the batch it came in.
    """
    out = np.empty(len(lo))
    calls = 0
    for block in blocks(len(lo), len(_NODES)):
        half_lo, half_hi = 0.5 * lo[block], 0.5 * hi[block]
        half = half_hi - half_lo
        xs = np.multiply.outer(half, _NODES)
        xs += (half_lo + half_hi)[:, None]  # the panel midpoints, as _mid gives them
        values = sample_1d(f, xs.ravel()).reshape(xs.shape)
        out[block] = np.add.reduce(values * _WEIGHTS, axis=1) * half
        calls += 1
    return out, calls


def integrate_pieces(f: Callable[[np.ndarray], np.ndarray],
                     pieces: Sequence[tuple[float, float]],
                     cfg: Optional[QuadratureConfig] = None) -> float:
    """Integrate f over the disjoint pieces (a, b), a < b, both finite, in one run.

    The run stops when sum|halves - whole| <= max(rel_tol * sum|halves|,
    abs_tol) over all its panels. This L1 scale is the sum of the one-panel
    tests |halves - whole| <= rel_tol * |halves|, and an integrand that
    changes sign does not shrink it by cancelling. Rounds, bisection, the
    panel cap and the blocks of a round are as the module docstring
    describes. A run that cannot meet the budget raises ConvergenceError
    with its best estimate and its QuadStats; either way the QuadStats go
    to the open collect_stats collector, if any. The result is the
    math.fsum of the panel estimates.

    f(xs) returns the array of f at each of the nodes xs; a non-finite
    value in it is a DomainError naming the first bad x. No pieces
    integrate to 0.0 without a call. cfg must be None, for DEFAULT_1D, or a
    QuadratureConfig.
    """
    if cfg is None:
        cfg = DEFAULT_1D
    elif not isinstance(cfg, QuadratureConfig):
        raise DomainError(f"quadrature must be a QuadratureConfig or None, got {cfg!r}")
    pieces = [open_interval(piece, "piece") for piece in pieces]
    if not pieces:
        return 0.0
    lo, hi = (np.array(ends, dtype=float) for ends in zip(*pieces))
    mid = _mid(lo, hi)
    # the panel table: one row per field (lo, hi, whole, left half, right half),
    # one column per panel
    halves, calls = _estimates(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
    panels = np.concatenate([lo, hi, halves]).reshape(5, -1)
    depth = np.ones(len(lo), dtype=int)
    nodes, converged = 3 * len(_NODES) * len(lo), False
    cap = PANEL_CAP + PIECE_PANELS * len(lo)
    while True:
        n = panels.shape[1]
        estimate = panels[3] + panels[4]
        error = np.abs(estimate - panels[2])
        summed = float(np.add.reduce(error))
        budget = max(cfg.rel_tol * float(np.add.reduce(np.abs(estimate))), cfg.abs_tol)
        wanted = error > budget / n
        over = np.count_nonzero(wanted)
        # with no panel over its share the sum is within the budget but for rounding
        if summed <= budget or not over:
            converged = True
            break
        split = wanted & (depth < MAX_DEPTH)
        splits = int(np.count_nonzero(split))
        if not splits or n + splits > cap:
            break
        lo, hi, _, left, right = panels[:, split]
        mid = _mid(lo, hi)
        quarter_lo, quarter_hi = _mid(lo, mid), _mid(mid, hi)
        quarters, round_calls = _estimates(f, np.concatenate([lo, quarter_lo, mid, quarter_hi]),
                                           np.concatenate([quarter_lo, mid, quarter_hi, hi]))
        nodes += 4 * len(_NODES) * splits
        calls += round_calls
        counts = 1 + split
        first = (np.cumsum(counts) - counts)[split]
        # the halves of the left new panels, then those of the right ones
        quarters = quarters.reshape(2, -1)
        panels = np.repeat(panels, counts, axis=1)
        panels[:, first] = np.concatenate([lo, mid, left, quarters[0]]).reshape(5, -1)
        panels[:, first + 1] = np.concatenate([mid, hi, right, quarters[1]]).reshape(5, -1)
        depth = np.repeat(depth, counts)
        depth[first] += 1
        depth[first + 1] += 1
    stats = QuadStats(nodes=nodes, calls=calls, panels=n, max_depth=int(np.maximum.reduce(depth)),
                      error=summed, stuck=0 if converged else int(over) - splits)
    records = _RECORDS.get()
    if records is not None:
        records.append(stats)
    total = math.fsum(estimate.tolist())
    if not converged:
        where = ", ".join(_describe(piece) for piece in pieces[:3])
        if len(pieces) > 3:
            where += f" and {len(pieces) - 3} more pieces"
        if splits:
            why = f"it needs more than {cap} panels"
        else:
            k = int(np.argmax(wanted))  # no panel splits, so every wanted one is stuck
            why = (f"{stats.stuck} panel(s) need refining at depth {MAX_DEPTH}, the first "
                   f"{_describe(tuple(panels[:2, k].tolist()))} with error {float(error[k])!r}")
        raise ConvergenceError(
            f"integral over {where} did not converge: {why}; summed error {summed!r} "
            f"exceeds the budget {budget!r}", best_estimate=total, stats=stats)
    return total


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 cfg: Optional[QuadratureConfig] = None) -> float:
    """Integrate f over (a, b), a < b, both finite: integrate_pieces with one piece."""
    return integrate_pieces(f, [(a, b)], cfg)


def y_integral(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
               y_pieces: Sequence[tuple[float, float]],
               cfg: Optional[QuadratureConfig] = None) -> Callable[[np.ndarray], np.ndarray]:
    """The x-integrand of the iterated integral of the 2-D integrand f over y_pieces.

    Its value at each x of xs is one integrate_pieces run, under cfg, of
    the column f(np.array([x]), ys) over the y-pieces. A column of the wrong shape,
    or a non-finite value in it, is a DomainError naming the bad (x, y). A
    column run that does not converge raises its ConvergenceError, naming
    its x; the best estimate and stats on it are that column's.
    """
    def column_integral(x: float) -> float:
        def column(ys: np.ndarray) -> np.ndarray:
            return _checked(f, (np.array([x]), ys), ys.shape,
                            lambda k: f"({x!r}, {float(ys[k[0]])!r})")

        try:
            return integrate_pieces(column, y_pieces, cfg)
        except ConvergenceError as err:
            raise ConvergenceError(f"at x={x!r}, {err}", err.best_estimate, err.stats) from None

    return lambda xs: np.array([column_integral(x) for x in xs.tolist()])


def integrate_2d(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 x_lo: float, x_hi: float, y_lo: float, y_hi: float,
                 cfg: Optional[QuadratureConfig] = None) -> float:
    """Integrate f over the open rectangle (x_lo, x_hi) x (y_lo, y_hi).

    f(x, y) works elementwise over the broadcast of x and y; a non-finite
    value is a DomainError naming the first bad (x, y).
    The iterated integral with one piece a side: an integrate_pieces run
    over x of y_integral, every run under cfg.
    """
    return integrate_pieces(y_integral(f, [(y_lo, y_hi)], cfg), [(x_lo, x_hi)], cfg)
