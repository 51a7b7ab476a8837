"""Adaptive Gauss-Legendre quadrature, in one dimension and iterated in two.

Integrands take arrays. The 1-D integrand f(xs) takes a 1-D array of
nodes and returns the array of f at each of them. The 2-D integrand
f(x, y) works elementwise over the broadcast of its two arrays, as
JointModel.joint_pdf_array does: a call reads it on (x, y) pairs, of
the shape of ys. A result of the wrong shape, or a non-finite value in
it, is a DomainError that names the first bad point. Every estimate is
the 16-node Gauss-Legendre rule on a panel.

1-D integrals run in rounds, after MATLAB's quadgk (Shampine, J. Comput.
Appl. Math. 211, 2008), with the global error test of QUADPACK's QAG
(Piessens et al. 1983). All the pieces of one integral start as the
panels of one run (integrate_pieces; integrate_1d is the one-piece case),
and each round evaluates all its new panels together. One routine
(_integrate_runs) advances many runs at once, after the vectorised
integrands of quadgk and DCUHRE's vector of integrands (Berntsen,
Espelid & Genz, ACM TOMS 17, 1991). The panels of all runs sit side by
side in one field-major table, a row each for lo, hi, the whole
estimate, the two halves and the depth, so that a round selects,
repeats and writes every field in one array call. A round's decisions
are written once, a loop over the live runs that reads the whole table
when one is live; a call that holds one live run gets it as an int,
and runs keep the caller's numbers from start to end. A panel's
estimate is the sum of its halves and its error estimate
|halves - whole|. The first round evaluates every piece's whole and
halves, 48 nodes a piece. Until a run's summed error meets its budget
max(rel_tol * sum|estimate|, abs_tol), each round bisects every panel of
the run whose error exceeds budget/len(panels) and evaluates the halves
of the new panels, 64 nodes a split panel. The budget is relative by
default because the integrals this package cares about range over
hundreds of orders of magnitude; an absolute cutoff would silently zero
the tail cases. Rounds double the panels of an integrand made of
rounding noise, which no relative tolerance stops, so a run that would
pass PANEL_CAP panels plus PIECE_PANELS a piece raises ConvergenceError,
as does one whose remaining error sits in panels at MAX_DEPTH. A round
calls the integrand once a block of the new panels of all its runs
(blocks), so that what one call holds does not grow with the pieces or
the runs, and the runs go in groups whose caps sum to at most
GROUP_PANELS, so that neither does the panel table. Each panel's 16
values are summed on their own row, and each run's error and scale on
its own slice, so a run's result does not depend on the other panels or
runs in its calls; the result is the math.fsum of the run's panel
estimates. Each run reports a QuadStats record, which collect_stats
gathers.

2-D integrals are iterated 1-D ones, the "iterated" method of Shampine's
quad2d (Appl. Math. Comput. 202, 2008): y_integral(f, y_pieces) is the
x-integrand whose value at each x node is one run over the y-pieces, on
the column f(x, ys), the columns of all the nodes of a call running
together; an integrate_pieces run over the x-pieces integrates it
(integrate_2d is the one-rectangle case). Once a column fails, the
columns end with its round and the run over x with its own, and it
raises with the estimate of the whole integral. moments.soft_sum
evaluates its array kernel on a MixedSet's points with sample_1d and
integrates it over all the pieces of its intervals in one run.

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

    nodes: integrand values computed. calls: the integrand calls that held
    the run's panels, one per block of a round's panels (blocks), which
    may hold other runs' panels too. panels: panels at the end.
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


def _describe_pieces(pieces: list[tuple[float, float]]) -> str:
    """The first three pieces, and how many more there are."""
    where = ", ".join(_describe(piece) for piece in pieces[:3])
    if len(pieces) > 3:
        where += f" and {len(pieces) - 3} more pieces"
    return where


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


def _x_at(run: int, t: float) -> str:
    return f"x={t!r}"


def _estimates(f, lo: np.ndarray, hi: np.ndarray, run,
               point: Callable[[int, float], str] = _x_at) -> tuple[np.ndarray, int]:
    """Gauss-Legendre estimates of the panels (lo[i], hi[i]), and the calls of f, one a block.

    f(xs, run) gives f at the nodes xs, run being the run of every node:
    the int run, or else, where run is an int array, run[i] at each node
    of panel i. point(r, t) names node t of run r in a DomainError. Each
    panel's row is reduced on its own: a matrix-vector product may round a
    row differently with other rows beside it, so a panel's estimate would
    depend on the batch it came in.
    """
    out = np.empty(len(lo))
    calls = 0
    for block in blocks(len(lo), len(_NODES)):
        half_lo, half_hi = 0.5 * lo[block], 0.5 * hi[block]
        half = half_hi - half_lo
        xs = np.multiply.outer(half, _NODES)
        xs += (half_lo + half_hi)[:, None]  # the panel midpoints, as _mid gives them
        nodes = xs.ravel()
        of = run if isinstance(run, int) else np.repeat(run[block], len(_NODES))
        values = _checked(f, (nodes, of), nodes.shape, lambda k: point(
            of if isinstance(of, int) else int(of[k[0]]), float(nodes[k[0]])))
        out[block] = np.add.reduce(values.reshape(xs.shape) * _WEIGHTS, axis=1) * half
        calls += 1
    return out, calls


# the rows of a panel table: the panel's ends, its whole estimate and
# those of its two halves, and its depth (a piece is depth 1)
_LO, _HI, _WHOLE, _LEFT, _RIGHT, _DEPTH = range(6)
# the panels of a table that holds one run
_ALL = slice(None)

# the panels that the runs of one group (see _integrate_runs) may reach
# together at their caps: those of 64 one-piece runs, as many as a split
# x panel adds columns to a y_integral call, a table of 12 MiB
GROUP_PANELS = 64 * (PANEL_CAP + PIECE_PANELS)


def _integrate_runs(f, lo: np.ndarray, hi: np.ndarray, counts: Sequence[int],
                    cfg: QuadratureConfig, point: Callable[[int, float], str] = _x_at,
                    halt: Optional[list] = None) -> tuple[list, list[Optional[QuadStats]]]:
    """Integrate f over the pieces of many runs together: their (results, records).

    Run r owns the next counts[r] pieces (lo[i], hi[i]), each a < b and
    finite. f(xs, run) gives f at the nodes xs, run being the run of every
    node: an int when the call holds one live run, an int array like xs
    otherwise. point(r, t) names node t of run r in a DomainError.
    results[r] is the value integrate_pieces gives on the run's pieces, or
    the ConvergenceError or DomainError it raises, and records[r] the
    run's QuadStats (None for a DomainError or for no pieces); the records
    go to the open collector in run order.

    The runs go in groups, in run order, each as many runs as the caps of
    their panels keep within GROUP_PANELS (one at least), so that however
    many runs there are, the panel table stays bounded. With a halt list,
    a run that fails appends its ConvergenceError to it, and once halt is
    not empty each run ends at the end of its round: a run that has not
    converged then gives its estimate so far, and its record counts as
    stuck the panels at MAX_DEPTH that it would bisect. A group whose
    integrand meets a DomainError does each run again on its own, so that
    each result is the one integrate_pieces gives.
    """
    results: list = [0.0] * len(counts)
    records: list[Optional[QuadStats]] = [None] * len(counts)
    k = start = 0
    while start < len(lo):
        # the next group: its live runs, and the end of their pieces
        live, held, stop = [], 0, start
        for k in range(k, len(counts)):
            held += _cap(counts[k])
            if live and held > GROUP_PANELS:
                break
            if counts[k]:
                live.append(k)
                stop += counts[k]
        try:
            _advance(f, lo[start:stop], hi[start:stop], counts, live, cfg, point, halt,
                     results, records)
        except DomainError as err:
            if len(live) == 1:
                results[live[0]] = err
            else:  # each run again on its own
                for r in live:
                    stop = start + counts[r]
                    try:
                        _advance(f, lo[start:stop], hi[start:stop], counts, [r], cfg, point,
                                 halt, results, records)
                    except DomainError as own_err:
                        results[r], records[r] = own_err, None
                    start = stop
        start = stop
    return results, records


def _why(panels: np.ndarray, error: np.ndarray, own: slice, wanted: np.ndarray, count: int,
         cap: int, over: int, summed: float, budget: float) -> str:
    """Why the run whose panels are own did not converge: its cap, or its panels at MAX_DEPTH."""
    if count:
        why = f"it needs more than {cap} panels"
    else:
        k = (own.start or 0) + int(np.argmax(wanted))  # every wanted panel is stuck
        why = (f"{over} panel(s) need refining at depth {MAX_DEPTH}, the first "
               f"{_describe(tuple(panels[:2, k].tolist()))} with error {float(error[k])!r}")
    return f"{why}; summed error {summed!r} exceeds the budget {budget!r}"


def _cap(pieces: int) -> int:
    """The panels that a run of that many pieces may hold, 0 for no pieces."""
    return PANEL_CAP + PIECE_PANELS * pieces if pieces else 0


def _advance(f, lo: np.ndarray, hi: np.ndarray, counts: Sequence[int], runs: Sequence[int],
             cfg: QuadratureConfig, point: Callable[[int, float], str], halt: Optional[list],
             results: list, records: list[Optional[QuadStats]]) -> None:
    """The rounds of one group of runs, each with pieces, lo and hi: run r writes
    results[r] and records[r]. A DomainError of the integrand ends the call.

    The decisions are written once, a loop over the live runs, each on its
    own slice of the panel table, or on the whole table (_ALL) when one run
    is live; a call of the integrand that holds one live run gets it as an int.
    """
    live, sizes, calls = runs, {r: counts[r] for r in runs}, dict.fromkeys(runs, 0)

    def evaluate(lo, hi, run):
        """The estimates of the panels (lo[i], hi[i]) of the int run, or of the runs
        run[i]; each live run counts the calls that held its panels."""
        estimates, made = _estimates(f, lo, hi, run, point)
        if isinstance(run, int):
            calls[run] += made
        elif made == 1:
            for r in live:
                calls[r] += 1
        else:
            for block in blocks(len(lo), len(_NODES)):
                for r in np.flatnonzero(np.bincount(run[block])).tolist():
                    calls[r] += 1
        return estimates

    def end(r, own, summed, stuck, why=None):
        """Record run r, whose panels are own; why, if given, says why it failed."""
        # each split adds a panel and the 64 nodes of its children's
        # halves; a run that has split no panel holds its pieces, at depth 1
        splits_made = sizes[r] - counts[r]
        stats = QuadStats(nodes=3 * len(_NODES) * counts[r] + 4 * len(_NODES) * splits_made,
                          calls=calls[r], panels=sizes[r], max_depth=int(
                              np.maximum.reduce(panels[_DEPTH, own])) if splits_made else 1,
                          error=summed, stuck=stuck)
        records[r] = stats
        results[r] = total = math.fsum(estimate[own].tolist())
        if why is not None:
            a = sum(counts[runs[0]:r])
            pieces = zip(lo[a:a + counts[r]].tolist(), hi[a:a + counts[r]].tolist())
            results[r] = ConvergenceError(
                f"integral over {_describe_pieces(list(pieces))} did not converge: {why}",
                best_estimate=total, stats=stats)
            if halt is not None:
                halt.append(results[r])

    run = live[0] if len(live) == 1 else np.repeat(live * 3, [counts[r] for r in live] * 3)
    mid = _mid(lo, hi)
    halves = evaluate(np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]), run)
    panels = np.concatenate([lo, hi, halves, np.ones(len(lo))]).reshape(6, -1)
    while True:
        estimate = panels[_LEFT] + panels[_RIGHT]
        error = np.abs(estimate - panels[_WHOLE])
        scale = np.abs(estimate)
        going, splits = [], []
        start = 0
        for r in live:
            n = sizes[r]
            own = _ALL if len(live) == 1 else slice(start, start + n)
            start += n
            summed = float(np.add.reduce(error[own]))
            budget = max(cfg.rel_tol * float(np.add.reduce(scale[own])), cfg.abs_tol)
            wanted = error[own] > budget / n
            over = int(np.count_nonzero(wanted))
            # with no panel over its share the sum is within the budget but for rounding
            if summed <= budget or not over:
                end(r, own, summed, 0)
                continue
            split = wanted & (panels[_DEPTH, own] < MAX_DEPTH)
            count = int(np.count_nonzero(split))
            cap = _cap(counts[r])
            if halt or (count and n + count <= cap):
                going.append((r, own, summed, over - count, count))
                splits.append(split)
                continue
            end(r, own, summed, over - count,
                _why(panels, error, own, wanted, count, cap, over, summed, budget))
        # once a run has failed, with a halt list, every run ends with this round
        if halt or not going:
            for r, own, summed, stuck, _ in going:
                end(r, own, summed, stuck)
            break
        if len(going) < len(live):
            # the panels of the runs that go on
            panels = panels[:, np.r_[tuple(own for _, own, *_ in going)]]
            live = [r for r, *_ in going]
        for r, *_, count in going:
            sizes[r] += count
        split = splits[0] if len(splits) == 1 else np.concatenate(splits)
        run = live[0] if len(live) == 1 else np.repeat(live * 4, [c for *_, c in going] * 4)
        lo_s, hi_s, _, left, right, depth = panels[:, split]
        mid = _mid(lo_s, hi_s)
        quarter_lo, quarter_hi = _mid(lo_s, mid), _mid(mid, hi_s)
        quarters = evaluate(np.concatenate([lo_s, quarter_lo, mid, quarter_hi]),
                            np.concatenate([quarter_lo, mid, quarter_hi, hi_s]), run)
        counts_of = 1 + split
        first = (np.cumsum(counts_of) - counts_of)[split]
        # the halves of the left new panels, then those of the right ones
        quarters = quarters.reshape(2, -1)
        depth += 1
        panels = np.repeat(panels, counts_of, axis=1)
        panels[:, first] = np.concatenate([lo_s, mid, left, quarters[0], depth]).reshape(6, -1)
        panels[:, first + 1] = np.concatenate([mid, hi_s, right, quarters[1], depth]
                                              ).reshape(6, -1)
    collector = _RECORDS.get()
    if collector is not None:
        collector.extend([records[r] for r in runs])


def _config(cfg: Optional[QuadratureConfig]) -> QuadratureConfig:
    """cfg, or DEFAULT_1D for None; anything else is a DomainError."""
    if cfg is None:
        return DEFAULT_1D
    if not isinstance(cfg, QuadratureConfig):
        raise DomainError(f"quadrature must be a QuadratureConfig or None, got {cfg!r}")
    return cfg


# the column failures of y_integral within the innermost integrate_pieces run
_COLUMN_FAILURES: ContextVar[Optional[list]] = ContextVar("softprob_column_failures",
                                                          default=None)


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
    math.fsum of the panel estimates. A y_integral column that fails
    within the run adds its best estimate, the run ends with its round,
    and it raises the column's ConvergenceError with the run's estimate
    and QuadStats (y_integral).

    f(xs) returns the array of f at each of the nodes xs; a non-finite
    value in it is a DomainError naming the first bad x. No pieces
    integrate to 0.0 without a call. cfg must be None, for DEFAULT_1D, or a
    QuadratureConfig.
    """
    cfg = _config(cfg)
    pieces = [open_interval(piece, "piece") for piece in pieces]
    if not pieces:
        return 0.0
    lo, hi = (np.array(ends, dtype=float) for ends in zip(*pieces))
    failures: list = []
    token = _COLUMN_FAILURES.set(failures)
    try:
        [result], [stats] = _integrate_runs(lambda xs, _: f(xs), lo, hi, [len(pieces)], cfg,
                                            halt=failures)
    finally:
        _COLUMN_FAILURES.reset(token)
    if isinstance(result, Exception):
        raise result
    if failures:
        raise ConvergenceError(str(failures[0]), best_estimate=result, stats=stats)
    return result


def integrate_1d(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                 cfg: Optional[QuadratureConfig] = None) -> float:
    """Integrate f over (a, b), a < b, both finite: integrate_pieces with one piece."""
    return integrate_pieces(f, [(a, b)], cfg)


def y_integral(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
               y_pieces: Sequence[tuple[float, float]],
               cfg: Optional[QuadratureConfig] = None) -> Callable[[np.ndarray], np.ndarray]:
    """The x-integrand of the iterated integral of the 2-D integrand f over y_pieces.

    Its value at each x of xs is the integral, under cfg, of the column
    f(x, ys) over the y-pieces: one run, as integrate_pieces makes it, and
    the runs of all of xs go together (_integrate_runs), each call of f
    reading the (x, y) pairs of several columns. A column of the wrong
    shape, or a non-finite value in it, is a DomainError naming the bad
    (x, y); y_pieces and cfg are checked once, here. The columns of a
    call end with the round in which the first of them fails, and after
    one round when the integrate_pieces run around them already has a
    failing column. The error is then the first in the call's order of
    x: a DomainError is raised; a ConvergenceError
    is raised at once, with the column's estimate, outside an
    integrate_pieces run, and within one the column gives its best
    estimate, and the run raises the error, naming the x, when it ends. A
    DomainError after a failing column of the same run raises that
    column's error at once.
    """
    config = _config(cfg)
    ends = np.array([open_interval(p, "piece") for p in y_pieces], dtype=float).reshape(-1, 2).T

    def x_integrand(xs: np.ndarray) -> np.ndarray:
        y_lo, y_hi = np.tile(ends, len(xs))
        x_list = xs.tolist()

        def columns(ys: np.ndarray, run) -> np.ndarray:
            return f(xs[run:run + 1] if isinstance(run, int) else xs[run], ys)

        failures = _COLUMN_FAILURES.get()
        # the columns end with the round in which one fails, or after one
        # round once the run has a failing column
        results, _ = _integrate_runs(columns, y_lo, y_hi, [ends.shape[1]] * len(xs), config,
                                     lambda r, y: f"({x_list[r]!r}, {y!r})",
                                     list(failures or ()))
        for k, (x, result) in enumerate(zip(x_list, results)):
            if isinstance(result, DomainError):
                # a column that failed before it, in the run's order, comes first
                raise failures[0] if failures else result
            if isinstance(result, ConvergenceError):
                err = ConvergenceError(f"at x={x!r}, {result}", result.best_estimate,
                                       result.stats)
                if failures is None:
                    raise err
                if not failures:
                    failures.append(err)
                results[k] = result.best_estimate
        return np.array(results, dtype=float)

    return x_integrand


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
