"""Tests for the adaptive Gauss-Legendre integrators."""

import json
import math
import warnings

import numpy as np
import pytest

from softprob.distributions import (Gaussian, _interval_ends, _mi_y_integral,
                                    joint_gaussian_additive)
from softprob.errors import ConvergenceError, DomainError
from softprob.information import soft_mutual_information
from softprob.moments import MixedSet
import softprob.quadrature as quadrature
from softprob.quadrature import (
    BLOCK,
    DEFAULT_1D,
    GROUP_PANELS,
    PANEL_CAP,
    MAX_DEPTH,
    PIECE_PANELS,
    QuadratureConfig,
    QuadStats,
    _NODES,
    _WEIGHTS,
    _estimates,
    _integrate_runs,
    blocks,
    collect_stats,
    integrate_1d,
    integrate_2d,
    integrate_pieces,
    total_stats,
    y_integral,
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
        f = lambda x, _: np.exp(np.sin(3 * x)) / (1.0 + x * x)
        lone = [float(_estimates(f, lo[i:i + 1], hi[i:i + 1], 0)[0][0]) for i in range(40)]
        for k in (2, 3, 5, 7, 9, 17, 40):
            assert _estimates(f, lo[:k], hi[:k], 0)[0].tolist() == lone[:k]
        # and past a block of panels, where a round takes several calls
        tiles = BLOCK // (16 * 20)
        estimates, calls = _estimates(f, np.tile(lo, tiles), np.tile(hi, tiles), 0)
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


def _table1_row4_records():
    model = joint_gaussian_additive(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
    with collect_stats() as records:
        soft_mutual_information(model, MixedSet([1.0], [(20.0, 30.0)]),
                                MixedSet([0.0], [(10.0, 30.0)]))
    return records


def _failed_records(f, pieces, cfg=None):
    with collect_stats() as records, pytest.raises(ConvergenceError) as err:
        integrate_pieces(f, pieces, cfg)
    assert records == [err.value.stats]
    return records


def _noise_at_the_cap():
    rng = np.random.default_rng(7)
    return _failed_records(lambda xs: 1e-17 * rng.standard_normal(len(xs)), [(0.0, 1.0)])


def _stuck_at_max_depth():
    return _failed_records(lambda xs: np.where(xs < math.pi / 8.0, 0.0, 1.0), [(0.0, 1.0)],
                           QuadratureConfig(rel_tol=1e-15))


class TestStats:
    @pytest.mark.parametrize("run", [_table1_row4_records, _noise_at_the_cap,
                                     _stuck_at_max_depth])
    def test_records_of_refining_runs_are_plain_numbers(self, run):
        # records go to JSON (softprob --stats) as they are: a numpy integer
        # or float in a field would print differently or not at all
        records = run()
        assert max(r.calls for r in records) > 1
        for r in records:
            fields = r._asdict()
            assert {name: type(value) for name, value in fields.items()} == {
                **dict.fromkeys(QuadStats._fields, int), "error": float}
            assert json.loads(json.dumps(fields)) == fields
        if run is _stuck_at_max_depth:
            assert records[0].stuck == 1

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


def _by_run(funcs):
    """The batched integrand f(xs, run) that reads funcs[r] at the nodes of run r."""
    def f(xs, run):
        if isinstance(run, int):
            return funcs[run](xs)
        out = np.empty(len(xs))
        for r in set(run.tolist()):
            on = run == r
            out[on] = funcs[r](xs[on])
        return out

    return f


def _alone(f, pieces, cfg=None):
    """What integrate_pieces gives on the pieces, as _integrate_runs reports a run."""
    with collect_stats() as records:
        try:
            result = integrate_pieces(f, pieces, cfg)
        except (ConvergenceError, DomainError) as err:
            result = err
    return result, records


def _outcome(result):
    if isinstance(result, ConvergenceError):
        return "ConvergenceError", str(result), repr(result.best_estimate), result.stats
    if isinstance(result, DomainError):
        return "DomainError", str(result)
    return repr(result)


def _row4_tail(xs):
    # the x-integrand of table 1's row 4, which refines over four rounds
    model = joint_gaussian_additive(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
    return _mi_y_integral(model._mi_params, xs, _interval_ends(np.array([10.0]), np.array([30.0])))


class TestBatchedRuns:
    """_integrate_runs gives each run what integrate_pieces gives on its pieces alone."""

    def _check(self, funcs, runs, cfg=None, f=None):
        lo = np.array([a for pieces in runs for a, _ in pieces], dtype=float)
        hi = np.array([b for pieces in runs for _, b in pieces], dtype=float)
        with collect_stats() as records:
            results, run_records = _integrate_runs(f or _by_run(funcs), lo, hi,
                                                   [len(pieces) for pieces in runs],
                                                   cfg or DEFAULT_1D)
        alone = [_alone(g, pieces, cfg) for g, pieces in zip(funcs, runs)]
        for r, (result, lone_records) in enumerate(alone):
            assert _outcome(results[r]) == _outcome(result), r
            assert [run_records[r]] == lone_records or (run_records[r] is None
                                                         and lone_records == []), r
        # one record a run, in run order, and none for a DomainError or no pieces
        assert records == [rec for _, lone in alone for rec in lone]
        return results, run_records

    def test_random_pieces_row4_and_noise_at_the_cap(self):
        rng = np.random.default_rng(3)
        funcs, runs = [], []
        for k in range(6):
            c = float(rng.uniform(0.5, 30.0))
            funcs.append(lambda x, c=c: np.exp(np.sin(c * x)) / (1.0 + x * x))
            ends = np.sort(rng.uniform(-5.0, 5.0, 2 * int(rng.integers(1, 4))))
            runs.append([(float(a), float(b)) for a, b in ends.reshape(-1, 2)])
        funcs.insert(2, _row4_tail)
        runs.insert(2, [(20.0, 30.0)])
        # noise that no relative tolerance stops, read the same at every x
        funcs.append(lambda x: 1e-17 * np.sin(1e7 * x))
        runs.append([(0.0, 1.0)])
        funcs.append(lambda x: x * x)
        runs.append([])
        results, records = self._check(funcs, runs)
        assert records[2].calls == 4
        assert isinstance(results[-2], ConvergenceError) and "panels" in str(results[-2])
        assert results[-1] == 0.0 and records[-1] is None

    def test_stuck_at_max_depth_and_exact_runs(self):
        funcs = [lambda x: x ** 3 - 2.0 * x, lambda x: np.where(x < math.pi / 8.0, 0.0, 1.0),
                 lambda x: 1.0 + 0.0 * x]
        runs = [[(-2.0, -1.0), (0.25, 3.0)], [(0.0, 1.0)], [(0.0, 0.5), (1.0, 4.0)]]
        results, records = self._check(funcs, runs, QuadratureConfig(rel_tol=1e-15))
        assert f"at depth {MAX_DEPTH}" in str(results[1]) and records[1].stuck == 1

    def test_a_domain_error_ends_only_its_run(self):
        funcs = [np.sin, lambda x: np.where(x > 0.7, math.nan, np.sin(20.0 * x)), np.cos,
                 lambda x: np.where(x > 0.7, math.inf, 1.0 + 0.0 * x)]
        runs = [[(0.0, 2.0)], [(0.0, 1.0)], [(-1.0, 3.0)], [(0.5, 0.75), (0.8, 1.0)]]
        results, records = self._check(funcs, runs)
        assert [type(r) for r in results] == [float, DomainError, float, DomainError]
        assert records[1] is None and records[3] is None

    def test_one_integrand_call_a_round_holds_every_run(self):
        sizes = []

        def f(xs, run):
            sizes.append(len(xs))
            return np.sin(20.0 * xs) + 0.0 * run

        pieces = [(0.0, 1.0), (2.0, 4.0)]
        lo, hi = np.array([0.0, 2.0] * 5), np.array([1.0, 4.0] * 5)
        with collect_stats() as records:
            _integrate_runs(f, lo, hi, [2] * 5, DEFAULT_1D)
        with collect_stats() as alone:
            integrate_pieces(lambda x: np.sin(20.0 * x), pieces)
        # the runs refine alike, so each round is one call of all five
        assert len(sizes) == alone[0].calls and sizes[0] == 5 * 2 * 48
        assert records == alone * 5

    def test_a_call_that_holds_one_live_run_gets_it_as_an_int(self):
        funcs = [lambda x: x * x, lambda x: np.log(np.abs(x - 1.0 / 3.0))]
        batched, held = _by_run(funcs), []

        def f(xs, run):
            held.append(run)
            return batched(xs, run)

        _, records = self._check(funcs, [[(0.0, 1.0)], [(0.0, 1.0)]], f=f)
        # x**2 converges in the first round; the log singularity takes many more
        assert records[0].calls == 1 and len(held) == records[1].calls > 2
        assert held[0].tolist() == ([0] * 16 + [1] * 16) * 3
        assert all(type(run) is int and run == 1 for run in held[1:])

    def test_calls_count_the_blocks_that_hold_each_run(self):
        # 8 runs of 100 pieces converge in one round of 2,400 panels, three
        # blocks of 1,024: runs 0-3 sit in the first two, runs 4-7 in all three
        lo = np.arange(800.0)
        hi = lo + 0.5
        square = lambda xs: xs * xs
        with collect_stats() as records:
            results, _ = _integrate_runs(lambda xs, run: square(xs), lo, hi, [100] * 8,
                                         DEFAULT_1D)
        assert [r.calls for r in records] == [2] * 4 + [3] * 4
        for r in range(8):
            own = [(a, b) for a, b in zip(lo[100 * r:100 * (r + 1)], hi[100 * r:100 * (r + 1)])]
            result, alone = _alone(square, own)
            assert results[r] == result and records[r] == alone[0]._replace(calls=records[r].calls)

    def test_groups_keep_each_run_its_own_result(self, monkeypatch):
        # room for about two one-piece runs a group: the runs go in several
        # groups, and each integrand call holds the runs of one group
        monkeypatch.setattr(quadrature, "GROUP_PANELS", 2 * (PANEL_CAP + PIECE_PANELS) + 1)
        held = []
        funcs = [lambda x, c=c: np.exp(np.sin(c * x)) for c in (1.0, 7.0, 3.0, 19.0, 5.0)]
        funcs.insert(3, lambda x: np.where(x > 0.7, math.nan, x))
        runs = [[(0.0, 1.0)], [(-1.0, 2.0)], [], [(0.0, 1.0)], [(0.5, 0.75), (1.0, 3.0)],
                [(2.0, 5.0)]]
        batched = _by_run(funcs)

        def f(xs, run):
            held.append(frozenset([run] if isinstance(run, int) else run.tolist()))
            return batched(xs, run)

        lo = np.array([a for pieces in runs for a, _ in pieces], dtype=float)
        hi = np.array([b for pieces in runs for _, b in pieces], dtype=float)
        with collect_stats() as records:
            results, run_records = _integrate_runs(f, lo, hi, [len(p) for p in runs],
                                                   DEFAULT_1D)
        alone = [_alone(g, pieces) for g, pieces in zip(funcs, runs)]
        assert [_outcome(r) for r in results] == [_outcome(r) for r, _ in alone]
        assert records == [rec for _, lone in alone for rec in lone]
        assert run_records[2] is None and isinstance(results[3], DomainError)
        # the groups are runs 0-1, 2-3 (run 2 has no pieces), 4 (two pieces,
        # a larger cap) and 5, and no call holds runs of two groups
        groups = [{0, 1}, {2, 3}, {4}, {5}]
        assert all(any(h <= g for g in groups) for h in held)
        assert {frozenset({0, 1}), frozenset({3}), frozenset({4}), frozenset({5})} <= set(held)

    def test_a_halt_list_ends_every_run_with_the_round_of_the_first_failure(self):
        noise, smooth = (lambda x: 1e-17 * np.sin(1e7 * x)), (lambda x: np.sin(40.0 * x))
        with collect_stats() as alone:
            integrate_pieces(smooth, [(0.0, 3.0)])
        with pytest.raises(ConvergenceError) as failed:
            integrate_pieces(noise, [(0.0, 1.0)])
        lo, hi = np.array([0.0, 0.0]), np.array([3.0, 1.0])
        halt = []
        with collect_stats() as records:
            results, _ = _integrate_runs(_by_run([smooth, noise]), lo, hi, [1, 1], DEFAULT_1D,
                                         halt=halt)
        # the smooth run converges before the noise run fails, which puts
        # its error on the halt list
        assert results[0] == integrate_pieces(smooth, [(0.0, 3.0)]) and halt == [results[1]]
        assert records == [alone[0], failed.value.stats]
        assert str(results[1]) == str(failed.value)
        # a log singularity takes a round a level, more rounds than the
        # noise run has: it ends with the noise run's round, and its estimate so far
        slow = lambda x: np.log(np.abs(x - 1.0 / 3.0))
        with collect_stats() as slow_alone:
            exact = integrate_pieces(slow, [(0.0, 1.0)])
        halt = []
        results, records = _integrate_runs(_by_run([slow, noise]), np.array([0.0, 0.0]),
                                           np.array([1.0, 1.0]), [1, 1], DEFAULT_1D, halt=halt)
        assert slow_alone[0].max_depth > failed.value.stats.max_depth
        assert halt == [results[1]] and str(results[1]) == str(failed.value)
        assert isinstance(results[0], float) and results[0] != exact
        assert records[0].max_depth == records[1].max_depth == failed.value.stats.max_depth
        assert records[0].stuck == 0 and records[0].panels < slow_alone[0].panels
        # a halt list that is not empty from the start: one round each
        results, records = _integrate_runs(_by_run([slow, noise]), np.array([0.0, 0.0]),
                                           np.array([30.0, 1.0]), [1, 1], DEFAULT_1D,
                                           halt=[None])
        assert all(isinstance(r, float) for r in results)
        assert [(r.calls, r.panels, r.nodes) for r in records] == [(1, 1, 48)] * 2

    def test_noise_columns_are_bounded_by_one_group(self):
        # every column is rounding noise that runs to its cap; the columns
        # of a call go in groups, and once one fails the rest take one round
        f = lambda x, y: 1e-17 * np.sin(1e7 * y) + 0.0 * x
        x_pieces = [(0.0, 0.5), (1.0, 1.5), (2.0, 2.5)]
        with collect_stats() as records, pytest.raises(ConvergenceError) as err:
            integrate_pieces(y_integral(f, [(0.0, 1.0)]), x_pieces)
        columns = records[:-1]
        assert len(columns) == 3 * 48 and err.value.stats == records[-1]
        held = sum(r.panels for r in columns)
        # all 144 columns at their caps would hold 144 * 4,096 panels
        assert held <= GROUP_PANELS + len(columns) and held < len(columns) * PANEL_CAP // 2
        assert max(r.panels for r in columns) <= PANEL_CAP + PIECE_PANELS
        assert err.value.stats.nodes == 3 * 48 and str(err.value).startswith("at x=")


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
        # NaN on the right of x = 0.5 and above y = 0.9: the error names the
        # first bad y of the first column, in node order, that has one; the
        # columns of a call run together, so the integrand must not count calls
        def f(x, y):
            return np.where((x > 0.5) & (y > 0.9), math.nan, 1.0 + 0.0 * (x * y))

        with pytest.raises(DomainError) as err:
            integrate_2d(f, 0.0, 1.0, 0.0, 1.0)
        nodes = (0.5 * _NODES + 0.5).tolist()  # the first call's nodes of (0, 1)
        x = next(t for t in nodes if t > 0.5)
        y = next(t for t in nodes if t > 0.9)
        assert f"nan at ({x!r}, {y!r})" in str(err.value)

    def test_wrong_grid_shape_rejected(self):
        # a call reads f on (x, y) pairs, of the shape of ys, not (len(ys), 1)
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
        # y_integral checks its y-pieces and cfg once, as it builds the x-integrand
        for pieces, cfg in (([(1.0, 1.0)], None), ([(0.0, 1.0)], 1e-9)):
            with pytest.raises(DomainError):
                y_integral(elementwise(lambda x, y: 1.0), pieces, cfg)
