"""Spans and counters for the traced benchmark run.

Wrappers go on the attributes through which one module reaches another
(for example ``softprob.tree.soft_mutual_information``), so the package
itself is not edited and every layer is timed from outside. Each wrapped
call records a span ``[name, start, end, parent, op]``; spans stay in
memory and are written out when the run ends. Counting wrappers record
integrand evaluations, point pairs and density calls without a span.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

PANEL_NODES_2D = 16 * 16  # Gauss-Legendre nodes of one default 2-D panel

# (module:attribute path, span name, kind); kinds are listed in Tracer._wrap
LIBRARY_PATCHES = (
    ("softprob.information:integrate_2d", "quadrature.2d", "integrator"),
    ("softprob.distributions:integrate_2d", "quadrature.2d", "integrator"),
    ("softprob.information:integrate_1d", "quadrature.1d", "integrator"),
    ("softprob.moments:integrate_1d", "quadrature.1d", "integrator"),
    ("softprob.distributions:integrate_1d", "quadrature.1d", "integrator"),
    ("softprob.information:soft_mutual_information", "information.mi", "mi"),
    ("softprob.tree:soft_mutual_information", "information.mi", "mi"),
    ("softprob.tree:induce", "tree.induce", "span"),
    ("softprob.tree:_gain", "tree.gain", "span"),
    ("softprob.tree:fit_joint_model", "tree.fit", "span"),
    ("softprob.tree:build_mixed_sets", "tree.sets", "span"),
    ("softprob.distributions:Gaussian.pdf", "distributions.pdf", "count"),
    ("softprob.distributions:BivariateGaussianModel.conditional_pdf",
     "distributions.pdf", "count"),
    ("softprob.distributions:BivariateGaussianModel.joint_pdf",
     "distributions.pdf", "count"),
)

CLI_PARSE = ("_parse_json", "_mixed_set", "_interval_event", "_points_list",
             "parse_distribution", "parse_joint", "parse_dataset",
             "tree_from_dict", "_rows_for_predict")
CLI_COMPUTE = ("ps_eq", "ps_lt", "ps_leq", "ps_neq", "ps_interval",
               "ps_points_union", "ps_points_intersection",
               "ps_union_point_interval", "ps_intersect_point_interval",
               "ps_cond_point_given_interval", "ps_cond_point_given_point", "ps2",
               "soft_entropy", "soft_cross_entropy", "soft_kld",
               "soft_mutual_information", "soft_expectation", "soft_variance",
               "induce", "predict")

# Inner wrappers come first: a name wrapped twice gets the later span outside.
CLI_PATCHES = (
    ("softprob.cli:soft_mutual_information", "information.mi", "mi"),
    ("softprob.cli:induce", "tree.induce", "span"),
    *((f"softprob.cli:{name}", "cli.parse", "span") for name in CLI_PARSE),
    *((f"softprob.cli:{name}", "cli.compute", "span") for name in CLI_COMPUTE),
    ("softprob.cli:main", "cli.main", "span"),
)


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs wrappers, collects spans and counts, and restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, patches) -> None:
        for target, name, kind in patches:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            if attr not in vars(owner):
                self.missing.append(target)
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, kind))
            self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, fn, name: str, kind: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        tracer = self

        if kind == "count":
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        def call(args, kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op])
            stack.append(index)
            counts[name] += 1
            spans[index][1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()

        if kind == "span":
            return lambda *args, **kwargs: call(args, kwargs)

        if kind == "mi":
            def mutual_information(j, sx, sy, *args, **kwargs):
                counts["information.point_pairs"] += len(sx.points) * len(sy.points)
                return call((j, sx, sy, *args), kwargs)
            return mutual_information

        if kind == "integrator":
            evals_key = f"{name}.evals"
            convergence_error = importlib.import_module("softprob.errors").ConvergenceError

            def integrator(f, *args, **kwargs):
                evals = [0]

                def integrand(*point):
                    evals[0] += 1
                    return f(*point)

                try:
                    return call((integrand, *args), kwargs)
                except convergence_error:
                    counts["quadrature.convergence_errors"] += 1
                    raise
                finally:
                    counts[evals_key] += evals[0]
            return integrator

        raise ValueError(f"unknown wrapper kind {kind!r}")

    def absorb(self, spans: list[list], counts: dict, op: int) -> None:
        """Add spans and counts recorded by a child process for operation op."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        self.counts.update(counts)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Spans come from one thread, so siblings never overlap and the covered
    time is the sum of the children's durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def scaled(spans: list[list], scales: list[float]):
    """(name, duration, self time, parent, op) per span, times scaled by their op's factor."""
    return [(name, (end - start) * scales[op], mine * scales[op], parent, op)
            for (name, start, end, parent, op), mine in zip(spans, self_times(spans))]


def layer_metrics(spans: list[list], counts: Counter, scales: list[float]) -> dict[str, float]:
    """Per-operation layer metrics; operation k's span times are scaled by scales[k]."""
    ops = len(scales)
    total: Counter = Counter()
    self_total: Counter = Counter()
    for name, duration, mine, _, _ in scaled(spans, scales):
        total[name] += duration
        self_total[name] += mine

    def ms(seconds: float) -> float:
        return 1e3 * seconds / ops

    def per_op(key: str) -> float:
        return counts[key] / ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    evals_2d = counts["quadrature.2d.evals"]
    pairs = counts["information.point_pairs"]
    tree_self = sum(v for k, v in self_total.items() if k.startswith("tree."))
    return {
        "quadrature.calls_2d": per_op("quadrature.2d"),
        "quadrature.ms_2d": ms(total["quadrature.2d"]),
        "quadrature.evals_2d": per_op("quadrature.2d.evals"),
        "quadrature.panels_2d": per_op("quadrature.2d.evals") / PANEL_NODES_2D,
        "quadrature.evals_per_call_2d": ratio(evals_2d, counts["quadrature.2d"]),
        "quadrature.ns_per_eval_2d": ratio(1e9 * total["quadrature.2d"], evals_2d),
        "quadrature.convergence_errors": per_op("quadrature.convergence_errors"),
        "quadrature.calls_1d": per_op("quadrature.1d"),
        "quadrature.ms_1d": ms(total["quadrature.1d"]),
        "quadrature.evals_1d": per_op("quadrature.1d.evals"),
        "information.mi_calls": per_op("information.mi"),
        "information.mi_ms": ms(total["information.mi"]),
        "information.mi_self_ms": ms(self_total["information.mi"]),
        "information.point_pairs": per_op("information.point_pairs"),
        "information.ns_per_pair": ratio(1e9 * self_total["information.mi"], pairs),
        "distributions.pdf_calls": per_op("distributions.pdf"),
        "tree.induce_ms": ms(total["tree.induce"]),
        "tree.self_ms": ms(tree_self),
        "tree.fit_ms": ms(total["tree.fit"]),
        "tree.sets_ms": ms(total["tree.sets"]),
        "tree.gain_calls": per_op("tree.gain"),
        "tree.splits": per_op("tree.splits"),
        "tree.splits_per_gain": ratio(counts["tree.splits"], counts["tree.gain"]),
    }


def cli_metrics(spans: list[list], scales: list[float], commands: dict[int, str]
                ) -> dict[str, float]:
    """Parse, compute and main self time per CLI operation, overall and per command.

    `commands` maps each traced operation to its subcommand. Only the
    outermost of nested parse or compute spans counts, so a parse helper
    that calls another is not counted twice.
    """
    parse: Counter = Counter()
    compute: Counter = Counter()
    main_self: Counter = Counter()
    for name, duration, mine, parent, op in scaled(spans, scales):
        outer = parent < 0 or spans[parent][0] != name
        if name == "cli.parse" and outer:
            parse[op] += duration
        elif name == "cli.compute" and outer:
            compute[op] += duration
        elif name == "cli.main":
            main_self[op] += mine
    ops = len(scales)
    out = {"cli.parse_ms": 1e3 * sum(parse.values()) / ops,
           "cli.compute_ms": 1e3 * sum(compute.values()) / ops,
           "cli.main_self_ms": 1e3 * sum(main_self.values()) / ops}
    for command in sorted(set(commands.values())):
        mine = [op for op, c in commands.items() if c == command]
        out[f"cli.compute_ms.{command}"] = 1e3 * sum(compute[op] for op in mine) / len(mine)
    return out
