"""Command-line interface.

Commands: table1 (check the bundled Gaussian reference table), ps, entropy,
kld, mi, moments (evaluate soft quantities from JSON descriptors), and
tree-train / tree-predict (induce and apply a soft-MI decision tree).

Output is deterministic: identical inputs produce byte-identical output in
both the human format and the machine format. --stats adds one JSON line
on stderr with the totals of the run's 1-D quadrature records (QuadStats)
and leaves stdout as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from typing import Optional

from . import __version__
from .distributions import joint_gaussian_additive, Gaussian, parse_distribution, parse_joint
from .errors import DomainError, SoftProbError
from .information import FORM_CONDITIONAL, FORM_SYMMETRIC, ZLOGZ_AXIS, InfoConfig, \
    soft_cross_entropy, soft_entropy, soft_kld, soft_mutual_information
from .moments import MixedSet, soft_expectation, soft_variance
from .probability import IntervalEvent, Relation, ps2, ps_cond_point_given_interval, \
    ps_cond_point_given_point, ps_eq, ps_interval, ps_intersect_point_interval, ps_leq, \
    ps_lt, ps_neq, ps_points_intersection, ps_points_union, ps_union_point_interval
from .quadrature import QuadratureConfig, collect_stats, total_stats
from .softnum import ExtendedSoftNumber, SoftNumber, ext_to_dict, soft_to_dict
from .tree import Observation, TreeConfig, induce, parse_dataset, predict, read_table, \
    tree_from_dict, tree_to_dict

# reference values for the additive standard-Gaussian channel:
# X ~ N(0,1), W ~ N(0,1), Y = X + W; each row is
# (x0, y0, (a,b), (A,B), soft reference, real reference,
#  soft tolerance, real tolerance) with tolerances ("abs"|"rel", bound)
TABLE1_ROWS = (
    (0.0, 0.0, (1.0, 2.0), (1.0, 2.0), 0.055159, 0.042381,
     ("abs", 1e-5), ("abs", 1e-5)),
    (0.0, 1.0, (1.0, 2.0), (2.0, 3.0), 0.0093225, 0.037941,
     ("abs", 1e-5), ("abs", 1e-5)),
    (1.0, 0.0, (2.0, 3.0), (1.0, 3.0), -0.0089831, 0.018353,
     ("abs", 1e-5), ("abs", 1e-5)),
    (1.0, 0.0, (20.0, 30.0), (10.0, 30.0), -0.0089831, 2.7404e-87,
     ("abs", 1e-6), ("rel", 1e-2)),
    (20.0, 30.0, (2.0, 3.0), (1.0, 3.0), 7.4494e-108, 0.018353,
     ("abs", 1e-5), ("abs", 1e-5)),
)

LOG_BASES = {"e": math.e, "2": 2.0, "10": 10.0}


def _quadrature(args) -> Optional[QuadratureConfig]:
    return None if args.rel_tol is None else QuadratureConfig(rel_tol=args.rel_tol)


def _info_config(args, zlogz_mode: str = ZLOGZ_AXIS) -> InfoConfig:
    return InfoConfig(log_base=LOG_BASES[args.log_base], zlogz_mode=zlogz_mode,
                      quadrature=_quadrature(args))


def _parse_json(text: str, what: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SoftProbError(f"malformed JSON for {what}: {exc}") from exc
    except RecursionError:
        raise DomainError(f"JSON for {what} is nested too deeply") from None


# the JSON record of each soft type; str() gives its human form
SOFT_RECORDS = {SoftNumber: soft_to_dict, ExtendedSoftNumber: ext_to_dict}


def _emit(args, record: dict, human_lines: Optional[list[str]] = None) -> None:
    """Print record as one JSON object with sorted keys, or in the human format.

    The human format is human_lines when given, else "name = value" lines:
    a soft value's human form, then, for it and for a dict, one
    "name.field = value" line per field of its JSON record.
    """
    data = {name: SOFT_RECORDS[type(v)](v) if type(v) in SOFT_RECORDS else v
            for name, v in record.items()}
    if args.format == "json-like":
        human_lines = [json.dumps(data, sort_keys=True)]
    elif human_lines is None:
        human_lines = []
        for name, value in record.items():
            if type(value) in SOFT_RECORDS:
                human_lines.append(f"{name} = {value}")
            if isinstance(data[name], dict):
                human_lines += [f"{name}.{field} = {v!r}" for field, v in data[name].items()]
            else:
                human_lines.append(f"{name} = {value!r}")
    for line in human_lines:
        print(line)


def _within(computed: float, reference: float, tol: tuple[str, float]) -> tuple[bool, float]:
    kind, bound = tol
    if kind == "abs":
        delta = abs(computed - reference)
    else:
        delta = abs(computed - reference) / abs(reference)
    return delta <= bound, delta


def cmd_table1(args) -> int:
    cfg = _info_config(args)
    model = joint_gaussian_additive(Gaussian(0.0, 1.0), Gaussian(0.0, 1.0))
    rows_out = []
    lines = []
    all_pass = True
    for i, (x0, y0, xiv, yiv, ref_soft, ref_real, tol_soft, tol_real) in enumerate(
            TABLE1_ROWS, start=1):
        sx = MixedSet([x0], [xiv])
        sy = MixedSet([y0], [yiv])
        value = soft_mutual_information(model, sx, sy, cfg, form=FORM_CONDITIONAL)
        ok_soft, d_soft = _within(value.soft, ref_soft, tol_soft)
        ok_real, d_real = _within(value.real, ref_real, tol_real)
        all_pass = all_pass and ok_soft and ok_real
        rows_out.append({
            "row": i, "x0": x0, "y0": y0, "x_interval": list(xiv), "y_interval": list(yiv),
            "computed": soft_to_dict(value),
            "reference": {"soft": ref_soft, "real": ref_real},
            "soft_delta": d_soft, "soft_tolerance": {"kind": tol_soft[0], "bound": tol_soft[1]},
            "real_delta": d_real, "real_tolerance": {"kind": tol_real[0], "bound": tol_real[1]},
            "soft_pass": ok_soft, "real_pass": ok_real,
        })
        lines.append(f"row {i}: x0={x0!r} y0={y0!r} x_iv=({xiv[0]!r},{xiv[1]!r}) "
                     f"y_iv=({yiv[0]!r},{yiv[1]!r})")
        lines.append(f"  soft: computed={value.soft!r} reference={ref_soft!r} "
                     f"{tol_soft[0]}_delta={d_soft!r} bound={tol_soft[1]!r} "
                     f"{'PASS' if ok_soft else 'FAIL'}")
        lines.append(f"  real: computed={value.real!r} reference={ref_real!r} "
                     f"{tol_real[0]}_delta={d_real!r} bound={tol_real[1]!r} "
                     f"{'PASS' if ok_real else 'FAIL'}")
    n_ok = sum(1 for r in rows_out if r["soft_pass"] and r["real_pass"])
    lines.append(f"table1: {n_ok}/{len(rows_out)} rows within tolerance")
    _emit(args, {"rows": rows_out, "all_pass": all_pass}, lines)
    return 0 if all_pass else 1


def _interval_event(args) -> IntervalEvent:
    if args.interval is None:
        raise SoftProbError("this operation needs --interval \"lo,hi\"")
    parts = args.interval.split(",")
    if len(parts) != 2:
        raise SoftProbError(f"--interval expects \"lo,hi\", got {args.interval!r}")
    return IntervalEvent(float(parts[0]), float(parts[1]), strict=not args.closed)


def _points_list(args) -> list[float]:
    if args.points is None:
        raise SoftProbError("this operation needs --points \"p1,p2,...\"")
    text = args.points.strip()
    if not text:
        return []
    return [float(p) for p in text.split(",")]


def _need(args, name: str) -> float:
    if (value := getattr(args, name)) is None:
        raise SoftProbError(f"this operation needs --{name}")
    return value


# ps operations on one distribution d; each lambda looks its ps_* function
# and argument helpers up when it runs, so wrappers installed on this
# module's names see every call
PS_OPS = {
    "eq": lambda d, args: ps_eq(d, _need(args, "x")),
    "lt": lambda d, args: ps_lt(d, _need(args, "x")),
    "leq": lambda d, args: ps_leq(d, _need(args, "x")),
    "neq": lambda d, args: ps_neq(d, _need(args, "x")),
    "interval": lambda d, args: ps_interval(d, _interval_event(args)),
    "points-union": lambda d, args: ps_points_union(d, _points_list(args)),
    "points-intersect": lambda d, args: ps_points_intersection(d, _points_list(args)),
    "union": lambda d, args: ps_union_point_interval(d, _need(args, "x"), _interval_event(args)),
    "intersect": lambda d, args: ps_intersect_point_interval(
        d, _need(args, "x"), _interval_event(args)),
    "cond-interval": lambda d, args: ps_cond_point_given_interval(
        d, _need(args, "x"), _interval_event(args)),
    "cond-point": lambda d, args: ps_cond_point_given_point(d, _need(args, "x"),
                                                            _need(args, "y")),
}


def cmd_ps(args) -> int:
    if args.op == "ps2":
        if args.joint is None:
            raise SoftProbError("ps2 needs --joint")
        model = parse_joint(_parse_json(args.joint, "--joint"))
        if args.rx is None or args.ry is None:
            raise SoftProbError("ps2 needs --rx and --ry")
        value = ps2(model, _need(args, "x"), args.y if args.y is not None else 0.0,
                    Relation(args.rx), Relation(args.ry))
    else:
        if args.dist is None:
            raise SoftProbError(f"operation {args.op!r} needs --dist")
        value = PS_OPS[args.op](parse_distribution(_parse_json(args.dist, "--dist")), args)
    _emit(args, {"value": value})
    return 0


def _mixed_set(text: Optional[str], flag: str) -> MixedSet:
    if text is None:
        raise SoftProbError(f"missing {flag}")
    return MixedSet.from_dict(_parse_json(text, flag))


def cmd_entropy(args) -> int:
    d = parse_distribution(_parse_json(args.dist, "--dist"))
    ms = _mixed_set(args.set, "--set")
    cfg = _info_config(args, args.zlogz)
    if args.dist_hat is not None:
        d_hat = parse_distribution(_parse_json(args.dist_hat, "--dist-hat"))
        value = soft_cross_entropy(d, d_hat, ms, cfg)
        name = "cross_entropy"
    else:
        value = soft_entropy(d, ms, cfg)
        name = "entropy"
    _emit(args, {name: value})
    return 0


def cmd_kld(args) -> int:
    d = parse_distribution(_parse_json(args.dist, "--dist"))
    d_hat = parse_distribution(_parse_json(args.dist_hat, "--dist-hat"))
    ms = _mixed_set(args.set, "--set")
    value = soft_kld(d, d_hat, ms, _info_config(args))
    _emit(args, {"kld": value})
    return 0


def cmd_mi(args) -> int:
    model = parse_joint(_parse_json(args.joint, "--joint"))
    sx = _mixed_set(args.set_x, "--set-x")
    sy = _mixed_set(args.set_y, "--set-y")
    value = soft_mutual_information(model, sx, sy, _info_config(args), form=args.form)
    _emit(args, {"mi": value})
    return 0


def cmd_moments(args) -> int:
    d = parse_distribution(_parse_json(args.dist, "--dist"))
    ms = _mixed_set(args.set, "--set")
    quad = _quadrature(args)
    expectation = soft_expectation(d, ms, quad)
    variance, rec = soft_variance(d, ms, quad)
    _emit(args, {"expectation": expectation, "variance": variance,
                 "components": dataclasses.asdict(rec)})
    return 0


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SoftProbError(f"cannot read {what} file {path!r}: {exc}") from exc


def cmd_tree_train(args) -> int:
    ds = parse_dataset(_read_text(args.data, "dataset"), delimiter=args.delimiter)
    cfg = TreeConfig(max_depth=args.max_depth, min_rows=args.min_rows,
                     info=_info_config(args))
    root = induce(ds, cfg)
    model_doc = {
        "feature_names": list(ds.feature_names),
        "label_name": ds.label_name,
        "config": {"max_depth": cfg.max_depth, "min_rows": cfg.min_rows},
        "seed": args.seed,
        "tree": tree_to_dict(root),
    }
    text = json.dumps(model_doc, sort_keys=True)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SoftProbError(f"cannot write model file {args.out!r}: {exc}") from exc
        print(f"wrote model to {args.out}")
    else:
        print(text)
    return 0


def _rows_for_predict(feature_names: list[str], text: str,
                      delimiter: str) -> list[list[Observation]]:
    header, rows = read_table(text, delimiter)
    if not header:
        raise SoftProbError("prediction input is empty")
    if header == feature_names:
        return list(rows)
    if header[:-1] == feature_names:
        return [row[:-1] for row in rows]
    raise SoftProbError(
        f"input columns {header!r} do not match model features {feature_names!r}")


def cmd_tree_predict(args) -> int:
    model_doc = _parse_json(_read_text(args.model, "model"), "model file")
    if not isinstance(model_doc, dict) or "tree" not in model_doc:
        raise SoftProbError("model file does not contain a 'tree' entry")
    root = tree_from_dict(model_doc["tree"])
    feature_names = model_doc.get("feature_names")
    if not (isinstance(feature_names, list) and feature_names):
        raise SoftProbError("model file does not contain a 'feature_names' list")
    feature_names = [str(n) for n in feature_names]
    rows = _rows_for_predict(feature_names, _read_text(args.data, "dataset"), args.delimiter)
    predictions = [predict(root, row, feature_names) for row in rows]
    _emit(args, {"predictions": predictions}, [f"{p!r}" for p in predictions])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    # flags shared by several subcommands; each subcommand takes the parents
    # whose flags it reads, so that no flag is accepted and then ignored
    stats = argparse.ArgumentParser(add_help=False)
    stats.add_argument("--stats", action="store_true",
                       help="write the totals of the 1-D quadrature runs to stderr as one "
                            "JSON line")
    shown = argparse.ArgumentParser(add_help=False, parents=[stats])
    shown.add_argument("--format", choices=["human", "json-like"], default="human",
                       help="output format")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--rel-tol", type=float, default=None,
                     help="override the quadrature relative tolerance")
    info = argparse.ArgumentParser(add_help=False, parents=[tol])
    info.add_argument("--log-base", choices=sorted(LOG_BASES), default="e",
                      help="logarithm base for information quantities")

    parser = argparse.ArgumentParser(
        prog="softprob",
        description="Soft-number arithmetic and soft probability toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", parents=[shown, info],
                   help="evaluate the Gaussian mutual-information reference table")

    p = sub.add_parser("ps", parents=[shown], help="soft probability of an event")
    p.add_argument("--op", required=True, choices=[*PS_OPS, "ps2"])
    p.add_argument("--dist", help="distribution descriptor (JSON)")
    p.add_argument("--joint", help="joint model descriptor (JSON), for ps2")
    p.add_argument("--x", type=float, help="point of interest")
    p.add_argument("--y", type=float, help="second point (cond-point) or y for ps2")
    p.add_argument("--points", help="comma-separated points for set operations; join a "
                   "list that starts with '-' with '=', as in --points=-1,2")
    p.add_argument("--interval", help="interval as \"lo,hi\"; join a negative lo with '=', "
                   "as in --interval=-0.5,1.5")
    p.add_argument("--closed", action="store_true",
                   help="treat the interval as closed (non-strict)")
    p.add_argument("--rx", choices=["lt", "leq", "eq"], help="relation on X for ps2")
    p.add_argument("--ry", choices=["lt", "leq", "eq"], help="relation on Y for ps2")

    p = sub.add_parser("entropy", parents=[shown, info],
                       help="soft entropy (or cross entropy with --dist-hat)")
    p.add_argument("--zlogz", choices=["axis", "collapse"], default="axis",
                   help="keep or zero the 0log0~ coefficient of entropies")
    p.add_argument("--dist", required=True)
    p.add_argument("--dist-hat", default=None)
    p.add_argument("--set", required=True, help="MixedSet (JSON)")

    p = sub.add_parser("kld", parents=[shown, info], help="soft KL divergence")
    p.add_argument("--dist", required=True)
    p.add_argument("--dist-hat", required=True)
    p.add_argument("--set", required=True)

    p = sub.add_parser("mi", parents=[shown, info], help="soft mutual information")
    p.add_argument("--joint", required=True)
    p.add_argument("--set-x", required=True)
    p.add_argument("--set-y", required=True)
    p.add_argument("--form", choices=[FORM_SYMMETRIC, FORM_CONDITIONAL],
                   default=FORM_SYMMETRIC)

    p = sub.add_parser("moments", parents=[shown, tol],
                       help="soft expectation and variance over a MixedSet")
    p.add_argument("--dist", required=True)
    p.add_argument("--set", required=True)

    p = sub.add_parser("tree-train", parents=[stats, info],
                       help="induce a decision tree from a delimited dataset")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--out", default=None, help="model output file (default: stdout)")
    p.add_argument("--max-depth", type=int, default=5)
    p.add_argument("--min-rows", type=int, default=4)
    p.add_argument("--delimiter", default=",")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the model document; induction is deterministic")

    p = sub.add_parser("tree-predict", parents=[shown],
                       help="apply a trained tree to new rows")
    p.add_argument("--model", required=True, help="model file from tree-train")
    p.add_argument("--data", required=True, help="rows to predict")
    p.add_argument("--delimiter", default=",")

    return parser


HANDLERS = {
    "table1": cmd_table1,
    "ps": cmd_ps,
    "entropy": cmd_entropy,
    "kld": cmd_kld,
    "mi": cmd_mi,
    "moments": cmd_moments,
    "tree-train": cmd_tree_train,
    "tree-predict": cmd_tree_predict,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    with collect_stats() if args.stats else contextlib.nullcontext() as records:
        try:
            return HANDLERS[args.command](args)
        except (SoftProbError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            if args.stats:
                totals = total_stats(records)._asdict()
                print(json.dumps({"runs": len(records), **totals}, sort_keys=True),
                      file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
