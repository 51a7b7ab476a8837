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
import functools
import json
import math
import sys
from typing import Optional

from . import __version__
from .distributions import joint_gaussian_additive, Gaussian, parse_distribution, parse_joint
from .errors import DomainError, SoftProbError, finite_float, open_interval
from .information import FORM_CONDITIONAL, ZLOGZ_AXIS, InfoConfig, \
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
    # the references are in nats, so the table has no --log-base
    cfg = InfoConfig(quadrature=_quadrature(args))
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
    lo, hi = open_interval(args.interval.split(","), "--interval")
    return IntervalEvent(lo, hi, strict=not args.closed)


def _points_list(args) -> list[float]:
    text = args.points.strip()
    if not text:
        return []
    return [finite_float(p, "--points entry") for p in text.split(",")]


def _dist(args):
    return parse_distribution(_parse_json(args.dist, "--dist"))


# the flags of the ps operations, with the add_argument keywords of each
PS_FLAGS = {
    "--dist": {"help": "distribution descriptor (JSON)"},
    "--joint": {"help": "joint model descriptor (JSON), for ps2"},
    "--x": {"type": float, "help": "point of interest"},
    "--y": {"type": float, "help": "second point (cond-point) or y for ps2"},
    "--points": {"help": "comma-separated points for set operations; join a list that "
                         "starts with '-' with '=', as in --points=-1,2"},
    "--interval": {"help": "interval as \"lo,hi\"; join a negative lo with '=', as in "
                           "--interval=-0.5,1.5"},
    "--closed": {"action": "store_true", "help": "treat the interval as closed (non-strict)"},
    "--rx": {"choices": ["lt", "leq", "eq"], "help": "relation on X for ps2"},
    "--ry": {"choices": ["lt", "leq", "eq"], "help": "relation on Y for ps2"},
}
# each ps operation: the flags it reads, every one of them needed but
# --closed, and its value; each lambda looks its ps_* function and argument
# helpers up when it runs, so wrappers installed on this module's names see
# every call
PS_OPS = {
    "eq": ("--dist --x", lambda args: ps_eq(_dist(args), args.x)),
    "lt": ("--dist --x", lambda args: ps_lt(_dist(args), args.x)),
    "leq": ("--dist --x", lambda args: ps_leq(_dist(args), args.x)),
    "neq": ("--dist --x", lambda args: ps_neq(_dist(args), args.x)),
    "interval": ("--dist --interval --closed",
                 lambda args: ps_interval(_dist(args), _interval_event(args))),
    "points-union": ("--dist --points",
                     lambda args: ps_points_union(_dist(args), _points_list(args))),
    "points-intersect": ("--dist --points",
                         lambda args: ps_points_intersection(_dist(args), _points_list(args))),
    "union": ("--dist --x --interval --closed", lambda args: ps_union_point_interval(
        _dist(args), args.x, _interval_event(args))),
    "intersect": ("--dist --x --interval --closed", lambda args: ps_intersect_point_interval(
        _dist(args), args.x, _interval_event(args))),
    "cond-interval": ("--dist --x --interval --closed",
                      lambda args: ps_cond_point_given_interval(_dist(args), args.x,
                                                                _interval_event(args))),
    "cond-point": ("--dist --x --y",
                   lambda args: ps_cond_point_given_point(_dist(args), args.x, args.y)),
    "ps2": ("--joint --x --y --rx --ry", lambda args: ps2(
        parse_joint(_parse_json(args.joint, "--joint")), args.x, args.y, Relation(args.rx),
        Relation(args.ry))),
}


def _ps_parser(parser: argparse.ArgumentParser, flags) -> argparse.ArgumentParser:
    """Add --op and the given ps flags to parser, and return it."""
    parser.add_argument("--op", required=True, choices=PS_OPS)
    for flag in flags:
        parser.add_argument(flag, **PS_FLAGS[flag])
    return parser


def cmd_ps(args) -> int:
    flags, value = PS_OPS[args.op]
    for flag in flags.split():
        if flag != "--closed" and getattr(args, flag[2:]) is None:
            raise SoftProbError(f"operation {args.op!r} needs {flag}")
    _emit(args, {"value": value(args)})
    return 0


def _mixed_set(text: str, flag: str) -> MixedSet:
    return MixedSet.from_dict(_parse_json(text, flag))


def cmd_entropy(args) -> int:
    d = _dist(args)
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
    d = _dist(args)
    d_hat = parse_distribution(_parse_json(args.dist_hat, "--dist-hat"))
    ms = _mixed_set(args.set, "--set")
    value = soft_kld(d, d_hat, ms, _info_config(args))
    _emit(args, {"kld": value})
    return 0


def cmd_mi(args) -> int:
    model = parse_joint(_parse_json(args.joint, "--joint"))
    sx = _mixed_set(args.set_x, "--set-x")
    sy = _mixed_set(args.set_y, "--set-y")
    # both joint kinds are Gaussian, where the two MI forms are the same function
    value = soft_mutual_information(model, sx, sy, _info_config(args))
    _emit(args, {"mi": value})
    return 0


def cmd_moments(args) -> int:
    d = _dist(args)
    ms = _mixed_set(args.set, "--set")
    quad = _quadrature(args)
    expectation = soft_expectation(d, ms, quad)
    variance, rec = soft_variance(d, ms, quad)
    _emit(args, {"expectation": expectation, "variance": variance,
                 "components": vars(rec)})
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


def _shared_parents() -> tuple[argparse.ArgumentParser, ...]:
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
    return stats, shown, tol, info


def _build_parser() -> argparse.ArgumentParser:
    stats, shown, tol, info = _shared_parents()

    parser = argparse.ArgumentParser(
        prog="softprob",
        description="Soft-number arithmetic and soft probability toolkit")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # whole flags only, so that a removed flag is never read as a longer one
    sub = parser.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    sub.add_parser("table1", parents=[shown, tol],
                   help="evaluate the Gaussian mutual-information reference table")

    _ps_parser(sub.add_parser("ps", parents=[shown], help="soft probability of an event"),
               PS_FLAGS)

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
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(argv)
    if args.command == "ps":
        # again with the flags the operation reads alone, so that any other is refused
        op_parser = argparse.ArgumentParser(prog="softprob ps", parents=[_shared_parents()[1]],
                                            allow_abbrev=False)
        _ps_parser(op_parser, PS_OPS[args.op][0].split()).parse_args(argv[1:], args)
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
