"""softprob benchmark: one workload driven by one closed-loop client.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is cli, table1, tree_points or tree_mixed (see workloads.py and
README.md). Run it from anywhere inside a checkout; it imports softprob
from src/. With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics; names and units come from
BENCHMARK.json. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from speed import LOOP, SpeedProbe, reference_for
from tracer import LIBRARY_PATCHES, Tracer, cli_metrics, layer_metrics
from workloads import HERE, ROOT, SRC, WORKLOADS, Cli, src_env

DEFAULT_SEED = 1
HELD_OUT_SEED = 2201  # a gain claimed on DEFAULT_SEED must also hold on this seed
CLI_COMMANDS = ("ps", "entropy", "kld", "mi", "moments", "tree-train", "tree-predict")
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
OUT = HERE / "out"
# counts that must repeat exactly across passes and across runs of the same code and seed
REPEAT_COUNTS = ("quadrature.2d.evals", "quadrature.1d.evals", "information.point_pairs",
                 "tree.gain", "tree.splits")


class Phase:
    """Operation times and failures of one closed-loop phase."""

    def __init__(self):
        self.wall: list[float] = []
        self.scales: list[float] = []
        self.failures: list[str] = []
        self.pass_counts: list[dict[str, int]] = []

    @property
    def attempted(self) -> int:
        return len(self.wall)

    @property
    def durations(self) -> list[float]:
        """Operation times rescaled to the nominal CPU speed."""
        return [w * s for w, s in zip(self.wall, self.scales)]

    def record(self, wall: float, scale: float) -> None:
        self.wall.append(wall)
        self.scales.append(scale)


def run_phase(wl, count: int, seconds: float, signatures: dict, *, min_passes: int = 1,
              whole_passes: bool = True, tracer: Tracer | None = None) -> Phase:
    """Run passes over inputs 0..count-1 until `seconds` have passed.

    Only `wl.run` is timed. A raising operation, an oracle mismatch, or an
    output that differs from an earlier one for the same input is a failure.
    """
    phase = Phase()
    reference = reference_for(wl)
    last_sample = None
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        pass_start = Counter(tracer.counts) if tracer else Counter()
        for i in range(count):
            if not whole_passes and phase.attempted and time.perf_counter() >= deadline:
                return phase
            arg = wl.prepare(i)
            if tracer is not None:
                tracer.op = phase.attempted
            error = None
            with SpeedProbe(reference, sample=tracer is None and reference is LOOP,
                            before=last_sample) as probe:
                try:
                    out = wl.run(arg)
                except Exception as exc:  # a raising operation is counted, not fatal
                    error = exc
            phase.record(probe.wall, probe.scale)
            last_sample = probe.samples[-1]
            if error is not None:
                phase.failures.append(f"input {i}: {type(error).__name__}: {error}")
                continue
            try:
                wl.check(i, out)
                sig = wl.signature(out)
                if signatures.setdefault(i, sig) != sig:
                    raise ValueError("output differs from an earlier run of the same input")
            except Exception as exc:
                phase.failures.append(f"input {i}: {type(exc).__name__}: {exc}")
            if tracer is not None:
                tracer.counts["tree.splits"] += wl.splits(out)
        passes += 1
        if tracer is not None:
            phase.pass_counts.append({k: tracer.counts[k] - pass_start[k] for k in REPEAT_COUNTS})
        if passes >= min_passes and time.perf_counter() >= deadline:
            return phase


def tail(durations: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile above the median qualifies,
    and the median is returned.
    """
    n = len(durations)
    q = math.floor(100 * (1 - 10 / n))
    if q <= 50:
        return 50, statistics.median(durations)
    return q, sorted(durations)[math.ceil(q * n / 100) - 1]


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--setup-only"],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def import_costs() -> dict[str, float]:
    """Median time of bare interpreter start, and what numpy and softprob add to it."""
    env = src_env()
    codes = {"pass": "pass", "numpy": "import numpy", "softprob": "import softprob"}
    times: dict[str, list[float]] = {k: [] for k in codes}
    for _ in range(IMPORT_REPEATS):
        for key, code in codes.items():
            with SpeedProbe(LOOP) as probe:
                subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                               timeout=60)
            times[key].append(probe.scaled)
    med = {k: 1e3 * statistics.median(v) for k, v in times.items()}
    return {"cli.interpreter_ms": med["pass"],
            "cli.import_ms": med["softprob"] - med["pass"],
            "cli.import_numpy_ms": med["numpy"] - med["pass"]}


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeat_errors(workload: str, seed: int, phase: Phase) -> list[str]:
    """Named counts must be equal in every pass and in every run of this code and seed."""
    first = phase.pass_counts[0]
    errors = [f"pass {k}: counts {c} differ from pass 0: {first}"
              for k, c in enumerate(phase.pass_counts) if c != first]
    store = OUT / "counts.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload} seed={seed} code={code_hash()}"
    if key in known and known[key] != first:
        errors.append(f"counts {first} differ from an earlier run: {known[key]}")
    known[key] = first
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return errors


def end_to_end(wl, args, setups: list[float]):
    phase = run_phase(wl, wl.inputs, args.seconds, {}, whole_passes=False)
    q, slow = tail(phase.durations)
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(phase.durations) / sum(phase.durations),
        "op_p50_ms": 1e3 * statistics.median(phase.durations),
        "op_tail_ms": 1e3 * slow,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    notes = [f"setup_s is the median of {len(setups)} set-ups: "
             + ", ".join(f"{s:.4f}" for s in setups),
             f"op_tail_ms is p{q} of {phase.attempted} operations",
             f"unscaled wall time: op p50 {1e3 * statistics.median(phase.wall):.6g} ms, "
             f"mean speed scale {statistics.fmean(phase.scales):.4f}",
             f"failed_frac {len(phase.failures) / phase.attempted:.6g}"]
    return values, [phase], notes, []


def per_layer(wl, args):
    signatures: dict = {}
    n = wl.traced_inputs
    base = run_phase(wl, n, args.seconds / 2, signatures)
    tracer = Tracer()
    cli = isinstance(wl, Cli)
    with tracer:
        if cli:
            wl.tracer = tracer  # each traced CLI child installs the wrappers itself
        else:
            tracer.install(LIBRARY_PATCHES)
        try:
            traced = run_phase(wl, n, args.seconds / 2, signatures, min_passes=2, tracer=tracer)
        finally:
            if cli:
                wl.tracer = None
    values = layer_metrics(tracer.spans, tracer.counts, traced.scales)
    values.update(dict.fromkeys(["cli.parse_ms", "cli.compute_ms", "cli.main_self_ms"]
                                + [f"cli.compute_ms.{c}" for c in CLI_COMMANDS], 0.0))
    if cli:
        values.update(cli_metrics(tracer.spans, traced.scales, wl.traced_ops))
    values.update(import_costs())
    values["cli.exit_nonzero"] = tracer.counts["cli.exit_nonzero"]
    overhead = statistics.median(traced.durations) / statistics.median(base.durations)
    values["trace.overhead"] = overhead
    errors = repeat_errors(wl.name, args.seed, traced)
    spans_path = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
    notes = [f"traced {traced.attempted} operations ({len(traced.pass_counts)} passes over "
             f"{n} inputs) after {base.attempted} untraced ones",
             f"tracing overhead: traced/untraced op_p50_ms = {overhead:.4f}",
             f"counts per pass: {traced.pass_counts[0]}",
             f"spans written to {spans_path.relative_to(ROOT)}"]
    if tracer.missing:
        notes.append("not wrapped (attribute missing): " + ", ".join(tracer.missing))
    return values, [base, traced], notes, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for set-up probes)")
    args = parser.parse_args(argv)
    if not (SRC / "softprob" / "__init__.py").is_file():
        print(f"error: no softprob package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        reference = reference_for(WORKLOADS[args.workload])
        with SpeedProbe(reference, sample=reference is LOOP) as probe:
            wl = WORKLOADS[args.workload](args.seed, workdir)
        setup = probe.scaled
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        if args.trace:
            values, phases, notes, errors = per_layer(wl, args)
        else:
            setups = [setup] + [probe_setup(args.workload, args.seed)
                                for _ in range(SETUP_REPEATS - 1)]
            values, phases, notes, errors = end_to_end(wl, args, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in phases for f in p.failures]
    attempted = sum(p.attempted for p in phases)
    print(f"workload {wl.name}, seed {args.seed}: {wl.why}")
    for line in notes + errors + failures[:10]:
        print(line)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not (failures or errors), "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
