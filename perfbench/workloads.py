"""The benchmark's four workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished. Construction is the set-up (imports,
inputs and oracle values); `prepare(i)` builds the input of operation i
outside the timed region, `run` is the timed operation, and `check`
compares its output with the oracle, also outside the timed region.
softprob is imported inside set-up, never at module level, so that its
import cost lands in set-up time.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

OP_TIMEOUT_S = 120.0

# The five rows of the paper's table 1: X ~ N(0,1), Y = X + W, W ~ N(0,1);
# each row is (x point, y point, x interval, y interval).
TABLE1_INPUTS = (
    (0.0, 0.0, (1.0, 2.0), (1.0, 2.0)),
    (0.0, 1.0, (1.0, 2.0), (2.0, 3.0)),
    (1.0, 0.0, (2.0, 3.0), (1.0, 3.0)),
    (1.0, 0.0, (20.0, 30.0), (10.0, 30.0)),
    (20.0, 30.0, (2.0, 3.0), (1.0, 3.0)),
)


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def close(got: float, want: float, what: str, rel: float = 1e-9, abs_tol: float = 1e-12) -> None:
    if not abs(got - want) <= max(rel * abs(want), abs_tol):
        raise Mismatch(f"{what}: got {got!r}, oracle {want!r}")


def import_softprob():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in ("information", "tree", "distributions", "moments", "quadrature"):
        importlib.import_module(f"softprob.{name}")
    return importlib.import_module("softprob")


def src_env() -> dict[str, str]:
    """The environment for a child process that imports softprob from src/."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""
    why = ""
    inputs = 1          # distinct operation inputs; operation i uses input i % inputs
    traced_inputs = 1   # inputs 0..traced_inputs-1 make one pass of the traced run
    in_process = True   # False when a child process does the work

    def prepare(self, i: int):
        return i % self.inputs

    def run(self, arg):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def signature(self, out) -> str:
        """Canonical text of an output, compared across repeats and tracing."""
        return repr(out)

    def splits(self, out) -> int:
        return 0

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()


class Table1(Workload):
    name = "table1"
    why = ("The paper's table 1: 2-D quadrature is nearly all of the time, mostly one "
           "deep-tail rectangle (row 4); point sums cost almost nothing.")

    def __init__(self, seed: int, workdir: Path):
        sp = import_softprob()
        import oracles
        self.mi = sp.information
        self.model = sp.joint_gaussian_additive(sp.Gaussian(0.0, 1.0), sp.Gaussian(0.0, 1.0))
        self.sets = [(sp.MixedSet([x0], [xiv]), sp.MixedSet([y0], [yiv]))
                     for x0, y0, xiv, yiv in TABLE1_INPUTS]
        b = oracles.Bivariate.additive(oracles.Normal(0.0, 1.0), oracles.Normal(0.0, 1.0))
        self.want = [oracles.mutual_information(b, ([x0], [xiv]), ([y0], [yiv]))
                     for x0, y0, xiv, yiv in TABLE1_INPUTS]

    def run(self, arg):
        return [self.mi.soft_mutual_information(self.model, sx, sy, form="conditional")
                for sx, sy in self.sets]

    def check(self, i, out):
        for row, (got, (soft, real)) in enumerate(zip(out, self.want), start=1):
            close(got.soft, soft, f"row {row} soft", rel=1e-12, abs_tol=0.0)
            close(got.real, real, f"row {row} real", abs_tol=0.0)

    def signature(self, out):
        return repr([(v.soft, v.real) for v in out])


def tree_rows(seed: int, n: int, interval_fraction: float):
    """y = x1 + N(0, 0.25) noise, x2 independent noise; cells are
    ("point", v) or ("interval", lo, hi) with half-width from U(0.1, 0.4).
    Draws in the same order as the test suite's tree dataset generator."""
    rng = random.Random(seed)

    def cell(value):
        if rng.random() < interval_fraction:
            half = rng.uniform(0.1, 0.4)
            return ("interval", value - half, value + half)
        return ("point", value)

    rows = []
    for _ in range(n):
        x1 = rng.gauss(0.0, 1.0)
        x2 = rng.gauss(0.0, 1.0)
        y = x1 + rng.gauss(0.0, 0.5)
        rows.append(((cell(x1), cell(x2)), cell(y)))
    return rows


class Tree(Workload):
    n = 0
    interval_fraction = 0.0

    def __init__(self, seed: int, workdir: Path):
        sp = import_softprob()
        import oracles
        self.sp = sp
        self.cfg = sp.TreeConfig(max_depth=3, min_rows=8)
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2 ** 32) for _ in range(self.inputs)]
        self.want = [oracles.root_split(tree_rows(s, self.n, self.interval_fraction))
                     for s in self.seeds]

    def prepare(self, i):
        obs = self.sp.Observation
        cell = lambda c: obs.point(c[1]) if c[0] == "point" else obs.interval(c[1], c[2])
        rows = tree_rows(self.seeds[i % self.inputs], self.n, self.interval_fraction)
        return self.sp.Dataset(["x1", "x2"],
                               [(tuple(map(cell, f)), cell(label)) for f, label in rows],
                               label_name="y")

    def run(self, ds):
        return self.sp.tree.induce(ds, self.cfg)

    def check(self, i, root):
        best, threshold, gains = self.want[i % self.inputs]
        if not isinstance(root, self.sp.tree.Split):
            raise Mismatch("root is a leaf")
        if root.feature_index != best:
            raise Mismatch(f"root split on {root.feature}, oracle picks feature {best}")
        if root.threshold != threshold:
            raise Mismatch(f"root threshold {root.threshold!r}, median is {threshold!r}")
        soft, real = gains[best]
        close(root.gain.soft, soft, "root gain soft")
        close(root.gain.real, real, "root gain real")

    def signature(self, root):
        return json.dumps(self.sp.tree.tree_to_dict(root), sort_keys=True)

    def splits(self, node):
        if isinstance(node, self.sp.tree.Split):
            return 1 + self.splits(node.left) + self.splits(node.right)
        return 0


class TreePoints(Tree):
    name = "tree_points"
    why = ("Point-only tree induction at n=800: the O(n^2) point-pair sum of mutual "
           "information is nearly all of the time and no quadrature runs.")
    n = 800
    inputs = 8


class TreeMixed(Tree):
    name = "tree_mixed"
    why = ("Tree induction at n=2000 with 25% interval cells: many shallow 2-D integrals "
           "over bulk rectangles plus the tree's own statistics and merging.")
    n = 2000
    interval_fraction = 0.25
    inputs = 128
    traced_inputs = 4


def _dist(rng: random.Random) -> dict:
    return {"kind": "gaussian", "mean": round(rng.uniform(-2.0, 2.0), 3),
            "variance": round(rng.uniform(0.5, 2.0), 3)}


def _mixed(rng: random.Random, mean: float, sd: float) -> dict:
    """Two points around one interval, all within a few sd of the mean."""
    lo = round(mean + sd * rng.uniform(-1.5, 0.0), 3)
    hi = round(lo + sd * rng.uniform(0.5, 1.5), 3)
    return {"points": [round(lo - sd * rng.uniform(0.2, 1.0), 3),
                       round(hi + sd * rng.uniform(0.2, 1.0), 3)],
            "intervals": [[lo, hi]]}


def _sets(doc: dict):
    return doc["points"], [tuple(iv) for iv in doc["intervals"]]


def _values(stdout: str, *path: str) -> tuple[float, float]:
    doc = json.loads(stdout)
    for key in path:
        doc = doc[key]
    return doc["soft"], doc["real"]


class Cli(Workload):
    name = "cli"
    in_process = False
    why = ("One softprob process per operation: interpreter start, import, argument and "
           "descriptor parsing and rendering dominate a small computation.")

    def __init__(self, seed: int, workdir: Path):
        import oracles
        self.workdir = workdir
        self.tracer = None
        self.traced_ops: dict[int, str] = {}
        self.peak_kb = 0
        self.env = src_env()
        rng = random.Random(seed)
        d, d_hat = _dist(rng), _dist(rng)
        nd, nd_hat = (oracles.Normal(g["mean"], g["variance"]) for g in (d, d_hat))
        x = round(nd.mean + nd.sd * rng.uniform(-2.0, 2.0), 3)
        a = round(nd.mean + nd.sd * rng.uniform(-1.5, 0.0), 3)
        b = round(a + nd.sd * rng.uniform(0.5, 2.0), 3)
        points = sorted({round(nd.mean + nd.sd * rng.uniform(-2.0, 2.0), 3) for _ in range(3)})
        signal, noise = _dist(rng), _dist(rng)
        joint = {"kind": "joint_gaussian_additive", "input": signal, "noise": noise}
        bv = oracles.Bivariate.additive(oracles.Normal(signal["mean"], signal["variance"]),
                                        oracles.Normal(noise["mean"], noise["variance"]))
        px = round(bv.mean_x + math.sqrt(bv.var_x) * rng.uniform(-1.0, 1.0), 3)
        py = round(bv.mean_y + math.sqrt(bv.var_y) * rng.uniform(-1.0, 1.0), 3)
        set_x = _mixed(rng, bv.mean_x, math.sqrt(bv.var_x))
        set_y = _mixed(rng, bv.mean_y, math.sqrt(bv.var_y))
        ms = _mixed(rng, nd.mean, nd.sd)
        train_rows = tree_rows(rng.randrange(2 ** 32), 40, 0.0)
        predict_rows = tree_rows(rng.randrange(2 ** 32), 10, 0.0)

        self.train_csv = workdir / "train.csv"
        self.predict_csv = workdir / "predict.csv"
        self.model_json = workdir / "model.json"
        self.train_csv.write_text("x1,x2,y\n" + "".join(
            f"{f1[1]!r},{f2[1]!r},{label[1]!r}\n" for (f1, f2), label in train_rows))
        self.predict_csv.write_text("x1,x2\n" + "".join(
            f"{f1[1]!r},{f2[1]!r}\n" for (f1, f2), _ in predict_rows))
        self.root_want = oracles.root_split(train_rows)
        self.predict_features = [[f1[1], f2[1]] for (f1, f2), _ in predict_rows]

        D, DH, J = json.dumps(d), json.dumps(d_hat), json.dumps(joint)
        pairs = [
            (["ps", "--op", "eq", "--dist", D, f"--x={x!r}"], self._human_soft,
             (nd.pdf(x), 0.0)),
            (["ps", "--op", "leq", "--dist", D, f"--x={x!r}", "--format", "json-like"],
             self._soft, (nd.pdf(x), nd.cdf(x))),
            (["ps", "--op", "interval", "--dist", D, f"--interval={a!r},{b!r}", "--closed",
              "--format", "json-like"], self._soft,
             (nd.pdf(a) + nd.pdf(b), nd.cdf(b) - nd.cdf(a))),
            (["ps", "--op", "points-union", "--dist", D,
              "--points=" + ",".join(map(repr, points)), "--format", "json-like"],
             self._soft, (sum(map(nd.pdf, points)), 0.0)),
            (["ps", "--op", "ps2", "--joint", J, f"--x={px!r}", f"--y={py!r}",
              "--rx", "leq", "--ry", "leq", "--format", "json-like"], self._soft,
             bv.ps2_leq_leq(px, py)),
            (["entropy", "--dist", D, "--set", json.dumps(ms), "--format", "json-like"],
             self._entropy, oracles.entropy(nd, *_sets(ms))),
            (["kld", "--dist", D, "--dist-hat", DH, "--set", json.dumps(ms),
              "--format", "json-like"], self._kld, oracles.kld(nd, nd_hat, *_sets(ms))),
            (["mi", "--joint", J, "--set-x", json.dumps(set_x), "--set-y", json.dumps(set_y),
              "--format", "json-like"], self._mi,
             oracles.mutual_information(bv, _sets(set_x), _sets(set_y))),
            (["moments", "--dist", D, "--set", json.dumps(ms), "--format", "json-like"],
             self._moments, oracles.moments(nd, *_sets(ms))),
            (["tree-train", "--data", str(self.train_csv), "--max-depth", "2"],
             self._tree_train, None),
            (["tree-predict", "--model", str(self.model_json), "--data", str(self.predict_csv),
              "--format", "json-like"], self._tree_predict, None),
        ]
        self.mix = [args for args, _, _ in pairs]
        self.checks = [(check, want) for _, check, want in pairs]
        self.inputs = self.traced_inputs = len(self.mix)

        rc, out, err = self._spawn([sys.executable, "-m", "softprob.cli", "tree-train",
                                    "--data", str(self.train_csv), "--max-depth", "2",
                                    "--out", str(self.model_json)])[:3]
        if rc != 0 or err:
            raise RuntimeError(f"training the prediction model failed: {err}")
        self.model = json.loads(self.model_json.read_text())
        self._check_root(self.model)

    def _spawn(self, argv):
        """Run argv to completion; returns (status, stdout, stderr, peak RSS in KiB)."""
        with open(self.workdir / "stdout", "w+") as out, open(self.workdir / "stderr", "w+") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read(), usage.ru_maxrss

    def run(self, i):
        args = self.mix[i]
        if self.tracer is None:
            argv = [sys.executable, "-m", "softprob.cli", *args]
        else:
            spans = self.workdir / "spans.json"
            argv = [sys.executable, str(HERE / "cli_trace.py"), str(spans), *args]
        rc, out, err, kb = self._spawn(argv)
        if self.tracer is None:
            self.peak_kb = max(self.peak_kb, kb)
        else:
            op = self.tracer.op
            self.traced_ops[op] = args[0]
            self.tracer.counts["cli.exit_nonzero"] += rc != 0
            if rc == 0:
                record = json.loads(spans.read_text())
                self.tracer.absorb(record["spans"], record["counts"], op)
        return rc, out, err

    def check(self, i, result):
        rc, out, err = result
        if rc != 0 or err:
            raise Mismatch(f"{self.mix[i][0]} exited {rc}: {err.strip()[-300:]}")
        check, want = self.checks[i]
        check(out, want)

    @staticmethod
    def _pair(got, want, what):
        for g, w, part in zip(got, want, ("soft", "real")):
            close(g, w, f"{what} {part}")

    def _human_soft(self, out, want):
        fields = dict(line.split(" = ", 1) for line in out.splitlines())
        self._pair((float(fields["value.soft"]), float(fields["value.real"])), want, "ps eq")

    def _soft(self, out, want):
        self._pair(_values(out, "value"), want, "ps")

    def _entropy(self, out, want):
        doc = json.loads(out)["entropy"]
        for part, w in zip(("zlogz", "soft", "real"), want):
            close(doc[part], w, f"entropy {part}")

    def _kld(self, out, want):
        self._pair(_values(out, "kld"), want, "kld")

    def _mi(self, out, want):
        self._pair(_values(out, "mi"), want, "mi")

    def _moments(self, out, want):
        doc = json.loads(out)
        for key, w in want.items():
            close(doc["components"][key], w, f"moments {key}")
        self._pair(_values(out, "expectation"), (want["nu"], want["kappa"]), "expectation")
        self._pair(_values(out, "variance"), (want["gamma"], want["lambda_sq"]), "variance")

    def _check_root(self, model):
        best, threshold, gains = self.root_want
        root = model["tree"]
        if root.get("kind") != "split" or root["feature_index"] != best:
            raise Mismatch(f"tree-train root {root.get('feature')!r}, oracle picks feature {best}")
        close(root["threshold"], threshold, "tree-train threshold", rel=0.0, abs_tol=0.0)
        self._pair((root["gain"]["soft"], root["gain"]["real"]), gains[best], "tree-train gain")

    def splits(self, result):
        rc, out, _ = result
        doc = json.loads(out) if rc == 0 and out.startswith("{") else {}
        stack = [doc["tree"]] if "tree" in doc else []
        count = 0
        while stack:
            node = stack.pop()
            if node["kind"] == "split":
                count += 1
                stack += [node["left"], node["right"]]
        return count

    def _tree_train(self, out, want):
        self._check_root(json.loads(out))

    def _tree_predict(self, out, want):
        got = json.loads(out)["predictions"]
        expected = []
        for features in self.predict_features:
            node = self.model["tree"]
            while node["kind"] == "split":
                side = "left" if features[node["feature_index"]] <= node["threshold"] else "right"
                node = node[side]
            expected.append(node["prediction"])
        if got != expected:
            raise Mismatch(f"tree-predict {got!r}, routing the model gives {expected!r}")

    def peak_rss_mb(self):
        return self.peak_kb / 1024.0


WORKLOADS = {w.name: w for w in (Cli, Table1, TreePoints, TreeMixed)}
