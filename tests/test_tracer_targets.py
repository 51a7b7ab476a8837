"""Every attribute the benchmark tracer wraps still exists where the tracer looks for it.

perfbench/tracer.py wraps module and class attributes by name and skips a
name that no longer resolves, so a renamed or deleted function would
silently drop out of the traced counters. An import that a module keeps
only for the tracer must be one of its targets, and a traced induce must
time every node's gain. The tracer is loaded from its file, as the
benchmark harness runs it, without importing perfbench.
"""

import importlib.util
import random
import re
from pathlib import Path

import pytest

import softprob.tree as tree
from softprob.tree import Dataset, Observation, Split, TreeConfig, tree_to_dict

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize(
    "target", sorted({target for target, _, _ in (*tracer.LIBRARY_PATCHES, *tracer.CLI_PATCHES)}))
def test_target_is_an_attribute_of_its_owner(target):
    owner, attr = tracer._resolve(target)
    assert attr in vars(owner), f"{target} does not resolve"


SRC = TRACER.parents[1] / "src" / "softprob"
KEPT = "perfbench/tracer.py wraps this name"


def test_every_import_kept_for_the_tracer_is_wrapped():
    # such an import is unused by its own module, so once the tracer stops
    # wrapping it, it should go
    targets = {target for target, _, _ in tracer.LIBRARY_PATCHES}
    kept = []
    for path in sorted(SRC.glob("*.py")):
        for line in path.read_text().splitlines():
            if KEPT in line:
                match = re.fullmatch(rf"from \.\w+ import (\w+)  # noqa: F401  \({KEPT}\)", line)
                assert match, f"{path.name}: {line!r} is not a one-name import"
                kept.append(f"softprob.{path.stem}:{match[1]}")
    assert kept
    assert [target for target in kept if target not in targets] == []


def _dataset(seed: int, n: int) -> Dataset:
    """y = x1 + noise and an independent x2, a quarter of the cells intervals."""
    rng = random.Random(seed)

    def cell(value):
        if rng.random() < 0.25:
            half = rng.uniform(0.1, 0.4)
            return Observation.interval(value - half, value + half)
        return Observation.point(value)

    rows = []
    for _ in range(n):
        x1, x2 = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        rows.append(((cell(x1), cell(x2)), cell(x1 + rng.gauss(0.0, 0.5))))
    return Dataset(["x1", "x2"], rows)


def _scored_nodes(node, cfg: TreeConfig, depth: int = 0) -> int:
    """The nodes of a grown tree that scored their features: every split, and
    every leaf that was neither too small nor too deep to try."""
    if isinstance(node, Split):
        return (1 + _scored_nodes(node.left, cfg, depth + 1)
                + _scored_nodes(node.right, cfg, depth + 1))
    return int(depth < cfg.max_depth and node.count >= cfg.min_rows)


def test_traced_induce_counts_one_gain_span_per_scored_node():
    owners = [tracer._resolve(target) for target, _, _ in tracer.LIBRARY_PATCHES]
    originals = [vars(owner)[attr] for owner, attr in owners]
    cfg = TreeConfig(max_depth=3, min_rows=8)
    ds = _dataset(11, 400)
    with tracer.Tracer() as traced:
        traced.install(tracer.LIBRARY_PATCHES)
        root = tree.induce(ds, cfg)
    assert traced.missing == []
    assert traced.counts["tree.induce"] == 1
    assert traced.counts["tree.gain"] == _scored_nodes(root, cfg) > 1
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(owners, originals))
    assert tree_to_dict(root) == tree_to_dict(tree.induce(ds, cfg))
