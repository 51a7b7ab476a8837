"""Every name a softprob module imports is used, re-exported or kept on purpose.

This is the unused-import check (pyflakes' F401) for src/softprob, so that a
consolidation that leaves an import behind fails tier-1. An imported name
passes if the module reads it, if softprob/__init__.py imports it from this
module (its public names), or if its import line carries "# noqa: F401"
followed by the reason it is kept.
"""

import ast
import re
from pathlib import Path

import pytest

import softprob

SRC = Path(softprob.__file__).resolve().parent
KEPT = re.compile(r"#\s*noqa:\s*F401\s+\S")


def _exported(module: str) -> set[str]:
    """The names of module that softprob re-exports: all of __init__'s public names,
    and of any other module those that __init__.py imports from it."""
    if module == "__init__":
        return set(softprob.__all__)
    return {alias.asname or alias.name
            for node in ast.walk(ast.parse((SRC / "__init__.py").read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names}


def _unused(source: str, exported: set[str]) -> list[str]:
    """The names source imports that it neither reads, re-exports nor keeps."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            kept = any(KEPT.search(lines[k - 1]) for k in (node.lineno, alias.lineno))
            if not (name in read or name in exported or kept):
                unused.append(name)
    return unused


MODULES = sorted(path.stem for path in SRC.glob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    source = (SRC / f"{module}.py").read_text()
    assert _unused(source, _exported(module)) == []


def test_the_check_finds_an_unused_import():
    source = ("import os\n"
              "import os.path as osp\n"
              "from json import dumps, loads\n"
              "from math import pi  # noqa: F401  (kept for callers)\n"
              "from math import tau  # noqa: F401\n"
              "from .mod import exported\n"
              "loads('1')\n")
    assert _unused(source, {"exported"}) == ["os", "osp", "dumps", "tau"]
    assert "ps2" in _exported("probability") and "ps2" in _exported("__init__")
    assert {"__init__", "distributions", "information"} <= set(MODULES)
