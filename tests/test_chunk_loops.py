"""No softprob module but quadrature cuts its own chunks.

quadrature.blocks is the one rule for how many rows a batched array call
takes, so a loop over range(0, n, step) anywhere else in src/softprob is a
second copy of that bound. This check walks each module's AST for a range
call with a step that a for loop or a comprehension iterates.
"""

import ast
from pathlib import Path

import pytest

import softprob

SRC = Path(softprob.__file__).resolve().parent


def _chunk_loops(source: str) -> list[int]:
    """The lines of the loops and comprehensions of source that iterate range(a, b, step)."""
    loops = [node.iter for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))]
    return [node.lineno for node in loops
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "range" and len(node.args) == 3]


MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "quadrature")


@pytest.mark.parametrize("module", MODULES)
def test_only_quadrature_cuts_chunks(module):
    assert _chunk_loops((SRC / f"{module}.py").read_text()) == []


def test_the_check_finds_a_chunk_loop():
    source = ("for start in range(0, n, rows):\n"
              "    pass\n"
              "for k in range(1, n):\n"
              "    pass\n"
              "parts = [f(xs[k:k + rows]) for k in range(0, len(xs), rows)]\n")
    assert _chunk_loops(source) == [1, 5]
    assert "information" in MODULES and "quadrature" not in MODULES
