"""The complete examples in README.md print what README shows.

Each fenced block that starts with `$ softprob` holds one command, with
`\\` continuation lines, followed by its exact stdout. Blocks elided with
`...` are skipped. Each ```python block runs as a script, and every line it
prints is the value comment of its print call: the `# value` at the end of
the print line, or the comment line right below it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from softprob.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(), re.S | re.M)


def _examples():
    examples = []
    for language, block in BLOCKS:
        if language or not block.startswith("$ softprob") or "..." in block:
            continue
        lines = block.splitlines()
        n = 1
        while lines[n - 1].endswith("\\"):
            n += 1
        command = " ".join(line.rstrip("\\") for line in lines[:n])
        argv = shlex.split(command)[2:]
        examples.append(pytest.param(argv, "".join(f"{line}\n" for line in lines[n:]),
                                     id=argv[0]))
    return examples


EXAMPLES = _examples()
SCRIPTS = [block for language, block in BLOCKS if language == "python"]


def test_every_complete_example_is_found():
    assert [p.id for p in EXAMPLES] == ["ps", "kld", "entropy", "moments", "mi"]
    assert len(SCRIPTS) == 2


@pytest.mark.parametrize("argv, stdout", EXAMPLES)
def test_example_output_is_byte_identical(argv, stdout, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout


def _value_comments(script: str) -> list[str]:
    """The value comment of each print call of the script, in order."""
    lines = script.splitlines()
    values = []
    for k, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        inline = re.match(r"^print\(.*\)\s+# (.*)$", line)
        below = lines[k + 1] if k + 1 < len(lines) else ""
        assert inline or below.startswith("# "), f"print without a value comment: {line}"
        values.append(inline.group(1) if inline else below[2:])
    return values


@pytest.mark.parametrize("script", SCRIPTS, ids=[f"block{k}" for k in range(len(SCRIPTS))])
def test_python_example_prints_its_value_comments(script):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(script, str(README), "exec"), {"__name__": "readme_example"})
    assert out.getvalue().splitlines() == _value_comments(script)
