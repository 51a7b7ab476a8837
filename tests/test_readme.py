"""The complete `$ softprob` examples in README.md print what README shows.

Each fenced block that starts with `$ softprob` holds one command, with
`\\` continuation lines, followed by its exact stdout. Blocks elided with
`...` are skipped.
"""

import re
import shlex
from pathlib import Path

import pytest

from softprob.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    examples = []
    for language, block in re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(),
                                      re.S | re.M):
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


def test_every_complete_example_is_found():
    assert [p.id for p in EXAMPLES] == ["ps", "kld", "entropy", "moments", "mi"]


@pytest.mark.parametrize("argv, stdout", EXAMPLES)
def test_example_output_is_byte_identical(argv, stdout, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
