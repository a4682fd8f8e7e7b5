"""The README's ``console`` examples: each ``$ pal …`` line, run from the
repository root through ``python -m privcalc.cli``, prints exactly the
lines shown under it."""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import CHILD_ENV

ROOT = Path(__file__).resolve().parent.parent


def _examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each ``$ pal`` line of a console
    block; a trailing backslash continues the command, and the output
    runs to the next blank line, command or end of block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```console\n(.*?)^```", readme, re.M | re.S):
        lines = block.splitlines()
        while lines:
            line = lines.pop(0)
            if not line.startswith("$ pal "):
                continue
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + lines.pop(0)
            output = []
            while lines and lines[0] and not lines[0].startswith("$ "):
                output.append(lines.pop(0) + "\n")
            examples.append((command, "".join(output)))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize(
    "command, expected", EXAMPLES, ids=[c.split()[1] for c, _ in EXAMPLES]
)
def test_readme_console_example(command, expected):
    argv = shlex.split(command)[1:]
    proc = subprocess.run(
        [sys.executable, "-m", "privcalc.cli", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=CHILD_ENV,
    )
    assert proc.stdout == expected, proc.stderr
