#!/usr/bin/env python3
"""Mutation testing: how many small faults in a function do the tests catch?

    python3 tools/mutate.py TARGET [TARGET ...]

A TARGET is ``MODULE`` (all of ``src/privcalc/MODULE.py``) or
``MODULE:QUALNAME``, for example ``privilege:Arrangement.overlapping``.
Each mutant changes one spot in a target's source:

- ``compare``: a comparison operator flipped to its negation
  (``==``/``!=``, ``<``/``>=``, ``<=``/``>``, ``is``/``is not``,
  ``in``/``not in``);
- ``boolop``: ``and`` swapped with ``or``;
- ``not``: a ``not`` dropped;
- ``int``: an integer constant plus or minus one;
- ``if-body``: an ``if`` body replaced by ``pass``;
- ``continue``: a ``continue`` replaced by ``pass``.

The tree is copied once (without ``.git``) into a temporary directory
(``TMPDIR`` chooses where), and each mutant is written
into the copy's module in turn, run, and undone: the source tree is
only read. A mutant runs the module's own test file,
``tests/test_MODULE.py`` if there is one, under ``-x``, and, if that
passes, the whole Tier-1 suite under ``-x``. It is killed when a run
fails, survives when both pass, and times out when a run takes longer
than ``TIMEOUT_S``. Mutants run one at a time, each pytest in a child
process limited to ``MEMORY_MB`` of address space, with no bytecode
written, so that no stale cache hides a mutant. The unmutated
copy runs Tier-1 first; if it fails, no mutant is run.

The report goes to stdout: the counts per module and operator, then
each survivor and timed-out mutant with its place, the first line of
the text it replaces and its replacement. Progress goes to stderr. Exits 0 when the campaign ran, 2 when
the unmutated copy fails or a target is not found. Standard library
only; this is a tool, not a Tier-1 step.
"""

from __future__ import annotations

import argparse
import ast
import collections
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "privcalc"
TIER1 = ["-q", "-x", "--continue-on-collection-errors"]
TIMEOUT_S = 300  # per pytest run; an unmutated Tier-1 run takes under a minute
MEMORY_MB = 2048

NEGATED = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.LtE: ast.Gt, ast.Gt: ast.LtE,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


@dataclass(frozen=True)
class Mutant:
    module: str
    operator: str
    line: int
    start: int  # character offsets into the module's source
    end: int
    replacement: str

    def apply(self, source: str) -> str:
        return source[: self.start] + self.replacement + source[self.end :]

    def describe(self, source: str) -> str:
        """Its place, and the first line of the text it replaces."""
        old = source[self.start : self.end].partition("\n")[0]
        return f"{self.module}.py:{self.line} {self.operator}: {old} -> {self.replacement}"


def _offset(lines: list[str], starts: list[int], line: int, col: int) -> int:
    """The character offset of a node's position: ``ast`` counts its
    column in UTF-8 bytes."""
    return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())


def _sites(node: ast.AST) -> list[tuple[str, ast.AST, ast.AST, str]]:
    """(operator, first node, last node, replacement) for each mutation
    under ``node``: the replacement takes the place of the source from
    the first node's start to the last node's end. Nothing inside an
    f-string is mutated, as this Python reports no positions there."""
    sites = []
    pending = [node]
    while pending:
        n = pending.pop()
        if isinstance(n, ast.JoinedStr):
            continue
        pending.extend(ast.iter_child_nodes(n))
        if isinstance(n, ast.Compare):
            for i, op in enumerate(n.ops):
                ops = [*n.ops[:i], NEGATED[type(op)](), *n.ops[i + 1 :]]
                sites.append(("compare", n, n, ast.Compare(n.left, ops, n.comparators)))
        elif isinstance(n, ast.BoolOp):
            other = ast.Or() if isinstance(n.op, ast.And) else ast.And()
            sites.append(("boolop", n, n, ast.BoolOp(other, n.values)))
        elif isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.Not):
            sites.append(("not", n, n, n.operand))
        elif isinstance(n, ast.Constant) and type(n.value) is int:
            sites += [("int", n, n, ast.Constant(n.value + d)) for d in (1, -1)]
        elif isinstance(n, ast.If):
            sites.append(("if-body", n.body[0], n.body[-1], "pass"))
        elif isinstance(n, ast.Continue):
            sites.append(("continue", n, n, "pass"))
    return [
        (op, first, last, new if isinstance(new, str) else f"({ast.unparse(new)})")
        for op, first, last, new in sites
    ]


def mutants(module: str, qualname: str | None) -> list[Mutant]:
    source = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    node: ast.AST = ast.parse(source)
    for part in qualname.split(".") if qualname else ():
        found = [
            child for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)) and child.name == part
        ]
        if not found:
            print(f"no {qualname} in {module}", file=sys.stderr)
            raise SystemExit(2)
        node = found[0]
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    out = []
    for operator, first, last, text in _sites(node):
        start = _offset(lines, starts, first.lineno, first.col_offset)
        end = _offset(lines, starts, last.end_lineno, last.end_col_offset)
        mutant = Mutant(module, operator, first.lineno, start, end, text)
        try:
            compile(mutant.apply(source), module, "exec")
        except SyntaxError:
            continue
        out.append(mutant)
    return sorted(out, key=lambda m: (m.start, m.operator, m.replacement))


def _limit_memory() -> None:
    limit = MEMORY_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_tests(copy: Path, module: str | None) -> str:
    """'survived' when the module's own test file, if any, and Tier-1
    pass, else 'killed' or 'timed out'."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    own = Path("tests") / f"test_{module}.py"
    runs = ([[str(own), "-q", "-x"]] if module and (copy / own).exists() else []) + [TIER1]
    for args in runs:
        try:
            child = subprocess.run(
                [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args],
                cwd=copy, env=env, timeout=TIMEOUT_S, capture_output=True,
                preexec_fn=_limit_memory,
            )
        except subprocess.TimeoutExpired:
            return "timed out"
        if child.returncode != 0:
            return "killed"
    return "survived"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="TARGET")
    args = parser.parse_args(argv)

    campaign = []
    for target in args.targets:
        module, _, qualname = target.partition(":")
        if not (ROOT / PACKAGE / f"{module}.py").exists():
            print(f"no module {module}", file=sys.stderr)
            return 2
        campaign += mutants(module, qualname or None)
    campaign = list(dict.fromkeys(campaign))  # targets may nest

    workdir = Path(tempfile.mkdtemp(prefix="mutate-"))
    try:
        copy = workdir / "tree"
        shutil.copytree(
            ROOT, copy,
            ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"),
        )
        if run_tests(copy, None) != "survived":
            print("the unmutated tree fails Tier-1; no mutant run", file=sys.stderr)
            return 2
        outcomes: dict[Mutant, str] = {}
        for n, mutant in enumerate(campaign, 1):
            path = copy / PACKAGE / f"{mutant.module}.py"
            original = path.read_text(encoding="utf-8")
            path.write_text(mutant.apply(original), encoding="utf-8")
            began = time.monotonic()
            try:
                outcomes[mutant] = run_tests(copy, mutant.module)
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"[{n}/{len(campaign)}] {outcomes[mutant]} in {time.monotonic() - began:.0f} s: "
                  f"{mutant.describe(original)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts = collections.Counter((m.module, m.operator, o) for m, o in outcomes.items())
    total = collections.Counter(outcomes.values())
    print(f"mutants: {len(outcomes)}; killed: {total['killed']}, survived: {total['survived']}, "
          f"timed out: {total['timed out']}")
    for module, operator in sorted({(m, op) for m, op, _ in counts}):
        split = ", ".join(f"{o}: {counts[module, operator, o]}"
                          for o in ("killed", "survived", "timed out"))
        print(f"  {module} {operator}: {split}")
    for outcome in ("survived", "timed out"):
        for mutant, o in outcomes.items():
            if o == outcome:
                source = (ROOT / PACKAGE / f"{mutant.module}.py").read_text(encoding="utf-8")
                print(f"{outcome}: {mutant.describe(source)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
