#!/usr/bin/env python3
"""Run one corpus of ``pal`` commands on two source trees and compare.

    python3 tools/differential.py PARENT_TREE CHANGE_TREE

Each tree is a checkout whose package sits in ``TREE/src``. The corpus
is written once, to one temporary directory, so file paths in messages
match on both sides:

- the three sample programs through every command, with each name they
  define and a few faulty texts, under seven option sets (none,
  ``--facts``, facts plus ``@sessions.arr``, an inline arrangement, union
  mergence, a broken ``--arrangement``, a missing ``--namespace``);
- ``import-rbac samples/staff.rbac``;
- policy-load's hostile inputs and its first 80 commands for seeds 1-3,
  with the argv that ``bench/workloads.PolicyLoad.prepare`` builds, and
  for seed 1 the first command of each kind on each of its policies;
- the shapes that evaluating a definition only when a command reads it
  could break: a redefined name that a later definition still reads, a
  scope taken before a ``let`` grows its category, a guard nested too
  deep through names after the queried name, a guard read without
  an arrangement, and definitions sharing a line that scope one empty
  category; and a ``trace`` whose ``--seq`` repeats facts, with
  ``pulse``, ``trace`` and ``nf`` of a privilege that covers no element;
- ``check`` and ``nf`` over arrangements that clash in each way the
  basis index decides (a universal element after a finite one, a finite
  one after a universal one, a category's element then one of its
  members, a duplicate inside parentheses, two functions interleaved)
  and one clean arrangement; and over a program that ``let``s 2,000
  entities, with an ``@FILE`` arrangement of one ``read/eN`` line per
  entity, once clean and once with a clash near the end;
- ``check``, ``nf`` and ``pulse`` of ``x := f17 + f4999`` over an
  ``@FILE`` arrangement of 5,000 distinct functions, once clean and once
  with a duplicate ``f0`` appended;
- ``check`` of a 200 KB ``a + a + ...`` chain, once clean and once with
  a stray ``9`` near its end;
- ``check`` of every prefix of each ``samples/*.pal``;
- ``check`` of malformed copies of seed 1's smallest policy-load policy,
  with its facts: at 20 seeded tokens, the token deleted, doubled or
  swapped with the next one, and at the token nearest the middle of the
  file, a comment, a string, a carriage return, a '"', a non-ASCII
  character or a ``9`` inserted;
- guarded-trace's seed-1 facts file (a 1,024-fact family closed from 10
  generators), program and atomic arrangement: its first 25 queries
  (``pulse``, ``trace`` and ``eq``), with two ``comply`` and one ``eq``
  per pulsed guard chain (against its guard's target, its outer scope
  and its previous level), about 50 facts in all, under both merge
  modes.

Each tree runs in a child process with ``PYTHONPATH=TREE/src`` that
calls ``privcalc.cli.main`` in-process for each invocation and captures
its output, as ``bench/workloads.run_cli`` does. The corpus is built from
this checkout's ``samples/`` and ``bench/``, which it only reads.

Prints the invocation count, each side's exit-code split and every
difference in stdout, stderr or exit code, grouped by command and by
each side's first stderr line. Exits 0 when the two trees agree on
every invocation, 1 on any difference and 2 when a child fails.
Standard library only.
"""

from __future__ import annotations

import collections
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SAMPLES = ("example.pal", "guards.pal", "audited.pal")
FAULTY = ("read +", "(read", "doc1", "TechDoc", "logged", "x/x", "read/Nobody", "[read <: write]")
OPTION_SETS = (
    [],
    ["--facts", "samples/store.facts"],
    ["--facts", "samples/store.facts", "--arrangement", "@samples/sessions.arr"],
    ["--arrangement", "read/TechDoc + write + list"],
    ["--merge-conditions", "union", "--facts", "samples/store.facts",
     "--arrangement", "@samples/sessions.arr"],
    ["--arrangement", "read +"],
    ["--namespace", "missing"],
)
POLICY_SEEDS = (1, 2, 3)
POLICY_COMMANDS = 80
GUARDED_QUERIES = 25  # about 50 facts
MALFORMED_OFFSETS = 20
# Inserted at the token nearest the middle of a policy.
INSERTIONS = ("# a comment", '"a string"', "\r", '"', "\u00e9", "9")
# A token as ``check`` sees one, near enough to find where tokens start
# and end: a string, a two-character operator, a word or one character.
TOKEN = re.compile(r'"[^"\n]*"|:=|<:|\w+|\S')

# name -> (program, commands run on it); each command is argv after the file
SHAPES = {
    "shadowed.pal": (
        'namespace "s" {\n  let d1 is C\n  x := read\n  y := x + write\n'
        '  x := list/C\n  z := x + y\n}\n',
        [["check"], ["eval", "--expr", "x"], ["eval", "--expr", "y"], ["eval", "--expr", "z"],
         ["eq", "--left", "y", "--right", "read + write", "--arrangement", "read + write + list"]],
    ),
    "snapshot.pal": (
        'namespace "n" {\n  let d1 is C\n  x := read/C\n  let d2 is C\n}\n',
        [["check"], ["eval", "--expr", "x"],
         ["eq", "--left", "x", "--right", "read/C", "--arrangement", "read/d1 + read/d2"]],
    ),
    "deep.pal": (
        'namespace "c" {\n  g0 := read\n'
        + "".join(f"  g{i} := read * [g{i - 1} <: read]\n" for i in range(1, 151))
        + "}\n",
        [[*query, "--arrangement", "read + write"] for query in (
            ["check"], ["eval", "--expr", "g1"], ["eval", "--expr", "g150"],
            ["pulse", "--expr", "g1"], ["eq", "--left", "g1", "--right", "g1"],
        )] + [["check", "--arrangement", "read + read"]],
    ),
    "oneline.pal": (
        'namespace "n" { x := read/C  y := write/C + list/D  let d is D  z := read/D/C }\n',
        [["check"], ["eval", "--expr", "y"], ["eval", "--expr", "z"]],
    ),
    "guarded.pal": (
        'namespace "g" {\n  x := read\n  y := read * [x <: read]\n}\n',
        [["check"], ["eval", "--expr", "x"], ["eval", "--expr", "y"]],
    ),
    "uncovered.pal": (
        'namespace "u" {\n  x := list * logged + read\n  y := remove\n}\n',
        [[*query, "--facts", "samples/store.facts", "--arrangement", "read + list + write"] for query in (
            ["trace", "--expr", "x", "--seq", "empty,office,empty,office,roaming"],
            ["pulse", "--expr", "y"], ["nf", "--expr", "y"],
            ["trace", "--expr", "y", "--seq", "office,office"],
        )],
    ),
}

# Inline arrangements over ``clashes.pal``, where C holds d1 and d2.
CLASHES = (
    "read/d1 + read",  # a universal element after a finite one
    "read + read/d1",  # a finite element after a universal one
    "read/C + read/d2",  # a category's element, then one of its members
    "read/d1 + (write + read/d1)",  # a duplicate inside parentheses
    "read/d1 + write/d1 + read/d2 + write/d2 + write/C",  # two functions interleaved
    "read/d1 + write/d1 + read/d2 + write/d2 + read/d3",  # clean
)
CLASH_PROGRAM = (
    'namespace "a" {\n  let d1 is C\n  let d2 is C\n  let d3 is D\n'
    "  x := read/C + write/d1\n}\n"
)
ENTITIES = 2000
FUNCTIONS = 5000
CHAIN_TERMS = 50_000  # "a + " each, about 200 KB

# Runs in each child: reads the corpus, writes one [stdout, stderr, code]
# per invocation.
CHILD = """
import contextlib, io, json, sys
from privcalc import cli
corpus, results = sys.argv[1], sys.argv[2]
out = []
for argv in json.loads(open(corpus, encoding="utf-8").read()):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = "escaped: " + type(exc).__name__
    out.append([stdout.getvalue(), stderr.getvalue(), code])
open(results, "w", encoding="utf-8").write(json.dumps(out))
"""


def sample_commands() -> list[list[str]]:
    commands = []
    for sample in SAMPLES:
        path = f"samples/{sample}"
        text = (ROOT / "samples" / sample).read_text(encoding="utf-8")
        names = list(dict.fromkeys(re.findall(r"^\s*(\w+)\s*:=", text, re.M)))
        texts = names + list(FAULTY)
        for options in OPTION_SETS:
            commands.append(["check", path, *options])
            for t in texts:
                queries = [
                    ["eval", "--expr", t],
                    ["nf", "--expr", t],
                    ["eq", "--left", t, "--right", t],
                    ["eq", "--left", names[0], "--right", t],
                    ["pulse", "--expr", t],
                    ["pulse", "--expr", t, "--fact", "office"],
                    ["trace", "--expr", t, "--seq", "empty,office"],
                    ["comply", "--p", t, "--q", "write/doc1"],
                    ["comply", "--p", names[0], "--q", t, "--fact", "roaming"],
                ]
                commands += [[q[0], path, *q[1:], *options] for q in queries]
    commands.append(["import-rbac", "samples/staff.rbac"])
    return commands


def _bench_modules():
    """``bench/gen.py`` and ``bench/workloads.py``, imported from this
    checkout without writing bytecode there."""
    if str(ROOT / "bench") not in sys.path:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True
    import gen  # noqa: E402  (bench/ is on the path only now)
    import workloads  # noqa: E402

    return gen, workloads


def policy_commands(workdir: Path) -> list[list[str]]:
    _, workloads = _bench_modules()

    commands = []
    for seed in POLICY_SEEDS:
        seed_dir = workdir / f"policy-load-{seed}"
        seed_dir.mkdir()
        load = workloads.PolicyLoad(seed, seed_dir)
        commands += [argv for _, argv, _, _ in load.hostile]
        commands += [load.prepare(None, cmd) for cmd in load.ops[:POLICY_COMMANDS]]
        if seed == 1:  # every command kind on every policy and role model
            firsts = {cmd[:2]: cmd for cmd in reversed(load.ops)}
            commands += [load.prepare(None, cmd) for _, cmd in sorted(firsts.items())]
    return commands


def guarded_commands(workdir: Path) -> list[list[str]]:
    gen, _ = _bench_modules()
    inp = gen.make_guarded(random.Random("guarded-trace/1"))
    entities = [e for members in inp.categories.values() for e in members]
    (workdir / "guarded.facts").write_text(inp.facts_text, encoding="utf-8")
    (workdir / "guarded.pal").write_text(inp.pal_text, encoding="utf-8")
    basis = " + ".join(f"{op}/{e}" for op in sorted(inp.ops) for e in sorted(entities))
    (workdir / "guarded.arr").write_text(basis + "\n", encoding="utf-8")
    options = ["--facts", "guarded.facts", "--arrangement", "@guarded.arr"]
    queries = []
    for kind, name, *rest in inp.queries[:GUARDED_QUERIES]:
        if kind == "trace":
            queries.append(["trace", "--expr", name, "--seq", ",".join(map(gen.fact_id, rest[0]))])
        elif kind == "pulse":
            fact = gen.fact_id(rest[0])
            queries.append(["pulse", "--expr", name, "--fact", fact])
            _, op, scope, prev, qop, qent = inp.defs[name]
            queries.append(["comply", "--p", name, "--q", f"{qop}/{qent}", "--fact", fact])
            queries.append(["comply", "--p", f"{op}/{scope}", "--q", name, "--fact", fact])
            queries.append(["eq", "--left", name, "--right", prev])
        else:
            queries.append(["eq", "--left", name, "--right", rest[0]])
    return [
        [query[0], "guarded.pal", *query[1:], *options, "--merge-conditions", mode]
        for mode in ("union", "intersection")
        for query in queries
    ]


def shape_commands(workdir: Path) -> list[list[str]]:
    commands = []
    for name, (text, queries) in SHAPES.items():
        (workdir / name).write_text(text, encoding="utf-8")
        commands += [[query[0], name, *query[1:]] for query in queries]
    return commands


def arrangement_commands(workdir: Path) -> list[list[str]]:
    (workdir / "clashes.pal").write_text(CLASH_PROGRAM, encoding="utf-8")
    commands = []
    for arrangement in CLASHES:
        commands += [
            ["check", "clashes.pal", "--arrangement", arrangement],
            ["nf", "clashes.pal", "--expr", "x", "--arrangement", arrangement],
        ]
    lets = "".join(f"  let e{i} is E\n" for i in range(ENTITIES))
    program = f'namespace "e" {{\n{lets}  x := read/E + write\n}}\n'
    (workdir / "entities.pal").write_text(program, encoding="utf-8")
    lines = [f"read/e{i}" for i in range(ENTITIES)]
    clashing = lines[:-3] + [lines[-10]] + lines[-3:]
    for name, basis in (("entities.arr", lines), ("entities-clash.arr", clashing)):
        (workdir / name).write_text("\n+ ".join(basis) + "\n", encoding="utf-8")
        commands += [
            ["check", "entities.pal", "--arrangement", f"@{name}"],
            ["nf", "entities.pal", "--expr", "x", "--arrangement", f"@{name}"],
        ]
    (workdir / "functions.pal").write_text('namespace "f" {\n  x := f17 + f4999\n}\n', encoding="utf-8")
    functions = [f"f{i}" for i in range(FUNCTIONS)]
    for name, basis in (("functions.arr", functions), ("functions-clash.arr", functions + ["f0"])):
        (workdir / name).write_text(" + ".join(basis) + "\n", encoding="utf-8")
        commands += [
            [query, "functions.pal", *args, "--arrangement", f"@{name}"]
            for query, *args in (["check"], ["nf", "--expr", "x"], ["pulse", "--expr", "x"])
        ]
    return commands


def chain_commands(workdir: Path) -> list[list[str]]:
    terms = ["a"] * CHAIN_TERMS
    faulty = terms[:-10] + ["9"] + terms[-10:]
    for name, chain in (("chain.pal", terms), ("chain-fault.pal", faulty)):
        text = 'namespace "c" {\n  x := ' + " + ".join(chain) + "\n}\n"
        (workdir / name).write_text(text, encoding="utf-8")
    return [["check", "chain.pal"], ["check", "chain-fault.pal"]]


def prefix_commands(workdir: Path) -> list[list[str]]:
    commands = []
    (workdir / "prefixes").mkdir()
    for sample in sorted((ROOT / "samples").glob("*.pal")):
        text = sample.read_text(encoding="utf-8")
        for n in range(len(text) + 1):
            path = f"prefixes/{sample.stem}-{n}.pal"
            (workdir / path).write_text(text[:n], encoding="utf-8")
            commands.append(["check", path])
    return commands


def malformed_commands(workdir: Path) -> list[list[str]]:
    """Run after ``policy_commands``, which writes seed 1's policies."""
    seed_dir = workdir / "policy-load-1"
    smallest = min(seed_dir.glob("policy*.pal"), key=lambda path: path.stat().st_size)
    text = smallest.read_text(encoding="utf-8")
    spans = [m.span() for m in TOKEN.finditer(text)]
    rng = random.Random("differential/malformed")
    variants = []
    for i in sorted(rng.sample(range(len(spans) - 1), MALFORMED_OFFSETS)):
        (start, end), (after, stop) = spans[i], spans[i + 1]
        token, neighbour = text[start:end], text[after:stop]
        variants += [
            text[:start] + text[end:],
            text[:end] + " " + token + text[end:],
            text[:start] + neighbour + text[end:after] + token + text[stop:],
        ]
    middle = min(start for start, _ in spans if start >= len(text) // 2)
    variants += [text[:middle] + insert + text[middle:] for insert in INSERTIONS]
    (workdir / "malformed").mkdir()
    commands = []
    for n, variant in enumerate(variants):
        path = f"malformed/{smallest.stem}-{n}.pal"
        (workdir / path).write_text(variant, encoding="utf-8")
        commands.append(["check", path, "--facts", str(seed_dir / "load.facts")])
    return commands


def run_tree(tree: Path, workdir: Path, corpus: Path, name: str) -> list:
    results = workdir / f"results-{name}.json"
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(corpus), str(results)],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    if child.returncode != 0:
        sys.exit(f"the child for {tree} failed:\n{child.stderr}")
    return json.loads(results.read_text(encoding="utf-8"))


def first_line(text: str) -> str:
    return text.splitlines()[0] if text else "(no stderr)"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/differential.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    parent, change = map(Path, argv)
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        workdir = Path(tmp)
        shutil.copytree(ROOT / "samples", workdir / "samples")
        commands = (
            sample_commands() + policy_commands(workdir) + malformed_commands(workdir)
            + shape_commands(workdir) + arrangement_commands(workdir) + chain_commands(workdir)
            + prefix_commands(workdir) + guarded_commands(workdir)
        )
        corpus = workdir / "corpus.json"
        corpus.write_text(json.dumps(commands), encoding="utf-8")
        sides = [
            run_tree(tree, workdir, corpus, name)
            for name, tree in (("parent", parent), ("change", change))
        ]

    print(f"invocations: {len(commands):,}")
    for name, results in zip(("parent", "change"), sides):
        split = collections.Counter(str(code) for _, _, code in results)
        print(f"{name} exit codes: " + ", ".join(f"{k}: {v:,}" for k, v in sorted(split.items())))
    groups: dict[tuple, list[list[str]]] = collections.defaultdict(list)
    for argv, before, after in zip(commands, *sides):
        if before != after:
            key = (argv[0], first_line(before[1]), first_line(after[1]))
            groups[key].append(argv)
    count = sum(map(len, groups.values()))
    print(f"differences: {count:,}")
    for (command, before, after), members in sorted(groups.items()):
        print(f"\n{command}: {len(members):,}\n  parent: {before}\n  change: {after}")
        for argv in members:
            print("    pal " + shlex.join(argv))
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
