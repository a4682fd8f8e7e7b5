"""The three workloads: inputs, set-up through the library, and ops.

Every call into privcalc goes through a module attribute
(``privilege.pulse``, ``cli.main``...) so that the traced run's
wrappers see it. A workload object holds the generated inputs and its
referee; ``setup()`` builds the state the ops need and is what
``setup_s`` times; ``prepare()`` turns generated ops into arguments
outside any timing; ``run()`` is one timed op; ``check()`` compares its
answer with the referee, untimed.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

from privcalc import algebra, cli, engine, facts, pal, privilege

import gen
import referee


def _atomic_basis(functions, entities) -> privilege.Arrangement:
    return privilege.atomic_arrangement(
        [algebra.FunctionSymbol(f) for f in functions],
        [algebra.Entity(e) for e in entities],
    )


class RbacAudit:
    """Compile once, query many: one imported RBAC org, an atomic
    12 x 150 arrangement, the trivial fact family."""

    name = "rbac-audit"

    def __init__(self, seed: int, workdir: Path):
        self.inp = gen.make_rbac_audit(random.Random(f"rbac-audit/{seed}"))
        self.referee = referee.RbacAuditReferee(self.inp)
        self.ops = self.inp.ops

    def setup(self):
        model = engine.load_rbac(self.inp.rbac, filename="org.rbac")
        imported = engine.import_rbac(model)
        head = pal.parse_text(self.inp.head, filename="org.pal")
        tail = pal.parse_text(self.inp.tail, filename="sessions.pal")
        statements = (
            head.namespaces[0].statements
            + imported.namespaces[0].statements
            + tail.namespaces[0].statements
        )
        program = pal.Program((pal.Namespace("rbac", statements),))
        env = engine.load_program(program, filename="org.pal")
        env.arrangement = _atomic_basis(self.inp.org.ops, self.inp.org.entities())
        return env

    def prepare(self, env, op):
        p = env.privileges
        if op[0] == "comply":
            target = op[2]
            if target[0] == "role":
                q = p[target[1]]
            else:
                q = privilege.Privilege.single(
                    algebra.Employment(
                        algebra.FunctionSymbol(target[1]),
                        algebra.EntitySet.finite([algebra.Entity(target[2])]),
                    )
                )
            return (p[op[1]], q, env.family.fact("empty"))
        if op[0] == "pulse":
            return (p[op[1]], env.family.fact("empty"))
        return (p[op[1]], p[op[2]])

    def run(self, env, op, args):
        arr = env.arrangement
        if op[0] == "comply":
            return privilege.compliant(*args[:2], arr, args[2])
        if op[0] == "pulse":
            return privilege.pulse(args[0], arr, args[1]).bits
        return privilege.structural_eq(args[0], args[1], arr, env.family)

    def check(self, op, answer) -> bool:
        return answer == self.referee.expected(op)


class GuardedTrace:
    """Conditioned policies: witness conditions, three-deep compliance
    guards, a 1,024-fact family, union merge mode."""

    name = "guarded-trace"

    def __init__(self, seed: int, workdir: Path):
        self.inp = gen.make_guarded(random.Random(f"guarded-trace/{seed}"))
        self.referee = referee.GuardedReferee(self.inp)
        self.ops = self.inp.queries

    def setup(self):
        family, conditions = facts.load_facts(self.inp.facts_text, filename="guarded.facts")
        entities = [e for members in self.inp.categories.values() for e in members]
        env = engine.Environment(
            family=family,
            conditions=conditions,
            arrangement=_atomic_basis(self.inp.ops, entities),
            merge_mode=privilege.ConditionMergeMode.UNION,
        )
        program = pal.parse_text(self.inp.pal_text, filename="guarded.pal")
        return engine.load_program(program, env, filename="guarded.pal")

    def prepare(self, env, q):
        p = env.privileges
        fact = lambda mask: env.family.fact(gen.fact_id(mask))  # noqa: E731
        if q[0] == "trace":
            return (p[q[1]], [fact(m) for m in q[2]])
        if q[0] == "pulse":
            return (p[q[1]], fact(q[2]))
        return (p[q[1]], p[q[2]])

    def run(self, env, q, args):
        arr = env.arrangement
        if q[0] == "trace":
            return privilege.trace(args[0], arr, args[1]).cells
        if q[0] == "pulse":
            return privilege.pulse(args[0], arr, args[1]).bits
        return privilege.structural_eq(args[0], args[1], arr, env.family)

    def check(self, q, answer) -> bool:
        return answer == self.referee.expected(q)


def run_cli(argv: list[str]) -> tuple[str, str, int]:
    """One in-process ``pal`` command with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


class PolicyLoad:
    """Compile many, query once: every op is one ``pal`` command on a
    policy file of 8-52 KB, so each command re-reads and re-compiles."""

    name = "policy-load"

    def __init__(self, seed: int, workdir: Path):
        self.inp = gen.make_policy_load(random.Random(f"policy-load/{seed}"))
        self.referee = referee.PolicyLoadReferee(self.inp)
        self.ops = self.inp.commands
        self.facts = workdir / "load.facts"
        self.arrangement = workdir / "functions.arr"
        self.policies = [workdir / f"policy{i}.pal" for i in range(len(self.inp.policies))]
        self.rbacs = [workdir / f"org{i}.rbac" for i in range(len(self.inp.rbacs))]
        self.facts.write_text(self.inp.facts_text)
        self.arrangement.write_text(self.inp.arrangement_text)
        for path, pol in zip(self.policies, self.inp.policies):
            path.write_text(pol.text)
        for path, org in zip(self.rbacs, self.inp.rbacs):
            path.write_text(org.rbac_text())
        self.hostile = []
        for k, (label, command, text, facts_text, may_succeed) in enumerate(self.inp.hostile):
            path = workdir / f"hostile{k}.{'rbac' if command == 'import-rbac' else 'pal'}"
            path.write_text(text)
            argv = [command, str(path)]
            if facts_text is not None:
                fpath = workdir / f"hostile{k}.facts"
                fpath.write_text(facts_text)
                argv += ["--facts", str(fpath)]
            self.hostile.append((label, argv, text, may_succeed))

    def setup(self):
        """Compile the whole corpus once through the library: what a
        deployment validates before it serves any command."""
        compiled = []
        arrangement_text = self.inp.arrangement_text
        for path, pol in zip(self.policies, self.inp.policies):
            family, conditions = facts.load_facts(self.inp.facts_text, filename=str(self.facts))
            env = engine.Environment(family=family, conditions=conditions)
            env.arrangement = engine.arrangement_from_text(arrangement_text, env)
            program = pal.parse_text(pol.text, filename=str(path))
            compiled.append(engine.load_program(program, env, filename=str(path)))
        for path, org in zip(self.rbacs, self.inp.rbacs):
            model = engine.load_rbac(org.rbac_text(), filename=str(path))
            compiled.append(pal.format_program(engine.import_rbac(model)))
        return compiled

    def prepare(self, state, cmd):
        kind, i = cmd[0], cmd[1]
        if kind == "import-rbac":
            return ["import-rbac", str(self.rbacs[i])]
        argv = [kind, str(self.policies[i]), "--facts", str(self.facts)]
        if kind in ("comply", "pulse", "trace"):
            argv += ["--arrangement", "@" + str(self.arrangement)]
        if kind == "eval":
            argv += ["--expr", cmd[2]]
        elif kind == "comply":
            _, _, holder, (op, entity), fact, mode = cmd
            argv += ["--p", holder, "--q", f"{op}/{entity}", "--fact", fact]
            argv += ["--merge-conditions", mode]
        elif kind == "pulse":
            argv += ["--expr", cmd[2], "--fact", cmd[3]]
        elif kind == "trace":
            argv += ["--expr", cmd[2], "--seq", ",".join(cmd[3])]
        return argv

    def run(self, state, cmd, argv):
        return run_cli(argv)

    def check(self, cmd, answer) -> bool:
        out, err, code = answer
        return self.referee.check(cmd, out, code)

    def run_hostile(self) -> list[tuple[str, str]]:
        """Run every hostile input once; returns (label, outcome) with
        outcome "ok", "wrong" or the name of the exception that escaped
        ``cli.main``."""
        outcomes = []
        for label, argv, text, may_succeed in self.hostile:
            try:
                out, err, code = run_cli(argv)
            except Exception as exc:  # an escaped exception is the defect measured here
                outcomes.append((label, type(exc).__name__))
                continue
            good = referee.hostile_ok(label, text, out, err, code, may_succeed)
            outcomes.append((label, "ok" if good else "wrong"))
        return outcomes


WORKLOADS = {w.name: w for w in (RbacAudit, GuardedTrace, PolicyLoad)}
