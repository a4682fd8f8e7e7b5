"""Expected answers computed from the generators' own models.

Nothing here imports privcalc. Grants come from the role hierarchy's
transitive closure, category membership and terminal operations;
conditions are witness sets turned into bitmasks over facts; a guard's
verdict is computed from the operands' coefficient masks.
"""

from __future__ import annotations

import re

import gen

Grants = frozenset  # of (op, entity) pairs


# --- role organisations -------------------------------------------------


def role_closure(org: gen.Org) -> dict[str, frozenset]:
    """Own (op, category) pairs plus every junior's, transitively.

    Juniors always have a lower index, so one pass in definition order
    sees every junior's closure before its seniors need it.
    """
    juniors: dict[str, list[str]] = {r: [] for r in org.roles}
    for senior, junior in org.inherits:
        juniors[senior].append(junior)
    closure: dict[str, frozenset] = {}
    for role, perms in org.roles.items():
        pairs = set(perms)
        for j in juniors[role]:
            pairs |= closure[j]
        closure[role] = frozenset(pairs)
    return closure


class OrgReferee:
    def __init__(self, org: gen.Org):
        self.org = org
        self.closure = role_closure(org)
        self.user_pairs = {
            u: frozenset().union(*(self.closure[r] for r in roles))
            for u, roles in org.users.items()
        }

    def expand(self, pairs) -> Grants:
        cats = self.org.categories
        return frozenset((o, e) for o, c in pairs for e in cats[c])

    def session(self, name: str) -> Grants:
        user, terminal = self.org.sessions[self.org.twins.get(name, name)]
        allowed = set(self.org.terminals[terminal])
        return self.expand(p for p in self.user_pairs[user] if p[0] in allowed)

    def role(self, name: str) -> Grants:
        return self.expand(self.closure[name])


def parse_privilege_text(text: str, categories: dict[str, list[str]]) -> Grants:
    """Grants named by an unconditioned privilege's canonical text."""
    text = text.strip()
    if text == "0":
        return frozenset()
    out = set()
    for term in text.split(" + "):
        op, slash, scope = term.partition("/")
        if not slash:
            raise ValueError(f"unexpected universal term {term!r}")
        for e in categories.get(scope, [scope]):
            out.add((op, e))
    return frozenset(out)


_DEF = re.compile(r"^  ([A-Za-z][A-Za-z0-9_]*) := (.+)$")


def check_imported_program(text: str, closure: dict[str, frozenset], users: dict) -> bool:
    """The emitted program defines every role and user once, juniors
    before seniors, and each name resolves to the model's closure."""
    lines = text.splitlines()
    if not lines or lines[0] != 'namespace "rbac" {' or lines[-1] != "}":
        return False
    resolved: dict[str, frozenset] = {}
    for line in lines[1:-1]:
        m = _DEF.match(line)
        if not m or m.group(1) in resolved:
            return False
        pairs: set = set()
        for term in m.group(2).split(" + "):
            op, slash, cat = term.partition("/")
            if slash:
                pairs.add((op, cat))
            elif term in resolved:
                pairs |= resolved[term]
            else:
                return False
        resolved[m.group(1)] = frozenset(pairs)
    expected = dict(closure)
    for user, roles in users.items():
        expected[user] = frozenset().union(*(closure[r] for r in roles))
    return resolved == expected


# --- rbac-audit ---------------------------------------------------------


class RbacAuditReferee:
    def __init__(self, inp: gen.RbacAudit):
        self.org = OrgReferee(inp.org)
        # atomic basis order: functions by name, then entities by name
        self.basis = [(o, e) for o in sorted(inp.org.ops) for e in inp.org.entities()]

    def expected(self, op: tuple):
        kind = op[0]
        if kind == "comply":
            granted = self.org.session(op[1])
            target = op[2]
            if target[0] == "emp":
                return (target[1], target[2]) in granted
            return self.org.role(target[1]) <= granted
        if kind == "pulse":
            granted = self.org.session(op[1])
            return tuple(m in granted for m in self.basis)
        return self.org.session(op[1]) == self.org.session(op[2])


# --- guarded-trace ------------------------------------------------------


N_FACTS = 1 << gen.N_STATEMENTS


def witness_mask(statements: int) -> int:
    """Facts (as bits of a 1024-bit mask) containing a witness statement."""
    return sum(1 << x for x in range(N_FACTS) if x & statements)


class GuardedReferee:
    """Each privilege is a map (op, entity) -> mask of the facts at which
    its coefficient holds; composition is a per-element OR. A guard
    [prev <: qop/qent] merges prev with the target under the union mode,
    which keeps prev's conditions, so over an atomic basis it holds
    exactly where prev's coefficient at (qop, qent) holds: the target
    pulses only that element."""

    def __init__(self, inp: gen.Guarded):
        self.inp = inp
        self.cond = {c: witness_mask(w) for c, w in inp.conditions.items()}
        entities = sorted(e for m in inp.categories.values() for e in m)
        self.basis = [(o, e) for o in sorted(inp.ops) for e in entities]
        self.values: dict[str, dict] = {}
        for name, term in inp.defs.items():
            self.values[name] = self._eval(term)

    def _eval(self, term) -> dict:
        cats = self.inp.categories
        if term[0] == "atoms":
            out: dict = {}
            for ops, scope, cond in term[1]:
                for op in ops:
                    for e in cats[scope]:
                        out[(op, e)] = out.get((op, e), 0) | self.cond[cond]
            return out
        _, op, scope, prev, qop, qent = term
        base = self.values[prev]
        verdict = base.get((qop, qent), 0)
        out = dict(base)
        for e in cats[scope]:
            out[(op, e)] = out.get((op, e), 0) | verdict
        return {m: v for m, v in out.items() if v}

    def bits(self, name: str, fact: int) -> tuple:
        value = self.values[name]
        return tuple(bool(value.get(m, 0) >> fact & 1) for m in self.basis)

    def expected(self, q: tuple):
        kind = q[0]
        if kind == "trace":
            columns = [self.bits(q[1], f) for f in q[2]]
            return tuple(zip(*columns))
        if kind == "pulse":
            return self.bits(q[1], q[2])
        return self.values[q[1]] == self.values[q[2]]


# --- policy-load ----------------------------------------------------------


def condition_holds(cond: str, fact: str) -> bool:
    return bool(set(gen.LOAD_CONDITIONS[cond]) & set(gen.LOAD_FACTS.get(fact, ())))


class PolicyLoadReferee:
    """Expected (stdout, exit code) of each CLI command, or a predicate
    on stdout where the exact spelling is the formatter's business."""

    def __init__(self, inp: gen.PolicyLoad):
        self.inp = inp
        self.orgs = [OrgReferee(p.org) for p in inp.policies]
        self.rbac_closures = [role_closure(o) for o in inp.rbacs]

    def _holder(self, i: int, name: str):
        audited = self.inp.policies[i].audited
        session, cond = audited.get(name, (name, None))
        return self.orgs[i].session(session), cond

    def _bits(self, i: int, name: str, fact: str) -> list[bool]:
        granted, cond = self._holder(i, name)
        live = cond is None or condition_holds(cond, fact)
        ops = {o for o, _ in granted}
        return [live and f in ops for f in self.inp.functions]

    def check(self, cmd: tuple, out: str, code: int) -> bool:
        kind, i = cmd[0], cmd[1]
        if kind == "check":
            return (out, code) == ("ok\n", 0)
        if kind == "eval":
            cats = self.inp.policies[i].org.categories
            return code == 0 and parse_privilege_text(out, cats) == self.orgs[i].session(cmd[2])
        if kind == "comply":
            _, _, holder, target, fact, mode = cmd
            granted, cond = self._holder(i, holder)
            verdict = tuple(target) in granted and (
                mode == "intersection" or cond is None or condition_holds(cond, fact)
            )
            expected = ("compliant\n", 0) if verdict else ("non-compliant\n", 1)
            return (out, code) == expected
        if kind == "pulse":
            bits = self._bits(i, cmd[2], cmd[3])
            return (out, code) == (" ".join("1" if b else "0" for b in bits) + "\n", 0)
        if kind == "trace":
            name, seq = cmd[2], cmd[3]
            columns = [self._bits(i, name, f) for f in seq]
            rows = ["employment," + ",".join(seq)]
            for k, f in enumerate(self.inp.functions):
                rows.append(f"{f}/*," + ",".join("1" if c[k] else "0" for c in columns))
            return (out, code) == ("\n".join(rows) + "\n", 0)
        org = self.inp.rbacs[i]
        return code == 0 and check_imported_program(out, self.rbac_closures[i], org.users)


_POSITIONED = re.compile(r"^error: \S+?:\d+:(\d+:)? ", re.M)


def hostile_ok(label: str, text: str, out: str, err: str, code: int, may_succeed: bool) -> bool:
    """Exit 2 with a file:line[:column] position, or for a valid but
    oversized input, success with the right answer."""
    if code == 2 and _POSITIONED.search(err):
        return True
    if not may_succeed or code != 0:
        return False
    if label == "wide-user":
        roles = sorted(r.split()[1] for r in text.splitlines() if r.startswith("role "))
        return f"  wide := {' + '.join(roles)}" in out.splitlines()
    return out == "ok\n"
