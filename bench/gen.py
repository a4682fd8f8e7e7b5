"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a plain model of
what it generated plus the text handed to the library. The models are
what ``referee.py`` computes expected answers from; nothing here imports
privcalc. Iteration always runs over sorted or list-ordered data, so a
seed gives the same inputs under any string-hash seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

VERBS = (
    "read", "list", "write", "remove", "approve", "audit",
    "export", "archive", "share", "sign", "print", "purge",
)
KINDS = ("doc", "ledger", "ticket", "image", "mail", "key")


def _sum(terms: list[str]) -> str:
    return " + ".join(terms)


# --- role organisations (rbac-audit, policy-load) -------------------------


@dataclass
class Org:
    """An RBAC organisation plus terminals and sessions.

    ``roles`` holds each role's own (op, category) permissions,
    ``inherits`` (senior, junior) pairs with juniors always of lower
    index, so the hierarchy is acyclic. A session is ``user * terminal``.
    """

    ops: list[str]
    categories: dict[str, list[str]]
    roles: dict[str, list[tuple[str, str]]]
    inherits: list[tuple[str, str]]
    users: dict[str, list[str]]
    terminals: dict[str, list[str]] = field(default_factory=dict)
    sessions: dict[str, tuple[str, str]] = field(default_factory=dict)
    # twin name -> session name; a twin is written ``terminal * user``
    twins: dict[str, str] = field(default_factory=dict)

    def entities(self) -> list[str]:
        return sorted(e for members in self.categories.values() for e in members)

    def rbac_text(self) -> str:
        lines = [f"op {op}" for op in self.ops]
        lines += [f"cat {cat}" for cat in self.categories]
        for role, perms in self.roles.items():
            lines.append(f"role {role} = " + ", ".join(f"{o}/{c}" for o, c in perms))
        lines += [f"inherits {s} {j}" for s, j in self.inherits]
        for user, roles in self.users.items():
            lines.append(f"user {user} = " + ", ".join(roles))
        return "\n".join(lines) + "\n"

    def let_lines(self) -> list[str]:
        return [
            f"  let {e} is {cat}"
            for cat, members in self.categories.items()
            for e in members
        ]

    def session_lines(self) -> list[str]:
        lines = [f"  {t} := {_sum(ops)}" for t, ops in self.terminals.items()]
        lines += [f"  {s} := {u} * {t}" for s, (u, t) in self.sessions.items()]
        for w, s in self.twins.items():
            u, t = self.sessions[s]
            lines.append(f"  {w} := {t} * {u}")
        return lines


def make_org(
    rng: random.Random,
    ops: list[str],
    n_cats: int,
    per_cat: int,
    n_roles: int,
    n_users: int,
    n_terminals: int,
    n_sessions: int,
    n_twins: int = 0,
    perms_per_role: int = 2,
    roles_per_user: int = 2,
    terminal_ops: int = 6,
) -> Org:
    """Seeded names and permissions over a fixed shape: every role has
    the same number of own permissions and inherits from role (r-1)//2,
    a binary tree; every user holds the same number of roles and every
    terminal the same number of operations. The seed picks which, so
    work per op varies little between seeds."""
    categories = {}
    for c in range(n_cats):
        categories[f"Cat{c:02d}"] = [f"d{c * per_cat + i:04d}" for i in range(per_cat)]
    cats = list(categories)
    pairs = [(o, c) for o in ops for c in cats]
    roles = {f"r{r:03d}": sorted(rng.sample(pairs, perms_per_role)) for r in range(n_roles)}
    inherits = [(f"r{r:03d}", f"r{(r - 1) // 2:03d}") for r in range(1, n_roles)]
    role_names = list(roles)
    users = {
        f"u{u:03d}": sorted(rng.sample(role_names, roles_per_user)) for u in range(n_users)
    }
    terminals = {
        f"t{t:02d}": sorted(rng.sample(ops, terminal_ops)) for t in range(n_terminals)
    }
    user_names, term_names = list(users), list(terminals)
    sessions = {
        f"s{s:03d}": (rng.choice(user_names), rng.choice(term_names))
        for s in range(n_sessions)
    }
    twins = {
        f"w{k:03d}": s for k, s in enumerate(rng.sample(list(sessions), n_twins))
    }
    return Org(ops, categories, roles, inherits, users, terminals, sessions, twins)


def likely_grant(rng: random.Random, org: Org, session: str) -> tuple[str, str]:
    """An (op, entity) target: half the time one of the session user's
    direct permissions that the terminal allows, so that both verdicts
    occur; otherwise uniform. The referee decides the actual verdict."""
    user, terminal = org.sessions[session]
    allowed = set(org.terminals[terminal])
    direct = [
        (o, c) for r in org.users[user] for o, c in org.roles[r] if o in allowed
    ]
    if direct and rng.random() < 0.5:
        op, cat = rng.choice(direct)
        return op, rng.choice(org.categories[cat])
    return rng.choice(org.ops), rng.choice(org.entities())


# --- rbac-audit -------------------------------------------------------------


@dataclass
class RbacAudit:
    org: Org
    head: str  # a program of the ``let`` declarations, loaded before the roles
    tail: str  # a program of the terminals, sessions and twins, loaded after
    rbac: str
    ops: list  # ("comply", session, target) | ("pulse", s) | ("eq", a, b)


def make_rbac_audit(rng: random.Random) -> RbacAudit:
    org = make_org(
        rng, list(VERBS), n_cats=15, per_cat=10, n_roles=40, n_users=30,
        n_terminals=6, n_sessions=90, n_twins=90, perms_per_role=3,
    )
    head = 'namespace "rbac" {\n' + "\n".join(org.let_lines()) + "\n}\n"
    tail = 'namespace "rbac" {\n' + "\n".join(org.session_lines()) + "\n}\n"
    sessions = list(org.sessions)
    roles = list(org.roles)
    ops = []
    # One round has a fixed mix (14 comply, 4 pulse, 2 eq) so every seed
    # runs the same proportions, and p95 falls mid-way through the eqs;
    # the rounds differ in which names they use. The stream is longer than
    # a run gets through, so queries repeat only as often as real ones would.
    for _ in range(200):
        round_ops = []
        for k in range(14):
            s = rng.choice(sessions)
            if k % 5 == 4:
                round_ops.append(("comply", s, ("role", rng.choice(roles))))
            else:
                round_ops.append(("comply", s, ("emp", *likely_grant(rng, org, s))))
        round_ops += [("pulse", rng.choice(sessions)) for _ in range(4)]
        w = rng.choice(list(org.twins))
        round_ops.append(("eq", org.twins[w], w))
        round_ops.append(("eq", *rng.sample(sessions, 2)))
        rng.shuffle(round_ops)
        ops += round_ops
    return RbacAudit(org, head, tail, org.rbac_text(), ops)


# --- guarded-trace ----------------------------------------------------------

N_STATEMENTS = 10


@dataclass
class Guarded:
    """Witness-conditioned privileges and three-deep compliance guards.

    ``defs`` maps each privilege name, in definition order, to a term:
      ("atoms", [(ops, scope, cond), ...])  sum of (op+..)/scope * cond
      ("guard", op, scope, prev, qop, qent)  op/scope * [prev <: qop/qent] + prev
    ``scope`` is a category name. Facts are statement
    bitmasks over s0..s9, so the closed family is every subset.
    """

    ops: list[str]
    categories: dict[str, list[str]]
    conditions: dict[str, int]  # name -> witness statement mask
    defs: dict[str, tuple]
    facts_text: str
    pal_text: str
    queries: list  # ("trace", name, [masks]) | ("pulse", name, mask) | ("eq", a, b)


def fact_id(mask: int) -> str:
    if not mask:
        return "empty"
    if mask & (mask - 1) == 0:
        return f"f{mask.bit_length() - 1}"  # declared singleton generator
    return "+".join(f"s{i}" for i in range(N_STATEMENTS) if mask >> i & 1)


def make_guarded(rng: random.Random) -> Guarded:
    """Fixed shape, seeded content: 12 privileges of three conditioned
    terms, each with a twin spelled one op per term in reverse order,
    and 12 guard chains whose every level targets the previous level's
    guarded region, so evaluation always nests three deep."""
    ops = list(VERBS[:8])
    categories = {
        f"Doc{c}": [f"d{c * 5 + i:02d}" for i in range(5)] for c in range(4)
    }
    cats = list(categories)
    conditions = {
        f"c{c}": sum(1 << i for i in rng.sample(range(N_STATEMENTS), 2)) for c in range(8)
    }
    cond_names = list(conditions)
    defs: dict[str, tuple] = {}
    text: list[str] = []

    def define(name: str, atoms: list) -> None:
        defs[name] = ("atoms", atoms)
        terms = [
            f"{a_ops[0] if len(a_ops) == 1 else '(' + _sum(list(a_ops)) + ')'}/{scope} * {cond}"
            for a_ops, scope, cond in atoms
        ]
        text.append(f"  {name} := " + _sum(terms))

    base = []
    for k in range(12):
        atoms = [
            (tuple(sorted(rng.sample(ops, 2))), rng.choice(cats), rng.choice(cond_names))
            for _ in range(3)
        ]
        define(f"p{k}", atoms)
        define(f"z{k}", [((o,), scope, cond) for a_ops, scope, cond in atoms[::-1] for o in a_ops[::-1]])
        base.append(atoms)
    chains = []
    for k in range(12):
        b = rng.randrange(len(base))
        a_ops, scope, _ = rng.choice(base[b])
        target = (rng.choice(a_ops), categories[scope])  # inside p's support
        prev = f"p{b}"
        for level in range(1, 4):
            op, scope = rng.choice(ops), rng.choice(cats)
            qop, qent = target[0], rng.choice(target[1])
            name = f"g{k}_{level}"
            defs[name] = ("guard", op, scope, prev, qop, qent)
            text.append(f"  {name} := {op}/{scope} * [{prev} <: {qop}/{qent}] + {prev}")
            target = (op, categories[scope])
            prev = name
        chains += [f"g{k}_2", f"g{k}_3"]
    lets = [f"  let {e} is {c}" for c, members in categories.items() for e in members]
    pal_text = 'namespace "guarded" {\n' + "\n".join(lets + text) + "\n}\n"

    facts = [f"statement s{i}" for i in range(N_STATEMENTS)]
    facts += [f"fact f{i} = s{i}" for i in range(N_STATEMENTS)]
    for name, mask in conditions.items():
        wit = " ".join(f"s{i}" for i in range(N_STATEMENTS) if mask >> i & 1)
        facts.append(f"condition {name} = any {wit}")
    facts_text = "\n".join(facts) + "\n"

    queries = []
    # One round: 6 traces along a three-fact walk, 3 pulses, 1 family-wide
    # eq. The mix puts the median inside the traces and p95 inside the eqs.
    for _ in range(120):
        round_q = []
        for _ in range(6):
            mask = rng.getrandbits(N_STATEMENTS)
            walk = [mask]
            for _ in range(2):
                mask ^= 1 << rng.randrange(N_STATEMENTS)
                walk.append(mask)
            round_q.append(("trace", rng.choice(chains), walk))
        round_q += [
            ("pulse", rng.choice(chains), rng.getrandbits(N_STATEMENTS)) for _ in range(3)
        ]
        k = rng.randrange(12)
        round_q.append(("eq", f"p{k}", f"z{k}"))
        rng.shuffle(round_q)
        queries += round_q
    return Guarded(ops, categories, conditions, defs, facts_text, pal_text, queries)


# --- policy-load ------------------------------------------------------------

LOAD_STATEMENTS = ("badge", "vpn", "mfa", "office", "night")
LOAD_FACTS = {
    "onsite": ("badge", "office"),
    "remote": ("vpn", "mfa"),
    "roaming": ("vpn",),
    "afterhours": ("badge", "night"),
}
LOAD_CONDITIONS = {
    "cbadge": ("badge",),
    "csecure": ("mfa", "office"),
    "cvpn": ("vpn",),
    "cnight": ("night",),
}
# Scale factors of the five policy files; they come out at 8-52 KB.
POLICY_SCALES = (2.0, 3.7, 6.3, 9.5, 13.8)
POLICY_SHARE = (6, 6, 8, 12, 4)  # commands per cycle, per policy file
RBAC_SCALES = (1, 2.5)
RBAC_SHARE = 2  # commands per cycle, per role model


@dataclass
class Policy:
    org: Org
    audited: dict[str, tuple[str, str]]  # name -> (session, condition)
    text: str


@dataclass
class PolicyLoad:
    functions: list[str]
    policies: list[Policy]
    rbacs: list[Org]
    facts_text: str
    arrangement_text: str
    commands: list  # (kind, policy or rbac index, args...)
    hostile: list  # (label, command, main text, facts text or None, may_succeed)


def functions_72() -> list[str]:
    return [f"{v}_{k}" for k in KINDS for v in VERBS]


def _policy(rng: random.Random, functions: list[str], scale: float) -> Policy:
    org = make_org(
        rng, functions, n_cats=6, per_cat=int(8 * scale), n_roles=int(24 * scale),
        n_users=int(20 * scale), n_terminals=4, n_sessions=int(30 * scale),
        terminal_ops=9,
    )
    # Policies are written directly in PAL: roles list juniors first.
    juniors: dict[str, list[str]] = {r: [] for r in org.roles}
    for senior, junior in org.inherits:
        juniors[senior].append(junior)
    lines = org.let_lines()
    for role, perms in org.roles.items():
        lines.append(f"  {role} := " + _sum(juniors[role] + [f"{o}/{c}" for o, c in perms]))
    for user, roles in org.users.items():
        lines.append(f"  {user} := " + _sum(roles))
    lines += org.session_lines()
    audited = {}
    for k, s in enumerate(rng.sample(list(org.sessions), len(org.sessions) // 2)):
        cond = rng.choice(list(LOAD_CONDITIONS))
        audited[f"a{k:03d}"] = (s, cond)
        lines.append(f"  a{k:03d} := {s} * {cond}")
    text = 'namespace "policy" {\n' + "\n".join(lines) + "\n}\n"
    return Policy(org, audited, text)


def _hostile(rng: random.Random, functions: list[str]) -> list:
    """Untrusted inputs. Each must end in exit 2 with a positioned error;
    the valid but oversized ones (``may_succeed``) may instead succeed
    with a correct answer."""
    f = lambda: rng.choice(functions)  # noqa: E731
    depth = 1200
    deep = f'namespace "h" {{\n  x := {"(" * depth}{f()}{")" * depth}\n}}\n'
    long_sum = 'namespace "h" {\n  x := ' + _sum([f() for _ in range(3000)]) + "\n}\n"
    roles = [f"q{i:04d}" for i in range(1200)]
    op = f()
    wide_user = "\n".join(
        [f"op {op}", "cat C"]
        + [f"role {r} = {op}/C" for r in roles]
        + ["user wide = " + ", ".join(roles)]
    ) + "\n"
    good = f'namespace "h" {{\n  x := {f()} + {f()}\n  y := x * {f()}\n}}\n'
    lines = good.splitlines()
    bad_parse = "\n".join(lines[:2] + [f"  z := {f()} +* {f()}"] + lines[2:]) + "\n"
    bad_lex = "\n".join(lines[:2] + [f"  z := {f()} $ {f()}"] + lines[2:]) + "\n"
    bad_rbac = f"op {op}\ncat C\nrole r1 {op}/C\n"
    bad_facts = "statement a\nfact f = a nosuch\n"
    return [
        ("deep-parens", "check", deep, None, False),
        ("long-sum", "check", long_sum, None, True),
        ("wide-user", "import-rbac", wide_user, None, True),
        ("bad-parse", "check", bad_parse, None, False),
        ("bad-lex", "check", bad_lex, None, False),
        ("bad-rbac", "import-rbac", bad_rbac, None, False),
        ("bad-facts", "check", good, bad_facts, False),
    ]


def make_policy_load(rng: random.Random) -> PolicyLoad:
    functions = functions_72()
    policies = [_policy(rng, functions, s) for s in POLICY_SCALES]
    rbacs = [
        make_org(
            rng, functions, n_cats=6, per_cat=1, n_roles=int(60 * s),
            n_users=int(50 * s), n_terminals=0, n_sessions=0,
        )
        for s in RBAC_SCALES
    ]
    facts = [f"statement {s}" for s in LOAD_STATEMENTS]
    facts += [f"fact {name} = {' '.join(sts)}" for name, sts in LOAD_FACTS.items()]
    facts += [f"condition {c} = any {' '.join(w)}" for c, w in LOAD_CONDITIONS.items()]
    arrangement = _sum(functions)  # one function-level element per symbol
    fact_ids = ["empty", *LOAD_FACTS]

    def command(kind: str, i: int) -> tuple:
        pol = policies[i]
        sessions, audited = list(pol.org.sessions), list(pol.audited)
        if kind == "check":
            return ("check", i)
        if kind == "eval":
            return ("eval", i, rng.choice(sessions))
        if kind == "comply":
            holder = rng.choice(sessions + audited)
            session = pol.audited[holder][0] if holder in pol.audited else holder
            target = likely_grant(rng, pol.org, session)
            mode = rng.choice(("intersection", "union"))
            return ("comply", i, holder, target, rng.choice(fact_ids), mode)
        if kind == "pulse":
            return ("pulse", i, rng.choice(audited + sessions), rng.choice(fact_ids))
        return ("trace", i, rng.choice(audited), [rng.choice(fact_ids) for _ in range(3)])

    # Latencies cluster by file size. Each cycle of 40 commands gives the
    # files these counts, so p50 falls mid-cluster of the middle file and
    # p95 mid-cluster of the largest, never on an edge between sizes.
    # Command kinds rotate through each file's slots from cycle to cycle.
    kinds = ("check", "eval", "comply", "pulse", "trace")
    commands = []
    slot = [0] * len(policies)
    for _ in range(40):
        cycle = [("import-rbac", j) for j in range(len(rbacs)) for _ in range(RBAC_SHARE)]
        for i, share in enumerate(POLICY_SHARE):
            for _ in range(share):
                cycle.append(command(kinds[slot[i] % len(kinds)], i))
                slot[i] += 1
        rng.shuffle(cycle)
        commands += cycle
    return PolicyLoad(
        functions, policies, rbacs, "\n".join(facts) + "\n", arrangement + "\n",
        commands, _hostile(rng, functions),
    )
