"""Acceptance gate: nine criteria, one test and one verdict line each.

Each test prints "criterion N (<name>): PASS (<elapsed>s)" when its
assertions hold; criteria with a pinned runtime budget assert it too.
Expected values are frozen here, independently derived by enumeration
(see oracles.py) or by hand along the worked documentation-store
example.
"""

from __future__ import annotations

import itertools
import random
import time

from privcalc import (
    ConditionMergeMode,
    Employment,
    Entity,
    EntitySet,
    Environment,
    Fact,
    FactFamily,
    FunctionSymbol,
    Privilege,
    PrivilegeAtom,
    RbacModel,
    Statement,
    UNIVERSAL,
    WitnessCondition,
    arrangement_from_text,
    atomic_arrangement,
    compliance_condition,
    compliant,
    compose,
    format_expr,
    import_rbac,
    load_program,
    load_rbac,
    merge,
    minimum_evidences,
    normal_form,
    parse_expression,
    parse_text,
    pulse,
    trace,
    verify_condition_axiom,
)
import privcalc.pal as pal

from oracles import all_closed_mask_families, rbac_role_grants
from fixtures import EXAMPLE_PAL, GUARDS_PAL, example_env, power_family

INTER = ConditionMergeMode.INTERSECTION
UNION = ConditionMergeMode.UNION


def _report(number: int, name: str, started: float, budget: float | None = None):
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.2f}s (budget {budget}s)"
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")


# --- 1: session derivations ---------------------------------------------------


def test_criterion_1_session_derivations():
    started = time.perf_counter()
    env = example_env()
    doc1 = EntitySet.finite([Entity("doc1")])

    def atom(fn: str) -> PrivilegeAtom:
        return PrivilegeAtom(Employment(FunctionSymbol(fn), doc1))

    session_1 = merge(env.privileges["bob"], env.privileges["officepc"])
    assert session_1.atoms == frozenset({atom("read"), atom("list"), atom("write")})
    assert session_1 == env.privileges["session_1"]
    assert session_1.text() == "list/TechDoc + read/TechDoc + write/TechDoc"

    session_2 = merge(env.privileges["bob"], env.privileges["phone"])
    assert session_2.atoms == frozenset({atom("read"), atom("list")})
    # the phone session lacks the write employment
    assert atom("write") not in session_2.atoms
    _report(1, "session derivations", started, budget=1.0)


# --- 2: privilege-space laws ----------------------------------------------------


_LAW_FNS = [FunctionSymbol(n) for n in ("f", "g", "h")]
_LAW_ENTS = [Entity("e1"), Entity("e2")]
_LAW_FAMILY = power_family("x1", "x2")
_LAW_CONDS = [
    WitnessCondition("c1", frozenset({Statement("x1")})),
    WitnessCondition("c2", frozenset({Statement("x2")})),
]
_LAW_ARRANGEMENT = atomic_arrangement(_LAW_FNS, _LAW_ENTS)
_LAW_FACTS = list(_LAW_FAMILY)


def _law_base() -> list[Privilege]:
    atoms = [
        PrivilegeAtom(Employment(f, EntitySet.finite([e])), frozenset({c}))
        for f in _LAW_FNS
        for e in _LAW_ENTS
        for c in _LAW_CONDS
    ]
    privs = [Privilege()]
    privs += [Privilege(frozenset({a})) for a in atoms]
    privs += [Privilege(frozenset(pair)) for pair in itertools.combinations(atoms, 2)]
    return privs


class _OpSpace:
    """Hash-consed privilege space with memoized operations and
    extensional signatures (one bit per basis element and fact)."""

    def __init__(self, mode: ConditionMergeMode):
        self.mode = mode
        self.index: dict[frozenset, int] = {}
        self.privs: list[Privilege] = []
        self.sigs: list[int] = []
        self.merges: dict[tuple[int, int], int] = {}
        self.composes: dict[tuple[int, int], int] = {}

    def intern(self, p: Privilege) -> int:
        i = self.index.get(p.atoms)
        if i is not None:
            return i
        i = len(self.privs)
        self.index[p.atoms] = i
        self.privs.append(p)
        sig = 0
        bit = 1
        for coeff in normal_form(p, _LAW_ARRANGEMENT).coefficients:
            for fact in _LAW_FACTS:
                if coeff.evaluate(fact):
                    sig |= bit
                bit <<= 1
        self.sigs.append(sig)
        return i

    def merge(self, i: int, j: int) -> int:
        k = self.merges.get((i, j))
        if k is None:
            k = self.intern(merge(self.privs[i], self.privs[j], self.mode))
            self.merges[(i, j)] = k
        return k

    def compose(self, i: int, j: int) -> int:
        k = self.composes.get((i, j))
        if k is None:
            k = self.intern(compose(self.privs[i], self.privs[j]))
            self.composes[(i, j)] = k
        return k


def _law_violations(mode: ConditionMergeMode) -> int:
    space = _OpSpace(mode)
    idxs = [space.intern(p) for p in _law_base()]
    sigs = space.sigs
    violations = 0

    # commutativity of both operations
    for i in idxs:
        for j in idxs:
            if sigs[space.merge(i, j)] != sigs[space.merge(j, i)]:
                violations += 1
            if sigs[space.compose(i, j)] != sigs[space.compose(j, i)]:
                violations += 1

    # pairwise tables, then associativity and distributivity on triples
    mtab = [[space.merge(i, j) for j in idxs] for i in idxs]
    ctab = [[space.compose(i, j) for j in idxs] for i in idxs]
    smerge, scompose = space.merge, space.compose
    for i in idxs:
        mi, ci = mtab[i], ctab[i]
        for j in idxs:
            ij_m, ij_c = mi[j], ci[j]
            mj, cj = mtab[j], ctab[j]
            for k in idxs:
                if sigs[smerge(ij_m, k)] != sigs[smerge(i, mj[k])]:
                    violations += 1
                if sigs[scompose(ij_c, k)] != sigs[scompose(i, cj[k])]:
                    violations += 1
                if sigs[smerge(i, cj[k])] != sigs[scompose(ij_m, mi[k])]:
                    violations += 1
    return violations


def test_criterion_2_privilege_space_laws():
    started = time.perf_counter()
    assert len(_law_base()) == 79
    for mode in (INTER, UNION):
        assert _law_violations(mode) == 0, f"law violations under {mode.value}"
    _report(2, "privilege-space laws", started, budget=60.0)


# --- shared family enumeration for criteria 3 and 9 ------------------------------


_family_cache: dict[int, list[FactFamily]] = {}


def _mask_family(masks: frozenset, n: int) -> FactFamily:
    statements = [Statement(f"s{i}") for i in range(n)]
    facts = []
    for mask in sorted(masks):
        members = frozenset(statements[i] for i in range(n) if (mask >> i) & 1)
        facts.append(Fact(f"m{mask}", members))
    return FactFamily(statements, facts)


def _families_upto_4() -> dict[int, list[FactFamily]]:
    if not _family_cache:
        counts = {0: 1, 1: 1, 2: 4, 3: 29, 4: 355}
        for n, want in counts.items():
            mask_families = all_closed_mask_families(n)
            assert len(mask_families) == want, (n, len(mask_families))
            _family_cache[n] = [_mask_family(m, n) for m in mask_families]
    return _family_cache


def _witness_sets(n: int):
    statements = [Statement(f"s{i}") for i in range(n)]
    for bits in range(1 << n):
        yield frozenset(s for i, s in enumerate(statements) if (bits >> i) & 1)


# --- 3: condition axiom and monotonicity ----------------------------------------


def test_criterion_3_condition_axiom_and_monotonicity():
    started = time.perf_counter()
    axiom_violations = 0
    monotonicity_violations = 0
    checked = 0
    for n, families in _families_upto_4().items():
        for family in families:
            facts = family.facts
            pairs = [
                (a, b)
                for a in facts
                for b in facts
                if a.statements < b.statements
            ]
            for witnesses in _witness_sets(n):
                cond = WitnessCondition("w", witnesses)
                checked += 1
                if verify_condition_axiom(cond, family):
                    axiom_violations += 1
                for small, big in pairs:
                    if cond.evaluate(small) and not cond.evaluate(big):
                        monotonicity_violations += 1
    assert checked == 1 + 2 + 4 * 4 + 29 * 8 + 355 * 16
    assert axiom_violations == 0
    assert monotonicity_violations == 0
    _report(3, "condition axiom and monotonicity", started, budget=30.0)


# --- 4: normal-form fidelity ------------------------------------------------------


def test_criterion_4_normal_form_fidelity():
    started = time.perf_counter()
    rnd = random.Random(4)
    fns = [FunctionSymbol(n) for n in ("f", "g", "h")]
    ents = [Entity("e1"), Entity("e2"), Entity("e3")]
    entity_sets = [EntitySet.finite([e]) for e in ents]
    entity_sets += [EntitySet.finite(ents[:2]), EntitySet.finite(ents), UNIVERSAL]
    family = power_family("x1", "x2")
    conds = [
        WitnessCondition("c1", frozenset({Statement("x1")})),
        WitnessCondition("c2", frozenset({Statement("x2")})),
    ]
    arrangement = atomic_arrangement(fns, ents)

    agreements = 0
    total = 0
    for _ in range(1000):
        atoms = []
        for _ in range(rnd.randint(0, 4)):
            conditions = frozenset(rnd.sample(conds, rnd.randint(0, 2)))
            atoms.append(
                PrivilegeAtom(
                    Employment(rnd.choice(fns), rnd.choice(entity_sets)), conditions
                )
            )
        p = Privilege(frozenset(atoms))
        for fact in family:
            # brute-force grant oracle: which (function, entity) pairs
            # does any atom whose conditions all hold denote
            grants = set()
            for a in p.atoms:
                if all(c.evaluate(fact) for c in a.conditions):
                    members = (
                        ents if a.employment.entities.is_universal
                        else a.employment.entities.members
                    )
                    grants.update((a.employment.function, e) for e in members)
            bits = pulse(p, arrangement, fact).bits
            for emp, bit in zip(arrangement.basis, bits):
                (entity,) = emp.entities.members
                total += 1
                if bit == ((emp.function, entity) in grants):
                    agreements += 1
    assert total == 1000 * 4 * 9
    assert agreements == total
    _report(4, "normal-form fidelity", started)


# --- 5: compliance scenario --------------------------------------------------------


def test_criterion_5_compliance_scenario():
    started = time.perf_counter()
    env = example_env(
        arrangement="read + list + remove + write",
        source=GUARDS_PAL,
    )
    m = env.arrangement
    fact = env.family.fact("empty")
    session_1 = env.privileges["session_1"]
    session_2 = env.privileges["session_2"]
    read_doc1 = Privilege.single(
        Employment(FunctionSymbol("read"), EntitySet.finite([Entity("doc1")]))
    )
    write_doc1 = Privilege.single(
        Employment(FunctionSymbol("write"), EntitySet.finite([Entity("doc1")]))
    )
    assert compliant(session_1, read_doc1, m, fact) is True
    assert compliant(session_2, write_doc1, m, fact) is False

    # the same verdicts packaged as high-order conditions
    assert compliance_condition(session_1, read_doc1, m).evaluate(fact) is True
    assert compliance_condition(session_2, write_doc1, m).evaluate(fact) is False

    # readguard grants read: its captured compliance condition holds
    (read_atom,) = env.privileges["readguard"].atoms
    assert read_atom.granted(fact) is True

    # the interaction guard grants both components: session_3 may write
    # to doc1, and the doc1 interaction complies with writable
    atoms = env.privileges["interactionguard"].sorted_atoms()
    assert [a.employment.render() for a in atoms] == ["writable/*", "write/*"]
    assert all(a.granted(fact) for a in atoms)
    _report(5, "compliance scenario", started)


# --- 6: gauging trace ----------------------------------------------------------------


GAUGE_PAL = """\
namespace "gauge" {
  u1 := op1 * w1
  u2 := op2 * w2
  u3 := op2 * w3
  g := (u1 + u2 + u3) * (op1 + op2)
}
"""

GAUGE_USERS = {
    "u1": ("op1", frozenset({Statement("s1")})),
    "u2": ("op2", frozenset({Statement("s2"), Statement("s3")})),
    "u3": ("op2", frozenset({Statement("s1")})),
}


def test_criterion_6_gauging_trace():
    started = time.perf_counter()
    family = power_family("s1", "s2", "s3")
    conditions = {
        name: WitnessCondition(f"w{i}", witnesses)
        for i, (name, (_, witnesses)) in enumerate(GAUGE_USERS.items(), 1)
    }
    env = Environment(
        family=family,
        conditions={f"w{i}": c for i, c in enumerate(conditions.values(), 1)},
        merge_mode=UNION,
    )
    env.arrangement = arrangement_from_text("op1 + op2", env)
    load_program(parse_text(GAUGE_PAL), env)

    sequence = [family.fact("s3"), family.fact("s1")]
    matrix = trace(env.privileges["g"], env.arrangement, sequence)

    # derived oracle: a basis operation pulses at a fact when some user
    # holds that operation under a witness set meeting the fact
    expected = tuple(
        tuple(
            any(
                op == emp.function.name and witnesses & fact.statements
                for op, witnesses in GAUGE_USERS.values()
            )
            for fact in sequence
        )
        for emp in env.arrangement.basis
    )
    assert matrix.cells == expected
    assert matrix.cells == ((False, True), (True, True))

    for j, fact in enumerate(sequence):
        assert matrix.column(j) == pulse(env.privileges["g"], env.arrangement, fact).bits
    assert matrix.to_csv() == (
        "employment,s3,s1\nop1/*,0,1\nop2/*,1,1\n"
    )
    _report(6, "gauging trace", started)


# --- 7: RBAC round-trip -----------------------------------------------------------


STAFF_RBAC = """\
op read
op list
op write
op remove
cat TechDoc
role reader = read/TechDoc, list/TechDoc
role contributor = write/TechDoc
role manager = write/TechDoc, remove/TechDoc
inherits manager reader
user bob = reader, contributor
user may = manager
"""


def _seeded_env(categories) -> Environment:
    env = Environment()
    for cat in sorted(categories):
        entity = Entity(f"obj_{cat}")
        env.entities[entity.name] = entity
        env.categories[cat] = {entity}
    return env


def test_criterion_7_rbac_round_trip():
    started = time.perf_counter()

    # the documentation-store model reproduces the hand-written bindings
    model = load_rbac(STAFF_RBAC)
    env = Environment()
    entity = Entity("doc1")
    env.entities["doc1"] = entity
    env.categories["TechDoc"] = {entity}
    load_program(import_rbac(model), env)
    hand = example_env()
    for name in ("reader", "manager", "bob", "may"):
        assert env.privileges[name] == hand.privileges[name], name

    # random acyclic hierarchies match the transitive-closure oracle
    rnd = random.Random(7)
    ops = ["op0", "op1", "op2"]
    cats = ["CatA", "CatB"]
    perms = [(o, c) for o in ops for c in cats]
    for trial in range(50):
        n_roles = rnd.randint(1, 6)
        names = [f"r{i}" for i in range(n_roles)]
        roles = {
            name: frozenset(rnd.sample(perms, rnd.randint(1, 3))) for name in names
        }
        hierarchy = frozenset(
            (names[i], names[j])
            for i in range(n_roles)
            for j in range(i + 1, n_roles)
            if rnd.random() < 0.3
        )
        users = {
            f"u{i}": frozenset(rnd.sample(names, rnd.randint(1, min(2, n_roles))))
            for i in range(rnd.randint(0, 3))
        }
        model = RbacModel(frozenset(ops), frozenset(cats), roles, hierarchy, users)
        env = _seeded_env(cats)
        load_program(import_rbac(model), env)
        expected = rbac_role_grants(model)
        for user, assigned in users.items():
            expected[user] = frozenset().union(*(expected[r] for r in assigned))
        for name, want in expected.items():
            got = set()
            for atom in env.privileges[name].atoms:
                for e in atom.employment.entities.members:
                    got.add((atom.employment.function.name, e.name.removeprefix("obj_")))
            assert got == set(want), (trial, name)
    _report(7, "rbac round-trip", started)


# --- 8: parser round-trip -----------------------------------------------------------


def _random_expr(rnd: random.Random, depth: int) -> pal.ExprNode:
    # Chains of 2-4 operands; an operand may be a chain of the same
    # operator, and a "/" node may restrict another "/" node.
    names = ["a", "b", "read", "s_1", "x9"]
    if depth == 0 or rnd.random() < 0.25:
        return pal.Name(rnd.choice(names))
    pick = rnd.randrange(4)
    if pick < 2:
        operands = [_random_expr(rnd, depth - 1) for _ in range(rnd.randint(2, 4))]
        return (pal.Sum, pal.Product)[pick](tuple(operands))
    if pick == 2:
        scopes = [pal.Name(rnd.choice(["C", "D", "Docs"])) for _ in range(rnd.randint(1, 3))]
        return pal.Slash(_random_expr(rnd, depth - 1), tuple(scopes))
    return pal.Guard(
        rnd.choice(list(pal.GuardOp)),
        _random_expr(rnd, depth - 1),
        _random_expr(rnd, depth - 1),
    )


def test_criterion_8_parser_round_trip():
    started = time.perf_counter()
    rnd = random.Random(8)
    mismatches = 0
    for _ in range(1000):
        expr = _random_expr(rnd, rnd.randint(1, 6))
        if parse_expression(format_expr(expr)) != expr:
            mismatches += 1
    assert mismatches == 0

    program = parse_text(EXAMPLE_PAL)
    assert len(program.namespaces) == 1
    assert len(program.namespaces[0].statements) == 9
    assert parse_text(pal.format_program(program)) == program
    _report(8, "parser round-trip", started)


# --- 9: minimum evidence ---------------------------------------------------------------


def test_criterion_9_minimum_evidence():
    started = time.perf_counter()
    disagreements = 0
    checked = 0
    for n, families in _families_upto_4().items():
        masks_by_family = all_closed_mask_families(n)
        statements = [Statement(f"s{i}") for i in range(n)]
        for family, masks in zip(families, masks_by_family):
            fact_mask = {
                f.statements: sum(
                    1 << i for i, s in enumerate(statements) if s in f.statements
                )
                for f in family
            }
            for bits in range(1 << n):
                checked += 1
                witnesses = frozenset(
                    Statement(f"s{i}") for i in range(n) if (bits >> i) & 1
                )
                cond = WitnessCondition("w", witnesses)
                got = {fact_mask[f.statements] for f in minimum_evidences(cond, family)}
                # bit-level brute force, independent of the library search
                evidence = {m for m in masks if m & bits}
                want = {
                    m for m in evidence
                    if not any(o != m and o & m == o for o in evidence)
                }
                if got != want:
                    disagreements += 1
    assert checked == 1 + 2 + 4 * 4 + 29 * 8 + 355 * 16
    assert disagreements == 0
    _report(9, "minimum evidence", started)
