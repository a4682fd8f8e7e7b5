"""Privileges, normal and pulsed forms, traces, congruence, compliance."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from privcalc import (
    ALWAYS,
    NEVER,
    Arrangement,
    ArrangementError,
    Coefficient,
    ConditionMergeMode,
    Employment,
    Entity,
    EntitySet,
    FunctionSymbol,
    HighOrderCondition,
    Privilege,
    PrivilegeAtom,
    Statement,
    UNIVERSAL,
    WitnessCondition,
    atomic_arrangement,
    compliance_condition,
    compliant,
    compose,
    congruence_condition,
    congruent,
    merge,
    normal_form,
    pulse,
    structural_eq,
    trace,
)

from oracles import (
    employment_meet,
    pairwise_disjoint,
    pairwise_merge,
    pairwise_normal_form,
    privilege_grants,
)
from fixtures import power_family

READ = FunctionSymbol("read")
LIST_ = FunctionSymbol("list")
WRITE = FunctionSymbol("write")
REMOVE = FunctionSymbol("remove")
DOC1 = Entity("doc1")
TECHDOC = EntitySet.finite([DOC1], label="TechDoc")

INTER = ConditionMergeMode.INTERSECTION
UNION = ConditionMergeMode.UNION


def priv(*pairs) -> Privilege:
    return Privilege(
        frozenset(PrivilegeAtom(Employment(f, es), frozenset(cs)) for f, es, cs in pairs)
    )


def unconditioned(*emps) -> Privilege:
    return Privilege(frozenset(PrivilegeAtom(e) for e in emps))


BOB = unconditioned(
    Employment(READ, TECHDOC), Employment(LIST_, TECHDOC), Employment(WRITE, TECHDOC)
)
OFFICEPC = unconditioned(
    Employment(READ, UNIVERSAL),
    Employment(LIST_, UNIVERSAL),
    Employment(WRITE, UNIVERSAL),
    Employment(REMOVE, UNIVERSAL),
)
PHONE = unconditioned(Employment(READ, UNIVERSAL), Employment(LIST_, UNIVERSAL))
SESSIONS = Arrangement(
    (
        Employment(READ, UNIVERSAL),
        Employment(LIST_, UNIVERSAL),
        Employment(WRITE, UNIVERSAL),
        Employment(REMOVE, UNIVERSAL),
    )
)

FAM = power_family("s1", "s2")
T_EMPTY = FAM.fact("empty")
T_S1 = FAM.fact("s1")
C1 = WitnessCondition("c1", frozenset({Statement("s1")}))
C2 = WitnessCondition("c2", frozenset({Statement("s2")}))


# --- atoms and construction ---------------------------------------------------


def test_atom_rejects_empty_employment():
    with pytest.raises(ValueError):
        PrivilegeAtom(Employment(READ, EntitySet.finite([])))


def test_atom_granted():
    atom = PrivilegeAtom(Employment(READ, TECHDOC), frozenset({C1}))
    assert atom.granted(T_S1) is True
    assert atom.granted(T_EMPTY) is False
    assert PrivilegeAtom(Employment(READ, TECHDOC)).granted(T_EMPTY) is True


def test_empty_privilege():
    assert Privilege().is_empty
    assert Privilege().text() == "0"


# --- canonical text -----------------------------------------------------------


def test_text_session_example():
    session_1 = merge(BOB, OFFICEPC)
    assert session_1.text() == "list/TechDoc + read/TechDoc + write/TechDoc"
    session_2 = merge(BOB, PHONE)
    assert session_2.text() == "list/TechDoc + read/TechDoc"


def test_text_universal_and_singleton():
    p = unconditioned(Employment(READ, UNIVERSAL), Employment(WRITE, EntitySet.finite([DOC1])))
    assert p.text() == "read + write/doc1"


def test_text_splits_unlabeled_multi_entity():
    es = EntitySet.finite([Entity("a"), Entity("b")])
    assert unconditioned(Employment(READ, es)).text() == "read/a + read/b"


_P, _Q = Employment(FunctionSymbol("p"), UNIVERSAL), Employment(FunctionSymbol("q"), UNIVERSAL)
_P_LE_Q = compliance_condition(unconditioned(_P), unconditioned(_Q), Arrangement((_P, _Q)))


def test_text_guard_suffix():
    guard = _P_LE_Q
    p = priv((READ, UNIVERSAL, [guard]))
    assert p.text() == "read * [p <: q]"


def test_text_guard_on_split_atom_parenthesizes():
    guard = _P_LE_Q
    es = EntitySet.finite([Entity("a"), Entity("b")])
    p = priv((READ, es, [guard]))
    assert p.text() == "(read/a + read/b) * [p <: q]"


def test_text_plain_condition_marker():
    p = priv((READ, UNIVERSAL, [C1]))
    assert p.text() == "read ? c1"


def test_text_sorted_and_deterministic():
    p = unconditioned(Employment(WRITE, TECHDOC), Employment(READ, TECHDOC))
    assert p.text() == "read/TechDoc + write/TechDoc"


# --- merge and compose --------------------------------------------------------


def test_merge_drops_unemployable_pairs():
    p = unconditioned(Employment(READ, TECHDOC))
    q = unconditioned(Employment(WRITE, TECHDOC))
    assert merge(p, q).is_empty


def test_merge_intersection_mode_weakens_conditions():
    p = priv((READ, UNIVERSAL, [C1]))
    q = priv((READ, UNIVERSAL, [C2]))
    merged = merge(p, q, INTER)
    (atom,) = merged.atoms
    assert atom.conditions == frozenset()


def test_merge_union_mode_keeps_conditions():
    p = priv((READ, UNIVERSAL, [C1]))
    q = priv((READ, UNIVERSAL, [C2]))
    merged = merge(p, q, UNION)
    (atom,) = merged.atoms
    assert atom.conditions == frozenset({C1, C2})


def test_intersection_mode_can_break_self_compliance():
    # the two atoms cover the same employment under different conditions;
    # merging the privilege with itself cross-merges them and drops both
    # requirements, so p*p grants where p does not
    p = priv((READ, UNIVERSAL, [C1]), (READ, EntitySet.finite([DOC1]), [C2]))
    arr = Arrangement((Employment(READ, UNIVERSAL),))
    assert not compliant(p, p, arr, T_EMPTY, INTER)
    assert compliant(p, p, arr, T_EMPTY, UNION)


def test_union_mode_self_compliance_is_pointwise():
    for fact in FAM:
        p = priv((READ, UNIVERSAL, [C1]), (WRITE, TECHDOC, [C2]))
        assert compliant(p, p, SESSIONS, fact, UNION)


def test_compose_is_atom_union():
    p = unconditioned(Employment(READ, TECHDOC))
    q = priv((READ, TECHDOC, [C1]))
    both = compose(p, q)
    assert len(both.atoms) == 2
    assert both.atoms == p.atoms | q.atoms


@st.composite
def _privileges(draw):
    entities = [Entity("d1"), Entity("d2")]
    fns = [READ, WRITE]
    sets = [EntitySet.finite([e]) for e in entities] + [
        EntitySet.finite(entities),
        UNIVERSAL,
    ]
    conds = [C1, C2]
    n = draw(st.integers(0, 3))
    atoms = []
    for _ in range(n):
        f = draw(st.sampled_from(fns))
        es = draw(st.sampled_from(sets))
        cs = draw(st.frozensets(st.sampled_from(conds), max_size=2))
        atoms.append(PrivilegeAtom(Employment(f, es), cs))
    return Privilege(frozenset(atoms))


@given(_privileges(), _privileges())
def test_union_merge_grants_are_intersections(u, v):
    universe = [Entity("d1"), Entity("d2")]
    for fact in FAM:
        got = privilege_grants(merge(u, v, UNION), universe, fact)
        want = privilege_grants(u, universe, fact) & privilege_grants(v, universe, fact)
        assert got == want


@given(_privileges(), _privileges())
def test_compose_grants_are_unions(u, v):
    universe = [Entity("d1"), Entity("d2")]
    for fact in FAM:
        got = privilege_grants(compose(u, v), universe, fact)
        want = privilege_grants(u, universe, fact) | privilege_grants(v, universe, fact)
        assert got == want


@given(_privileges(), _privileges(), _privileges())
def test_merge_laws_both_modes(u, v, w):
    for mode in (INTER, UNION):
        assert merge(u, v, mode) == merge(v, u, mode)
        assert merge(merge(u, v, mode), w, mode) == merge(u, merge(v, w, mode), mode)
    assert compose(u, v) == compose(v, u)
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


# --- restriction and guards -----------------------------------------------------


def test_restricted_narrows_entities():
    p = unconditioned(Employment(READ, UNIVERSAL), Employment(WRITE, EntitySet.finite([Entity("other")])))
    got = p.restricted(TECHDOC)
    assert got.text() == "read/TechDoc"


def test_with_condition_attaches_everywhere():
    guard = congruence_condition(BOB, Privilege(), SESSIONS)  # false everywhere
    p = BOB.with_condition(guard)
    assert all(guard in a.conditions for a in p.atoms)
    assert Privilege().with_condition(guard).is_empty


# --- arrangements ----------------------------------------------------------------


def test_arrangement_rejects_empty_element():
    with pytest.raises(ArrangementError):
        Arrangement((Employment(READ, EntitySet.finite([])),))


def test_arrangement_rejects_duplicates():
    m = Employment(READ, UNIVERSAL)
    with pytest.raises(ArrangementError, match="duplicate"):
        Arrangement((m, m))


def test_arrangement_rejects_overlap():
    with pytest.raises(ArrangementError, match="overlap"):
        Arrangement((Employment(READ, UNIVERSAL), Employment(READ, TECHDOC)))


def test_arrangement_allows_disjoint_same_function():
    a = Employment(READ, EntitySet.finite([Entity("a")]))
    b = Employment(READ, EntitySet.finite([Entity("b")]))
    assert len(Arrangement((a, b))) == 2


def test_atomic_arrangement_sorted_pairs():
    arr = atomic_arrangement([WRITE, READ], [Entity("b"), Entity("a")])
    assert arr.labels() == ["read/{a}", "read/{b}", "write/{a}", "write/{b}"]


# --- coefficients ------------------------------------------------------------------


def test_coefficient_constants():
    assert Coefficient.false().is_false
    assert Coefficient.true().is_true
    assert Coefficient.false().render() == "false"
    assert Coefficient.true().render() == "true"


def test_coefficient_folding():
    got = Coefficient.from_conjunctions(
        [frozenset({C1, ALWAYS}), frozenset({C2, NEVER})]
    )
    assert got == Coefficient((frozenset({C1}),))
    assert Coefficient.from_conjunctions([frozenset({ALWAYS})]).is_true
    assert Coefficient.from_conjunctions([]).is_false
    assert Coefficient.from_conjunctions([frozenset({NEVER})]).is_false


def test_coefficient_render_sorted():
    got = Coefficient.from_conjunctions([frozenset({C2, C1}), frozenset({C1})])
    assert got.render() == "c1 | c1 & c2"


def test_coefficient_evaluate():
    coeff = Coefficient.from_conjunctions([frozenset({C1, C2})])
    assert coeff.evaluate(FAM.fact("s1+s2")) is True
    assert coeff.evaluate(T_S1) is False


# --- normal, pulsed, trace ----------------------------------------------------------


def test_normal_form_session_example():
    session_1 = merge(BOB, OFFICEPC)
    nf = normal_form(session_1, SESSIONS)
    assert [c.render() for c in nf.coefficients] == ["true", "true", "true", "false"]
    assert nf.render() == (
        "read/*: true\nlist/*: true\nwrite/*: true\nremove/*: false"
    )


def test_normal_form_collects_disjunctions():
    p = priv((READ, UNIVERSAL, [C1]), (READ, TECHDOC, [C2]))
    nf = normal_form(p, Arrangement((Employment(READ, UNIVERSAL),)))
    assert nf.coefficients[0].render() == "c1 | c2"


def test_normal_form_to_privilege_round_trip():
    p = priv((READ, UNIVERSAL, [C1]), (WRITE, TECHDOC, []))
    nf = normal_form(p, SESSIONS)
    assert structural_eq(p, nf.to_privilege(), SESSIONS, FAM)


def test_pulse_session_example():
    session_1 = merge(BOB, OFFICEPC)
    assert pulse(session_1, SESSIONS, T_EMPTY).render() == "1 1 1 0"
    session_2 = merge(BOB, PHONE)
    assert pulse(session_2, SESSIONS, T_EMPTY).render() == "1 1 0 0"


def test_pulse_respects_conditions():
    p = priv((READ, UNIVERSAL, [C1]))
    assert pulse(p, SESSIONS, T_S1).bits[0] is True
    assert pulse(p, SESSIONS, T_EMPTY).bits[0] is False


def test_trace_matrix_csv():
    p = priv((READ, UNIVERSAL, [C1]), (WRITE, UNIVERSAL, []))
    seq = [T_EMPTY, T_S1]
    m = trace(p, SESSIONS, seq)
    assert m.column(0) == (False, False, True, False)
    assert m.column(1) == (True, False, True, False)
    assert m.to_csv() == (
        "employment,empty,s1\n"
        "read/*,0,1\n"
        "list/*,0,0\n"
        "write/*,1,1\n"
        "remove/*,0,0\n"
    )


@given(_privileges())
def test_trace_columns_are_pulses(p):
    seq = list(FAM)
    m = trace(p, SESSIONS, seq)
    for j, fact in enumerate(seq):
        assert m.column(j) == pulse(p, SESSIONS, fact).bits


@given(_privileges())
def test_normal_form_matches_grant_oracle_on_atomic_basis(p):
    universe = [Entity("d1"), Entity("d2")]
    arr = atomic_arrangement([READ, WRITE], universe)
    for fact in FAM:
        bits = pulse(p, arr, fact).bits
        grants = privilege_grants(p, universe, fact)
        for emp, bit in zip(arr.basis, bits):
            (entity,) = emp.entities.members
            assert bit == ((emp.function.name, entity.name) in grants)


# --- congruence and compliance ---------------------------------------------------


def test_congruent_ignores_structure():
    u = unconditioned(Employment(READ, UNIVERSAL))
    v = unconditioned(Employment(READ, TECHDOC))
    arr = Arrangement((Employment(READ, UNIVERSAL),))
    assert congruent(u, v, arr, T_EMPTY)
    assert structural_eq(u, v, arr, FAM)


def test_congruence_depends_on_fact():
    u = priv((READ, UNIVERSAL, [C1]))
    v = unconditioned(Employment(READ, UNIVERSAL))
    arr = Arrangement((Employment(READ, UNIVERSAL),))
    assert congruent(u, v, arr, T_S1)
    assert not congruent(u, v, arr, T_EMPTY)


def test_compliance_session_example():
    session_1 = merge(BOB, OFFICEPC)
    session_2 = merge(BOB, PHONE)
    read_doc1 = unconditioned(Employment(READ, EntitySet.finite([DOC1])))
    write_doc1 = unconditioned(Employment(WRITE, EntitySet.finite([DOC1])))
    for fact in FAM:
        assert compliant(session_1, read_doc1, SESSIONS, fact)
        assert compliant(session_1, write_doc1, SESSIONS, fact)
        assert compliant(session_2, read_doc1, SESSIONS, fact)
        assert not compliant(session_2, write_doc1, SESSIONS, fact)


def test_empty_privilege_complies_with_anything_granted_nowhere():
    nothing = Privilege()
    assert compliant(nothing, Privilege(), SESSIONS, T_EMPTY)
    assert not compliant(nothing, BOB, SESSIONS, T_EMPTY)


def test_compliance_condition_snapshots_operands():
    session_2 = merge(BOB, PHONE)
    read_doc1 = unconditioned(Employment(READ, EntitySet.finite([DOC1])))
    cond = compliance_condition(session_2, read_doc1, SESSIONS)
    assert cond.id == "[list/TechDoc + read/TechDoc <: read/doc1]"
    for fact in FAM:
        assert cond.evaluate(fact) is True


def test_congruence_condition():
    u = priv((READ, UNIVERSAL, [C1]))
    v = unconditioned(Employment(READ, UNIVERSAL))
    cond = congruence_condition(u, v, Arrangement((Employment(READ, UNIVERSAL),)))
    assert cond.id == "[read ? c1 ~ read]"
    assert cond.evaluate(T_S1) is True
    assert cond.evaluate(T_EMPTY) is False


def test_guards_compare_by_value():
    u = priv((READ, UNIVERSAL, [C1]))
    v = unconditioned(Employment(READ, UNIVERSAL))
    arr = Arrangement((Employment(READ, UNIVERSAL),))
    equal_arr = Arrangement((Employment(READ, UNIVERSAL),))
    guard = compliance_condition(u, v, arr, UNION)
    assert compliance_condition(u, v, equal_arr, UNION) is guard  # hash-consed
    built = HighOrderCondition("<:", u, v, equal_arr, UNION)
    assert built == guard and hash(built) == hash(guard)
    assert guard != compliance_condition(u, v, arr, INTER)
    assert guard != congruence_condition(u, v, arr)
    # congruence ignores the merge mode
    assert HighOrderCondition("~", u, v, arr, UNION) == congruence_condition(u, v, arr)
    wider = Arrangement((Employment(READ, UNIVERSAL), Employment(WRITE, UNIVERSAL)))
    assert congruence_condition(u, v, wider) != congruence_condition(u, v, arr)
    with pytest.raises(ValueError, match="unknown guard operator"):
        HighOrderCondition("<=", u, v, arr, None)


@given(_privileges(), _privileges())
def test_compliance_matches_grant_containment_union_mode(u, v):
    # under UNION-mode mergence, compliance at a fact over an atomic basis
    # is exactly grant containment at that fact
    universe = [Entity("d1"), Entity("d2")]
    arr = atomic_arrangement([READ, WRITE], universe)
    for fact in FAM:
        lhs = compliant(u, v, arr, fact, UNION)
        gu = privilege_grants(u, universe, fact)
        gv = privilege_grants(v, universe, fact)
        assert lhs == (gu & gv == gv)


# --- the arrangement index against the pairwise definitions -------------------

_IDX_FUNCTIONS = [READ, WRITE, LIST_]
_IDX_ENTITIES = [Entity(n) for n in ("a", "b", "c", "d")]
_A, _B = _IDX_ENTITIES[:2]
# In no basis element's finite set: a finite atom over it overlaps no
# finite element, as an atom over REMOVE overlaps no element at all.
_OUTSIDE = Entity("z")
_READ_A = Employment(READ, EntitySet.finite([_A]))
_READ_B = Employment(READ, EntitySet.finite([_B]))


@st.composite
def _entity_sets(draw):
    kind = draw(st.sampled_from(["universal", "finite", "labelled"]))
    if kind == "universal":
        return UNIVERSAL
    members = draw(st.frozensets(st.sampled_from(_IDX_ENTITIES)))
    return EntitySet.finite(members, "X" if kind == "labelled" else None)


def _atom_entity_sets():
    """Entity sets an atom may hold: a drained set becomes {z}."""
    return _entity_sets().map(lambda es: EntitySet.finite([_OUTSIDE]) if es.is_empty else es)


@st.composite
def _disjoint_bases(draw):
    """Per function: nothing, the universal element, or a partition of
    some of the entities; then shuffled."""
    basis = []
    for f in _IDX_FUNCTIONS:
        kind = draw(st.sampled_from(["none", "universal", "partition"]))
        if kind == "universal":
            basis.append(Employment(f, UNIVERSAL))
        elif kind == "partition":
            blocks: dict[int, list[Entity]] = {}
            for e in _IDX_ENTITIES:
                block = draw(st.integers(-1, 2))  # -1 leaves the entity out
                if block >= 0:
                    blocks.setdefault(block, []).append(e)
            for members in blocks.values():
                label = draw(st.sampled_from([None, "X"]))
                basis.append(Employment(f, EntitySet.finite(members, label)))
    return tuple(draw(st.permutations(basis)))


@st.composite
def _any_bases(draw):
    """A disjoint basis with up to three elements inserted: overlaps,
    duplicates and elements over an empty entity set included."""
    elems = list(draw(_disjoint_bases()))
    extra = st.builds(Employment, st.sampled_from(_IDX_FUNCTIONS), _entity_sets())
    for _ in range(draw(st.integers(0, 3))):
        pick = st.one_of(extra, st.sampled_from(elems)) if elems else extra
        elems.insert(draw(st.integers(0, len(elems))), draw(pick))
    return tuple(elems)


@st.composite
def _index_privileges(draw):
    # REMOVE is in no basis, and {z} is in no finite element
    fns = st.sampled_from(_IDX_FUNCTIONS + [REMOVE])
    conds = st.frozensets(st.sampled_from([C1, C2, ALWAYS, NEVER]), max_size=2)
    atom = st.builds(PrivilegeAtom, st.builds(Employment, fns, _atom_entity_sets()), conds)
    atoms = draw(st.lists(atom, max_size=5))
    return Privilege(frozenset(atoms))


def _names_a_clash(message: str, basis) -> bool:
    if message == "arrangement elements must be non-empty":
        return any(m.entities.is_empty for m in basis)
    pairs = list(itertools.combinations(basis, 2))
    if message.startswith("duplicate arrangement element "):
        named = message.removeprefix("duplicate arrangement element ")
        return any(m == n and m.render() == named for m, n in pairs)
    return any(
        message == f"arrangement elements overlap: {m.render()} and {n.render()}"
        and m != n
        and employment_meet(m, n) is not None
        for m, n in pairs
    )


@settings(max_examples=300)
@given(st.one_of(_any_bases(), _disjoint_bases()))
@example((Employment(READ, UNIVERSAL), _READ_A))
@example((_READ_A, Employment(READ, UNIVERSAL)))
@example((Employment(READ, UNIVERSAL), Employment(READ, UNIVERSAL)))
@example((Employment(READ, EntitySet.finite([_A, _B])), _READ_B))
@example((Employment(READ, EntitySet.finite([_A], "X")), _READ_A))
def test_arrangement_accepts_exactly_the_disjoint_bases(basis):
    if pairwise_disjoint(basis):
        arr = Arrangement(basis)
        assert arr.basis == basis
        assert arr == Arrangement(basis) and hash(arr) == hash(Arrangement(basis))
    else:
        with pytest.raises(ArrangementError) as info:
            Arrangement(basis)
        assert _names_a_clash(str(info.value), basis), str(info.value)


def test_arrangement_rejects_empty_entity_set():
    with pytest.raises(ArrangementError, match="non-empty"):
        Arrangement((Employment(READ, UNIVERSAL), Employment(READ, EntitySet.finite([]))))


def test_arrangement_overlap_names_earliest_clash():
    basis = (
        _READ_A,
        _READ_B,
        Employment(READ, UNIVERSAL),
    )
    with pytest.raises(ArrangementError, match=r"overlap: read/\{a\} and read/\*"):
        Arrangement(basis)


@given(_disjoint_bases(), _index_privileges())
@example(
    (Employment(READ, UNIVERSAL), Employment(WRITE, EntitySet.finite([_A]))),
    unconditioned(
        Employment(WRITE, EntitySet.finite([_OUTSIDE])), Employment(WRITE, UNIVERSAL)
    ),
)
def test_normal_form_matches_pairwise_definition(basis, p):
    want = tuple(Coefficient.from_conjunctions(c) for c in pairwise_normal_form(p, basis))
    assert normal_form(p, Arrangement(basis)).coefficients == want


@given(
    _disjoint_bases(),
    _index_privileges(),
    _index_privileges(),
    _index_privileges(),
    st.sampled_from([INTER, UNION]),
)
def test_guard_conditions_agree_with_predicates(basis, p, q, r, mode):
    # Guards, congruent and compliant share one row comparison, so each
    # is checked against the dense definition: equal pulsed forms.
    arr = Arrangement(basis)
    inner = p.with_condition(compliance_condition(r, q, arr, mode))
    nested = q.with_condition(congruence_condition(inner, r, arr))
    for u, v in ((p, q), (inner, q), (nested, inner), (r, nested)):
        comply = compliance_condition(u, v, arr, mode)
        congr = congruence_condition(u, v, arr)
        for fact in FAM:
            pv = pulse(v, arr, fact).bits
            dense_comply = pulse(merge(u, v, mode), arr, fact).bits == pv
            dense_congr = pulse(u, arr, fact).bits == pv
            assert comply.evaluate(fact) == compliant(u, v, arr, fact, mode) == dense_comply
            assert congr.evaluate(fact) == congruent(u, v, arr, fact) == dense_congr


# --- the sparse paths against the dense definitions ---------------------------

_G1 = compliance_condition(PHONE, BOB, SESSIONS)
_G2 = congruence_condition(BOB, OFFICEPC, SESSIONS)


@st.composite
def _mixed_privileges(draw):
    """Atoms over several functions, with plain and guard conditions."""
    fns = st.sampled_from(_IDX_FUNCTIONS + [REMOVE])
    conds = st.frozensets(st.sampled_from([C1, C2, ALWAYS, NEVER, _G1, _G2]), max_size=3)
    atom = st.builds(PrivilegeAtom, st.builds(Employment, fns, _atom_entity_sets()), conds)
    return Privilege(frozenset(draw(st.lists(atom, max_size=6))))


@given(_mixed_privileges(), _mixed_privileges(), st.sampled_from([INTER, UNION]))
@example(BOB, PHONE, INTER)
@example(priv((READ, TECHDOC, [_G1])), priv((WRITE, UNIVERSAL, [C1])), UNION)
def test_merge_matches_pairwise_definition(u, v, mode):
    assert merge(u, v, mode) == pairwise_merge(u, v, mode)


@given(_disjoint_bases(), _index_privileges(), _index_privileges())
@example(
    (Employment(READ, UNIVERSAL), Employment(WRITE, EntitySet.finite([_A]))),
    # every conjunction on read/* folds to false
    priv((READ, UNIVERSAL, [NEVER]), (READ, EntitySet.finite([_B]), [C1, NEVER])),
    Privilege(),
)
def test_pulse_trace_and_eq_match_every_coefficient(basis, p, q):
    arr = Arrangement(basis)
    facts = list(FAM)
    cp = normal_form(p, arr).coefficients
    cq = normal_form(q, arr).coefficients
    for fact in facts:
        assert pulse(p, arr, fact).bits == tuple(c.evaluate(fact) for c in cp)
    assert trace(p, arr, facts).cells == tuple(
        tuple(c.evaluate(t) for t in facts) for c in cp
    )
    assert structural_eq(p, q, arr, FAM) == all(
        a.evaluate(t) == b.evaluate(t) for a, b in zip(cp, cq) for t in facts
    )


def test_merge_pairs_atoms_only_within_a_function(monkeypatch):
    # Each pairing intersects the two entity sets once.
    calls = []
    intersect = EntitySet.intersect

    def counting(a, b):
        calls.append((a, b))
        return intersect(a, b)

    monkeypatch.setattr(EntitySet, "intersect", counting)
    entities = [Entity(f"e{i}") for i in range(20)]
    reads = unconditioned(*(Employment(READ, EntitySet.finite([e])) for e in entities))
    writes = unconditioned(*(Employment(WRITE, EntitySet.finite([e])) for e in entities))
    assert merge(reads, writes).is_empty
    assert calls == []
    assert merge(reads, PHONE) == reads  # PHONE's list/* pairs with nothing
    assert len(calls) == len(entities)


def test_pulse_and_trace_evaluate_only_overlapped_elements(monkeypatch):
    entities = [Entity(f"e{i:03d}") for i in range(100)]
    arr = atomic_arrangement([READ, WRITE, LIST_, REMOVE], entities)
    evaluated = []
    evaluate = Coefficient.evaluate

    def counting(self, fact):
        evaluated.append(self)
        return evaluate(self, fact)

    monkeypatch.setattr(Coefficient, "evaluate", counting)
    p = priv((READ, EntitySet.finite(entities[:2]), [C1]))
    assert pulse(p, arr, T_S1).bits.count(True) == 2
    assert len(evaluated) == 2
    cells = trace(p, arr, [T_EMPTY, T_S1]).cells
    assert sum(row.count(True) for row in cells) == 2
    assert len(evaluated) == 2 + 2 * 2
