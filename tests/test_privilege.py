"""Privileges, normal and pulsed forms, traces, congruence, compliance."""

from __future__ import annotations

import gc
import itertools
import pickle
import subprocess
import sys
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import privcalc.privilege as privilege_module
from privcalc.facts import FactFamily, Masked
from privcalc import (
    Arrangement,
    ArrangementError,
    Coefficient,
    ConditionMergeMode,
    Employment,
    Entity,
    EntitySet,
    Fact,
    FalseCondition,
    FunctionSymbol,
    HighOrderCondition,
    Privilege,
    PrivilegeAtom,
    Statement,
    TrueCondition,
    UNIVERSAL,
    WitnessCondition,
    atomic_arrangement,
    close_family,
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
    pointwise_holds,
    pointwise_pulse,
    privilege_grants,
)
from fixtures import CHILD_ENV, power_family

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
# Constants named as a facts file names them ("condition open = true").
OPEN = TrueCondition("open")
SEALED = FalseCondition("sealed")


# --- atoms and construction ---------------------------------------------------


def test_atom_rejects_empty_employment():
    with pytest.raises(ValueError):
        PrivilegeAtom(Employment(READ, EntitySet.finite([])))


def test_atom_granted():
    # an atom's element pulses where all of its conditions hold, and
    # always when it has none
    own = Arrangement((Employment(READ, TECHDOC),))
    atom = PrivilegeAtom(Employment(READ, TECHDOC), frozenset({C1}))
    assert pulse(Privilege(frozenset({atom})), own, T_S1).bits == (True,)
    assert pulse(Privilege(frozenset({atom})), own, T_EMPTY).bits == (False,)
    assert pulse(Privilege.single(Employment(READ, TECHDOC)), own, T_EMPTY).bits == (True,)


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
    assert p.text() == "read * c1"


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
    assert [m.render() for m in arr.basis] == ["read/{a}", "read/{b}", "write/{a}", "write/{b}"]


# --- coefficients ------------------------------------------------------------------


def test_coefficient_constants():
    assert Coefficient() == Coefficient(())
    assert Coefficient().render() == "false"
    assert Coefficient((frozenset(),)).render() == "true"
    assert not Coefficient().evaluate(T_S1)
    assert Coefficient((frozenset(),)).evaluate(T_EMPTY)


def test_coefficient_folding():
    got = Coefficient.from_conjunctions(
        [frozenset({C1, OPEN}), frozenset({C2, SEALED})]
    )
    assert got == Coefficient((frozenset({C1}),))
    assert Coefficient.from_conjunctions([frozenset({OPEN})]) == Coefficient((frozenset(),))
    assert Coefficient.from_conjunctions([]) == Coefficient()
    assert Coefficient.from_conjunctions([frozenset({SEALED})]) == Coefficient()


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
    # one atom per basis element and disjunct of its coefficient
    rebuilt = Privilege(frozenset(
        PrivilegeAtom(emp, conj)
        for emp, coeff in zip(SESSIONS.basis, nf.coefficients)
        for conj in coeff.disjuncts
    ))
    assert structural_eq(p, rebuilt, SESSIONS, FAM)


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
    assert list(zip(*m.cells)) == [(False, False, True, False), (True, False, True, False)]
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
    assert list(zip(*m.cells)) == [pulse(p, SESSIONS, fact).bits for fact in seq]


@given(_privileges())
def test_normal_form_matches_grant_oracle_on_atomic_basis(p):
    universe = [Entity("d1"), Entity("d2")]
    arr = atomic_arrangement([READ, WRITE], universe)
    for fact in FAM:
        bits = pulse(p, arr, fact).bits
        grants = privilege_grants(p, universe, fact)
        for emp, bit in zip(arr.basis, bits):
            (entity,) = emp.entities.members
            assert bit == ((emp.function, entity) in grants)


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
    assert cond.id == "[read * c1 ~ read]"
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


def test_guard_depth_is_one_more_than_its_operands_deepest_guard():
    arr = Arrangement((Employment(READ, UNIVERSAL), Employment(WRITE, UNIVERSAL)))
    read = unconditioned(Employment(READ, UNIVERSAL))
    write = priv((WRITE, UNIVERSAL, [C1]))
    first = compliance_condition(read, write, arr, UNION)
    assert first.depth == 1
    second = congruence_condition(read.with_condition(first), write, arr)
    assert second.depth == 2
    # the deepest operand counts, on either side, whatever else it holds
    third = compliance_condition(
        compose(read.with_condition(first), write), write.with_condition(second), arr, INTER
    )
    assert third.depth == 3
    # depth takes no part in equality
    assert HighOrderCondition("~", read.with_condition(first), write, arr, None) == second


def test_an_equal_guard_merges_its_operands_once(monkeypatch):
    # Hash-consing keeps the first guard, and a guard merges its operands
    # at its first evaluation, so the discarded equal guard merges nothing.
    merges = []
    real_merge = privilege_module.merge

    def counting(*args):
        merges.append(args)
        return real_merge(*args)

    monkeypatch.setattr(privilege_module, "merge", counting)
    arr = Arrangement((Employment(REMOVE, UNIVERSAL), Employment(WRITE, TECHDOC)))
    u = priv((REMOVE, TECHDOC, [C2]), (WRITE, TECHDOC, [C1]))
    v = unconditioned(Employment(REMOVE, UNIVERSAL))
    guards = [compliance_condition(u, v, arr, UNION) for _ in range(2)]
    for guard in guards:
        for fact in FAM:
            guard.evaluate(fact)
    assert guards[0] is guards[1]
    assert len(merges) == 1


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
    conds = st.frozensets(st.sampled_from([C1, C2, OPEN, SEALED]), max_size=2)
    atom = st.builds(PrivilegeAtom, st.builds(Employment, fns, _atom_entity_sets()), conds)
    atoms = draw(st.lists(atom, max_size=5))
    return Privilege(frozenset(atoms))


def _first_refusal(basis) -> tuple[str, int | None] | None:
    """What a brute force over the elements in order refuses first, as
    (message, index): the first element that is empty, or that meets an
    earlier one, named with the earliest element it meets; None when
    the basis is disjoint."""
    for j, n in enumerate(basis):
        if n.entities.is_empty:
            return "arrangement elements must be non-empty", None
        met = [m for m in basis[:j] if employment_meet(m, n) is not None]
        if met:
            m = met[0]
            if m == n:
                return f"duplicate arrangement element {m.render()}", j
            return f"arrangement elements overlap: {m.render()} and {n.render()}", j
    return None


@settings(max_examples=300)
@given(st.one_of(_any_bases(), _disjoint_bases()))
@example((Employment(READ, UNIVERSAL), _READ_A))
@example((_READ_A, Employment(READ, UNIVERSAL)))
@example((Employment(READ, UNIVERSAL), Employment(READ, UNIVERSAL)))
@example((Employment(READ, EntitySet.finite([_A, _B])), _READ_B))
@example((Employment(READ, EntitySet.finite([_A], "X")), _READ_A))
@example((_READ_B, _READ_A, Employment(READ, EntitySet.finite([_A, _B]))))
@example((_READ_A, Employment(WRITE, UNIVERSAL), _READ_B, Employment(WRITE, UNIVERSAL)))
@example((_READ_A, Employment(READ, EntitySet.finite([]))))
def test_arrangement_accepts_exactly_the_disjoint_bases(basis):
    refusal = _first_refusal(basis)
    assert (refusal is None) == pairwise_disjoint(basis)
    if refusal is None:
        arr = Arrangement(basis)
        assert arr.basis == basis
        assert arr == Arrangement(basis) and hash(arr) == hash(Arrangement(basis))
    else:
        with pytest.raises(ArrangementError) as info:
            Arrangement(basis)
        assert (str(info.value), info.value.index) == refusal


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


@given(
    _disjoint_bases(),
    st.sampled_from(_IDX_FUNCTIONS + [REMOVE]),
    st.one_of(_atom_entity_sets(), st.just(EntitySet.finite([]))),
)
@example((Employment(READ, UNIVERSAL),), READ, EntitySet.finite([]))
@example((_READ_A, _READ_B), READ, UNIVERSAL)
@example((_READ_A,), READ, EntitySet.finite([_OUTSIDE]))
def test_overlapping_mask_sets_exactly_the_elements_an_employment_meets(basis, f, es):
    employment = Employment(f, es)
    want = sum(1 << i for i, n in enumerate(basis) if employment_meet(employment, n) is not None)
    assert Arrangement(basis).overlapping(employment) == want


def test_an_arrangement_builds_a_function_mask_when_first_asked_for_it():
    # Function i's mask holds bit i, so masks built with the index would
    # take about n**2 / 16 bytes for n functions: some 100 MB here.
    script = (
        "import resource\n"
        "from privcalc import Arrangement, Employment, UNIVERSAL\n"
        "basis = tuple(Employment(f'f{i}', UNIVERSAL) for i in range(40_000))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "arr = Arrangement(basis)\n"
        "asked = [arr.overlapping(Employment(f, UNIVERSAL)) for f in ('f7', 'f39999', 'g')]\n"
        "assert asked == [1 << 7, 1 << 39999, 0], asked\n"
        "assert arr.overlapping(Employment('f7', UNIVERSAL)) == 1 << 7\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 32 * 1024  # KiB


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


# Pairs that share coefficients: q is p plus one atom, or p respelled.
_SHARED_BASIS = (
    Employment(READ, EntitySet.finite([_A, _B])),
    Employment(WRITE, EntitySet.finite([_A])),
    Employment(WRITE, EntitySet.finite(_IDX_ENTITIES[1:3])),
)
_SHARED = priv((READ, EntitySet.finite([_A]), [C1]), (WRITE, UNIVERSAL, [C2]))
_SHARED_PLUS = compose(_SHARED, priv((WRITE, EntitySet.finite([_B]), [C1])))
_SHARED_RESPELLED = priv(
    (READ, EntitySet.finite([_B]), [C1]),
    (WRITE, EntitySet.finite([_A]), [C2]),
    (WRITE, EntitySet.finite(_IDX_ENTITIES[2:]), [C2]),
)


@given(
    _disjoint_bases(),
    _index_privileges(),
    _index_privileges(),
    _index_privileges(),
    st.sampled_from([INTER, UNION]),
)
@example(_SHARED_BASIS, _SHARED, _SHARED_PLUS, priv((READ, UNIVERSAL, [C2])), INTER)
@example(_SHARED_BASIS, _SHARED, _SHARED_PLUS, priv((READ, UNIVERSAL, [C2])), UNION)
@example(_SHARED_BASIS, _SHARED, _SHARED_RESPELLED, priv((WRITE, UNIVERSAL, [C1])), INTER)
@example(_SHARED_BASIS, _SHARED, _SHARED_RESPELLED, priv((WRITE, UNIVERSAL, [C1])), UNION)
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
    conds = st.frozensets(st.sampled_from([C1, C2, OPEN, SEALED, _G1, _G2]), max_size=3)
    atom = st.builds(PrivilegeAtom, st.builds(Employment, fns, _atom_entity_sets()), conds)
    return Privilege(frozenset(draw(st.lists(atom, max_size=6))))


@given(_mixed_privileges(), _mixed_privileges(), st.sampled_from([INTER, UNION]))
@example(BOB, PHONE, INTER)
@example(priv((READ, TECHDOC, [_G1])), priv((WRITE, UNIVERSAL, [C1])), UNION)
def test_merge_matches_pairwise_definition(u, v, mode):
    assert merge(u, v, mode) == pairwise_merge(u, v, mode)


@given(_disjoint_bases(), _mixed_privileges(), _mixed_privileges())
@example(
    (Employment(READ, UNIVERSAL), Employment(WRITE, EntitySet.finite([_A]))),
    # every conjunction on read/* folds to false
    priv((READ, UNIVERSAL, [SEALED]), (READ, EntitySet.finite([_B]), [C1, SEALED])),
    Privilege(),
)
@example(_SHARED_BASIS, _SHARED.with_condition(_G1), _SHARED_PLUS.with_condition(_G1))
@example(_SHARED_BASIS, _SHARED.with_condition(_G2), _SHARED_RESPELLED.with_condition(_G2))
def test_pulse_trace_and_eq_match_every_coefficient(basis, p, q):
    # Every query against the per-element definition: each element's
    # coefficient, from the normal form, evaluated at each fact.
    arr = Arrangement(basis)
    facts = list(FAM)

    def coefficients(x):
        want = tuple(Coefficient.from_conjunctions(c) for c in pairwise_normal_form(x, basis))
        assert normal_form(x, arr).coefficients == want
        return want

    def agree(a, b, fact):
        return all(x.evaluate(fact) == y.evaluate(fact) for x, y in zip(a, b))

    cp, cq = coefficients(p), coefficients(q)
    merged = {mode: coefficients(merge(p, q, mode)) for mode in (INTER, UNION)}
    for fact in facts:
        assert pulse(p, arr, fact).bits == tuple(c.evaluate(fact) for c in cp)
        assert congruent(p, q, arr, fact) == agree(cp, cq, fact)
        for mode, cm in merged.items():
            assert compliant(p, q, arr, fact, mode) == agree(cm, cq, fact)
    assert trace(p, arr, facts).cells == tuple(
        tuple(c.evaluate(t) for t in facts) for c in cp
    )
    assert structural_eq(p, q, arr, FAM) == all(agree(cp, cq, t) for t in facts)


# --- masks against the pointwise oracle ---------------------------------------


@st.composite
def _guarded_worlds(draw):
    """A family closed from up to three generators over up to five
    statements, a basis, and a pool of privileges whose atoms carry
    witness conditions, constants and guards nested up to three deep,
    each guard of either operator and, for ``<:``, either merge mode; and
    two privileges of the pool."""
    statements = [Statement(f"s{i}") for i in range(draw(st.integers(1, 5)))]
    subsets = st.frozensets(st.sampled_from(statements))
    generators = draw(st.lists(subsets, max_size=3))
    family = close_family(statements, [Fact(f"g{i}", g) for i, g in enumerate(generators)])
    witness_sets = st.frozensets(st.sampled_from(statements), min_size=1)
    witnessed = draw(st.lists(witness_sets, min_size=1, max_size=3))
    conditions = [WitnessCondition(f"w{i}", w) for i, w in enumerate(witnessed)] + [OPEN, SEALED]
    arr = Arrangement(draw(_disjoint_bases()))

    def privilege(min_size=0):
        fns = st.sampled_from(_IDX_FUNCTIONS)
        conds = st.frozensets(st.sampled_from(conditions), max_size=2)
        atom = st.builds(PrivilegeAtom, st.builds(Employment, fns, _atom_entity_sets()), conds)
        return Privilege(frozenset(draw(st.lists(atom, min_size=min_size, max_size=3))))

    # Each guard reads the latest privilege, which carries the guard before.
    pool = [privilege()]
    for _ in range(3):
        u, v = pool[-1], draw(st.sampled_from(pool))
        if draw(st.booleans()):
            u, v = v, u
        if draw(st.booleans()):
            guard = compliance_condition(u, v, arr, draw(st.sampled_from([INTER, UNION])))
        else:
            guard = congruence_condition(u, v, arr)
        conditions.append(guard)
        pool.append(compose(privilege(), privilege(1).with_condition(guard)))
    return family, arr, draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


@settings(max_examples=120, deadline=None)
@given(_guarded_worlds(), st.sampled_from([INTER, UNION]), st.data())
def test_queries_agree_with_the_pointwise_oracle_at_every_fact(world, mode, data):
    # Masks against the dense definition at each fact: at the family's
    # placed facts, at hand-built copies of them (each a family of one)
    # and at a hand-built fact the family need not hold, in any order.
    family, arr, p, q = world
    hand = [Fact(f"h{k}", f.statements) for k, f in enumerate(family.facts)]
    loose = Fact("loose", data.draw(st.frozensets(st.sampled_from(sorted(family.universe)))))
    facts = data.draw(st.permutations([*family.facts, *hand, loose]))
    merged = pairwise_merge(p, q, mode)
    rows = []
    for t in facts:
        pp, pq = (tuple(pointwise_pulse(x, arr.basis, t)) for x in (p, q))
        rows.append(pp)
        assert pulse(p, arr, t).bits == pp
        assert congruent(p, q, arr, t) == (pp == pq)
        pm = tuple(pointwise_pulse(merged, arr.basis, t))
        assert compliant(p, q, arr, t, mode) == (pm == pq)
        for atom in p.atoms:
            for c in atom.conditions:
                assert c.evaluate(t) == pointwise_holds(c, t)
    assert trace(p, arr, facts).cells == tuple(zip(*rows))
    assert structural_eq(p, q, arr, family) == all(
        pointwise_pulse(p, arr.basis, t) == pointwise_pulse(q, arr.basis, t) for t in family.facts
    )


# Facts of two families, and one that no family placed.
_FAM3 = power_family("s1", "s2", "s3")
_HAND = Fact("hand", frozenset({Statement("s2"), Statement("s3")}))
_C3 = WitnessCondition("c3", frozenset({Statement("s3")}))
_SEQUENCE_FACTS = [*FAM.facts, *_FAM3.facts, _HAND]


@st.composite
def _odd_worlds(draw):
    """An atomic basis whose size is not a multiple of 8, and a
    privilege over its functions and entities, and over ones it lacks."""
    functions = draw(st.lists(st.sampled_from(_IDX_FUNCTIONS), min_size=1, unique=True))
    count = draw(st.integers(1, 12).filter(lambda m: len(functions) * m % 8))
    entities = [Entity(f"e{i:02d}") for i in range(count)]
    arr = atomic_arrangement(functions, entities)
    sets = st.one_of(
        st.just(UNIVERSAL),
        st.just(EntitySet.finite([_OUTSIDE])),
        st.frozensets(st.sampled_from(entities), min_size=1).map(EntitySet.finite),
    )
    fns = st.sampled_from(_IDX_FUNCTIONS + [REMOVE])
    conds = st.frozensets(st.sampled_from([C1, C2, _C3, OPEN, SEALED]), max_size=2)
    atom = st.builds(PrivilegeAtom, st.builds(Employment, fns, sets), conds)
    return arr, Privilege(frozenset(draw(st.lists(atom, max_size=5))))


_ODD_ARR = atomic_arrangement([READ, WRITE, LIST_], _IDX_ENTITIES[:3])  # 9 elements


@settings(max_examples=150, deadline=None)
@given(_odd_worlds(), st.lists(st.sampled_from(_SEQUENCE_FACTS), max_size=6))
@example((_ODD_ARR, priv((READ, UNIVERSAL, [C1]), (WRITE, UNIVERSAL, [_C3]))), [])
@example(
    (_ODD_ARR, priv((READ, UNIVERSAL, [C1]), (WRITE, EntitySet.finite([_A]), [_C3]))),
    [T_S1, _HAND, _FAM3.fact("s3"), T_S1, _HAND, T_EMPTY],
)
@example((_ODD_ARR, priv((REMOVE, UNIVERSAL, [C1]))), [T_S1, T_S1])
def test_pulse_trace_and_normal_form_agree_with_the_oracle_fact_by_fact(world, sequence):
    # Empty sequences, repeated facts, facts of two families and a fact
    # no family placed: every row, column and coefficient is the dense
    # definition's, and every cell is a bool.
    arr, p = world
    rows = [tuple(pointwise_pulse(p, arr.basis, t)) for t in sequence]
    cells = trace(p, arr, sequence).cells
    assert cells == (tuple(zip(*rows)) if rows else ((),) * len(arr))
    assert all(type(b) is bool for row in cells for b in row)
    coefficients = normal_form(p, arr).coefficients
    assert len(coefficients) == len(arr)
    for t, row in zip(sequence, rows):
        bits = pulse(p, arr, t).bits
        assert bits == row
        assert all(type(b) is bool for b in bits)
        assert tuple(c.evaluate(t) for c in coefficients) == row


def test_masks_pin_neither_families_nor_guards():
    # A family is freed by reference counting alone: its facts and the
    # masks built over it hold it weakly. A guard whose masks were built
    # leaves the hash-consing table once it is dropped, and a placed fact
    # is equal to, hashes like and prints like the same fact built by hand.
    gc.collect()
    guards = len(privilege_module._guards)
    family = power_family("s1", "s2")
    fact = family.fact("s1")
    by_hand = Fact("s1", frozenset({Statement("s1")}))
    assert fact.place is not None and by_hand.place is None
    assert (fact, hash(fact), repr(fact)) == (by_hand, hash(by_hand), repr(by_hand))
    arr = atomic_arrangement([READ, WRITE], _IDX_ENTITIES)
    p = priv((READ, UNIVERSAL, [C1]))
    guard = compliance_condition(p, priv((WRITE, UNIVERSAL, [C2])), arr, UNION)
    g = p.with_condition(guard)
    assert pulse(g, arr, fact).bits == pulse(g, arr, by_hand).bits
    trace(g, arr, family.facts)
    assert not structural_eq(g, p, arr, family)
    ref = weakref.ref(family)
    assert ref in guard._masks and ref in C1._masks
    gc.disable()
    try:
        del family, fact
        assert ref() is None
    finally:
        gc.enable()
    C1.mask(power_family("s1"))  # storing a mask drops those of dead families
    assert ref not in C1._masks
    refs = [weakref.ref(x) for x in (p, guard, g)]
    del p, guard, g
    gc.collect()
    assert [r() for r in refs] == [None] * 3
    assert len(privilege_module._guards) == guards


def test_placed_facts_and_values_with_masks_pickle_as_values():
    # Places and masks hold weak references, which do not pickle; a copy
    # is equal and unplaced, and builds its masks afresh.
    family = power_family("s1", "s2")
    fact = family.fact("s1")
    coefficient = Coefficient.from_conjunctions([{C1, C2}, {C2, OPEN}])
    for value in (C1, coefficient):
        value.mask(family)
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and copy.evaluate(fact) == value.evaluate(fact)
    copy = pickle.loads(pickle.dumps(fact))
    assert (copy, copy.place) == (fact, None)


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
    # Each distinct coefficient of the overlapped elements reads its mask
    # once per fact, and no other element's coefficient reads one.
    entities = [Entity(f"e{i:03d}") for i in range(100)]
    arr = atomic_arrangement([READ, WRITE, LIST_, REMOVE], entities)
    read = []
    mask = Coefficient.mask

    def counting(self, family):
        read.append((self, family))
        return mask(self, family)

    monkeypatch.setattr(Coefficient, "mask", counting)
    p = priv(
        (READ, EntitySet.finite(entities[:2]), [C1]),
        (WRITE, EntitySet.finite(entities[:3]), [C2]),
    )
    on_read, on_write = (Coefficient.from_conjunctions([{c}]) for c in (C1, C2))
    assert pulse(p, arr, T_S1).bits.count(True) == 2
    assert sorted(read, key=repr) == sorted([(on_read, FAM), (on_write, FAM)], key=repr)
    read.clear()
    cells = trace(p, arr, [T_EMPTY, T_S1]).cells
    assert sum(row.count(True) for row in cells) == 2
    assert sorted(read, key=repr) == sorted(
        [(c, FAM) for c in (on_read, on_write) for _ in (T_EMPTY, T_S1)], key=repr
    )


def test_a_hand_built_fact_is_placed_once_per_query(monkeypatch):
    # A fact no family placed becomes the one fact of a family of its
    # own; a query places it once, not once per class or per repeat.
    arr = atomic_arrangement([READ, WRITE, LIST_], _IDX_ENTITIES)
    p = priv((READ, UNIVERSAL, [C1]), (WRITE, UNIVERSAL, [C2]), (LIST_, UNIVERSAL, [OPEN]))
    assert len(privilege_module._projection(p, arr).classes) == 3
    hand = Fact("hand", frozenset({Statement("s1")}))
    built = []
    init = FactFamily.__init__

    def counting(self, *args):
        built.append(len(built))  # the family itself is not kept alive
        init(self, *args)

    monkeypatch.setattr(FactFamily, "__init__", counting)
    want = tuple(pointwise_pulse(p, arr.basis, hand))
    assert pulse(p, arr, hand).bits == want
    assert len(built) == 1
    built.clear()
    assert trace(p, arr, [hand, hand]).cells == tuple(zip(want, want))
    assert len(built) == 1


def test_comparisons_keep_no_positions():
    # Only a pulse, trace or normal form walks a class's mask into basis
    # indices; a comparison or a guard reads the classes alone.
    arr = atomic_arrangement([READ, WRITE, LIST_], _IDX_ENTITIES)
    p = priv((READ, UNIVERSAL, [C1]), (WRITE, EntitySet.finite([_A, _B]), [C2]))
    q = priv((READ, EntitySet.finite([_A]), []), (LIST_, UNIVERSAL, [C1]))
    # p*q in each mode, kept alive so that its projection stays
    merged = [merge(p, q, mode) for mode in (INTER, UNION)]
    guards = [congruence_condition(p, q, arr)]
    for m in merged:
        structural_eq(m, q, arr, FAM)
    structural_eq(p, q, arr, FAM)
    congruent(p, q, arr, T_S1)
    for mode in (INTER, UNION):
        compliant(p, q, arr, T_S1, mode)
        guards.append(compliance_condition(p, q, arr, mode))
    for guard in guards:
        guard.mask(FAM)
    projections = list(arr._projections.values())
    assert len(projections) == 2 + len(set(merged)) == 4
    assert not any("positions" in vars(projection) for projection in projections)
    queries = (lambda x: pulse(x, arr, T_S1), lambda x: trace(x, arr, [T_S1]),
               lambda x: normal_form(x, arr))
    for query, cs in zip(queries, ([C2], [OPEN], [C1, C2])):
        x = compose(p, priv((LIST_, EntitySet.finite([_A]), cs)))
        query(x)
        assert "positions" in vars(arr._projections[x])
    assert not any("positions" in vars(projection) for projection in projections)


def test_the_pair_walk_stops_at_the_first_element_that_disagrees(monkeypatch):
    # Pairs go by lowest element, so a verdict reads no more masks than a
    # walk of the elements in basis order would: the leading list/{a}
    # holds an equal pair, whose masks are never read, and the walk
    # stops at read/{a} when that pair disagrees, before write's pair.
    arr = atomic_arrangement([LIST_, READ, WRITE], _IDX_ENTITIES)
    a_to_c = EntitySet.finite(_IDX_ENTITIES[:3])
    lead = (LIST_, EntitySet.finite([_A]), [WitnessCondition("c0", frozenset({Statement("s2")}))])
    p = priv(lead, (READ, EntitySet.finite([_A]), [C1]), (WRITE, a_to_c, [C2]))
    q = priv(lead, (READ, EntitySet.finite([_A]), [C2]), (WRITE, a_to_c, [OPEN]))
    read = []
    mask = Coefficient.mask

    def counting(self, family):
        read.append(self)
        return mask(self, family)

    monkeypatch.setattr(Coefficient, "mask", counting)
    on_c1, on_c2, always = (Coefficient.from_conjunctions([{c}]) for c in (C1, C2, OPEN))
    assert not congruent(p, q, arr, T_S1)
    assert read == [on_c1, on_c2]
    read.clear()
    assert not congruent(p, q, arr, T_EMPTY)  # read/{a} agrees there
    assert read == [on_c1, on_c2, on_c2, always]


def test_eq_of_equal_values_spelled_differently_evaluates_nothing(monkeypatch):
    # A privilege and its twin, spelled one function and one entity per
    # atom in reverse order: different values, equal coefficients
    # everywhere, so eq over 1,024 facts builds no mask and visits no fact.
    family = power_family(*(f"s{i}" for i in range(10)))
    assert len(family.facts) == 1024
    arr = atomic_arrangement([LIST_, READ, WRITE], _IDX_ENTITIES)
    w = [WitnessCondition(f"w{i}", frozenset({Statement(f"s{i}")})) for i in range(3)]
    terms = [((READ, WRITE), _IDX_ENTITIES[:2], w[0]), ((LIST_,), _IDX_ENTITIES[1:], w[1]),
             ((READ,), _IDX_ENTITIES[2:], w[2])]
    p = priv(*((f, EntitySet.finite(es), [c]) for fs, es, c in terms for f in fs))
    twin = priv(*((f, EntitySet.finite([e]), [c]) for fs, es, c in terms[::-1]
                  for f in fs[::-1] for e in es[::-1]))
    assert p != twin
    built = []
    mask = Masked.mask

    def counting(self, over):
        built.append(self)
        return mask(self, over)

    monkeypatch.setattr(Masked, "mask", counting)
    visited = []
    watched = SimpleNamespace(facts=(visited.append(t) or t for t in family.facts))
    assert structural_eq(p, twin, arr, watched)
    assert built == visited == []
    # one more atom: the masks of the pairs it changes are built
    assert not structural_eq(p, compose(twin, priv((WRITE, UNIVERSAL, [w[2]]))), arr, family)
    assert built


def test_a_guard_over_equal_pairs_evaluates_no_nested_guard(monkeypatch):
    # The operands differ as values, but every element's pair is equal,
    # so neither guard form evaluates the guard nested in them.
    u = priv((READ, UNIVERSAL, [_G1]), (WRITE, UNIVERSAL, [C1]))
    v = priv((READ, TECHDOC, [_G1]), (WRITE, TECHDOC, [C1]), (WRITE, UNIVERSAL, [C1]))
    assert u != v
    evaluated = []
    evaluate = HighOrderCondition.evaluate

    def counting(self, fact):
        evaluated.append(self)
        return evaluate(self, fact)

    monkeypatch.setattr(HighOrderCondition, "evaluate", counting)
    outer = [congruence_condition(u, v, SESSIONS)]
    outer += [compliance_condition(u, v, SESSIONS, mode) for mode in (INTER, UNION)]
    for guard in outer:
        for fact in FAM:
            assert guard.evaluate(fact)
    assert evaluated == [g for g in outer for _ in FAM]


def test_the_pair_walk_fails_rather_than_hangs_on_overlapping_classes(monkeypatch):
    # The walk relies on each side's classes being disjoint; two classes
    # over one element would pair forever or tie in a heap, so the walk
    # checks each side first and names the broken invariant.
    arr = atomic_arrangement([READ], _IDX_ENTITIES)
    c1, c2 = (Coefficient.from_conjunctions([{c}]) for c in (C1, C2))
    cases = [
        (((c1, 0b01), (c2, 0b11)), ((c2, 0b10),)),  # both u classes hold e0
        (((c1, 0b01), (c2, 0b01)), ((c2, 0b11),)),  # one u mask twice
        (((c1, 0b011), (c2, 0b110)), ((c2, 0b111),)),  # both u classes hold e1
    ]
    for broken in ({"u": u, "v": v} for u, v in cases):
        monkeypatch.setattr(
            privilege_module, "_projection", lambda p, arrangement: SimpleNamespace(classes=broken[p])
        )
        with pytest.raises(AssertionError, match="classes of one side overlap"):
            privilege_module._overlapped_pairs("u", "v", arr)


def test_a_projection_folds_once_per_combination_of_condition_sets(monkeypatch):
    # An element's coefficient depends only on the condition sets over it,
    # so the elements under one combination of sets share one fold.
    entities = [Entity(f"e{i:03d}") for i in range(150)]
    arr = atomic_arrangement([READ], entities)
    w = [WitnessCondition(f"w{i}", frozenset({Statement("s1")})) for i in range(5)]
    folds = []
    fold = Coefficient.from_conjunctions

    def counting(conjunctions):
        folds.append(conjunctions)
        return fold(conjunctions)

    monkeypatch.setattr(Coefficient, "from_conjunctions", staticmethod(counting))

    def folds_of(*atoms):
        p = priv(*((READ, EntitySet.finite(entities[lo:hi]), cs) for lo, hi, cs in atoms))
        folds.clear()
        coefficients = normal_form(p, arr).coefficients
        count = len(folds)
        assert coefficients == tuple(map(fold, pairwise_normal_form(p, arr.basis)))
        return count

    folds.clear()
    normal_form(priv((READ, UNIVERSAL, [C1])), arr)
    assert len(folds) == 1  # for all 150 elements
    assert folds_of((0, 30, []), (20, 50, [])) == 1
    assert folds_of(*((10 * k, 10 * k + 10, [w[k]]) for k in range(5))) == 5
    # each set's own part, and the 10 elements both share
    assert folds_of((0, 30, [w[0]]), (20, 50, [w[1]])) == 3
    # three own parts; e020-e029 under w0 and w1, e040-e049 under w1 and w2
    assert folds_of((0, 30, [w[0]]), (20, 50, [w[1]]), (40, 70, [w[2]])) == 5


def test_pairs_are_the_distinct_element_pairs_by_first_element():
    # Many classes on both sides, shared unevenly: the pairs are the
    # elements' (p, q) coefficient pairs in basis order, first occurrence
    # kept, without the pairs of two equal coefficients (false with false
    # among them), which agree at every fact.
    entities = [Entity(f"e{i:02d}") for i in range(30)]
    arr = atomic_arrangement([READ, WRITE], entities)
    conds = [WitnessCondition(f"w{i}", frozenset({Statement(f"s{i % 3}")})) for i in range(7)]
    elements = list(enumerate(itertools.product([READ, WRITE], entities)))
    p = priv(*((f, EntitySet.finite([e]), [conds[i % 7]]) for i, (f, e) in elements if i % 5))
    q = priv(*((f, EntitySet.finite([e]), [conds[i % 4]]) for i, (f, e) in elements if i % 3))
    cp, cq = (normal_form(x, arr).coefficients for x in (p, q))
    want = list(dict.fromkeys((a, b) for a, b in zip(cp, cq) if a != b))
    assert privilege_module._overlapped_pairs(p, q, arr) == want
    # 20 pairs of two different classes, 11 of a class and false; of the
    # 36 distinct element pairs, 4 of one class twice and false twice go
    assert len(want) == 31


def test_a_projection_keeps_no_false_class():
    # read * f with f always false folds to the false coefficient, which
    # every element not in a class has: read's element is in no class.
    arr = Arrangement((Employment(READ, UNIVERSAL), Employment(WRITE, UNIVERSAL)))
    p = priv((READ, UNIVERSAL, [FalseCondition("f")]), (WRITE, UNIVERSAL, []))
    assert privilege_module._projection(p, arr).classes == ((Coefficient((frozenset(),)), 0b10),)
    assert normal_form(p, arr).render() == "read/*: false\nwrite/*: true"


def test_a_live_value_is_projected_once(monkeypatch):
    # Every query reads one projection per live value: a second round of
    # queries projects nothing, and compliant's own p*q finds the
    # projection of an equal live value.
    arr = atomic_arrangement([READ, WRITE, LIST_], _IDX_ENTITIES)
    p = priv((READ, UNIVERSAL, [C1]), (WRITE, EntitySet.finite([_A, _B]), [C2]))
    q = priv((READ, EntitySet.finite([_A]), []), (LIST_, UNIVERSAL, [C1]))
    pq = merge(p, q)
    projected = []
    overlapping = Arrangement.overlapping

    def counting(self, employment):
        projected.append(employment)
        return overlapping(self, employment)

    monkeypatch.setattr(Arrangement, "overlapping", counting)
    queries = [
        lambda: normal_form(pq, arr),
        lambda: pulse(p, arr, T_S1),
        lambda: trace(p, arr, [T_EMPTY, T_S1]),
        lambda: structural_eq(p, q, arr, FAM),
        lambda: congruent(p, q, arr, T_S1),
        lambda: compliant(p, q, arr, T_S1),
    ]
    for query in queries:
        query()
    assert len(projected) == len(pq.atoms) + len(p.atoms) + len(q.atoms)
    projected.clear()
    for query in queries:
        query()
    assert projected == []


def test_projections_pin_neither_values_nor_guards():
    gc.collect()
    guards = len(privilege_module._guards)
    arr = atomic_arrangement([READ, WRITE], _IDX_ENTITIES)
    p = priv((READ, UNIVERSAL, [C1]))
    guard = compliance_condition(p, priv((WRITE, UNIVERSAL, [])), arr, UNION)
    g = p.with_condition(guard)
    normal_form(g, arr)
    pulse(g, arr, T_S1)
    trace(g, arr, [T_EMPTY, T_S1])
    structural_eq(g, p, arr, FAM)
    for mode in (INTER, UNION):
        compliant(p, g, arr, T_S1, mode)
    assert len(privilege_module._guards) == guards + 1
    # The positions a pulse keeps live in g's projection and go with it.
    projection = arr._projections[g]
    assert "positions" in vars(projection)
    refs = [weakref.ref(x) for x in (p, guard, g, projection)]
    del p, guard, g, projection
    gc.collect()
    assert [r() for r in refs] == [None] * 4
    assert len(privilege_module._guards) == guards
    assert len(arr._projections) == 0
