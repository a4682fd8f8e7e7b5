"""Employment algebra: unit examples plus exhaustive law checks against
the extensional grant oracle. Sets of employments are unconditioned
privileges, so their laws are checked on ``merge``, ``compose`` and
``Privilege.restricted``, with the empty privilege as the zero."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from privcalc import (
    Employment,
    Entity,
    EntitySet,
    FunctionSymbol,
    Privilege,
    PrivilegeAtom,
    UNIVERSAL,
    compose,
    merge,
)
from privcalc.engine import build_environment

from oracles import set_grants

READ = FunctionSymbol("read")
LIST_ = FunctionSymbol("list")
WRITE = FunctionSymbol("write")
DOC1 = Entity("doc1")
DOC2 = Entity("doc2")

TECHDOC = EntitySet.finite([DOC1], label="TechDoc")


def emp(fn: FunctionSymbol, es: EntitySet) -> Employment:
    return Employment(fn, es)


# --- entity sets ---------------------------------------------------------


def test_universal_is_identity_for_intersection():
    finite = EntitySet.finite([DOC1, DOC2])
    assert UNIVERSAL.intersect(finite) == finite
    assert finite.intersect(UNIVERSAL) == finite
    assert UNIVERSAL.intersect(UNIVERSAL) == UNIVERSAL


def test_intersection_keeps_label_when_result_equals_operand():
    assert UNIVERSAL.intersect(TECHDOC).label == "TechDoc"
    sub = EntitySet.finite([DOC1])
    both = EntitySet.finite([DOC1, DOC2], label="Docs")
    assert sub.intersect(both) == sub
    assert both.intersect(sub).label is None  # result is the unlabeled operand


def test_label_is_display_only():
    assert EntitySet.finite([DOC1], label="TechDoc") == EntitySet.finite([DOC1])
    assert hash(EntitySet.finite([DOC1], label="x")) == hash(EntitySet.finite([DOC1]))


def test_entity_set_render():
    assert UNIVERSAL.render() == "*"
    assert TECHDOC.render() == "TechDoc"
    assert EntitySet.finite([DOC2, DOC1]).render() == "{doc1 doc2}"


def test_entity_and_function_symbol_spaces_are_disjoint():
    assert Entity("read") != FunctionSymbol("read")


def test_category_grows_and_snapshots():
    # A category is the environment's growing set of entities; a "/"
    # takes a labelled snapshot of it.
    env = build_environment(
        'namespace "n" { let doc1 is TechDoc  p := read/TechDoc  let doc2 is TechDoc }'
    )
    (atom,) = env.privileges["p"].atoms
    assert atom.employment.entities == EntitySet.finite([DOC1])
    assert atom.employment.entities.label == "TechDoc"
    assert env.categories["TechDoc"] == {DOC1, DOC2}


# --- mergence of single atoms ---------------------------------------------


def priv(*employments: Employment) -> Privilege:
    return Privilege(frozenset(PrivilegeAtom(e) for e in employments))


def grants(p: Privilege, universe) -> frozenset:
    return set_grants((atom.employment for atom in p.atoms), universe)


def test_merge_same_function_intersects_entities():
    got = merge(priv(emp(READ, EntitySet.finite([DOC1]))), priv(emp(READ, TECHDOC)))
    assert got == priv(emp(READ, EntitySet.finite([DOC1])))


def test_merge_function_mismatch_is_empty():
    assert merge(priv(emp(READ, TECHDOC)), priv(emp(WRITE, TECHDOC))) == Privilege()


def test_merge_disjoint_entities_is_empty():
    a = priv(emp(READ, EntitySet.finite([DOC1])))
    b = priv(emp(READ, EntitySet.finite([DOC2])))
    assert merge(a, b) == Privilege()


def test_merge_universal_identity():
    a = priv(emp(READ, TECHDOC))
    universal = priv(emp(READ, UNIVERSAL))
    assert merge(a, universal) == a
    assert merge(universal, a) == a
    # the label survives through the universal identity, on either side
    for merged in (merge(a, universal), merge(universal, a)):
        (atom,) = merged.atoms
        assert atom.employment.entities.label == "TechDoc"


def test_merge_empty_absorbs():
    a = priv(emp(READ, TECHDOC))
    assert merge(a, Privilege()) == Privilege()
    assert merge(Privilege(), a) == Privilege()
    assert merge(Privilege(), Privilege()) == Privilege()


_EMPLOYMENTS = [
    emp(f, s)
    for f in (READ, WRITE)
    for s in (
        EntitySet.finite([DOC1]),
        EntitySet.finite([DOC2]),
        EntitySet.finite([DOC1, DOC2]),
        UNIVERSAL,
    )
]


def _small_universe() -> list[Privilege]:
    """Every single-atom privilege over the employments above, and the zero."""
    return [priv(e) for e in _EMPLOYMENTS] + [Privilege()]


def test_single_atom_merge_commutative_and_associative_exhaustive():
    atoms = _small_universe()
    for a, b in itertools.product(atoms, repeat=2):
        assert merge(a, b) == merge(b, a)
        assert len(merge(a, b).atoms) <= 1
    for a, b, c in itertools.product(atoms, repeat=3):
        assert merge(merge(a, b), c) == merge(a, merge(b, c))


def test_single_atom_merge_matches_grant_oracle_exhaustive():
    atoms = _small_universe()
    universe = [DOC1, DOC2]
    for a, b in itertools.product(atoms, repeat=2):
        assert grants(merge(a, b), universe) == grants(a, universe) & grants(b, universe)


# --- unconditioned privileges ----------------------------------------------


def no_drained_atom(p: Privilege) -> bool:
    return all(not atom.employment.entities.is_empty for atom in p.atoms)


def _sets_universe() -> list[Privilege]:
    sets = [Privilege()]
    sets += [priv(a) for a in _EMPLOYMENTS]
    sets += [priv(*pair) for pair in itertools.combinations(_EMPLOYMENTS, 2)]
    return sets


def test_merge_sets_session_example():
    bob = priv(emp(READ, TECHDOC), emp(LIST_, TECHDOC), emp(WRITE, TECHDOC))
    officepc = priv(
        emp(READ, UNIVERSAL),
        emp(LIST_, UNIVERSAL),
        emp(WRITE, UNIVERSAL),
        emp(FunctionSymbol("remove"), UNIVERSAL),
    )
    assert merge(bob, officepc) == bob


def test_merge_sets_with_empty_set():
    a = priv(emp(READ, TECHDOC))
    assert merge(a, Privilege()) == Privilege()


def test_compose_sets_identity_and_union():
    a = priv(emp(READ, TECHDOC))
    b = priv(emp(WRITE, TECHDOC))
    assert compose(a, Privilege()) == a
    assert compose(a, b) == priv(emp(READ, TECHDOC), emp(WRITE, TECHDOC))
    assert compose(a, a) == a


def test_set_ops_match_grant_oracle_exhaustive():
    universe = [DOC1, DOC2]
    sets = _sets_universe()
    for a, b in itertools.product(sets, repeat=2):
        assert grants(merge(a, b), universe) == grants(a, universe) & grants(
            b, universe
        )
        assert grants(compose(a, b), universe) == grants(a, universe) | grants(
            b, universe
        )


def test_set_ops_laws_exhaustive():
    sets = _sets_universe()
    for a, b in itertools.product(sets, repeat=2):
        assert merge(a, b) == merge(b, a)
        assert compose(a, b) == compose(b, a)
    for a, b, c in itertools.product(sets, repeat=3):
        assert merge(merge(a, b), c) == merge(a, merge(b, c))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert merge(a, compose(b, c)) == compose(merge(a, b), merge(a, c))


def test_merge_result_never_contains_empty():
    sets = _sets_universe()
    scopes = [EntitySet.finite([DOC1]), EntitySet.finite([DOC2]), UNIVERSAL]
    for a, b in itertools.product(sets, repeat=2):
        assert no_drained_atom(merge(a, b))
        assert no_drained_atom(compose(a, b))
    for a, scope in itertools.product(sets, scopes):
        assert no_drained_atom(a.restricted(scope))


# --- restriction -------------------------------------------------------------


def test_restrict_examples():
    atoms = priv(emp(READ, EntitySet.finite([DOC1])))
    other = EntitySet.finite([DOC2], label="Other")
    assert atoms.restricted(other) == Privilege()
    assert atoms.restricted(UNIVERSAL) == atoms
    both = priv(emp(READ, UNIVERSAL), emp(WRITE, EntitySet.finite([DOC2])))
    got = both.restricted(EntitySet.finite([DOC1]))
    assert got == priv(emp(READ, EntitySet.finite([DOC1])))


_names = st.sampled_from(["f", "g", "h"])
_entities = st.sampled_from([DOC1, DOC2, Entity("doc3")])
_entity_sets = st.one_of(
    st.just(UNIVERSAL),
    st.frozensets(_entities, min_size=0, max_size=3).map(EntitySet.finite),
)
_atoms = st.builds(lambda n, es: emp(FunctionSymbol(n), es), _names, _entity_sets).filter(
    lambda a: not a.entities.is_empty
)
_atom_sets = st.frozensets(_atoms, max_size=4).map(lambda atoms: priv(*atoms))


@given(_atom_sets, _atom_sets, _entity_sets)
def test_restrict_distributes_over_composition(a, b, scope):
    assert compose(a, b).restricted(scope) == compose(
        a.restricted(scope), b.restricted(scope)
    )


@given(_atom_sets, _atom_sets)
def test_random_set_ops_match_grant_oracle(a, b):
    universe = [DOC1, DOC2, Entity("doc3")]
    assert grants(merge(a, b), universe) == grants(a, universe) & grants(b, universe)
    assert grants(compose(a, b), universe) == grants(a, universe) | grants(
        b, universe
    )


@given(_atom_sets, _atom_sets, _entity_sets)
def test_only_the_empty_privilege_grants_nothing(a, b, scope):
    universe = [DOC1, DOC2, Entity("doc3")]
    merged = merge(a, b)
    for p in (a, merged, compose(a, b), a.restricted(scope), merged.restricted(scope)):
        assert p.is_empty == (not grants(p, universe))
        assert p.is_empty == (p == Privilege())


def test_atom_normalization():
    # A drained entity set grants nothing, and only the empty privilege may.
    with pytest.raises(ValueError, match="non-empty entity set"):
        PrivilegeAtom(Employment(READ, EntitySet.finite([])))
    assert PrivilegeAtom(emp(READ, TECHDOC)).employment == emp(READ, TECHDOC)


def test_render():
    assert emp(READ, UNIVERSAL).render() == "read/*"
    assert emp(READ, TECHDOC).render() == "read/TechDoc"
    assert Privilege().text() == "0"
