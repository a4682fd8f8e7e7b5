"""Program loading, name resolution, guards, role-model import, queries."""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from privcalc import (
    Arrangement,
    ArrangementError,
    Coefficient,
    ComplianceQuery,
    Condition,
    ConditionMergeMode,
    Entity,
    EntitySet,
    Environment,
    EquivalenceQuery,
    EvalQuery,
    FunctionSymbol,
    HighOrderCondition,
    NormalFormQuery,
    PrivCalcError,
    Privilege,
    PulseQuery,
    RbacImportError,
    RbacModel,
    ResolutionError,
    TraceQuery,
    WitnessCondition,
    arrangement_from_text,
    atomic_arrangement,
    compose,
    eval_text,
    format_program,
    import_rbac,
    load_facts,
    load_program,
    load_rbac,
    parse_text,
    pulse,
    structural_eq,
)
from privcalc.engine import answer, build_environment, load_arrangement
from privcalc.errors import in_text
import privcalc.pal as pal

from oracles import rbac_role_grants
from test_pal import _programs
from fixtures import (
    EXAMPLE_PAL,
    GUARDS_PAL,
    SESSION_ARRANGEMENT,
    example_env,
    guards_env,
    power_family,
)

UNION = ConditionMergeMode.UNION


# --- the worked example -------------------------------------------------------


def test_session_snapshots():
    env = example_env()
    assert env.privileges["session_1"].text() == (
        "list/TechDoc + read/TechDoc + write/TechDoc"
    )
    assert env.privileges["session_2"].text() == "list/TechDoc + read/TechDoc"
    assert env.privileges["reader"].text() == "list/TechDoc + read/TechDoc"
    assert env.privileges["may"] == env.privileges["manager"]


def test_let_populates_category_and_entity():
    env = example_env()
    assert "doc1" in env.entities
    assert env.categories["TechDoc"] == {"doc1"}


def test_definitions_snapshot_category_membership():
    source = """\
namespace "n" {
  let d1 is Docs
  before := read/Docs
  let d2 is Docs
  after := read/Docs
}
"""
    env = example_env(source=source)
    (atom_before,) = env.privileges["before"].atoms
    (atom_after,) = env.privileges["after"].atoms
    assert atom_before.employment.entities.members == frozenset({"d1"})
    assert atom_after.employment.entities.members == frozenset({"d1", "d2"})


def test_definitions_snapshot_privilege_values():
    source = """\
namespace "n" {
  first := read
  keeper := first
  first := write
}
"""
    env = example_env(source=source)
    assert env.privileges["keeper"].text() == "read"
    assert env.privileges["first"].text() == "write"
    assert any("redefinition of 'first'" in w for w in env.warnings)


def test_a_scope_over_an_empty_category_warns_at_the_scope():
    # Snapshots: a later let grows the category, never an earlier value.
    # Two scopes over one empty category on one line warn once.
    source = """\
namespace "n" {
  x := read/Later + write/Later
  let d is Later
  y := read/Later + write/Other
  z := (read + write)/Later/d
}
"""
    env = example_env(source=source)
    assert env.privileges["x"].is_empty
    assert env.privileges["z"].text() == "read/Later + write/Later"
    assert env.warnings == [
        "line 2: category 'Later' is empty here, so '/Later' restricts everything away",
        "line 4: category 'Other' is empty here, so '/Other' restricts everything away",
    ]


def test_two_definitions_on_one_line_warn_once_per_category():
    source = 'namespace "n" { x := read/C  y := write/C + list/D\n  z := read/C }\n'
    env = example_env(source=source)
    assert env.warnings == [
        "line 1: category 'C' is empty here, so '/C' restricts everything away",
        "line 1: category 'D' is empty here, so '/D' restricts everything away",
        "line 2: category 'C' is empty here, so '/C' restricts everything away",
    ]


def test_a_program_joined_from_two_texts_places_no_offset_in_its_empty_source():
    # The statements keep the offsets of the texts they were read from,
    # which the joined program's empty source does not hold: its errors
    # and warnings name no line, even inside a reader of a longer text.
    first = pal.parse_text('namespace "n" {\n  let d is C\n  x := read\n}\n', "first.pal")
    second = pal.parse_text(
        'namespace "n" {\n  x := write\n  y := list/D\n\n  C := read\n}\n', "second.pal"
    )
    statements = first.namespaces[0].statements + second.namespaces[0].statements
    env = load_program(pal.Program((pal.Namespace("n", statements[:-1]),)), filename="joined.pal")
    assert env.warnings == [
        "redefinition of 'x' (latest wins)",
        "category 'D' is empty here, so '/D' restricts everything away",
    ]
    joined = pal.Program((pal.Namespace("n", statements),))
    with pytest.raises(ResolutionError) as info:
        with in_text(second.source):
            load_program(joined, filename="joined.pal")
    error = info.value
    assert str(error) == "joined.pal: 'C' is already a category, cannot use it as a privilege"
    assert (error.line, error.column, error.at) == (None, None, second.source.index("C :="))


def test_a_program_built_by_hand_places_no_offset():
    # Nodes built by hand hold at=0, a position the program never had:
    # a program built by hand has the empty source, which holds no
    # offset, so its errors and warnings name no line, also inside a
    # reader of another text.
    clash = (pal.LetIs("d", "C"), pal.Define("C", pal.Name("read")))
    program = pal.Program((pal.Namespace("n", clash),))
    for outer in ("", "namespace\n"):
        with pytest.raises(ResolutionError) as info:
            with in_text(outer, "outer.pal"):
                load_program(program, filename="hand.pal")
        error = info.value
        assert str(error) == "hand.pal: 'C' is already a category, cannot use it as a privilege"
        assert (error.line, error.column, error.at) == (None, None, 0)
    scoped = pal.Slash(pal.Name("read"), (pal.Name("E"),))
    statements = (pal.Define("x", pal.Name("read")), pal.Define("x", scoped))
    for load in (load_program, build_environment):
        assert load(pal.Program((pal.Namespace("n", statements),))).warnings == [
            "redefinition of 'x' (latest wins)",
            "category 'E' is empty here, so '/E' restricts everything away",
        ]
    # An expression's text is no program: its end is 1:1 of the empty text.
    with pytest.raises(pal.ParseError) as info:
        pal.parse_expression("")
    assert str(info.value) == "1:1: expected '(' or '0' or '[' or identifier, found end of input"


def test_scopes_over_members_and_entities_do_not_warn():
    env = example_env(source=EXAMPLE_PAL)
    assert env.warnings == []
    # a query is no load: its scopes add no warning
    assert eval_text("read/Nowhere", env).is_empty
    assert env.warnings == []


# --- name resolution -----------------------------------------------------------


def test_bare_names_become_functions():
    # a program's use binds the name; a query's text binds none of its names
    env = load_program(parse_text('namespace "n" { p := fly }'))
    assert "fly" in env.functions
    env = Environment()
    functions = set(env.functions)
    assert eval_text("fly", env).text() == "fly"
    assert env.functions == functions
    # within one text the first use still fixes the kind
    with pytest.raises(ResolutionError, match="'fly' is a function"):
        eval_text("fly/fly", env)


def test_entity_in_expression_position_fails():
    env = example_env()
    with pytest.raises(ResolutionError, match="an entity"):
        eval_text("doc1 + read", env)


def test_category_in_expression_position_fails():
    env = example_env()
    with pytest.raises(ResolutionError, match="a category"):
        eval_text("TechDoc", env)


def test_define_cannot_shadow_function_or_category():
    with pytest.raises(ResolutionError, match="already a function"):
        example_env(source='namespace "n" { p := read\nread := p }')
    with pytest.raises(ResolutionError, match="already a category"):
        example_env(source='namespace "n" { let d is C\nC := read }')


def test_let_cannot_reuse_function_or_privilege_names():
    with pytest.raises(ResolutionError, match="already a function"):
        example_env(source='namespace "n" { p := read\nlet read is C }')
    with pytest.raises(ResolutionError, match="already a privilege"):
        example_env(source='namespace "n" { p := read\nlet d is p }')


@pytest.mark.parametrize(
    "body, error",
    [
        ("let x is x", "p.pal:2:1: 'x' is already an entity, cannot use it as a category"),
        (
            "let x is C\nlet y is x",
            "p.pal:3:1: 'x' is already an entity, cannot use it as a category",
        ),
    ],
    ids=["same-statement", "earlier-statement"],
)
def test_let_refuses_an_entity_as_a_category(body, error):
    # an entity and a privilege may share a name; an entity and a category may not
    with pytest.raises(ResolutionError) as exc:
        build_environment('namespace "n" {\n' + body + "\n}\n", filename="p.pal")
    assert str(exc.value) == error


def test_entity_may_also_become_privilege():
    # the dual binding: an entity name acquires a privilege value while
    # '/' keeps resolving it as an entity
    env = guards_env()
    assert env.privileges["doc1"].text() == "readable + writable"
    assert "doc1" in env.entities


def test_unknown_scope_starts_empty_category():
    env = example_env(source='namespace "n" { p := read/Nowhere }')
    assert env.privileges["p"].text() == "0"
    assert "Nowhere" in env.categories


def test_scope_can_fill_in_later():
    source = """\
namespace "n" {
  early := read/Lab
  let desk is Lab
  late := read/Lab
}
"""
    env = example_env(source=source)
    assert env.privileges["early"].text() == "0"
    assert env.privileges["late"].text() == "read/Lab"


def test_long_slash_chain_evaluates_without_recursion():
    source = 'namespace "n" {\n  let d is c\n  x := f' + "/c" * 3000 + "\n}\n"
    assert build_environment(source).privileges["x"].text() == "f/c"


def test_slash_rejects_privilege_scope():
    with pytest.raises(ResolutionError, match="needs a category or an entity"):
        example_env(source='namespace "n" { p := read\nq := write/p }')


def test_namespace_selection():
    source = 'namespace "a" { p := read } namespace "b" { p := write }'
    env_b = Environment()
    load_program(parse_text(source), env_b, namespace="b")
    assert env_b.privileges["p"].text() == "write"
    with pytest.raises(ResolutionError, match="pick one"):
        load_program(parse_text(source), Environment())
    with pytest.raises(ResolutionError, match='no namespace "c"'):
        load_program(parse_text(source), Environment(), namespace="c")
    with pytest.raises(ResolutionError, match="no namespaces"):
        load_program(parse_text(""), Environment())


# --- arrangements ----------------------------------------------------------------


def test_arrangement_from_text_preserves_order():
    env = Environment()
    arr = arrangement_from_text("write + read", env)
    assert [m.render() for m in arr.basis] == ["write/*", "read/*"]
    # a parenthesised sum is flattened in place, not sorted as one term
    arr = arrangement_from_text("write + (remove + list) + read", Environment())
    assert [m.render() for m in arr.basis] == ["write/*", "remove/*", "list/*", "read/*"]


def test_arrangement_rejects_overlapping_terms():
    env = example_env()
    with pytest.raises(ArrangementError, match="overlap"):
        arrangement_from_text("read + read/TechDoc", env)


def test_arrangement_rejects_conditioned_atoms():
    env = Environment(conditions={"w": WitnessCondition("w", frozenset())})
    load_program(parse_text('namespace "n" { guarded := read * w }'), env)
    with pytest.raises(ArrangementError) as exc:
        arrangement_from_text("write +\n  (guarded)", env)
    assert str(exc.value) == "2:4: arrangement element read/* carries conditions"


def test_load_arrangement_flattens_compound_terms():
    env = example_env()
    arr = load_arrangement([pal.parse_expression("reader + write")], env)
    assert [m.render() for m in arr.basis] == ["list/TechDoc", "read/TechDoc", "write/*"]


def test_arrangement_resolves_in_the_programs_scope():
    env = build_environment(EXAMPLE_PAL, arrangement="read/TechDoc + write")
    assert [m.render() for m in env.arrangement.basis] == ["read/TechDoc", "write/*"]
    env = build_environment(EXAMPLE_PAL, arrangement="read/doc1 + audit")
    assert [m.render() for m in env.arrangement.basis] == ["read/{doc1}", "audit/*"]
    # the arrangement's names never bind in the program
    assert "audit" not in env.functions
    assert env.privileges == build_environment(EXAMPLE_PAL).privileges


def test_empty_arrangement_element_is_an_error_at_its_position():
    with pytest.raises(ArrangementError) as exc:
        build_environment(EXAMPLE_PAL, arrangement="write + read/Nowhere")
    assert str(exc.value) == "1:9: arrangement element 'read/Nowhere' is empty"
    with pytest.raises(ArrangementError, match=r"'read \* write' is empty"):
        arrangement_from_text("list +\n read * write", Environment())
    with pytest.raises(ArrangementError) as exc:
        arrangement_from_text("list + 0", Environment())
    assert str(exc.value) == "1:8: arrangement element '0' is empty"


def test_zero_is_the_empty_privilege():
    env = build_environment(
        'namespace "z" {\n  x := 0\n  y := read * 0 + 0/C + [read <: 0] * 0\n  z := read + 0\n}\n',
        arrangement="read",
    )
    assert env.privileges["x"] == env.privileges["y"] == Privilege()
    assert env.privileges["z"] == eval_text("read", env)
    assert "0" not in env.functions and "0" not in env.categories
    assert Privilege().text() == "0" and eval_text("0", env) == Privilege()


def test_arrangement_rejects_the_programs_privileges():
    # in the arrangement's scope 'reader' would be the function reader/*,
    # which overlaps no atom, so every guard would pass vacuously
    with pytest.raises(ArrangementError) as exc:
        build_environment(GUARDS_PAL, arrangement="read + reader/TechDoc")
    assert str(exc.value) == "1:8: 'reader' is a privilege of the program"
    # a name that is also an entity is in the arrangement's scope
    source = 'namespace "n" {\n  let x is C\n  x := read\n}\n'
    env = build_environment(source, arrangement="read/x")
    assert [m.render() for m in env.arrangement.basis] == ["read/{x}"]


@pytest.mark.parametrize(
    "arrangement, position",
    [
        ("read/x", "1:6"),
        ("read/C/x", "1:8"),
        ("read + [x <: read]", "1:9"),
        ("read + [write <: read/x]", "1:23"),
        ("read +\n  write + x", "2:11"),
        ("read + [write ~ (list + x)]\n+ x/C", "1:25"),
        ("(read + list) * x", "1:17"),
    ],
)
def test_privilege_in_the_arrangement_is_named_at_its_first_use(monkeypatch, arrangement, position):
    # Scopes, guard operands and later elements are all searched, and the
    # arrangement is scanned once, after the program.
    calls = []
    scan = pal._scan
    monkeypatch.setattr(pal, "_scan", lambda *a: calls.append(a) or scan(*a))
    source = 'namespace "n" {\n  let d is C\n  x := read\n}\n'
    with pytest.raises(ArrangementError) as exc:
        build_environment(source, arrangement=arrangement)
    assert str(exc.value) == f"{position}: 'x' is a privilege of the program"
    assert [args[0] for args in calls] == [source, arrangement]


def test_program_fault_is_reported_before_the_arrangement():
    source = 'namespace "n" {\n  x := read\n  let read is C\n}\n'
    with pytest.raises(ResolutionError) as exc:
        build_environment(source, arrangement="read", filename="p.pal")
    assert str(exc.value) == (
        "p.pal:3:3: 'read' is already a function, cannot use it as an entity"
    )


def test_arrangement_sees_final_membership_definitions_keep_snapshots():
    source = """\
namespace "s" {
  let doc1 is C
  early := read/C
  let doc2 is C
  late := read/C
}
"""
    env = build_environment(source, arrangement="read/C")
    members = lambda emp: set(emp.entities.members)  # noqa: E731
    assert members(env.arrangement.basis[0]) == {"doc1", "doc2"}
    # a let after a definition still leaves that definition unchanged
    assert [members(a.employment) for a in env.privileges["early"].atoms] == [{"doc1"}]
    assert env.privileges == build_environment(source).privileges


@pytest.mark.parametrize(
    "arrangement, error",
    [
        ("read + read/TechDoc", "1:8: arrangement elements overlap: read/* and read/TechDoc"),
        ("read + read", "1:8: duplicate arrangement element read/*"),
        (
            "read + (list +\n  read/TechDoc)",
            "2:3: arrangement elements overlap: read/* and read/TechDoc",
        ),
    ],
)
def test_clashing_arrangement_elements_are_placed_at_the_later_one(arrangement, error):
    with pytest.raises(ArrangementError) as exc:
        build_environment(EXAMPLE_PAL, arrangement=arrangement, filename="x.pal")
    assert str(exc.value) == error
    with pytest.raises(ArrangementError) as exc:
        arrangement_from_text(arrangement, example_env())
    assert str(exc.value) == error


def test_broken_program_is_reported_before_the_broken_arrangement():
    # the library reads its inputs in the order pal does: the program first
    with pytest.raises(pal.ParseError) as exc:
        build_environment(
            'namespace "n" { p := + }', arrangement="read +", filename="p.pal"
        )
    assert str(exc.value) == (
        "p.pal:1:22: expected '(' or '0' or '[' or identifier, found '+'"
    )


# --- guards ---------------------------------------------------------------------


def test_guards_need_an_arrangement():
    with pytest.raises(ResolutionError, match="need an arrangement"):
        example_env(source=GUARDS_PAL)
    with pytest.raises(ResolutionError) as exc:
        load_program(parse_text('namespace "g" {\n  x := read * [a <: b]\n}'), filename="g.pal")
    assert str(exc.value).startswith("g.pal:2:15: guard expressions need an arrangement")


def test_guard_attaches_condition_to_other_operand():
    env = guards_env()
    readguard = env.privileges["readguard"]
    (atom,) = readguard.atoms
    assert atom.employment.render() == "read/*"
    (condition,) = atom.conditions
    assert condition.id == "[list/TechDoc + read/TechDoc + write/TechDoc <: read/doc1]"
    assert readguard.text() == (
        "read * [list/TechDoc + read/TechDoc + write/TechDoc <: read/doc1]"
    )


def test_guard_conditions_evaluate():
    env = guards_env()
    fact = env.family.fact("empty")
    granted = {}
    for name in ("readguard", "writeguard", "writableguard"):
        # each atom pulses over its own element where its conditions hold
        p = env.privileges[name]
        own = Arrangement(tuple(a.employment for a in p.atoms))
        granted[name] = all(pulse(p, own, fact).bits)
    assert granted == {"readguard": True, "writeguard": True, "writableguard": True}


def test_guard_snapshots_survive_rebinding():
    source = GUARDS_PAL.replace(
        "  interactionguard := writeguard + writableguard\n",
        "  interactionguard := writeguard + writableguard\n"
        "  session_1 := read\n"
        "  lateguard := read * [session_1 <: write/doc1]\n",
    )
    env = guards_env(source=source)
    fact = env.family.fact("empty")
    # readguard captured the original session_1, so it still holds
    (atom,) = env.privileges["readguard"].atoms
    assert all(c.evaluate(fact) for c in atom.conditions)
    # the rebinding is only seen by guards built after it
    (late,) = env.privileges["lateguard"].atoms
    assert not all(c.evaluate(fact) for c in late.conditions)


def test_bare_guard_is_a_reserved_function_atom():
    env = example_env(arrangement=SESSION_ARRANGEMENT)
    p = eval_text("[session_1 <: read/doc1]", env)
    (atom,) = p.atoms
    assert atom.employment.function == "guard"
    assert len(atom.conditions) == 1


def test_congruence_guard():
    env = example_env(arrangement=SESSION_ARRANGEMENT)
    p = eval_text("read * [session_2 ~ reader]", env)
    (atom,) = p.atoms
    (condition,) = atom.conditions
    assert condition.id == "[list/TechDoc + read/TechDoc ~ list/TechDoc + read/TechDoc]"
    assert condition.evaluate(env.family.fact("empty")) is True


def test_each_mask_is_built_once_per_family(monkeypatch):
    # ``Masked.mask`` is the one builder: over a guard chain three deep
    # through names, asked twice, each leaf condition, coefficient and
    # guard builds its mask over the family once.
    builds: dict[int, list] = {}
    for cls in (Condition, Coefficient, HighOrderCondition):

        def spy(self, family, build=vars(cls)["_build_mask"]):
            builds.setdefault(id(self), [self]).append(family)
            return build(self, family)

        monkeypatch.setattr(cls, "_build_mask", spy)
    source = """\
namespace "g" {
  g0 := read * logged + write
  g1 := read * [g0 <: read]
  g2 := list * [g1 ~ read * logged]
  g3 := write * [g2 + g1 <: list + read]
}
"""
    fam = power_family("s1", "s2")
    logged = WitnessCondition("logged", fam.fact("s2").statements)
    env = build_environment(source, fam, {"logged": logged}, "read + write + list", UNION)
    queries = [
        PulseQuery("g3", "s2"),
        TraceQuery("g3 + g1", ("empty", "s1", "s2")),
        EquivalenceQuery("g2", "list"),
    ]
    texts = [answer(query, env).text for query in queries * 2]
    assert texts == [
        "0 1 0",
        "employment,empty,s1,s2\nread/*,0,0,1\nwrite/*,0,0,1\nlist/*,0,0,0",
        "equal",
    ] * 2
    assert {type(value) for value, *_ in builds.values()} == {
        WitnessCondition, Coefficient, HighOrderCondition
    }
    assert sum(isinstance(value, HighOrderCondition) for value, *_ in builds.values()) == 3
    assert [families for _, *families in builds.values()] == [[fam]] * len(builds)


# --- named conditions --------------------------------------------------------


def _condition_env() -> Environment:
    fam = power_family("s1", "s2")
    cond = WitnessCondition("logged", frozenset({next(iter(fam.fact("s2").statements))}))
    env = Environment(family=fam, conditions={"logged": cond})
    return env


def test_condition_name_attaches_in_products():
    env = _condition_env()
    p = eval_text("read * logged", env)
    (atom,) = p.atoms
    assert atom.employment.render() == "read/*"
    assert {c.id for c in atom.conditions} == {"logged"}
    assert p.text() == "read * logged"
    assert eval_text("logged * read", env) == p


def test_condition_name_alone_is_an_error():
    env = _condition_env()
    with pytest.raises(ResolutionError, match="is a condition"):
        eval_text("logged + read", env)


_NOT_A_SCOPE = "'ca' is a condition; '/' needs a category or an entity"


@pytest.mark.parametrize(
    "body, arrangement, expr, error",
    [
        ("let d is ca", None, "0", "2:1: 'ca' is already a condition, cannot use it as a category"),
        ("let ca is C", None, "0", "2:1: 'ca' is already a condition, cannot use it as an entity"),
        ("x := read/ca", None, "0", f"2:11: {_NOT_A_SCOPE}"),
        ("", None, "read/ca", f"1:6: {_NOT_A_SCOPE}"),
        ("", "read/ca", "0", f"1:6: {_NOT_A_SCOPE}"),
    ],
    ids=["let-category", "let-entity", "program-scope", "query-scope", "arrangement-scope"],
)
def test_condition_name_is_neither_entity_nor_category(body, arrangement, expr, error):
    # A scope over a condition would also print one name as both a
    # scope and a factor.
    family, conditions = load_facts("statement a\ncondition ca = any a\n")
    with pytest.raises(ResolutionError) as exc:
        env = build_environment(f'namespace "n" {{\n{body}\n}}', family, conditions, arrangement)
        answer(EvalQuery(expr), env)
    assert str(exc.value) == error


def test_privilege_binding_shadows_condition():
    # Printed values name their conditions, so no privilege may take the name.
    env = _condition_env()
    program = parse_text('namespace "n" {\n  x := read * logged\n  logged := write\n}')
    with pytest.raises(ResolutionError) as exc:
        load_program(program, env)
    assert str(exc.value) == "3:3: 'logged' is already a condition, cannot use it as a privilege"


_FACTORS = ["read", "read/TechDoc", "write", "(read + list)", "logged", "[read <: write]"]


def _product_env(mode: ConditionMergeMode, definitions: str = "") -> Environment:
    env = _condition_env()
    env.merge_mode = mode
    env.arrangement = arrangement_from_text(SESSION_ARRANGEMENT, env)
    return load_program(parse_text(f'namespace "n" {{ let doc1 is TechDoc\n{definitions} }}'), env)


def _value_or_error(text: str, env: Environment) -> Privilege | str:
    try:
        return eval_text(text, env)
    except ResolutionError as exc:
        return f"error: {exc}"


def _loaded(source, conditions: dict, arrangement: str | None, namespace: str | None):
    """A program's error, or its warnings and each name's value."""
    family = power_family("s1", "s2")
    try:
        env = build_environment(source, family, conditions, arrangement, namespace=namespace)
    except PrivCalcError as exc:
        return type(exc), str(exc)
    values = {}
    for name in env.privileges:
        try:
            values[name] = env.privileges[name].text()
        except PrivCalcError as exc:
            values[name] = str(exc)
    return env.warnings, values


@settings(max_examples=150)
@given(
    _programs(),
    st.sampled_from(["(c)", "((c))", "c"]),
    st.sampled_from([None, "read + b", "guard + read"]),
)
def test_a_text_binds_as_its_tree_does(program, wrapped, arrangement):
    # A text is bound from its token columns and a ``Program`` from the
    # columns its nodes lay out, by one binder, so the two agree on
    # every error, warning and value. Here "c" names a condition, and
    # the text wraps it in parentheses, which the tree does not keep:
    # a leading condition swaps with the factor after it either way.
    lines = []
    for ns in program.namespaces:
        lines.append(f'namespace "{ns.name}" {{')
        for stmt in ns.statements:
            if isinstance(stmt, pal.LetIs):
                lines.append(f"  let {stmt.entity} is {stmt.category}")
            else:
                body = re.sub(r"\bc\b", wrapped, pal.format_expr(stmt.body))
                lines.append(f"  {stmt.name} := {body}")
        lines.append("}")
    text = "\n".join(lines) + "\n"
    tree = parse_text(text)
    assert tree == program
    c = next(iter(power_family("s1", "s2").fact("s2").statements))
    conditions = {"c": WitnessCondition("c", frozenset({c}))}
    namespace = program.namespaces[0].name if program.namespaces else None
    assert _loaded(text, conditions, arrangement, namespace) == _loaded(
        tree, conditions, arrangement, namespace
    )


@pytest.mark.parametrize("lead", ["[read <: write]", "([read <: write])", "logged", "((logged))"])
def test_a_leading_guard_or_condition_attaches_to_the_factor_after_it(lead):
    # From a text, in parentheses or not, and from its tree, a leading
    # guard or condition goes to the second factor's atoms, as a later
    # one does.
    env = _condition_env()
    source = f'namespace "n" {{ let d is C  x := {lead} * write/C  y := write/C * {lead} }}'
    for program in (source, parse_text(source)):
        loaded = build_environment(program, env.family, env.conditions, arrangement="read + write")
        x, y = loaded.privileges["x"], loaded.privileges["y"]
        assert x == y and x.text() == f"write/C * {lead.strip('()')}"


@given(
    st.lists(st.sampled_from(_FACTORS), min_size=2, max_size=6),
    st.sampled_from([ConditionMergeMode.INTERSECTION, UNION]),
)
def test_product_chain_equals_stepwise_binary_products(factors, mode):
    # A name bound to a privilege is never a condition operand, so
    # "p{k} := p{k-1} * f" is one binary product of the value so far and f.
    env = _product_env(mode)
    chain = _value_or_error(" * ".join(factors), env)
    step = _value_or_error(f"{factors[0]} * {factors[1]}", env)
    if not isinstance(step, str):
        steps = [f"p1 := {factors[0]} * {factors[1]}"]
        steps += [f"p{k} := p{k - 1} * {factor}" for k, factor in enumerate(factors[2:], 2)]
        step = _product_env(mode, "\n".join(steps)).privileges[f"p{len(factors) - 1}"]
    assert str(chain) == str(step)


def _text_or_message(text: str, env: Environment) -> str:
    try:
        return eval_text(text, env).text()
    except ResolutionError as exc:
        return f"error: {exc.message}"


@example(["[read <: write]", "read", "logged", "write"], UNION)
@example(["[read <: write]", "read/TechDoc", "logged"], ConditionMergeMode.INTERSECTION)
@example(["logged", "read", "[read <: write]"], ConditionMergeMode.INTERSECTION)
@given(
    st.lists(st.sampled_from(_FACTORS), min_size=2, max_size=5),
    st.sampled_from([ConditionMergeMode.INTERSECTION, UNION]),
)
def test_parenthesised_left_chain_evaluates_as_the_flat_chain(factors, mode):
    # "(a * b) * c" is a product inside a product; it folds as "a * b * c",
    # a leading guard or condition included, and likewise for sums.
    env = _product_env(mode)
    for op in (" * ", " + "):
        nested = factors[0]
        for factor in factors[1:]:
            nested = f"({nested}){op}{factor}"
        assert _text_or_message(nested, env) == _text_or_message(op.join(factors), env)


def test_long_product_hands_a_condition_along_the_chain():
    factors = ["read"] * 3000
    factors[1500] = "logged"
    chain = " * ".join(factors)
    env = _product_env(ConditionMergeMode.INTERSECTION)
    assert eval_text(chain, env).text() == "read"  # later factors intersect it away
    assert eval_text(f"{chain} * logged", env).text() == "read * logged"
    env.merge_mode = UNION
    assert eval_text(chain, env).text() == "read * logged"


# --- laws over every value PAL can produce ------------------------------------


_LAW_FACTS = """\
statement s1
statement s2
fact a = s1
fact b = s2
condition c1 = any s1
condition c2 = any s2
condition ok = true
condition no = false
"""


def _pal_text(guard_depth: int):
    """PAL expression text: names, '+', '*', '/', named conditions and,
    below ``guard_depth`` levels, both guard forms, alone or attached."""
    leaf = st.sampled_from(["read", "write", "0"])
    guard = None
    if guard_depth:
        inner = _pal_text(guard_depth - 1)
        guard = st.builds(
            lambda left, op, right: f"[{left} {op} {right}]",
            inner, st.sampled_from(["<:", "~"]), inner,
        )
        leaf = st.one_of(leaf, guard)

    def extend(sub):
        options = [
            st.builds(lambda a, b: f"({a}) + ({b})", sub, sub),
            st.builds(lambda a, b: f"({a}) * ({b})", sub, sub),
            st.builds(lambda a, s: f"({a})/{s}", sub, st.sampled_from(["d1", "d2", "C", "D"])),
            st.builds(
                lambda a, c: f"({a}) * {c}", sub, st.sampled_from(["c1", "c2", "ok", "no"])
            ),
        ]
        if guard is not None:
            options.append(st.builds(lambda a, g: f"({a}) * {g}", sub, guard))
        return st.one_of(options)

    return st.recursive(leaf, extend, max_leaves=3)


_LAW_EXPR = _pal_text(3)


# Each law as a pair of definitions over the bound values, so a guard
# operand is merged as a value rather than attached as a condition.
_LAWS = {
    "commutative": ("e1 * e2", "e2 * e1"),
    "associative": ("(e1 * e2) * e3", "e1 * (e2 * e3)"),
    "distributive": ("e1 * (e2 + e3)", "e1 * e2 + e1 * e3"),
    "idempotent": ("e1 * e1", "e1"),
}


def _law_env(texts: tuple[str, ...], mode: ConditionMergeMode) -> Environment:
    lines = ["let d1 is C", "let d2 is C", "let d2 is D"]
    for i, text in enumerate(texts, 1):
        lines += [f"e{i} := {text}", f"e{i}_again := {text}"]
    for law, (left, right) in _LAWS.items():
        lines += [f"{law}_l := {left}", f"{law}_r := {right}"]
    family, conditions = load_facts(_LAW_FACTS)
    program = 'namespace "laws" {\n' + "".join(f"  {line}\n" for line in lines) + "}\n"
    return build_environment(program, family, conditions, "read + write + guard", mode)


# The laws are compared entity by entity, finer than the guards' own
# function-level arrangement.
_LAW_BASIS = atomic_arrangement(
    [FunctionSymbol(n) for n in ("read", "write", "guard")], [Entity("d1"), Entity("d2")]
)


@settings(max_examples=60, deadline=None)
@given(_LAW_EXPR, _LAW_EXPR, _LAW_EXPR)
@example("read * [write <: read]", "read", "write")
def test_pal_values_have_value_identity_and_obey_the_laws(e1, e2, e3):
    for mode in (ConditionMergeMode.INTERSECTION, UNION):
        env = _law_env((e1, e2, e3), mode)
        values = env.privileges
        for i in (1, 2, 3):
            first, second = values[f"e{i}"], values[f"e{i}_again"]
            assert first == second and hash(first) == hash(second)
        laws = list(_LAWS)
        # Intersection mergence weakens mixed condition sets by design, so
        # p * p = p holds there only when every atom carries the same set.
        if mode is not UNION and len({a.conditions for a in values["e1"].atoms}) > 1:
            laws.remove("idempotent")
        for law in laws:
            left, right = values[f"{law}_l"], values[f"{law}_r"]
            assert structural_eq(left, right, _LAW_BASIS, env.family), (law, mode)


@settings(max_examples=80, deadline=None)
@given(_LAW_EXPR)
@example("[read <: read] + (read) * (read)")
@example("(([read <: write]) * ([write ~ read]))/C")
@example("[read <: (read) * (write)]")
@example("[(read)/d1 ~ 0] * (write)")
@example("[(read) * c1 <: read] * c2")
def test_guarded_values_re_read_as_themselves(text):
    for mode in (ConditionMergeMode.INTERSECTION, UNION):
        env = _law_env((text,), mode)
        printed = env.privileges["e1"].text()
        assert eval_text(printed, env) == env.privileges["e1"], (text, printed)


_ORDER_FACTS = _LAW_FACTS + "condition logged = any s2\n"
_ORDER_BASIS = "read + write + list + guard"


def _eager_or_error(source: str, mode: ConditionMergeMode) -> Environment | str:
    family, conditions = load_facts(_ORDER_FACTS)
    env = Environment(family, conditions, merge_mode=mode)
    env.arrangement = arrangement_from_text(_ORDER_BASIS, env)
    try:
        return load_program(parse_text(source), env)
    except ResolutionError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([ConditionMergeMode.INTERSECTION, UNION]))
def test_reading_order_changes_no_value_and_no_warning(data, mode):
    # Definitions over product factors, guarded texts and earlier names,
    # some redefined, some scoped before a `let` adds to the category.
    lines, names = ["let doc1 is TechDoc"], []
    for _ in range(data.draw(st.integers(1, 6), label="definitions")):
        if data.draw(st.booleans()):
            lines.append(data.draw(st.sampled_from(["let d1 is C", "let d2 is D", "let d3 is C"])))
        factor = st.one_of(st.sampled_from(_FACTORS + names), _LAW_EXPR.map("({})".format))
        factors = data.draw(st.lists(factor, min_size=1, max_size=3))
        name = data.draw(st.sampled_from(["p", "q", "r", "s"]))
        lines.append(f"{name} := {' * '.join(factors)}")
        names.append(name)
    source = 'namespace "n" {\n' + "".join(f"  {line}\n" for line in lines) + "}\n"
    eager = _eager_or_error(source, mode)
    family, conditions = load_facts(_ORDER_FACTS)
    build = lambda: build_environment(source, family, conditions, _ORDER_BASIS, mode)  # noqa: E731
    if isinstance(eager, str):
        with pytest.raises(ResolutionError) as exc:
            build()
        assert str(exc.value) == eager
        return
    defined = list(dict.fromkeys(names))
    for order in (defined, defined[::-1], data.draw(st.permutations(defined))):
        lazy = build()
        assert [lazy.privileges[n] for n in order] == [eager.privileges[n] for n in order]
        assert lazy.warnings == eager.warnings
        lazy.read_all()
        assert lazy.privileges == eager.privileges


def test_guard_is_the_bare_guards_function_and_cannot_be_rebound():
    source = 'namespace "g" {\n  x := [read <: read]\n  y := guard\n}\n'
    env = build_environment(source, arrangement="read")
    value = compose(env.privileges["x"], env.privileges["y"])
    assert value.text() == "guard + [read <: read]"
    assert eval_text(value.text(), env) == value
    assert env.privileges["x"] == eval_text("guard * [read <: read]", env)
    for statement, message in [
        ("guard := read", "1:17: 'guard' is already a function, cannot use it as a privilege"),
        ("let guard is C", "1:17: 'guard' is already a function, cannot use it as an entity"),
        ("let d is guard", "1:17: 'guard' is already a function, cannot use it as a category"),
        ("x := read/guard", "1:27: 'guard' is a function; '/' needs a category or an entity"),
    ]:
        with pytest.raises(ResolutionError) as exc:
            build_environment(f'namespace "g" {{ {statement} }}')
        assert str(exc.value) == message
    assert not pal.is_identifier("guard")


@pytest.mark.parametrize(
    "body", ["read/read", "(read + list)/read", "[read <: list]/read", "list * (read)/C/read"]
)
def test_a_faulty_scope_is_placed_at_its_name(body):
    # After a name, parentheses or a guard alike, read from a text or
    # from its tree.
    line = f"  x := {body}"
    source = f'namespace "n" {{\n{line}\n}}\n'
    place = f"s.pal:2:{line.rindex('read') + 1}"
    for program in (source, parse_text(source)):
        with pytest.raises(ResolutionError) as exc:
            build_environment(program, arrangement="list", filename="s.pal")
        assert str(exc.value) == f"{place}: 'read' is a function; '/' needs a category or an entity"


# --- role-model import ------------------------------------------------------------


RBAC_TEXT = """\
# staff model
op read
op write
op audit
cat Reports
cat Drafts

role clerk = read/Reports
role editor = write/Drafts, read/Drafts
role auditor = audit/Reports
role chief = write/Reports

inherits editor clerk
inherits chief editor
inherits chief auditor

user dana = clerk
user erin = chief, clerk
"""


def test_load_rbac_shapes():
    model = load_rbac(RBAC_TEXT)
    assert model.operations == {"read", "write", "audit"}
    assert model.roles["editor"] == {("write", "Drafts"), ("read", "Drafts")}
    assert {j for s, j in model.hierarchy if s == "chief"} == {"editor", "auditor"}
    assert model.users["erin"] == {"chief", "clerk"}


def test_load_rbac_error_lines():
    with pytest.raises(RbacImportError) as exc:
        load_rbac("op read\nrole r = read\n")
    assert exc.value.line == 2
    with pytest.raises(RbacImportError, match="unknown declaration"):
        load_rbac("rol r = a/b\n")
    with pytest.raises(RbacImportError, match="duplicate role"):
        load_rbac("op a\ncat C\nrole r = a/C\nrole r = a/C\n")


def test_rbac_validation_errors():
    with pytest.raises(RbacImportError, match="undeclared operation"):
        load_rbac("cat C\nrole r = fly/C\n")
    with pytest.raises(RbacImportError, match="undeclared category"):
        load_rbac("op a\nrole r = a/C\n")
    with pytest.raises(RbacImportError, match="unknown role"):
        load_rbac("op a\ncat C\nrole r = a/C\ninherits r ghost\n")
    with pytest.raises(RbacImportError, match="both as role and user"):
        load_rbac("op a\ncat C\nrole r = a/C\nuser r = r\n")


@pytest.mark.parametrize(
    "text, error",
    [
        ("cat C\nrole r = fly/C\n", "2: role 'r' uses undeclared operation 'fly'"),
        ("op a\n\nrole r = a/C\n", "3: role 'r' uses undeclared category 'C'"),
        (
            "op a\ncat C\nrole r = a/C\ninherits r ghost\nop b\n",
            "4: hierarchy references unknown role 'ghost'",
        ),
        (
            "op a\ncat C\nrole r = a/C\nrole s = a/C\ninherits r s\ninherits s r\n",
            "6: role hierarchy contains a cycle: r -> s -> r",
        ),
        # the later of the two declarations, whichever kind it is
        ("user r = r\nop a\ncat C\nrole r = a/C\n", "4: 'r' is declared both as role and user"),
        ("user a = r\nop a\ncat C\nrole r = a/C\n", "2: 'a' is declared both as op and user"),
        ("op a\ncat C\nuser u = r, x\nrole r = a/C\n", "3: user 'u' references unknown role 'x'"),
        ("op a\ncat C\nrole r = a/C\ninherits r\n", "4: expected: inherits <senior> <junior>"),
        ("op a\ncat C\nrole r = a/C\nuser u r\n", "4: expected: user <id> = <role>, ..."),
    ],
    ids=[
        "operation", "category", "hierarchy", "cycle", "clash", "clash-first", "user",
        "inherits-form", "user-form",
    ],
)
def test_rbac_validation_errors_name_the_declaration_line(text, error):
    with pytest.raises(RbacImportError) as exc:
        load_rbac(text, filename="m.rbac")
    assert str(exc.value) == f"m.rbac:{error}"


@pytest.mark.parametrize(
    "model, error",
    [
        (
            RbacModel(roles={"r": frozenset({("fly", "C")})}),
            "role 'r' uses undeclared operation 'fly'",
        ),
        (
            RbacModel(frozenset({"a"}), roles={"r": frozenset({("a", "C")})}),
            "role 'r' uses undeclared category 'C'",
        ),
        (
            RbacModel(hierarchy=frozenset({("x", "y")})),
            "hierarchy references unknown role 'x'",
        ),
        (
            RbacModel(
                roles={"r": frozenset(), "s": frozenset()},
                hierarchy=frozenset({("r", "s"), ("s", "r")}),
            ),
            "role hierarchy contains a cycle: r -> s -> r",
        ),
        (RbacModel(frozenset({"a"}), frozenset({"a"})), "'a' is declared both as op and cat"),
        (RbacModel(users={"u": frozenset({"x"})}), "user 'u' references unknown role 'x'"),
    ],
    ids=["operation", "category", "hierarchy", "cycle", "clash", "user"],
)
def test_rbac_validation_of_a_hand_built_model_has_no_position(model, error):
    with pytest.raises(RbacImportError) as exc:
        model.validate()
    assert str(exc.value) == error


def test_rbac_names_follow_the_pal_identifier_rule():
    for line, kind, name in [
        ("op a-b", "op", "a-b"),
        ("cat 9x", "cat", "9x"),
        ("role is = a/C", "role", "is"),
        ("user let = r", "user", "let"),
    ]:
        with pytest.raises(RbacImportError) as exc:
            load_rbac(f"op a\ncat C\nrole r = a/C\n{line}\n", filename="m.rbac")
        assert str(exc.value) == f"m.rbac:4: invalid {kind} name '{name}'"


def test_rbac_names_are_disjoint_across_kinds():
    base = "op read\ncat C\nrole r = read/C\n"
    for extra, kinds in [
        ("cat read", "'read' is declared both as op and cat"),
        ("user read = r", "'read' is declared both as op and user"),
        ("role C = read/C", "'C' is declared both as cat and role"),
        ("user r = r", "'r' is declared both as role and user"),
    ]:
        with pytest.raises(RbacImportError) as exc:
            load_rbac(base + extra)
        assert str(exc.value) == f"4: {kinds}"


_TROUBLE = ["is", "let", "namespace", "a-b", "9x", "read", "C", "r1", "u1"]


def _rbac_names(*own: str):
    # mostly the kind's own names, sometimes a bad or cross-kind one
    own_names = st.sampled_from(own)
    return st.one_of(own_names, own_names, st.sampled_from(_TROUBLE))


@st.composite
def _rbac_texts(draw):
    ops = draw(st.lists(_rbac_names("read", "write"), min_size=1, max_size=3))
    cats = draw(st.lists(_rbac_names("C", "D"), min_size=1, max_size=2))
    roles = draw(st.lists(_rbac_names("r1", "r2", "r3"), min_size=1, max_size=3))
    lines = [f"op {op}" for op in ops] + [f"cat {cat}" for cat in cats]
    for role in roles:
        perm = st.tuples(st.sampled_from(ops), st.sampled_from(cats))
        perms = draw(st.lists(perm, min_size=1))
        lines.append(f"role {role} = " + ", ".join(f"{op}/{cat}" for op, cat in perms))
    role_names = st.sampled_from(roles)
    for senior, junior in draw(st.lists(st.tuples(role_names, role_names), max_size=2)):
        lines.append(f"inherits {senior} {junior}")
    for user in draw(st.lists(_rbac_names("u1", "u2"), max_size=2)):
        lines.append(f"user {user} = " + ", ".join(draw(st.lists(role_names, min_size=1))))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=150, deadline=None)
@given(_rbac_texts())
def test_rbac_import_loads_as_pal_or_is_rejected(text):
    try:
        model = load_rbac(text)
    except RbacImportError:
        return
    # the emitted text, not just the tree, must load: names pass the lexer
    load_program(parse_text(format_program(import_rbac(model))))


def test_rbac_import_writes_an_empty_role_or_user_as_zero():
    model = RbacModel(
        operations=frozenset({"read"}),
        categories=frozenset({"C"}),
        roles={"idle": frozenset(), "lazy": frozenset(), "reader": frozenset({("read", "C")})},
        hierarchy=frozenset({("lazy", "idle")}),
        users={"nobody": frozenset(), "ann": frozenset({"lazy", "reader"})},
    )
    text = format_program(import_rbac(model))
    assert "  idle := 0\n" in text and "  nobody := 0\n" in text
    assert "  lazy := idle\n" in text and "  ann := lazy + reader\n" in text
    env = load_program(parse_text(text))
    empty = [env.privileges[name] for name in ("idle", "lazy", "nobody")]
    assert empty == [Privilege()] * 3
    assert env.privileges["ann"] == env.privileges["reader"]


def test_rbac_cycle_reported_with_path():
    text = (
        "op a\ncat C\n"
        "role x = a/C\nrole y = a/C\nrole z = a/C\n"
        "inherits x y\ninherits y z\ninherits z x\n"
    )
    with pytest.raises(RbacImportError, match="cycle: x -> y -> z -> x"):
        load_rbac(text)


def _role_chain(n: int) -> list[str]:
    """n roles, each inheriting the next; only the last has a permission."""
    roles = [f"r{i:04d}" for i in range(n)]
    return (
        ["op a", "cat C", f"role {roles[-1]} = a/C"]
        + [f"role {r} = a/C" for r in roles[:-1]]
        + [f"inherits {s} {j}" for s, j in zip(roles, roles[1:])]
    )


def test_rbac_deep_hierarchy_imports_juniors_first():
    lines = _role_chain(1200)
    program = import_rbac(load_rbac("\n".join(lines)))
    defined = [stmt.name for stmt in program.namespaces[0].statements]
    assert defined == [f"r{i:04d}" for i in reversed(range(1200))]
    with pytest.raises(RbacImportError) as exc:
        load_rbac("\n".join(lines + ["inherits r1199 r0000"]))
    path = " -> ".join(f"r{i:04d}" for i in range(1200))
    assert str(exc.value) == f"{len(lines) + 1}: role hierarchy contains a cycle: {path} -> r0000"


def test_rbac_import_walks_the_hierarchy_once(monkeypatch):
    walks = []
    walk = RbacModel._juniors_first
    monkeypatch.setattr(RbacModel, "_juniors_first", lambda m: walks.append(m) or walk(m))
    model = load_rbac(RBAC_TEXT)
    assert len(walks) == 1
    import_rbac(model)
    assert len(walks) == 2


def test_rbac_long_chain_loads_and_imports():
    # The hierarchy is indexed once per model, so a long chain loads and
    # imports in linear time.
    model = load_rbac("\n".join(_role_chain(4800)))
    defined = [stmt.name for stmt in import_rbac(model).namespaces[0].statements]
    assert defined == [f"r{i:04d}" for i in reversed(range(4800))]


def test_rbac_empty_role_and_user_rejected():
    with pytest.raises(RbacImportError, match="empty permission"):
        load_rbac("role r =\n")
    with pytest.raises(RbacImportError, match="empty role reference"):
        load_rbac("op a\ncat C\nrole r = a/C\nuser u =\n")


def test_import_rbac_emission_golden():
    program = import_rbac(load_rbac(RBAC_TEXT))
    assert format_program(program) == (
        'namespace "rbac" {\n'
        "  auditor := audit/Reports\n"
        "  clerk := read/Reports\n"
        "  editor := clerk + read/Drafts + write/Drafts\n"
        "  chief := auditor + editor + write/Reports\n"
        "  dana := clerk\n"
        "  erin := chief + clerk\n"
        "}\n"
    )


def test_import_rbac_round_trip_matches_transitive_closure():
    model = load_rbac(RBAC_TEXT)
    env = Environment()
    for cat in sorted(model.categories):
        # one member per category so grants are observable
        stmt = pal.LetIs(f"item_{cat}", cat)
        load_program(pal.Program((pal.Namespace("seed", (stmt,)),)), env)
    load_program(import_rbac(model), env)
    expected = rbac_role_grants(model)
    for name in list(model.roles) + list(model.users):
        if name in model.users:
            want = frozenset().union(*(expected[r] for r in model.users[name]))
        else:
            want = expected[name]
        got = set()
        for atom in env.privileges[name].atoms:
            for entity in atom.employment.entities.members:
                cat = entity.removeprefix("item_")
                got.add((atom.employment.function, cat))
        assert got == set(want), name


# --- file names ----------------------------------------------------------------


def _load(text: str, namespace: str | None = None) -> Environment:
    # parsed without a name, so that only load_program can give one
    env = Environment(conditions={"logged": WitnessCondition("logged", frozenset())})
    return load_program(parse_text(text), env, namespace=namespace, filename="p.pal")


def _parse(text: str) -> pal.Program:
    return parse_text(text, filename="p.pal")


def _rbac(text: str) -> RbacModel:
    return load_rbac(text, filename="p.rbac")


def _facts(text: str):
    return load_facts(text, filename="p.facts")


def _in(body: str) -> str:
    return 'namespace "n" {\n' + body + "\n}\n"


_TWO = 'namespace "a" {\n}\nnamespace "b" {\n}\n'
_GUARD_ERROR = (
    "guard expressions need an arrangement in scope (set one before loading, or pass --arrangement)"
)


@pytest.mark.parametrize(
    "read, text, error",
    [
        (_load, "", "p.pal: program has no namespaces"),
        (_load, _TWO, 'p.pal: program defines several namespaces ("a", "b"); pick one'),
        (lambda t: _load(t, "c"), _TWO, 'p.pal: no namespace "c" in program'),
        (
            _load,
            _in("  x := read\n  let read is C"),
            "p.pal:3:3: 'read' is already a function, cannot use it as an entity",
        ),
        (
            _load,
            _in("  x := read\n  let d is x"),
            "p.pal:3:3: 'x' is already a privilege, cannot use it as a category",
        ),
        (
            _load,
            _in("  let d is C\n  C := read"),
            "p.pal:3:3: 'C' is already a category, cannot use it as a privilege",
        ),
        (
            _load,
            _in("  let d is C\n  x := read + d"),
            "p.pal:3:15: 'd' is an entity and has no privilege value",
        ),
        (
            _load,
            _in("  let d is C\n  x := C"),
            "p.pal:3:8: 'C' is a category and has no privilege value",
        ),
        (_load, _in("  x := logged"), "p.pal:2:8: 'logged' is a condition; attach it with '*'"),
        (
            _load,
            _in("  x := read\n  y := write/read"),
            "p.pal:3:14: 'read' is a function; '/' needs a category or an entity",
        ),
        (_load, _in("  x := read * [a <: b]"), f"p.pal:2:15: {_GUARD_ERROR}"),
        (_parse, _in("  x := +"), "p.pal:2:8: expected '(' or '0' or '[' or identifier, found '+'"),
        (_parse, _TWO.replace('"b"', '"a"'), 'p.pal:3:1: duplicate namespace "a"'),
        (_parse, _in("  x := " + "(" * 101), "p.pal:2:108: '(' nested more than 100 deep"),
        (_parse, _in("  x := $"), "p.pal:2:8: unexpected character '$'"),
        (_facts, "statement\n", "p.facts:1: expected: statement <id>"),
        (_facts, "statement s\nstatement is\n", "p.facts:2: invalid statement name 'is'"),
        (_facts, "statement s\n\nstatement s\n", "p.facts:3: duplicate statement 's'"),
        (_facts, "statement s\nfact f s\n", "p.facts:2: expected: fact <id> = [<stmt-id> ...]"),
        (
            _facts,
            "statement s\nfact f = s zz\n",
            "p.facts:2: 'f' references unknown statement 'zz'",
        ),
        (
            _facts,
            "statement s\ncondition c any s\n",
            "p.facts:2: expected: condition <id> = any|true|false ...",
        ),
        (
            _facts,
            "statement s\ncondition c = any\n",
            "p.facts:2: condition 'c' lists no witness statements",
        ),
        (
            _facts,
            "statement s\ncondition c = true s\n",
            "p.facts:2: unknown condition form 'true s'",
        ),
        (_facts, "# facts\nstatemnt s\n", "p.facts:2: unknown declaration 'statemnt'"),
        (
            _facts,
            "".join(f"statement s{i}\nfact f{i} = s{i}\n" for i in range(15)) + "# end\n",
            "p.facts:30: 15 facts close to more than 16384 facts",
        ),
        (_rbac, "op a\nrole r = a\n", "p.rbac:2: bad permission 'a' (want op/cat)"),
        (_rbac, "op a\ncat C\nuser u = r\n", "p.rbac:3: user 'u' references unknown role 'r'"),
        (
            _rbac,
            "op a\ncat C\nrole r = a/C\ninherits r r\n",
            "p.rbac:4: role hierarchy contains a cycle: r -> r",
        ),
        # text that is no file names none
        (
            lambda t: eval_text(t, example_env()),
            "read +",
            "1:7: expected '(' or '0' or '[' or identifier, found end of input",
        ),
        (
            lambda t: eval_text(t, example_env()),
            "TechDoc",
            "1:1: 'TechDoc' is a category and has no privilege value",
        ),
        (
            lambda t: arrangement_from_text(t, example_env()),
            "read/Nowhere",
            "1:1: arrangement element 'read/Nowhere' is empty",
        ),
        (
            lambda t: answer(EvalQuery(t), build_environment(EXAMPLE_PAL, filename="x.pal")),
            "doc1",
            "1:1: 'doc1' is an entity and has no privilege value",
        ),
    ],
)
def test_each_raise_site_is_named_by_its_reader(read, text, error):
    with pytest.raises(PrivCalcError) as exc:
        read(text)
    assert str(exc.value) == error


# --- one line rule -------------------------------------------------------------


@pytest.mark.parametrize(
    "read, text, error",
    [
        # only "\n" ends a line: a form feed or U+2028 is a character of its line
        (_facts, "statement a\fstatement b\nfact f = zz\n", "p.facts:1: expected: statement <id>"),
        (
            _facts,
            "statement a\nfact f = a\u2028b\n",
            "p.facts:2: 'f' references unknown statement 'a\\u2028b'",
        ),
        (_rbac, "op read\u2028cat C\nrole r = read/D\n", "p.rbac:1: expected: op <id>"),
        (
            _rbac,
            "op a\ncat C\nrole r = a/C\nuser u = r\fx\n",
            "p.rbac:4: user 'u' references unknown role 'r\\x0cx'",
        ),
        # a no-break space is no blank, in PAL or in any other file
        (_parse, _in("  x := a\u00a0b"), "p.pal:2:9: unexpected character '\\xa0'"),
        (
            _facts,
            "statement a\nfact f = a\u00a0a\n",
            "p.facts:2: 'f' references unknown statement 'a\\xa0a'",
        ),
        (_rbac, "op a\ncat\u00a0C\n", "p.rbac:2: unknown declaration 'cat\\xa0C'"),
    ],
    ids=["facts-ff", "facts-u2028", "rbac-u2028", "rbac-ff", "pal-nbsp", "facts-nbsp",
         "rbac-nbsp"],
)
def test_every_file_splits_lines_and_words_as_pal_does(read, text, error):
    with pytest.raises(PrivCalcError) as exc:
        read(text)
    assert str(exc.value) == error


_SPACED_RBAC = (
    "op read\nop write\ncat C\nrole reader = read/C\nrole editor = write/C, read/C\n"
    "inherits editor reader\nuser bob = reader, editor\n"
)


def test_rbac_words_may_be_separated_by_any_pal_blank():
    spaced = import_rbac(load_rbac(_SPACED_RBAC))
    assert import_rbac(load_rbac(_SPACED_RBAC.replace(" ", "\t"))) == spaced
    assert import_rbac(load_rbac(_SPACED_RBAC.replace("\n", "\r\n"))) == spaced


def test_crlf_facts_text_reads_as_lf_text():
    text = "statement a\nstatement b\nfact f = a b\ncondition c = any a\ncondition t = true\n"
    family, conditions = load_facts(text)
    crlf_family, crlf_conditions = load_facts(text.replace("\n", "\r\n"))
    assert crlf_family.facts == family.facts and crlf_conditions == conditions


# --- queries -------------------------------------------------------------------


def test_answer_answers_each_query_kind():
    env = build_environment(EXAMPLE_PAL, arrangement=SESSION_ARRANGEMENT)
    queries = [
        EvalQuery("session_1"),
        NormalFormQuery("session_2"),
        EquivalenceQuery("session_1", "bob"),
        PulseQuery("session_2", "empty"),
        TraceQuery("session_1", ("empty", "empty")),
        ComplianceQuery("session_1", "read/doc1", "empty"),
        ComplianceQuery("session_2", "write/doc1", "empty"),
    ]
    texts = [answer(query, env).text for query in queries]
    assert texts[0] == "list/TechDoc + read/TechDoc + write/TechDoc"
    assert texts[1] == "read/*: true\nlist/*: true\nwrite/*: false\nremove/*: false"
    assert texts[2] == "equal"
    assert texts[3] == "1 1 0 0"
    assert texts[4].splitlines()[0] == "employment,empty,empty"
    assert texts[5] == "compliant"
    assert texts[6] == "non-compliant"


def test_answer_raises_on_a_bad_query_and_answers_the_next():
    env = build_environment(EXAMPLE_PAL)
    with pytest.raises(ResolutionError, match="doc1"):
        answer(EvalQuery("doc1"), env)
    assert answer(EvalQuery("session_2"), env).text == "list/TechDoc + read/TechDoc"


# X and Y are named by no program: the first query to mention one must
# not fix its kind (function, or empty category under '/') for the next.
UNBOUND_QUERIES = [
    EvalQuery("X"),
    EvalQuery("read/X"),
    NormalFormQuery("read/Y"),
    EvalQuery("Y"),
    ComplianceQuery("Y", "read/Y", "empty"),
    EvalQuery("p/p +"),
]


def _unbound_env() -> Environment:
    return build_environment('namespace "n" { p := read }', arrangement="read + X")


def _outcome(query, env) -> str:
    try:
        return answer(query, env).text
    except PrivCalcError as exc:
        return str(exc)


def _name_tables(env: Environment) -> tuple:
    categories = {name: set(members) for name, members in env.categories.items()}
    return set(env.functions), set(env.entities), categories, dict(env.privileges)


@pytest.mark.parametrize("first", UNBOUND_QUERIES, ids=repr)
@pytest.mark.parametrize("second", UNBOUND_QUERIES, ids=repr)
def test_an_answer_does_not_depend_on_earlier_answers(first, second):
    env = _unbound_env()
    tables = _name_tables(env)
    _outcome(first, env)
    assert _name_tables(env) == tables
    assert _outcome(second, env) == _outcome(second, _unbound_env())
    assert _name_tables(env) == tables


@pytest.mark.parametrize("text", ["X + write", "X + write + Z/Z", "Y + read/W"])
@pytest.mark.parametrize(
    "read",
    [arrangement_from_text, lambda text, env: load_arrangement([pal.parse_expression(text)], env)],
    ids=["arrangement_from_text", "load_arrangement"],
)
def test_an_arrangement_text_binds_no_name(read, text):
    env = _unbound_env()
    tables = _name_tables(env)
    try:
        read(text, env)
    except PrivCalcError:
        pass
    assert _name_tables(env) == tables


def test_a_name_a_reader_met_is_still_free_for_a_program():
    # Only a program binds names: after every public reader has met
    # `audit` as a function and `Nowhere` as an empty category, a program
    # may still make `audit` an entity of `Nowhere`.
    env = _unbound_env()
    tables = _name_tables(env)
    load_arrangement([pal.parse_expression("audit/Nowhere + zap")], env)
    arrangement_from_text("audit + zap", env)
    assert eval_text("audit/Nowhere", env).is_empty
    assert answer(PulseQuery("zap + audit/Nowhere", "empty"), env).text == "0 0"
    assert _name_tables(env) == tables
    load_program(parse_text('namespace "n" { let audit is Nowhere  let zap is D }'), env)
    assert env.kinds_of("audit") == ["entity"] and env.kinds_of("Nowhere") == ["category"]


def test_answer_errors_carry_no_file_name():
    env = build_environment(EXAMPLE_PAL, filename="x.pal")
    with pytest.raises(PrivCalcError) as parse_error:
        answer(EvalQuery("session_2 +"), env)
    with pytest.raises(PrivCalcError) as kind_error:
        answer(EvalQuery("doc1"), env)
    assert [str(parse_error.value), str(kind_error.value)] == [
        "1:12: expected '(' or '0' or '[' or identifier, found end of input",
        "1:1: 'doc1' is an entity and has no privilege value",
    ]
    with pytest.raises(PrivCalcError) as load_error:
        build_environment(EXAMPLE_PAL + "}", filename="x.pal")
    assert str(load_error.value).startswith("x.pal:16:1: ")


def test_build_environment_raises_on_a_load_failure():
    with pytest.raises(PrivCalcError):
        build_environment('namespace "n" { p := doc1/ }')


def test_answer_needs_an_arrangement_for_projecting_queries():
    env = build_environment(EXAMPLE_PAL)
    with pytest.raises(ResolutionError) as exc:
        answer(NormalFormQuery("bob"), env)
    assert str(exc.value) == (
        "this query needs an arrangement "
        "(set Environment.arrangement, or pass --arrangement)"
    )
    # checked before the query's texts are read, so it is the first error
    with pytest.raises(ResolutionError, match="^this query needs an arrangement"):
        answer(ComplianceQuery("doc1", "read +", "empty"), env)


def test_structural_eq_distinguishes_conditions_union_mode():
    fam = power_family("s1")
    cond = WitnessCondition("w", frozenset({next(iter(fam.universe))}))
    env = Environment(family=fam, conditions={"w": cond}, merge_mode=UNION)
    env.arrangement = arrangement_from_text(SESSION_ARRANGEMENT, env)
    load_program(parse_text(EXAMPLE_PAL.replace("}\n", "  guarded := session_1 * w\n}\n")), env)
    assert not structural_eq(
        env.privileges["guarded"],
        env.privileges["session_1"],
        env.arrangement,
        fam,
    )
