"""Fact families, closure, conditions, and evidence search."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, strategies as st

from privcalc import (
    ALWAYS,
    NEVER,
    UNIVERSAL,
    Arrangement,
    DeclarationError,
    Employment,
    EvaluationError,
    Fact,
    FactFamily,
    FunctionSymbol,
    Privilege,
    Statement,
    UnsupportedConditionError,
    WitnessCondition,
    close_family,
    congruence_condition,
    evidences,
    load_facts,
    minimum_evidences,
    table_condition,
    verify_condition_axiom,
    verify_family,
)
import privcalc.facts as facts

from oracles import closure_masks, minimal_evidence_sets
from fixtures import power_family

S1, S2, S3 = Statement("s1"), Statement("s2"), Statement("s3")

READ = Employment(FunctionSymbol("read"), UNIVERSAL)


def _read_unless(statement: Statement):
    """The guard [read ? w ~ 0]: true exactly on facts without ``statement``."""
    witnessed = Privilege.single(READ, [WitnessCondition("w", frozenset({statement}))])
    return congruence_condition(witnessed, Privilege(), Arrangement((READ,)))


# --- families --------------------------------------------------------------


def test_close_family_adds_bounds_and_closures():
    fam = close_family([S1, S2], [Fact("a", frozenset({S1}))])
    # {s2} is not required: the family is already union/intersection closed
    assert {f.id for f in fam} == {"empty", "a", "s1+s2"}
    assert fam.fact("s1+s2").statements == frozenset({S1, S2})
    # derived-id alias for the declared fact
    assert fam.fact("s1") is fam.fact("a")


def test_close_family_empty_universe():
    fam = close_family([], [])
    assert [f.id for f in fam] == ["empty"]
    assert fam.fact("empty").statements == frozenset()


def test_declared_empty_fact_keeps_alias():
    fam = close_family([S1], [Fact("nothing", frozenset())])
    assert fam.fact("nothing").statements == frozenset()
    assert fam.fact("empty") is fam.fact("nothing")


def test_same_statement_set_twice_becomes_alias():
    fam = close_family([S1], [Fact("a", frozenset({S1})), Fact("b", frozenset({S1}))])
    assert fam.fact("b") is fam.fact("a")
    assert len(fam) == 2  # empty and {s1}


def test_unknown_statement_rejected():
    with pytest.raises(DeclarationError):
        close_family([S1], [Fact("a", frozenset({S2}))])


def test_synthesized_id_collision_gets_suffix():
    # a fact literally named "s1+s2" blocks the synthesized id for {s1, s2}
    fam = close_family(
        [S1, S2],
        [Fact("s1+s2", frozenset({S1})), Fact("b", frozenset({S2}))],
    )
    joined = next(f for f in fam if f.statements == frozenset({S1, S2}))
    assert joined.id == "s1+s2_"


def test_family_sorted_by_size_then_id():
    fam = power_family("s1", "s2")
    assert [f.id for f in fam] == ["empty", "s1", "s2", "s1+s2"]


def test_fact_lookup_errors():
    fam = power_family("s1")
    with pytest.raises(EvaluationError):
        fam.fact("missing")


def test_unknown_fact_names_the_first_ten_ids():
    fam = power_family(*(f"s{i}" for i in range(10)))
    assert len(fam) == 1024
    with pytest.raises(EvaluationError) as exc:
        fam.fact("nope")
    message = str(exc.value)
    assert len(message.encode()) < 1024
    assert message == (
        "unknown fact 'nope' (known: empty, s0, s0+s1, s0+s1+s2, s0+s1+s2+s3, "
        "s0+s1+s2+s3+s4, s0+s1+s2+s3+s4+s5, s0+s1+s2+s3+s4+s5+s6, "
        "s0+s1+s2+s3+s4+s5+s6+s7, s0+s1+s2+s3+s4+s5+s6+s7+s8 … and 1014 more)"
    )


def test_verify_family_flags_missing_union():
    fam = FactFamily(
        {S1, S2, S3},
        [
            Fact("empty", frozenset()),
            Fact("a", frozenset({S1})),
            Fact("b", frozenset({S2})),
            Fact("all", frozenset({S1, S2, S3})),
        ],
    )
    violations = verify_family(fam)
    assert violations
    assert any("union" in v for v in violations)


def test_verify_family_flags_missing_bounds():
    fam = FactFamily({S1}, [Fact("a", frozenset({S1}))])
    assert "empty fact missing" in verify_family(fam)


def test_verify_family_accepts_closed():
    assert verify_family(power_family("s1", "s2", "s3")) == []


@given(st.data())
def test_closure_matches_bitmask_oracle(data):
    n = data.draw(st.integers(0, 5))
    members = st.frozensets(st.integers(0, max(n - 1, 0)), max_size=n)
    seeds = data.draw(st.lists(members, max_size=6))
    stmts = [Statement(f"s{i}") for i in range(n)]
    gens = [Fact(f"f{i}", frozenset(stmts[j] for j in s)) for i, s in enumerate(seeds)]
    fam = close_family(stmts, gens)

    def mask(s):
        return sum(1 << i for i, stmt in enumerate(stmts) if stmt in s)

    got = {mask(f.statements) for f in fam}
    assert got == closure_masks({sum(1 << j for j in s) for s in seeds}, n)
    assert len(fam.facts) == len(got)


def _singletons(n: int) -> tuple[list[Statement], list[Fact]]:
    stmts = [Statement(f"s{i}") for i in range(n)]
    return stmts, [Fact(f"f{i}", frozenset({s})) for i, s in enumerate(stmts)]


def _complements(n: int) -> tuple[list[Statement], list[Fact]]:
    stmts, singles = _singletons(n)
    return stmts, [Fact(f.id, frozenset(stmts) - f.statements) for f in singles]


@pytest.mark.parametrize(
    "generators",
    [
        # Singletons meet only in the empty fact: the unions outgrow the bound.
        _singletons,
        # Complements of singletons intersect to every subset: the
        # intersections alone outgrow it.
        _complements,
    ],
    ids=["unions", "intersections"],
)
def test_closure_stops_past_the_bound(monkeypatch, generators):
    # Both close to the 16 subsets of 4 statements.
    monkeypatch.setattr(facts, "MAX_FAMILY", 15)
    with pytest.raises(DeclarationError) as exc:
        close_family(*generators(4))
    assert exc.value.message == "4 facts close to more than 15 facts"
    monkeypatch.setattr(facts, "MAX_FAMILY", 16)
    fam = close_family(*generators(4))
    assert len(fam) == 16
    assert verify_family(fam) == []


def test_closure_intersections_stop_at_the_bound():
    # Unbounded, the intersections of 20 complements are 2**20 sets.
    started = time.perf_counter()
    with pytest.raises(DeclarationError) as exc:
        close_family(*_complements(20))
    assert time.perf_counter() - started < 1.0
    assert exc.value.message == f"20 facts close to more than {facts.MAX_FAMILY} facts"


def test_max_family_closes_fourteen_singletons():
    fam = close_family(*_singletons(14))
    assert len(fam) == facts.MAX_FAMILY == 2**14


@given(
    st.lists(
        st.frozensets(st.sampled_from([S1, S2, S3]), max_size=3),
        max_size=4,
        unique=True,
    )
)
def test_closure_always_verifies(seeds):
    fam = close_family([S1, S2, S3], [Fact(f"f{i}", s) for i, s in enumerate(seeds)])
    assert verify_family(fam) == []


# --- conditions -------------------------------------------------------------


def test_constants():
    fam = power_family("s1")
    for fact in fam:
        assert ALWAYS.evaluate(fact) is True
        assert NEVER.evaluate(fact) is False


def test_witness_condition():
    fam = power_family("s1", "s2")
    cond = WitnessCondition("saw1", frozenset({S1}))
    assert cond.evaluate(fam.fact("s1")) is True
    assert cond.evaluate(fam.fact("s1+s2")) is True
    assert cond.evaluate(fam.fact("s2")) is False
    assert cond.evaluate(fam.fact("empty")) is False


def test_table_condition_domain_checked():
    fam = power_family("s1")
    cond = table_condition("t", {frozenset({S1}): True, frozenset(): False})
    assert cond.evaluate(fam.fact("s1")) is True
    assert cond.evaluate(fam.fact("empty")) is False
    other = power_family("s1", "s2")
    with pytest.raises(EvaluationError):
        cond.evaluate(other.fact("s1+s2"))


def test_high_order_condition_evaluates_predicate():
    fam = power_family("s1")
    cond = _read_unless(S1)
    assert cond.evaluate(fam.fact("empty")) is True
    assert cond.evaluate(fam.fact("s1")) is False


def test_axiom_holds_for_witness_conditions():
    fam = power_family("s1", "s2", "s3")
    cond = WitnessCondition("w", frozenset({S1, S3}))
    assert verify_condition_axiom(cond, fam) == []


def test_axiom_violation_reported():
    fam = power_family("s1", "s2")
    # true on the parts, false on the union: breaks disjoint-union splitting
    cond = table_condition(
        "bad",
        {
            frozenset(): False,
            frozenset({S1}): True,
            frozenset({S2}): True,
            frozenset({S1, S2}): False,
        },
    )
    violations = verify_condition_axiom(cond, fam)
    assert violations
    assert any("s1+s2" in v for v in violations)


def test_axiom_check_reports_missing_unions():
    fam = FactFamily(
        {S1, S2},
        [
            Fact("empty", frozenset()),
            Fact("a", frozenset({S1})),
            Fact("b", frozenset({S2})),
        ],
    )
    violations = verify_condition_axiom(ALWAYS, fam)
    assert any("misses the union" in v for v in violations)


def test_axiom_rejects_high_order():
    fam = power_family("s1")
    with pytest.raises(UnsupportedConditionError):
        verify_condition_axiom(_read_unless(S1), fam)


def test_table_condition_can_pass_axiom_yet_not_be_monotone():
    # family without relative complements: {empty, {s1}, {s1, s2}}
    fam = close_family([S1, S2], [Fact("a", frozenset({S1}))])
    cond = table_condition(
        "quirk",
        {
            frozenset(): False,
            frozenset({S1}): True,
            frozenset({S1, S2}): False,
        },
    )
    # no two disjoint nonempty members exist, so the splitting axiom
    # is satisfied vacuously
    assert verify_condition_axiom(cond, fam) == []
    # yet the condition flips from true to false on a superset fact
    assert cond.evaluate(fam.fact("a")) is True
    assert cond.evaluate(fam.fact("s1+s2")) is False


@given(st.frozensets(st.sampled_from([S1, S2, S3]), min_size=1, max_size=3))
def test_witness_conditions_are_monotone(witnesses):
    fam = power_family("s1", "s2", "s3")
    cond = WitnessCondition("w", witnesses)
    for a, b in itertools.product(fam, repeat=2):
        if a.statements <= b.statements and cond.evaluate(a):
            assert cond.evaluate(b)


# --- evidences ---------------------------------------------------------------


def test_evidences_and_minimum_evidences_witness():
    fam = power_family("s1", "s2")
    cond = WitnessCondition("w", frozenset({S1}))
    assert {f.id for f in evidences(cond, fam)} == {"s1", "s1+s2"}
    assert {f.id for f in minimum_evidences(cond, fam)} == {"s1"}


def test_minimum_evidences_can_be_incomparable():
    fam = power_family("s1", "s2")
    cond = table_condition(
        "either",
        {
            frozenset(): False,
            frozenset({S1}): True,
            frozenset({S2}): True,
            frozenset({S1, S2}): True,
        },
    )
    assert {f.id for f in minimum_evidences(cond, fam)} == {"s1", "s2"}


def test_no_evidences_for_never():
    fam = power_family("s1")
    assert evidences(NEVER, fam) == frozenset()
    assert minimum_evidences(NEVER, fam) == frozenset()


@given(st.frozensets(st.sampled_from(["s1", "s2", "s3"]), max_size=3))
def test_minimum_evidence_search_matches_brute_force(witness_ids):
    fam = power_family("s1", "s2", "s3")
    cond = WitnessCondition("w", frozenset(Statement(i) for i in witness_ids))
    got = {f.statements for f in minimum_evidences(cond, fam)}
    assert got == minimal_evidence_sets(cond, fam)


# --- text loader --------------------------------------------------------------


FACTS_TEXT = """\
# sample universe
statement s1
statement s2
statement s3

fact phone_session = s1
fact pc_session = s2 s3

condition logged = any s2
condition open = true
condition sealed = false
"""


def test_load_facts_round_trip():
    fam, conds = load_facts(FACTS_TEXT)
    assert {f.id for f in fam} >= {"empty", "phone_session", "pc_session"}
    assert verify_family(fam) == []
    assert set(conds) == {"logged", "open", "sealed"}
    assert conds["logged"].evaluate(fam.fact("pc_session")) is True
    assert conds["logged"].evaluate(fam.fact("phone_session")) is False
    assert conds["open"].evaluate(fam.fact("empty")) is True
    assert conds["sealed"].evaluate(fam.fact("pc_session")) is False


def test_load_facts_reports_line_numbers():
    with pytest.raises(DeclarationError) as exc:
        load_facts("statement s1\nfact broken = s9\n")
    assert exc.value.line == 2


def test_load_facts_rejects_unknown_directive():
    with pytest.raises(DeclarationError) as exc:
        load_facts("statemnt s1\n")
    assert exc.value.line == 1


def test_load_facts_rejects_duplicate_condition():
    text = "statement s1\ncondition c = true\ncondition c = false\n"
    with pytest.raises(DeclarationError) as exc:
        load_facts(text)
    assert exc.value.line == 3


def test_load_facts_filename_in_message():
    with pytest.raises(DeclarationError) as exc:
        load_facts("junk\n", filename="store.facts")
    assert str(exc.value).startswith("store.facts:1:")


def test_load_facts_names_follow_the_pal_identifier_rule():
    for text, message in [
        ("statement is\n", "invalid statement name 'is'"),
        ("statement a-b\n", "invalid statement name 'a-b'"),
        ("statement s\nfact 9x = s\n", "invalid fact name '9x'"),
        ("statement s\ncondition let = true\n", "invalid condition name 'let'"),
    ]:
        with pytest.raises(DeclarationError) as exc:
            load_facts(text)
        assert exc.value.message == message


def test_load_facts_positions_an_oversized_family_at_the_last_fact(monkeypatch):
    monkeypatch.setattr(facts, "MAX_FAMILY", 7)
    text = "statement a\nstatement b\nstatement c\nfact x = a\nfact y = b\nfact z = c\n# end\n"
    with pytest.raises(DeclarationError) as exc:
        load_facts(text, filename="f3.facts")
    assert str(exc.value) == "f3.facts:6: 3 facts close to more than 7 facts"


def test_load_facts_rejects_duplicate_fact():
    with pytest.raises(DeclarationError) as exc:
        load_facts("statement s\nfact a = s\nfact b =\nfact a =\n")
    assert (exc.value.line, exc.value.message) == (4, "duplicate fact 'a'")


def test_load_facts_many_facts_over_few_sets_load_in_linear_time():
    # 20,000 names over the four subsets of two statements: a scan of
    # the earlier names per line took about 14 s on a 2-core Xeon VM.
    lines = ["statement s1", "statement s2"]
    members = ["", "s1", "s2", "s1 s2"]
    lines += [f"fact f{i} = {members[i % 4]}" for i in range(20_000)]
    started = time.perf_counter()
    fam, _ = load_facts("\n".join(lines) + "\n")
    assert time.perf_counter() - started < 1.0
    assert len(fam) == 4
    assert fam.fact("f19999") is fam.fact("f3")
