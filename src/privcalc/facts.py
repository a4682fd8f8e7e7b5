"""Fact families and conditions on facts.

A fact is a subset of a statement universe. A family of facts contains
the empty fact and the whole universe and is closed under union and
intersection; for a finite family, pairwise closure is equivalent to
closure under arbitrary sub-collections. ``close_family`` builds the
smallest such family in two passes, the intersections of the generators
and then their unions, and refuses a family of more than ``MAX_FAMILY``
facts.

Conditions are boolean functions on facts constrained by the
disjoint-union axiom

    r(x1 | x2) = r(x1) or r(x2)    whenever x1 and x2 are disjoint.

Witness conditions (true on any fact containing at least one witness
statement) satisfy the axiom by construction. Table conditions carry an
explicit truth assignment and should be checked with
``verify_condition_axiom`` when loaded. Guards, the high-order
conditions of the privilege layer, are exempt from the axiom check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import PrivCalcError, SourceError
from .pal import is_identifier

__all__ = [
    "ALWAYS",
    "Condition",
    "DeclarationError",
    "EvaluationError",
    "Fact",
    "FactFamily",
    "FalseCondition",
    "MAX_FAMILY",
    "NEVER",
    "Statement",
    "TableCondition",
    "TrueCondition",
    "UnsupportedConditionError",
    "WitnessCondition",
    "close_family",
    "evidences",
    "load_facts",
    "minimum_evidences",
    "synthesized_id",
    "table_condition",
    "verify_condition_axiom",
    "verify_family",
]


# The most facts a closed family may hold: 2**14, the power set of 14
# statements. Closing is exponential in the number of generators, so a
# short facts file could otherwise hang every command.
MAX_FAMILY = 16_384


class DeclarationError(SourceError):
    """A facts-file declaration is malformed or references something unknown."""


class EvaluationError(PrivCalcError):
    """A condition or lookup was asked about a fact outside its domain."""


class UnsupportedConditionError(PrivCalcError):
    """The operation does not apply to this condition kind."""


@dataclass(frozen=True)
class Statement:
    """An opaque token a fact can contain."""

    id: str

    def __repr__(self) -> str:
        return f"stmt:{self.id}"


@dataclass(frozen=True)
class Fact:
    """A named subset of the statement universe."""

    id: str
    statements: frozenset[Statement]

    def __repr__(self) -> str:
        inner = ",".join(sorted(s.id for s in self.statements))
        return f"fact:{self.id}{{{inner}}}"


def synthesized_id(statements: frozenset[Statement]) -> str:
    """Deterministic id for a closure-synthesized fact."""
    if not statements:
        return "empty"
    return "+".join(sorted(s.id for s in statements))


class FactFamily:
    """A finite collection of facts over a statement universe.

    Facts are identified by their statement set; a second fact declared
    over the same set becomes an id alias of the first. The constructor
    does not check closure, ``verify_family`` does.
    """

    def __init__(self, universe: Iterable[Statement], facts: Iterable[Fact]):
        self.universe: frozenset[Statement] = frozenset(universe)
        self._by_set: dict[frozenset[Statement], Fact] = {}
        self._by_id: dict[str, Fact] = {}
        for fact in facts:
            canonical = self._by_set.setdefault(fact.statements, fact)
            self._by_id.setdefault(fact.id, canonical)

    @cached_property
    def facts(self) -> tuple[Fact, ...]:
        """Canonical facts, smallest first; computed once, since a family
        is never changed after construction."""
        return tuple(
            sorted(
                self._by_set.values(),
                key=lambda f: (len(f.statements), synthesized_id(f.statements)),
            )
        )

    def fact(self, fact_id: str) -> Fact:
        try:
            return self._by_id[fact_id]
        except KeyError:
            # A family can hold thousands of ids; name the first few.
            known = sorted(self._by_id)
            listed = ", ".join(known[:10])
            if len(known) > 10:
                listed += f" … and {len(known) - 10} more"
            raise EvaluationError(f"unknown fact '{fact_id}' (known: {listed})") from None

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts)

    def __len__(self) -> int:
        return len(self._by_set)

    def __repr__(self) -> str:
        return f"FactFamily({len(self._by_set)} facts over {len(self.universe)} statements)"


def close_family(
    universe: Iterable[Statement], generators: Iterable[Fact] = ()
) -> FactFamily:
    """Smallest family over ``universe`` containing the generators.

    Closes in two passes. Pass 1 closes the generators and the universe
    under intersection; pass 2 closes that and the empty fact under
    union. Intersection distributes over union, so the union of
    intersections is closed under both: it is the ring of sets the
    generators span. Each pass raises ``DeclarationError`` as soon as it
    holds more than ``MAX_FAMILY`` sets. Synthesized facts get ids
    derived from their sorted statements ("a+b", the empty fact is
    "empty"); declared ids win for statement sets already present (the
    derived id then aliases the declared fact), and a synthesized id
    that collides with a declared one is suffixed with underscores until
    free.
    """
    universe_set = frozenset(universe)
    gens = list(generators)
    for fact in gens:
        unknown = fact.statements - universe_set
        if unknown:
            name = sorted(s.id for s in unknown)[0]
            raise DeclarationError(
                f"fact '{fact.id}' references unknown statement '{name}'"
            )
    declared = {f.statements for f in gens}

    def add(found: set[frozenset[Statement]], members: frozenset[Statement]) -> None:
        found.add(members)
        if len(found) > MAX_FAMILY:
            raise DeclarationError(
                f"{len(gens)} facts close to more than {MAX_FAMILY} facts"
            )

    meets = {universe_set}
    for g in declared:
        for m in list(meets):
            add(meets, m & g)
    # The unions found so far are closed under union, so a set already
    # among them adds nothing; taken smallest first, every set that is a
    # union of smaller ones is skipped.
    sets = {frozenset()}
    for m in sorted(meets, key=len):
        if m not in sets:
            for s in list(sets):
                add(sets, s | m)
    taken = {f.id for f in gens}
    facts = list(gens)
    for members in sorted(sets, key=synthesized_id):
        fid = synthesized_id(members)
        if members in declared:
            if fid not in taken:
                # register the derived id as an alias of the declared fact
                taken.add(fid)
                facts.append(Fact(fid, members))
            continue
        while fid in taken:
            fid += "_"
        taken.add(fid)
        facts.append(Fact(fid, members))
    return FactFamily(universe_set, facts)


def verify_family(family: FactFamily) -> list[str]:
    """Every missing closure element: the empty fact, the universe, and
    each pairwise union or intersection not in the family. An empty
    list means the family is closed."""
    violations = []
    items = [f.statements for f in family.facts]
    sets = set(items)
    if frozenset() not in sets:
        violations.append("empty fact missing")
    if family.universe not in sets:
        violations.append("universe fact missing")
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if (a | b) not in sets:
                violations.append(
                    f"union of '{synthesized_id(a)}' and '{synthesized_id(b)}' missing"
                )
            if (a & b) not in sets:
                violations.append(
                    f"intersection of '{synthesized_id(a)}' and '{synthesized_id(b)}' missing"
                )
    return violations


class Condition:
    """Boolean function on facts. Subclasses implement ``evaluate``."""

    id: str

    def evaluate(self, fact: Fact) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class TrueCondition(Condition):
    id: str = "true"

    def evaluate(self, fact: Fact) -> bool:
        return True


@dataclass(frozen=True)
class FalseCondition(Condition):
    id: str = "false"

    def evaluate(self, fact: Fact) -> bool:
        return False


@dataclass(frozen=True)
class WitnessCondition(Condition):
    """True on any fact containing at least one witness statement."""

    id: str
    witnesses: frozenset[Statement]

    def evaluate(self, fact: Fact) -> bool:
        return bool(self.witnesses & fact.statements)


@dataclass(frozen=True)
class TableCondition(Condition):
    """Explicit truth assignment over a fixed domain of statement sets."""

    id: str
    true_sets: frozenset[frozenset[Statement]]
    domain: frozenset[frozenset[Statement]]

    def evaluate(self, fact: Fact) -> bool:
        if fact.statements not in self.domain:
            raise EvaluationError(
                f"condition '{self.id}' has no entry for fact '{fact.id}'"
            )
        return fact.statements in self.true_sets


ALWAYS = TrueCondition()
NEVER = FalseCondition()


def table_condition(
    cond_id: str, assignment: Mapping[frozenset[Statement], bool]
) -> TableCondition:
    """Build a table condition from an explicit fact-set assignment."""
    true_sets = frozenset(s for s, v in assignment.items() if v)
    return TableCondition(cond_id, true_sets, frozenset(assignment))


def verify_condition_axiom(condition: Condition, family: FactFamily) -> list[str]:
    """Check r(x1 | x2) = r(x1) or r(x2) over every disjoint pair; the
    violations found, none when the axiom holds.

    Guards are outside the axiom's scope and are rejected. The axiom
    does not force monotonicity on families that lack relative
    complements; witness conditions are monotone regardless, arbitrary
    tables need not be.
    """
    from .privilege import HighOrderCondition  # privilege imports this module
    if isinstance(condition, HighOrderCondition):
        raise UnsupportedConditionError(
            "high-order conditions are exempt from the disjoint-union axiom"
        )
    violations = []
    facts = family.facts
    index = {f.statements: f for f in facts}
    for i, x1 in enumerate(facts):
        for x2 in facts[i:]:
            if x1.statements & x2.statements:
                continue
            union = index.get(x1.statements | x2.statements)
            if union is None:
                violations.append(
                    f"family misses the union of '{x1.id}' and '{x2.id}'"
                )
                continue
            left = condition.evaluate(union)
            right = condition.evaluate(x1) or condition.evaluate(x2)
            if left != right:
                violations.append(
                    f"r({union.id}) = {int(left)} but r({x1.id}) or r({x2.id}) = {int(right)}"
                )
    return violations


def evidences(condition: Condition, family: FactFamily) -> frozenset[Fact]:
    """Facts of the family on which the condition holds."""
    return frozenset(f for f in family if condition.evaluate(f))


def minimum_evidences(condition: Condition, family: FactFamily) -> frozenset[Fact]:
    """Evidences with no strictly smaller evidence; empty when none exist."""
    found = evidences(condition, family)
    return frozenset(
        x for x in found if not any(y.statements < x.statements for y in found)
    )


def load_facts(
    text: str, filename: str | None = None
) -> tuple[FactFamily, dict[str, Condition]]:
    """Parse a facts file into a closed family and a condition registry.

    One declaration per line, ``#`` starts a comment:

        statement <id>
        fact <id> = [<stmt-id> ...]
        condition <id> = any <stmt-id> [<stmt-id> ...]
        condition <id> = true
        condition <id> = false

    Every ``<id>`` is a PAL identifier (``pal.is_identifier``).
    Statements must be declared before facts or conditions mention
    them. The loader closes the declared facts into a family, so
    synthesized facts (unions, intersections, "empty") are addressable
    by their derived ids afterwards. A family of more than
    ``MAX_FAMILY`` facts is an error at the last ``fact`` line.
    """
    statements: dict[str, Statement] = {}
    generators: dict[str, Fact] = {}
    last_fact_line: int | None = None
    conditions: dict[str, Condition] = {}

    def err(line_no: int | None, message: str) -> DeclarationError:
        return DeclarationError(message, line=line_no, filename=filename)

    def ident(line_no: int, token: str, role: str) -> str:
        if not is_identifier(token):
            raise err(line_no, f"invalid {role} name '{token}'")
        return token

    def resolve(line_no: int, owner: str, tokens: list[str]) -> frozenset[Statement]:
        out = set()
        for token in tokens:
            if token not in statements:
                raise err(line_no, f"'{owner}' references unknown statement '{token}'")
            out.add(statements[token])
        return frozenset(out)

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "statement":
            if len(tokens) != 2:
                raise err(line_no, "expected: statement <id>")
            name = ident(line_no, tokens[1], "statement")
            if name in statements:
                raise err(line_no, f"duplicate statement '{name}'")
            statements[name] = Statement(name)
        elif head == "fact":
            if len(tokens) < 3 or tokens[2] != "=":
                raise err(line_no, "expected: fact <id> = [<stmt-id> ...]")
            name = ident(line_no, tokens[1], "fact")
            if name in generators:
                raise err(line_no, f"duplicate fact '{name}'")
            generators[name] = Fact(name, resolve(line_no, name, tokens[3:]))
            last_fact_line = line_no
        elif head == "condition":
            if len(tokens) < 4 or tokens[2] != "=":
                raise err(line_no, "expected: condition <id> = any|true|false ...")
            name = ident(line_no, tokens[1], "condition")
            if name in conditions:
                raise err(line_no, f"duplicate condition '{name}'")
            kind = tokens[3]
            if kind == "any":
                if len(tokens) < 5:
                    raise err(line_no, f"condition '{name}' lists no witness statements")
                conditions[name] = WitnessCondition(
                    name, resolve(line_no, name, tokens[4:])
                )
            elif kind == "true" and len(tokens) == 4:
                conditions[name] = TrueCondition(name)
            elif kind == "false" and len(tokens) == 4:
                conditions[name] = FalseCondition(name)
            else:
                raise err(line_no, f"unknown condition form '{' '.join(tokens[3:])}'")
        else:
            raise err(line_no, f"unknown declaration '{head}'")

    try:
        family = close_family(statements.values(), generators.values())
    except DeclarationError as exc:  # the family outgrew MAX_FAMILY
        raise err(last_fact_line, exc.message) from None
    return family, conditions
