"""Fact families and conditions on facts.

A fact is a named subset of a statement universe, and a statement is
its name. A family of facts contains the empty fact and the whole
universe and is closed under union and intersection; for a finite
family, pairwise closure is equivalent to closure under arbitrary
sub-collections. ``close_family`` builds the smallest such family in
two passes, the intersections of the generators and then their unions,
and refuses a family of more than ``MAX_FAMILY`` facts.

Conditions are boolean functions on facts constrained by the
disjoint-union axiom

    r(x1 | x2) = r(x1) or r(x2)    whenever x1 and x2 are disjoint.

Witness conditions (true on any fact containing at least one witness
statement) and the constants ``true`` and ``false`` satisfy the axiom
by construction. These and the privilege layer's guards are the only
conditions a facts file or a PAL program can state, and each is
defined at every fact.

Over a family, a condition's meaning is its mask, an ``int`` whose bit
k is set where it holds at ``family.facts[k]``. ``Masked.mask`` builds
it once per family, a leaf condition's from ``evaluate`` at each fact,
and keeps it while the family lives; ``evaluate`` stays the
definition. A family places its facts when it first sorts them: each
learns its position there, so a query at a fact reads one bit of a
mask. A fact that no live family placed, such as one built by hand, is
read as a family of one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NewType

from .errors import PrivCalcError, SourceError, in_text
from .pal import declarations, declared_name, words

__all__ = [
    "Condition",
    "DeclarationError",
    "EvaluationError",
    "Fact",
    "FactFamily",
    "FalseCondition",
    "MAX_FAMILY",
    "Masked",
    "Statement",
    "TrueCondition",
    "WitnessCondition",
    "close_family",
    "evidences",
    "load_facts",
    "minimum_evidences",
    "synthesized_id",
]


# The most facts a closed family may hold: 2**14, the power set of 14
# statements. Closing is exponential in the number of generators, so a
# short facts file could otherwise hang every command.
MAX_FAMILY = 16_384


class DeclarationError(SourceError):
    """A facts-file declaration is malformed or references something unknown."""


class EvaluationError(PrivCalcError):
    """A fact id names no fact of the family."""


# An opaque token a fact can contain.
Statement = NewType("Statement", str)


@dataclass(frozen=True)
class Fact:
    """A named subset of the statement universe.

    ``place`` is set by the family that hands the fact out: a weak
    reference to that family and the fact's position in its ``facts``.
    It takes no part in equality, hashing or ``repr``."""

    id: str
    statements: frozenset[Statement]
    place: tuple[weakref.ref, int] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __repr__(self) -> str:
        inner = ",".join(sorted(self.statements))
        return f"fact:{self.id}{{{inner}}}"

    def __reduce__(self):
        # A weak reference does not pickle, so a copy is unplaced.
        return Fact, (self.id, self.statements)

    def placed(self) -> tuple[FactFamily, int]:
        """The family that placed this fact and its position there. A fact
        no live family placed becomes the one fact of a new family."""
        if self.place is not None:
            ref, k = self.place
            family = ref()
            if family is not None:
                return family, k
        family = FactFamily(self.statements, (self,))
        family.facts  # places the fact
        return family, 0


def synthesized_id(statements: frozenset[Statement]) -> str:
    """Deterministic id for a closure-synthesized fact."""
    if not statements:
        return "empty"
    return "+".join(sorted(statements))


class FactFamily:
    """A finite collection of facts over a statement universe.

    Facts are identified by their statement set; a second fact declared
    over the same set becomes an id alias of the first. The constructor
    does not check closure; ``close_family`` builds closed families.
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
        is never changed after construction. Each is placed here, at its
        position; the family is held only weakly, so a family and its
        facts make no reference cycle."""
        facts = tuple(
            sorted(
                self._by_set.values(),
                key=lambda f: (len(f.statements), synthesized_id(f.statements)),
            )
        )
        ref = weakref.ref(self)
        for k, fact in enumerate(facts):
            object.__setattr__(fact, "place", (ref, k))
        return facts

    def fact(self, fact_id: str) -> Fact:
        self.facts  # the fact handed out is placed
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
            raise DeclarationError(
                f"fact '{fact.id}' references unknown statement '{min(unknown)}'"
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


class Masked:
    """A boolean function on facts held as masks: per family, an ``int``
    whose bit k is set where it holds at ``family.facts[k]``. A subclass
    names the masks its own is built from (``_reads``) and combines them
    (``_build_mask``). ``mask`` alone builds and stores masks: on the
    first call per family it builds every mask read and not built yet,
    inner before outer, on an explicit stack, so a mask nested any depth
    costs no recursion. Each is kept under a weak reference to the
    family, and storing one drops those of families that have died."""

    # No masks until ``mask`` gives the object a dict of its own.
    _masks: Mapping[weakref.ref, int] = MappingProxyType({})

    def mask(self, family: FactFamily) -> int:
        key = weakref.ref(family)
        mask = self._masks.get(key)
        if mask is None:
            stack: list[Masked] = [self]
            while stack:
                top = stack.pop()
                if key in top._masks:  # one that two others read is built once
                    continue
                waiting = [m for m in top._reads() if key not in m._masks]
                if waiting:
                    stack += [top, *waiting]
                    continue
                masks = {k: m for k, m in top._masks.items() if k() is not None}
                masks[key] = top._build_mask(family)
                object.__setattr__(top, "_masks", masks)
            mask = self._masks[key]
        return mask

    def _reads(self) -> Iterable[Masked]:
        """The masked values whose masks ``_build_mask`` reads."""
        return ()

    def _build_mask(self, family: FactFamily) -> int:
        """The mask over ``family``, from the masks of ``_reads``."""
        raise NotImplementedError

    def __getstate__(self) -> dict:
        # The masks are keyed by weak references, which do not pickle.
        return {k: v for k, v in vars(self).items() if k != "_masks"}

    def holds(self, fact: Fact) -> bool:
        """The mask's bit at ``fact``, over the family that placed it."""
        family, k = fact.placed()
        return self.mask(family) >> k & 1 == 1


class Condition(Masked):
    """Boolean function on facts. Subclasses implement ``evaluate``, the
    definition each mask is built from."""

    id: str

    def evaluate(self, fact: Fact) -> bool:
        raise NotImplementedError

    def _build_mask(self, family: FactFamily) -> int:
        digits = "".join("1" if self.evaluate(f) else "0" for f in family.facts)
        return int(digits[::-1] or "0", 2)


@dataclass(frozen=True)
class TrueCondition(Condition):
    id: str

    def evaluate(self, fact: Fact) -> bool:
        return True


@dataclass(frozen=True)
class FalseCondition(Condition):
    id: str

    def evaluate(self, fact: Fact) -> bool:
        return False


@dataclass(frozen=True)
class WitnessCondition(Condition):
    """True on any fact containing at least one witness statement."""

    id: str
    witnesses: frozenset[Statement]

    def evaluate(self, fact: Fact) -> bool:
        return bool(self.witnesses & fact.statements)


def evidences(condition: Condition, family: FactFamily) -> frozenset[Fact]:
    """Facts of the family on which the condition holds: the set bits of
    its mask, read lowest first from the mask's binary digits."""
    bits = bin(condition.mask(family))[:1:-1]
    return frozenset(f for f, bit in zip(family.facts, bits) if bit == "1")


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

    One declaration per line, read by ``pal.declarations`` (lines end
    at a line feed, ``#`` starts a comment, words are separated by PAL's
    blanks):

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
    ``MAX_FAMILY`` facts is an error at the last ``fact`` line. Errors
    give the line and, through ``errors.in_text``, name ``filename``.
    """
    statements: set[Statement] = set()
    generators: dict[str, Fact] = {}
    last_fact_line: int | None = None
    conditions: dict[str, Condition] = {}

    def resolve(line_no: int, owner: str, tokens: list[str]) -> frozenset[Statement]:
        for token in tokens:
            if token not in statements:
                message = f"'{owner}' references unknown statement {token!r}"
                raise DeclarationError(message, line_no)
        return frozenset(map(Statement, tokens))

    with in_text(text, filename):
        for line_no, head, rest in declarations(text):
            tokens = [head, *words(rest)]
            if head == "statement":
                if len(tokens) != 2:
                    raise DeclarationError("expected: statement <id>", line_no)
                name = declared_name(DeclarationError, line_no, tokens[1], "statement", statements)
                statements.add(Statement(name))
            elif head == "fact":
                if len(tokens) < 3 or tokens[2] != "=":
                    raise DeclarationError("expected: fact <id> = [<stmt-id> ...]", line_no)
                name = declared_name(DeclarationError, line_no, tokens[1], "fact", generators)
                generators[name] = Fact(name, resolve(line_no, name, tokens[3:]))
                last_fact_line = line_no
            elif head == "condition":
                if len(tokens) < 4 or tokens[2] != "=":
                    message = "expected: condition <id> = any|true|false ..."
                    raise DeclarationError(message, line_no)
                name = declared_name(DeclarationError, line_no, tokens[1], "condition", conditions)
                kind = tokens[3]
                if kind == "any":
                    if len(tokens) < 5:
                        message = f"condition '{name}' lists no witness statements"
                        raise DeclarationError(message, line_no)
                    conditions[name] = WitnessCondition(name, resolve(line_no, name, tokens[4:]))
                elif kind == "true" and len(tokens) == 4:
                    conditions[name] = TrueCondition(name)
                elif kind == "false" and len(tokens) == 4:
                    conditions[name] = FalseCondition(name)
                else:
                    message = f"unknown condition form {' '.join(tokens[3:])!r}"
                    raise DeclarationError(message, line_no)
            else:
                raise DeclarationError(f"unknown declaration {head!r}", line_no)

        try:
            family = close_family(statements, generators.values())
        except DeclarationError as exc:  # the family outgrew MAX_FAMILY
            raise DeclarationError(exc.message, last_fact_line) from None
    return family, conditions
