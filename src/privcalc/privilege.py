"""Privileges over employments, and their forms over arrangements.

A privilege is a finite set of atoms, each an employment over a
non-empty entity set with a set of conditions read conjunctively (none
means always granted). Mergence pairs the atoms of each function,
intersects their entity sets and drops the pairs that come out empty;
condition sets combine per the mode. INTERSECTION follows the
definition literally, which can weaken mixed condition sets so far that
a privilege fails to comply with itself; UNION keeps both sides'
requirements. Composition is atom-set union. The empty privilege,
``Privilege()`` or PAL's ``0``, is the one privilege that grants
nothing: it absorbs mergence and is the identity of composition.

An arrangement is an ordered, pairwise merge-disjoint employment basis,
indexed by function and entity when built (filling the index is the
disjointness check). A privilege's normal form over it gives each
element the disjunction of the condition conjunctions of the atoms that
overlap it; at a fact that is the pulsed form, a bit vector, and along
a fact sequence a trace matrix. Queries evaluate only overlapped
elements; the rest are false.

Congruence at a fact is pulsed-form equality, and p complies with q
when p*q is congruent to q. A guard (``HighOrderCondition``) packages
either test as a value; equal guards are hash-consed into one object.
"""

from __future__ import annotations

import csv
import io
import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .algebra import Employment, Entity, EntitySet, FunctionSymbol
from .errors import SourceError
from .facts import (
    Condition,
    Fact,
    FactFamily,
    FalseCondition,
    TrueCondition,
)

__all__ = [
    "Arrangement",
    "ArrangementError",
    "Coefficient",
    "ConditionMergeMode",
    "GUARD_FUNCTION",
    "HighOrderCondition",
    "NormalForm",
    "Privilege",
    "PrivilegeAtom",
    "PulsedForm",
    "TraceMatrix",
    "atomic_arrangement",
    "compliance_condition",
    "compliant",
    "compose",
    "congruence_condition",
    "congruent",
    "merge",
    "normal_form",
    "pulse",
    "structural_eq",
    "trace",
]


# A bare guard ``[p <: q]`` is an atom of this function under its own
# condition; ``Privilege.text`` spells such an atom by the guard alone.
GUARD_FUNCTION = FunctionSymbol("guard")


class ArrangementError(SourceError):
    """The employment basis is not pairwise merge-disjoint, or an
    element of it is empty or conditioned."""


class ConditionMergeMode(Enum):
    """How mergence combines the condition sets of two atoms."""

    INTERSECTION = "intersection"
    UNION = "union"


@dataclass(frozen=True)
class PrivilegeAtom:
    """An employment over a non-empty entity set, guarded by a conjunction
    of conditions."""

    employment: Employment
    conditions: frozenset[Condition] = frozenset()

    def __post_init__(self):
        if self.employment.entities.is_empty:
            raise ValueError("privilege atoms require a non-empty entity set")

    def granted(self, fact: Fact) -> bool:
        """All conditions hold at the fact; vacuously true when unconditioned."""
        return all(c.evaluate(fact) for c in self.conditions)

    def sort_key(self) -> tuple:
        return (
            *self.employment.sort_key(),
            tuple(sorted(c.id for c in self.conditions)),
        )


@dataclass(frozen=True)
class Privilege:
    atoms: frozenset[PrivilegeAtom] = frozenset()

    @staticmethod
    def single(
        employment: Employment, conditions: Iterable[Condition] = ()
    ) -> Privilege:
        return Privilege(frozenset({PrivilegeAtom(employment, frozenset(conditions))}))

    @property
    def is_empty(self) -> bool:
        return not self.atoms

    def sorted_atoms(self) -> list[PrivilegeAtom]:
        return sorted(self.atoms, key=PrivilegeAtom.sort_key)

    def restricted(self, scope: EntitySet) -> Privilege:
        """Intersect every atom's entity set with ``scope``; drained atoms go."""
        out = []
        for atom in self.atoms:
            emp = atom.employment
            entities = emp.entities.intersect(scope)
            if entities is emp.entities:
                out.append(atom)
            elif not entities.is_empty:
                out.append(PrivilegeAtom(Employment(emp.function, entities), atom.conditions))
        return Privilege(frozenset(out))

    def with_condition(self, condition: Condition) -> Privilege:
        """Attach one more condition to every atom (guard application)."""
        return Privilege(
            frozenset(
                PrivilegeAtom(a.employment, a.conditions | {condition})
                for a in self.atoms
            )
        )

    def text(self) -> str:
        """Canonical expression text, atoms in sorted order.

        Condition-free and guard-conditioned privileges re-read as PAL
        expressions, the empty privilege as PAL's ``0``. Other condition
        kinds have no PAL syntax and render with a display-only "?"
        suffix.
        """
        if not self.atoms:
            return "0"
        terms: list[str] = []
        for atom in self.sorted_atoms():
            terms.extend(_atom_terms(atom))
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"priv:{self.text()}"


def _atom_terms(atom: PrivilegeAtom) -> list[str]:
    emp = atom.employment
    guards = sorted(c.id for c in atom.conditions if isinstance(c, HighOrderCondition))
    name = emp.function.name
    if emp.function == GUARD_FUNCTION and guards:
        name, guards = guards[0], guards[1:]
    es = emp.entities
    if es.is_universal:
        cores = [name]
    elif es.label is not None:
        cores = [f"{name}/{es.label}"]
    else:
        assert es.members is not None
        cores = [f"{name}/{e.name}" for e in sorted(es.members, key=lambda e: e.name)]
    plain = sorted(
        c.id
        for c in atom.conditions
        if not isinstance(c, (HighOrderCondition, TrueCondition))
    )
    suffix = "".join(f" * {g}" for g in guards)
    if plain:
        suffix += " ? " + " & ".join(plain)
    if not suffix:
        return cores
    if len(cores) == 1:
        return [cores[0] + suffix]
    return ["(" + " + ".join(cores) + ")" + suffix]


def merge(
    u: Privilege,
    v: Privilege,
    mode: ConditionMergeMode = ConditionMergeMode.INTERSECTION,
) -> Privilege:
    """Atom mergence; condition sets combine per ``mode``.

    Only atoms of one function can share a grant, so each atom of ``u``
    is paired with the atoms of ``v`` over its function. A pair keeps
    the intersection of its entity sets, or is dropped when that is empty."""
    by_function: dict[FunctionSymbol, list[PrivilegeAtom]] = {}
    for b in v.atoms:
        by_function.setdefault(b.employment.function, []).append(b)
    out = set()
    for a in u.atoms:
        ea = a.employment
        for b in by_function.get(ea.function, ()):
            eb = b.employment
            es = ea.entities.intersect(eb.entities)
            if es is ea.entities:
                emp = ea
            elif es is eb.entities:
                emp = eb
            elif es.is_empty:
                continue
            else:
                emp = Employment(ea.function, es)
            if mode is ConditionMergeMode.INTERSECTION:
                conditions = a.conditions & b.conditions
            else:
                conditions = a.conditions | b.conditions
            out.add(PrivilegeAtom(emp, conditions))
    return Privilege(frozenset(out))


def compose(u: Privilege, v: Privilege) -> Privilege:
    """Atom-set union."""
    return Privilege(u.atoms | v.atoms)


class _FunctionElements:
    """The basis elements of one function symbol, by basis index."""

    __slots__ = ("universal", "by_entity", "indices")

    def __init__(self):
        self.universal: int | None = None
        self.by_entity: dict[Entity, int] = {}
        self.indices: list[int] = []


@dataclass(frozen=True)
class Arrangement:
    """Ordered, pairwise merge-disjoint, non-empty employment basis.

    Order is significant only for display: it fixes the row order of
    normal and pulsed forms and trace matrices.

    Construction indexes the basis by function symbol: per function,
    the index of its universal element, if any, and the index of the
    element holding each entity of its finite elements. Elements of
    different functions never overlap, and two elements of one function
    overlap exactly when both are universal, one is universal, or they
    share an entity, so filling the index checks disjointness in
    O(sum of |E|) over the elements f/E. The index takes no part in
    equality or hashing.
    """

    basis: tuple[Employment, ...]
    _index: dict[FunctionSymbol, _FunctionElements] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        index: dict[FunctionSymbol, _FunctionElements] = {}
        for j, n in enumerate(self.basis):
            if n.entities.is_empty:
                raise ArrangementError("arrangement elements must be non-empty")
            slot = index.setdefault(n.function, _FunctionElements())
            members = n.entities.members
            if members is None:
                clashes = slot.indices
            else:
                clashes = [slot.by_entity[e] for e in members if e in slot.by_entity]
                if slot.universal is not None:
                    clashes.append(slot.universal)
            if clashes:
                m = self.basis[min(clashes)]
                if m == n:
                    raise ArrangementError(
                        f"duplicate arrangement element {m.render()}"
                    )
                raise ArrangementError(
                    f"arrangement elements overlap: {m.render()} and {n.render()}"
                )
            if members is None:
                slot.universal = j
            else:
                slot.by_entity.update(dict.fromkeys(members, j))
            slot.indices.append(j)
        object.__setattr__(self, "_index", index)

    def overlapping(self, employment: Employment) -> set[int]:
        """Basis indices of the elements that ``employment`` overlaps."""
        slot = self._index.get(employment.function)
        if slot is None:
            return set()
        members = employment.entities.members
        if members is None:
            return set(slot.indices)
        hit = {slot.by_entity[e] for e in members if e in slot.by_entity}
        if members and slot.universal is not None:
            hit.add(slot.universal)
        return hit

    def labels(self) -> list[str]:
        return [m.render() for m in self.basis]

    def __len__(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class Coefficient:
    """Disjunction of condition conjunctions; no disjuncts means false."""

    disjuncts: tuple[frozenset[Condition], ...] = ()

    @staticmethod
    def false() -> Coefficient:
        return Coefficient(())

    @staticmethod
    def true() -> Coefficient:
        return Coefficient((frozenset(),))

    @property
    def is_false(self) -> bool:
        return not self.disjuncts

    @property
    def is_true(self) -> bool:
        return any(not d for d in self.disjuncts)

    def evaluate(self, fact: Fact) -> bool:
        return any(all(c.evaluate(fact) for c in d) for d in self.disjuncts)

    def render(self) -> str:
        if not self.disjuncts:
            return "false"
        parts = [
            "true" if not d else " & ".join(sorted(c.id for c in d))
            for d in self.disjuncts
        ]
        return " | ".join(parts)

    @staticmethod
    def from_conjunctions(conjunctions: Iterable[frozenset[Condition]]) -> Coefficient:
        """Constant folding only: drop always-true members, prune
        conjunctions containing an always-false member, collapse to true
        when a conjunction empties."""
        folded = set()
        for conj in conjunctions:
            if any(isinstance(c, FalseCondition) for c in conj):
                continue
            kept = frozenset(c for c in conj if not isinstance(c, TrueCondition))
            if not kept:
                return Coefficient.true()
            folded.add(kept)
        ordered = sorted(
            folded, key=lambda d: (len(d), tuple(sorted(c.id for c in d)))
        )
        return Coefficient(tuple(ordered))


@dataclass(frozen=True)
class NormalForm:
    arrangement: Arrangement
    coefficients: tuple[Coefficient, ...]

    def to_privilege(self) -> Privilege:
        """One atom per basis element and disjunct; structurally equal to
        any privilege this form was projected from, over the same
        arrangement."""
        atoms = []
        for emp, coeff in zip(self.arrangement.basis, self.coefficients):
            for conj in coeff.disjuncts:
                atoms.append(PrivilegeAtom(emp, conj))
        return Privilege(frozenset(atoms))

    def render(self) -> str:
        return "\n".join(
            f"{emp.render()}: {coeff.render()}"
            for emp, coeff in zip(self.arrangement.basis, self.coefficients)
        )


def _overlapped(p: Privilege, arrangement: Arrangement) -> dict[int, Coefficient]:
    """The coefficients of the elements some atom of ``p`` overlaps, by
    basis index; every other element's coefficient is constant false."""
    buckets: dict[int, list[frozenset[Condition]]] = {}
    for atom in p.atoms:
        for i in arrangement.overlapping(atom.employment):
            buckets.setdefault(i, []).append(atom.conditions)
    return {i: Coefficient.from_conjunctions(conjs) for i, conjs in buckets.items()}


def normal_form(p: Privilege, arrangement: Arrangement) -> NormalForm:
    """Project ``p`` onto the basis: per element, the disjunction of the
    condition conjunctions of the atoms whose employment overlaps it;
    constant false where no atom does."""
    coefficients = [Coefficient.false()] * len(arrangement)
    for i, coefficient in _overlapped(p, arrangement).items():
        coefficients[i] = coefficient
    return NormalForm(arrangement, tuple(coefficients))


@dataclass(frozen=True)
class PulsedForm:
    bits: tuple[bool, ...]

    def render(self) -> str:
        return " ".join("1" if b else "0" for b in self.bits)


def pulse(p: Privilege, arrangement: Arrangement, fact: Fact) -> PulsedForm:
    """Normal-form coefficients evaluated at one fact; only the elements
    ``p`` overlaps are evaluated, the rest are false."""
    bits = [False] * len(arrangement)
    for i, coefficient in _overlapped(p, arrangement).items():
        bits[i] = coefficient.evaluate(fact)
    return PulsedForm(tuple(bits))


@dataclass(frozen=True)
class TraceMatrix:
    """Pulses along a fact sequence; rows follow the basis, columns the
    sequence."""

    arrangement: Arrangement
    sequence: tuple[Fact, ...]
    cells: tuple[tuple[bool, ...], ...]

    def column(self, j: int) -> tuple[bool, ...]:
        return tuple(row[j] for row in self.cells)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["employment", *(f.id for f in self.sequence)])
        for emp, row in zip(self.arrangement.basis, self.cells):
            writer.writerow([emp.render(), *("1" if b else "0" for b in row)])
        return out.getvalue()


def trace(
    p: Privilege, arrangement: Arrangement, sequence: Sequence[Fact]
) -> TraceMatrix:
    """Pulses along the sequence; as in ``pulse``, only the elements ``p``
    overlaps are evaluated."""
    sequence = tuple(sequence)
    cells = [(False,) * len(sequence)] * len(arrangement)
    for i, coefficient in _overlapped(p, arrangement).items():
        cells[i] = tuple(coefficient.evaluate(t) for t in sequence)
    return TraceMatrix(arrangement, sequence, tuple(cells))


def _overlapped_pairs(
    u: Privilege, v: Privilege, arrangement: Arrangement
) -> list[tuple[Coefficient, Coefficient]]:
    """The coefficient pairs of the elements ``u`` or ``v`` overlaps, in
    basis order. Elsewhere both are false, so they agree at every fact."""
    cu, cv = _overlapped(u, arrangement), _overlapped(v, arrangement)
    false = Coefficient.false()
    return [(cu.get(i, false), cv.get(i, false)) for i in sorted(cu.keys() | cv.keys())]


def _rows_agree(rows: list[tuple[Coefficient, Coefficient]], fact: Fact) -> bool:
    """The overlapped coefficient pairs agree at the fact."""
    return all(cu.evaluate(fact) == cv.evaluate(fact) for cu, cv in rows)


def structural_eq(
    u: Privilege, v: Privilege, arrangement: Arrangement, family: FactFamily
) -> bool:
    """Extensional normal-form equality: congruent at every fact of the
    family."""
    rows = _overlapped_pairs(u, v, arrangement)
    return all(_rows_agree(rows, t) for t in family.facts)


def congruent(
    u: Privilege, v: Privilege, arrangement: Arrangement, fact: Fact
) -> bool:
    """Same pulsed form at the fact."""
    return _rows_agree(_overlapped_pairs(u, v, arrangement), fact)


def compliant(
    p: Privilege,
    q: Privilege,
    arrangement: Arrangement,
    fact: Fact,
    mode: ConditionMergeMode = ConditionMergeMode.INTERSECTION,
) -> bool:
    """p*q is congruent to q at the fact."""
    return congruent(merge(p, q, mode), q, arrangement, fact)


@dataclass(frozen=True)
class HighOrderCondition(Condition):
    """A guard: ``[left <: right]`` holds where ``left`` complies with
    ``right``, ``[left ~ right]`` where they are congruent.

    Operator, operands, arrangement and mode give equality and hashing;
    the arrangement stays out of the hash, which would walk the whole
    basis, and congruence stores mode ``None``. The projected rows and
    the label are derived once, here, and take no part in equality."""

    op: str
    left: Privilege
    right: Privilege
    arrangement: Arrangement = field(hash=False, repr=False)
    mode: ConditionMergeMode | None
    id: str = field(init=False, compare=False)
    _rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.op == "~":
            object.__setattr__(self, "mode", None)
        elif self.op != "<:":
            raise ValueError(f"unknown guard operator {self.op!r}")
        u = merge(self.left, self.right, self.mode) if self.op == "<:" else self.left
        object.__setattr__(self, "_rows", _overlapped_pairs(u, self.right, self.arrangement))
        object.__setattr__(self, "id", f"[{self.left.text()} {self.op} {self.right.text()}]")

    def evaluate(self, fact: Fact) -> bool:
        return _rows_agree(self._rows, fact)


# Hash-consing: one live guard per value, so comparing two guards stops
# at their shared inner guards instead of recursing through every level.
_guards: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _canonical(guard: HighOrderCondition) -> HighOrderCondition:
    return _guards.setdefault(guard, weakref.ref(guard))() or guard


def compliance_condition(
    p: Privilege,
    q: Privilege,
    arrangement: Arrangement,
    mode: ConditionMergeMode = ConditionMergeMode.INTERSECTION,
) -> HighOrderCondition:
    """The guard ``[p <: q]``, with mergence in ``mode``."""
    return _canonical(HighOrderCondition("<:", p, q, arrangement, mode))


def congruence_condition(
    u: Privilege, v: Privilege, arrangement: Arrangement
) -> HighOrderCondition:
    """The guard ``[u ~ v]``."""
    return _canonical(HighOrderCondition("~", u, v, arrangement, None))


def atomic_arrangement(
    functions: Iterable[FunctionSymbol], entities: Iterable[Entity]
) -> Arrangement:
    """One basis element per (function, entity) pair; the finest basis
    over the given universe."""
    basis = [
        Employment(f, EntitySet.finite([e]))
        for f in sorted(set(functions), key=lambda f: f.name)
        for e in sorted(set(entities), key=lambda e: e.name)
    ]
    return Arrangement(tuple(basis))
