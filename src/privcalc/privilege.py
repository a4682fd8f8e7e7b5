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
a fact sequence a trace matrix. A privilege value is projected once per
arrangement, while it lives, into its distinct coefficients with ``int``
masks of the elements they cover. The projection works on masks
throughout: it ORs the masks of the atoms that share a condition set,
and folds one coefficient per combination of condition sets over an
element, not one per element. The first pulse, trace or normal form of
a value walks each coefficient's mask once into the basis indices of
its elements, which the projection keeps; each one after that fills a
false row and writes only the coefficients that are not false, at their
kept indices. Comparisons never walk a mask.

Over a fact family, a coefficient, like a condition, is also a mask,
with bit k for the family's k-th fact (``facts.Masked``): the OR of the
ANDs of its conditions' masks, built once per family. So a query reads
bits: a pulse reads one per coefficient at a fact it places once, and
a comparison reads only the pairs of coefficients that differ. An equal
pair agrees at every fact, so its masks are never built.

Congruence at a fact is pulsed-form equality, and p complies with q
when p*q is congruent to q. A guard (``HighOrderCondition``) packages
either test as a value; equal guards are hash-consed into one object.
A guard's mask is set where every differing pair's masks agree.
"""

from __future__ import annotations

import csv
import heapq
import io
import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .algebra import Employment, Entity, EntitySet, FunctionSymbol
from .errors import SourceError
from .facts import (
    Condition,
    Fact,
    FactFamily,
    FalseCondition,
    Masked,
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
    element of it is empty or conditioned. For a clash, ``index`` is the
    basis index of the later of the two elements."""

    index: int | None = None


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
        """Canonical PAL text, atoms in sorted order, each followed by its
        conditions as ``* <id>`` factors sorted by id; a bare guard's atom
        is spelled by its first guard, the empty privilege as ``0``."""
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
    ids = sorted(c.id for c in atom.conditions)
    name = emp.function
    if emp.function == GUARD_FUNCTION:
        guards = [c.id for c in atom.conditions if isinstance(c, HighOrderCondition)]
        if guards:
            name = min(guards)
            ids.remove(name)
    es = emp.entities
    if es.is_universal:
        cores = [name]
    elif es.label is not None:
        cores = [f"{name}/{es.label}"]
    else:
        assert es.members is not None
        cores = [f"{name}/{e}" for e in sorted(es.members)]
    suffix = "".join(f" * {i}" for i in ids)
    if suffix and len(cores) > 1:
        return ["(" + " + ".join(cores) + ")" + suffix]
    return [core + suffix for core in cores]


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
    intersection = mode is ConditionMergeMode.INTERSECTION
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
            if intersection:
                conditions = a.conditions & b.conditions
            else:
                conditions = a.conditions | b.conditions
            out.add(PrivilegeAtom(emp, conditions))
    return Privilege(frozenset(out))


def compose(*privileges: Privilege) -> Privilege:
    """Atom-set union of any number of privileges; of none, ``0``."""
    return Privilege(frozenset().union(*[p.atoms for p in privileges]))


@dataclass(frozen=True)
class Arrangement:
    """Ordered, pairwise merge-disjoint, non-empty employment basis.

    Order is significant only for display: it fixes the row order of
    normal and pulsed forms and trace matrices.

    Construction indexes the basis in two dicts keyed by function
    symbol. ``_elements`` maps each entity of a function's finite
    elements to the basis index of its element, and ``None`` to the
    index of its universal element, if any (as ``members is None``
    encodes the universal set). Elements of different functions never
    overlap, and two elements of one function overlap exactly when both
    are universal, one is universal, or they share an entity, so filling
    the index checks disjointness in O(sum of |E|) over the elements f/E.
    ``overlapping`` answers with a mask: for a finite employment, the
    bits of its members' elements and of the universal element; for a
    universal one, the ``int`` mask of its function's elements (bit i
    for element i), built from ``_elements`` when first asked for and
    kept in ``_masks``. A mask holds a bit per basis element, so masks
    built up front would take space quadratic in a basis of many
    functions. The index, the masks and the projections (weakly keyed by
    privilege value) take no part in equality or hashing.
    """

    basis: tuple[Employment, ...]
    _elements: dict[FunctionSymbol, dict[Entity | None, int]] = field(
        init=False, repr=False, compare=False
    )
    _masks: dict[FunctionSymbol, int] = field(init=False, repr=False, compare=False)
    _projections: weakref.WeakKeyDictionary = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elements: dict[FunctionSymbol, dict[Entity | None, int]] = {}
        for j, n in enumerate(self.basis):
            if n.entities.is_empty:
                raise ArrangementError("arrangement elements must be non-empty")
            earlier = elements.setdefault(n.function, {})
            members = n.entities.members
            if members is None:
                clashes = earlier.values()
            else:
                clashes = [earlier[e] for e in (*members, None) if e in earlier]
            if clashes:
                m = self.basis[min(clashes)]
                error = ArrangementError(
                    f"duplicate arrangement element {m.render()}"
                    if m == n
                    else f"arrangement elements overlap: {m.render()} and {n.render()}"
                )
                error.index = j
                raise error
            earlier.update(dict.fromkeys((None,) if members is None else members, j))
        object.__setattr__(self, "_elements", elements)
        object.__setattr__(self, "_masks", {})
        object.__setattr__(self, "_projections", weakref.WeakKeyDictionary())

    def overlapping(self, employment: Employment) -> int:
        """The mask of the basis elements that ``employment`` overlaps: bit
        i is set when it overlaps element i."""
        members = employment.entities.members
        function = employment.function
        if members is None:
            mask = self._masks.get(function)
            if mask is None:
                # filled in one buffer: ORing in one bit per element would
                # copy the growing mask every time
                bits = bytearray(len(self.basis) // 8 + 1)
                for j in self._elements.get(function, {}).values():
                    bits[j >> 3] |= 1 << (j & 7)
                mask = self._masks[function] = int.from_bytes(bits, "little")
            return mask
        elements = self._elements.get(function)
        if elements is None or not members:
            return 0
        hit = 0
        for e in members:
            j = elements.get(e)
            if j is not None:
                hit |= 1 << j
        j = elements.get(None)
        return hit if j is None else hit | 1 << j

    def __len__(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class Coefficient(Masked):
    """Disjunction of condition conjunctions; no disjuncts means false.
    Over a family its mask is the OR of the ANDs of its conditions'
    masks, and ``evaluate`` reads one bit of it."""

    disjuncts: tuple[frozenset[Condition], ...] = ()

    def _reads(self) -> Iterator[Condition]:
        return (c for conjunction in self.disjuncts for c in conjunction)

    def _build_mask(self, family: FactFamily) -> int:
        full = (1 << len(family.facts)) - 1
        mask = 0
        for conjunction in self.disjuncts:
            term = full
            for c in conjunction:
                term &= c.mask(family)
            mask |= term
        return mask

    evaluate = Masked.holds

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
                return _TRUE
            folded.add(kept)
        ordered = sorted(
            folded, key=lambda d: (len(d), tuple(sorted(c.id for c in d)))
        )
        return Coefficient(tuple(ordered)) if ordered else _FALSE


# The constant coefficients, one object each, so that every element that
# folds to a constant, in any projection, reads one mask per family.
_TRUE, _FALSE = Coefficient((frozenset(),)), Coefficient()


@dataclass(frozen=True)
class NormalForm:
    arrangement: Arrangement
    coefficients: tuple[Coefficient, ...]

    def render(self) -> str:
        return "\n".join(
            f"{emp.render()}: {coeff.render()}"
            for emp, coeff in zip(self.arrangement.basis, self.coefficients)
        )


def _low(mask: int) -> int:
    """The lowest basis index in a non-empty mask."""
    return (mask & -mask).bit_length() - 1


def _indices(mask: int) -> Iterator[int]:
    """The basis indices in a mask, highest first. Each costs a
    ``bit_length``, which is constant time, and one XOR, where taking
    the lowest bit would cost three operations as wide as the mask."""
    while mask:
        i = mask.bit_length() - 1
        yield i
        mask ^= 1 << i


class _Projection:
    """A privilege value's projection onto one arrangement. ``classes``
    are the distinct coefficients other than false of the elements some
    atom of the value overlaps, each with the mask of the elements it
    covers, by lowest element; every other element's coefficient is
    constant false. ``positions`` are the same coefficients, each with
    the basis indices of its mask, walked when a pulse, trace or normal
    form first asks; comparisons read only the classes."""

    def __init__(self, classes: tuple[tuple[Coefficient, int], ...]):
        self.classes = classes

    @cached_property
    def positions(self) -> tuple[tuple[Coefficient, tuple[int, ...]], ...]:
        return tuple((c, tuple(_indices(mask))) for c, mask in self.classes)


def _projection(p: Privilege, arrangement: Arrangement) -> _Projection:
    """``p``'s projection, computed once per arrangement while ``p``'s
    value is alive.

    An element's coefficient depends only on the condition sets of the
    atoms over it, so the atoms' masks are ORed per condition set, and
    two mask operations per set find the elements that two or more sets
    share. A set's own elements, covered by no other set, take one fold
    as a whole mask. The shared elements are walked once to group them
    by the combination of sets over them, and each combination takes
    one fold. So no input folds more than once per overlapped element,
    and an unconditioned privilege folds once."""
    projection = arrangement._projections.get(p)
    if projection is None:
        by_conditions: dict[frozenset[Condition], int] = {}
        for atom in p.atoms:
            mask = arrangement.overlapping(atom.employment)
            by_conditions[atom.conditions] = by_conditions.get(atom.conditions, 0) | mask
        once = shared = 0
        for mask in by_conditions.values():
            shared |= once & mask
            once |= mask
        combinations: dict[tuple[frozenset[Condition], ...], int] = {}
        buckets: dict[int, list[frozenset[Condition]]] = {}
        for conditions, mask in by_conditions.items():
            own = mask & ~shared
            if own:
                combinations[(conditions,)] = own
            if mask & shared:
                for i in _indices(mask & shared):
                    buckets.setdefault(i, []).append(conditions)
        for i, conjs in buckets.items():
            key = tuple(conjs)
            combinations[key] = combinations.get(key, 0) | 1 << i
        masks: dict[Coefficient, int] = {}
        for conjs, mask in combinations.items():
            coefficient = Coefficient.from_conjunctions(conjs)
            masks[coefficient] = masks.get(coefficient, 0) | mask
        masks.pop(_FALSE, None)
        classes = tuple(sorted(masks.items(), key=lambda item: _low(item[1])))
        projection = arrangement._projections[p] = _Projection(classes)
    return projection


def _spread(p: Privilege, arrangement: Arrangement, read, false) -> tuple:
    """Per basis element, ``read`` of its normal-form coefficient: each
    distinct coefficient is read once, and a value other than ``false``
    is written at the class's kept positions; every other element keeps
    ``false``."""
    values = [false] * len(arrangement)
    for coefficient, positions in _projection(p, arrangement).positions:
        value = read(coefficient)
        if value != false:
            for i in positions:
                values[i] = value
    return tuple(values)


def normal_form(p: Privilege, arrangement: Arrangement) -> NormalForm:
    """Project ``p`` onto the basis: per element, the disjunction of the
    condition conjunctions of the atoms whose employment overlaps it;
    constant false where no atom does."""
    return NormalForm(arrangement, _spread(p, arrangement, lambda c: c, _FALSE))


@dataclass(frozen=True)
class PulsedForm:
    bits: tuple[bool, ...]

    def render(self) -> str:
        return " ".join("1" if b else "0" for b in self.bits)


def pulse(p: Privilege, arrangement: Arrangement, fact: Fact) -> PulsedForm:
    """Normal-form coefficients evaluated at one fact: each reads its
    mask's bit at the fact, which is placed once."""
    family, k = fact.placed()
    return PulsedForm(_spread(p, arrangement, lambda c: c.mask(family) >> k & 1 == 1, False))


@dataclass(frozen=True)
class TraceMatrix:
    """Pulses along a fact sequence; rows follow the basis, columns the
    sequence."""

    arrangement: Arrangement
    sequence: tuple[Fact, ...]
    cells: tuple[tuple[bool, ...], ...]

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
    """Pulses along the sequence: each row is its coefficient evaluated
    at every fact. Each fact is placed once, and the families placed
    are held until the rows are read, so a fact that no family placed,
    however often it repeats, is placed in one family of its own."""
    sequence = tuple(sequence)
    places = [fact.placed() for fact in sequence]

    def read(c: Coefficient) -> tuple[bool, ...]:
        return tuple([c.mask(family) >> k & 1 == 1 for family, k in places])

    cells = _spread(p, arrangement, read, (False,) * len(sequence))
    return TraceMatrix(arrangement, sequence, cells)


def _overlapped_pairs(
    u: Privilege, v: Privilege, arrangement: Arrangement
) -> list[tuple[Coefficient, Coefficient]]:
    """The distinct coefficient pairs that differ, by each pair's lowest
    element; at every other element the two coefficients are equal (both
    false, say), so ``u`` and ``v`` agree there at every fact and only
    these pairs' masks are ever built. The first pair to disagree at a
    fact holds the first element that does, and a walk at one fact stops
    there. Each pair costs O(log k) mask operations over k classes."""
    cu, cv = _projection(u, arrangement).classes, _projection(v, arrangement).classes
    span_u, span_v = (sum(m for _, m in side) for side in (cu, cv))
    # Disjoint masks add without a carry; an overlap on either side loses a bit.
    if sum(m.bit_count() for _, m in cu + cv) != span_u.bit_count() + span_v.bit_count():
        raise AssertionError("the coefficient classes of one side overlap")
    # Each side is a heap of (lowest unpaired element, mask, coefficient),
    # false where only the other side is not, so both heaps hold the same
    # elements and both tops hold the least of them. Sorted is a heap.
    hu, hv = (
        sorted((_low(m), m, c) for c, m in side + ((_FALSE, outside),) if m)
        for side, outside in ((cu, span_v & ~span_u), (cv, span_u & ~span_v))
    )
    pairs: list[tuple[Coefficient, Coefficient]] = []
    while hu:  # both tops hold the least element, so each step pairs it off
        (_, mu, a), (_, mv, b) = heapq.heappop(hu), heapq.heappop(hv)
        for heap, rest, c in ((hu, mu & ~mv, a), (hv, mv & ~mu, b)):
            if rest:
                heapq.heappush(heap, (_low(rest), rest, c))
        if a != b:
            pairs.append((a, b))
    return pairs


def structural_eq(
    u: Privilege, v: Privilege, arrangement: Arrangement, family: FactFamily
) -> bool:
    """Extensional normal-form equality: congruent at every fact of the
    family, that is, each pair that differs has equal masks over it.
    When no pair differs the answer is true and no mask is built."""
    rows = _overlapped_pairs(u, v, arrangement)
    return all(cu.mask(family) == cv.mask(family) for cu, cv in rows)


def congruent(
    u: Privilege, v: Privilege, arrangement: Arrangement, fact: Fact
) -> bool:
    """Same pulsed form at the fact: no differing pair's masks differ in
    the fact's bit. A pair's masks are built when the walk reaches it,
    and the walk stops at the first pair that disagrees."""
    family, k = fact.placed()
    rows = _overlapped_pairs(u, v, arrangement)
    return not any((cu.mask(family) ^ cv.mask(family)) >> k & 1 for cu, cv in rows)


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
    basis, and congruence stores mode ``None``. The label and the depth
    are derived here, the coefficient pairs when a mask is first built,
    so a guard that hash-consing discards merges and projects nothing;
    none takes part in equality. The depth is one more than the deepest
    guard among the conditions of the operands' atoms, read off those
    guards, which exist already."""

    op: str
    left: Privilege
    right: Privilege
    arrangement: Arrangement = field(hash=False, repr=False)
    mode: ConditionMergeMode | None
    id: str = field(init=False, compare=False)
    depth: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.op == "~":
            object.__setattr__(self, "mode", None)
        elif self.op != "<:":
            raise ValueError(f"unknown guard operator {self.op!r}")
        object.__setattr__(self, "id", f"[{self.left.text()} {self.op} {self.right.text()}]")
        inner = [
            c.depth
            for p in (self.left, self.right)
            for atom in p.atoms
            for c in atom.conditions
            if isinstance(c, HighOrderCondition)
        ]
        object.__setattr__(self, "depth", 1 + max(inner, default=0))

    @cached_property
    def _rows(self) -> list[tuple[Coefficient, Coefficient]]:
        u = merge(self.left, self.right, self.mode) if self.op == "<:" else self.left
        return _overlapped_pairs(u, self.right, self.arrangement)

    def _reads(self) -> Iterator[Coefficient]:
        return (c for pair in self._rows for c in pair)

    def _build_mask(self, family: FactFamily) -> int:
        """Set where every pair's masks agree."""
        differ = 0
        for cu, cv in self._rows:
            differ |= cu.mask(family) ^ cv.mask(family)
        return ((1 << len(family.facts)) - 1) & ~differ

    evaluate = Masked.holds


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
        for f in sorted(set(functions))
        for e in sorted(set(entities))
    ]
    return Arrangement(tuple(basis))
