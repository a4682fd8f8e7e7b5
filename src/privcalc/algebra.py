"""Ground algebra of function symbols, entities and employments.

An employment pairs a function symbol with an entity set and is written
f/E. Sets of employments, with mergence, composition and restriction,
are privileges (``privilege.py``). Mergence keeps the function only
when both sides employ it and intersects the entity sets; a pair whose
intersection comes out empty grants nothing and is dropped, so the
calculus has one zero, the empty privilege.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "Category",
    "Employment",
    "Entity",
    "EntitySet",
    "FunctionSymbol",
    "UNIVERSAL",
]


@dataclass(frozen=True)
class FunctionSymbol:
    """A named operation (read, write, ...)."""

    name: str

    def __repr__(self) -> str:
        return f"fn:{self.name}"


@dataclass(frozen=True)
class Entity:
    """A named object an operation can act on.

    Entities and function symbols live in disjoint symbol spaces; an
    Entity never compares equal to a FunctionSymbol of the same spelling.
    """

    name: str

    def __repr__(self) -> str:
        return f"ent:{self.name}"


@dataclass(frozen=True)
class EntitySet:
    """A universal or finite collection of entities.

    ``members is None`` encodes the universal set, which intersects as
    the identity. ``label`` is a display name (usually the category a
    finite set was taken from); it does not take part in equality.
    """

    members: frozenset[Entity] | None
    label: str | None = field(default=None, compare=False)

    @staticmethod
    def finite(entities: Iterable[Entity], label: str | None = None) -> EntitySet:
        return EntitySet(frozenset(entities), label)

    @property
    def is_universal(self) -> bool:
        return self.members is None

    @property
    def is_empty(self) -> bool:
        return self.members is not None and not self.members

    def __contains__(self, entity: Entity) -> bool:
        return self.members is None or entity in self.members

    def intersect(self, other: EntitySet) -> EntitySet:
        # Universal is the identity. When the result equals one operand,
        # return that operand so its label survives.
        if self.members is None:
            return other
        if other.members is None:
            return self
        common = self.members & other.members
        if common == self.members:
            return self
        if common == other.members:
            return other
        return EntitySet(common)

    def render(self) -> str:
        if self.members is None:
            return "*"
        if self.label is not None:
            return self.label
        return "{" + " ".join(sorted(e.name for e in self.members)) + "}"

    def sort_key(self) -> tuple[str, ...]:
        if self.members is None:
            return ()
        return tuple(sorted(e.name for e in self.members))


UNIVERSAL = EntitySet(None)


class Category:
    """A named entity collection whose membership only ever grows."""

    def __init__(self, name: str):
        self.name = name
        self._members: set[Entity] = set()

    def add(self, entity: Entity) -> None:
        self._members.add(entity)

    def entity_set(self) -> EntitySet:
        """Immutable snapshot of the current membership."""
        return EntitySet(frozenset(self._members), label=self.name)

    def __repr__(self) -> str:
        names = ", ".join(sorted(e.name for e in self._members))
        return f"Category({self.name}: {{{names}}})"


@dataclass(frozen=True)
class Employment:
    """f/E: the function ``function`` over the entity set ``entities``."""

    function: FunctionSymbol
    entities: EntitySet

    def render(self) -> str:
        return f"{self.function.name}/{self.entities.render()}"

    def sort_key(self) -> tuple:
        return (self.function.name, self.entities.sort_key())

    def __repr__(self) -> str:
        return f"emp:{self.render()}"
