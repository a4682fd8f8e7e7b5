"""Ground algebra of function symbols, entities and employments.

An employment pairs a function symbol with an entity set and is written
f/E. Mergence keeps the function only when both sides employ it and
intersects the entity sets. The empty employment is an ordinary value:
it absorbs mergence and shows up whenever an intersection comes out
empty. Sets of employments, with composition and restriction, are
privileges (``privilege.py``), which never hold the empty employment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "Category",
    "EMPTY_EMPLOYMENT",
    "Employment",
    "Entity",
    "EntitySet",
    "FunctionSymbol",
    "UNIVERSAL",
    "merge_employment",
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
    """f/E, or the empty employment when both fields are None."""

    function: FunctionSymbol | None
    entities: EntitySet | None

    @staticmethod
    def atom(function: FunctionSymbol, entities: EntitySet) -> Employment:
        """Build f/E, normalizing a drained entity set to empty."""
        if entities.is_empty:
            return EMPTY_EMPLOYMENT
        return Employment(function, entities)

    @property
    def is_empty(self) -> bool:
        return self.function is None

    def render(self) -> str:
        if self.function is None or self.entities is None:
            return "0"
        return f"{self.function.name}/{self.entities.render()}"

    def sort_key(self) -> tuple:
        if self.function is None or self.entities is None:
            return ("",)
        return (self.function.name, self.entities.sort_key())

    def __repr__(self) -> str:
        return f"emp:{self.render()}"


EMPTY_EMPLOYMENT = Employment(None, None)


def merge_employment(a: Employment, b: Employment) -> Employment:
    """Mergence: same function over the entity intersection, else empty."""
    if a.is_empty or b.is_empty or a.function != b.function:
        return EMPTY_EMPLOYMENT
    assert a.entities is not None and b.entities is not None
    return Employment.atom(a.function, a.entities.intersect(b.entities))

