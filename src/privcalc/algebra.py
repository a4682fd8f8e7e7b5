"""Ground algebra of function symbols, entities and employments.

A function symbol or an entity is its name: ``FunctionSymbol("read")``
is the string ``"read"``, and the two types tell the kinds apart only
to a type checker. An employment pairs a function symbol with an entity
set and is written f/E. Sets of employments, with mergence, composition
and restriction, are privileges (``privilege.py``). Mergence keeps the
function only when both sides employ it and intersects the entity sets;
a pair whose intersection comes out empty grants nothing and is
dropped, so the calculus has one zero, the empty privilege.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NewType

__all__ = [
    "Employment",
    "Entity",
    "EntitySet",
    "FunctionSymbol",
    "UNIVERSAL",
]


# A named operation (read, write, ...).
FunctionSymbol = NewType("FunctionSymbol", str)
# A named object an operation can act on.
Entity = NewType("Entity", str)


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
        return "{" + " ".join(sorted(self.members)) + "}"

    def sort_key(self) -> tuple[str, ...]:
        if self.members is None:
            return ()
        return tuple(sorted(self.members))


UNIVERSAL = EntitySet(None)


@dataclass(frozen=True)
class Employment:
    """f/E: the function ``function`` over the entity set ``entities``."""

    function: FunctionSymbol
    entities: EntitySet

    def render(self) -> str:
        return f"{self.function}/{self.entities.render()}"

    def sort_key(self) -> tuple:
        return (self.function, self.entities.sort_key())

    def __repr__(self) -> str:
        return f"emp:{self.render()}"
