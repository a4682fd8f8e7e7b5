"""Shared fixtures: the worked tech-doc example, its guard extension,
and small fact families."""

from __future__ import annotations

import os
from pathlib import Path

import privcalc
from privcalc import (
    ConditionMergeMode,
    Environment,
    Fact,
    FactFamily,
    Statement,
    arrangement_from_text,
    close_family,
    load_program,
    parse_text,
)

# A documentation store with one document, two terminals, and two users.
# session_1 and session_2 are bob's logins from each terminal.
EXAMPLE_PAL = """\
namespace "example" {
  let doc1 is TechDoc

  reader := (read + list)/TechDoc
  manager := (reader + write + remove)/TechDoc

  bob := reader + write/TechDoc
  may := manager

  phone := read + list
  officepc := read + list + write + remove

  session_1 := bob * officepc
  session_2 := bob * phone
}
"""

# Guard layer: high-order conditions gate actions on session compliance.
# doc1 is rebound as a privilege (readable + writable) while staying an
# entity for the '/' restrictions above.
GUARDS_PAL = EXAMPLE_PAL.replace(
    "}\n",
    """\

  session_3 := may * officepc

  readguard := read * [session_1 <: read/doc1]

  doc1 := readable + writable
  writeguard := write * [session_3 <: write/doc1]
  writableguard := writable * [doc1 <: writable]
  interactionguard := writeguard + writableguard
}
""",
)

SESSION_ARRANGEMENT = "read + list + write + remove"

# Environment for child interpreters: they import privcalc from the tree
# under test, whether that is on PYTHONPATH or only on pytest's own path.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(
            None, [str(Path(privcalc.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        )
    ),
}


def example_env(
    arrangement: str | None = None,
    family: FactFamily | None = None,
    mode: ConditionMergeMode = ConditionMergeMode.INTERSECTION,
    source: str = EXAMPLE_PAL,
) -> Environment:
    env = Environment(family=family, merge_mode=mode)
    if arrangement is not None:
        env.arrangement = arrangement_from_text(arrangement, env)
    load_program(parse_text(source), env)
    return env


def guards_env(**kwargs) -> Environment:
    kwargs.setdefault("arrangement", SESSION_ARRANGEMENT)
    kwargs.setdefault("source", GUARDS_PAL)
    return example_env(**kwargs)


def power_family(*ids: str) -> FactFamily:
    """The full power set over the given statement ids (closure of the
    singletons)."""
    statements = [Statement(i) for i in ids]
    return close_family(statements, [Fact(s, frozenset({s})) for s in statements])
