"""Name resolution and evaluation of PAL programs.

Names are bound by kind: function, entity, category, privilege or
condition. Kind is fixed by first use, except that one name may carry an
entity and a privilege binding at once (an object may be restricted over
with ``/`` and also be defined as a privilege). Bare names in
expressions become function symbols on first use; ``let`` introduces
entities and categories; ``:=`` binds privileges, and rebinding wins
with a warning. Conditions (from a facts file) are bound before the
program, so no statement binds their names. Evaluated privileges are
snapshots: later rebindings or category growth never change them. Only
a program binds names: a query's or an arrangement's text sees the
environment's names and binds none of them.

Loading resolves, then evaluates on demand. Resolution walks the
statements once and computes no value: it fixes each name's kind at
each line, raises every clash and kind error and records every warning,
and binds each name a definition reads to what it denotes at that line,
so the definitions form a graph in which each reads only earlier ones.
A definition's value is computed on its first read, after the unread
definitions it reads, and kept. ``load_program`` reads them all;
``build_environment`` reads none, so a query computes its cone only.

Guards need an arrangement to project onto, so expressions containing
``[p <: q]`` or ``[u ~ v]`` require ``Environment.arrangement`` to be
set before they are read. Inside a product, a guard hands its condition to
the other operand's atoms; a bare guard becomes an atom over the
reserved function ``guard``, a name no program can rebind. Names bound
to conditions (loaded from a facts file) work the same way:
``read * logged`` attaches the condition to the atoms of ``read``.

Also here: the role-model importer (``load_rbac`` / ``import_rbac``),
and the environment set-up and query dispatch (``build_environment`` /
``answer``) that the command line uses.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from typing import Sequence, Union

from . import pal
from .algebra import Employment, Entity, EntitySet, FunctionSymbol, UNIVERSAL
from .errors import SourceError, in_text, line_column
from .facts import Condition, FactFamily, close_family
from .privilege import (
    GUARD_FUNCTION,
    Arrangement,
    ArrangementError,
    ConditionMergeMode,
    Privilege,
    compliance_condition,
    compliant,
    compose,
    congruence_condition,
    merge,
    normal_form,
    pulse,
    structural_eq,
    trace,
)

__all__ = [
    "ComplianceQuery",
    "Environment",
    "EquivalenceQuery",
    "EvalQuery",
    "NormalFormQuery",
    "PulseQuery",
    "Query",
    "QueryResult",
    "RbacImportError",
    "RbacModel",
    "ResolutionError",
    "TraceQuery",
    "answer",
    "arrangement_from_text",
    "build_environment",
    "eval_text",
    "import_rbac",
    "load_arrangement",
    "load_program",
    "load_rbac",
]


class ResolutionError(SourceError):
    """A name is missing or used against its binding kind."""


class RbacImportError(SourceError):
    """The role model is malformed or cannot be translated."""


class Environment:
    """Per-namespace binding scope plus fact and arrangement context.

    Built statement by statement by ``load_program`` or
    ``build_environment``, and read-only afterwards: ``eval_text``,
    ``load_arrangement``, ``arrangement_from_text`` and ``answer`` leave
    its names as they found them. ``privileges`` maps each name to the
    value of its latest definition, computed on first read with the
    arrangement and mergence set then; once ``read_all`` has computed
    them all, the environment holds values and no syntax. The default
    fact family is the trivial one (a single empty fact), enough for
    unconditioned privileges.
    """

    def __init__(
        self,
        family: FactFamily | None = None,
        conditions: dict[str, Condition] | None = None,
        arrangement: Arrangement | None = None,
        merge_mode: ConditionMergeMode = ConditionMergeMode.INTERSECTION,
    ):
        # Bare guards' function, there from the start, so that no program
        # can bind its name to anything else.
        self.functions: set[str] = {GUARD_FUNCTION}
        self.entities: set[str] = set()
        # A category's membership only ever grows; ``/`` takes a snapshot,
        # one per category and member count.
        self.categories: dict[str, set[Entity]] = {}
        self._snapshots: dict[tuple[str, int], EntitySet] = {}
        self._latest: dict[str, _Definition] = {}
        self._unread: list[_Definition] = []  # every definition, until all are read
        self.family = family if family is not None else close_family((), ())
        self.conditions: dict[str, Condition] = dict(conditions or {})
        self.arrangement = arrangement
        self.merge_mode = merge_mode
        self.warnings: list[str] = []

    @property
    def privileges(self) -> Mapping[str, Privilege]:
        return _Privileges(self)

    def read_all(self) -> None:
        """Compute every definition not read yet, shadowed ones
        included, in source order, as ``check`` does."""
        _evaluate(self, self._unread)
        self._unread = []

    def kinds_of(self, name: str) -> list[str]:
        kinds = []
        if name in self.functions:
            kinds.append("function")
        if name in self.entities:
            kinds.append("entity")
        if name in self.categories:
            kinds.append("category")
        if name in self._latest:
            kinds.append("privilege")
        if name in self.conditions:
            kinds.append("condition")
        return kinds


class _Definition:
    """One ``:=``: its body and what each name it reads denotes, until
    its value is computed; then the value alone."""

    __slots__ = ("body", "bound", "text", "value")

    def __init__(self, body: pal.ExprNode, bound: list, text: tuple):
        self.body, self.bound, self.text, self.value = body, bound, text, None


class _Privileges(Mapping):
    """``Environment.privileges``: reading a name computes its latest
    definition, unless a read has."""

    def __init__(self, env: Environment):
        self.env = env

    def __getitem__(self, name: str) -> Privilege:
        definition = self.env._latest[name]
        _evaluate(self.env, [definition])
        return definition.value

    def __contains__(self, name: object) -> bool:
        return name in self.env._latest

    def __iter__(self) -> Iterator[str]:
        return iter(self.env._latest)

    def __len__(self) -> int:
        return len(self.env._latest)


def _evaluate(env: Environment, wanted: list) -> None:
    """Compute the unread definitions among ``wanted``, first to last,
    each after the unread ones it reads (its cone): depth first on a
    stack, so that no read recurses through names. A fault of a value is
    placed in its definition's program."""
    stack = [d for d in reversed(wanted) if isinstance(d, _Definition)]
    while stack:
        definition = stack.pop()
        if definition.value is not None:
            continue
        unread = [d for d in definition.bound if isinstance(d, _Definition) and d.value is None]
        if unread:
            stack += [definition, *unread]
            continue
        try:
            definition.value = _value(definition.body, env, iter(definition.bound))
        except SourceError:
            with in_text(*definition.text):
                raise
        definition.body = definition.bound = definition.text = None


def _pick_namespace(program: pal.Program, namespace: str | None) -> pal.Namespace:
    if not program.namespaces:
        raise ResolutionError("program has no namespaces")
    if namespace is None:
        if len(program.namespaces) > 1:
            names = ", ".join(f'"{ns.name}"' for ns in program.namespaces)
            raise ResolutionError(f"program defines several namespaces ({names}); pick one")
        return program.namespaces[0]
    for ns in program.namespaces:
        if ns.name == namespace:
            return ns
    raise ResolutionError(f'no namespace "{namespace}" in program')


def load_program(
    program: pal.Program,
    env: Environment | None = None,
    namespace: str | None = None,
    filename: str | None = None,
) -> Environment:
    """Process one namespace's statements, in order, into an environment,
    and compute every definition (``Environment.read_all``).

    ``namespace`` selects among several; a single-namespace program
    needs no selector. Namespaces are isolated scopes: nothing defined
    in one is visible from another. Errors name ``filename`` and are
    placed in the program's source, as are warnings.
    """
    env = _resolve(program, env, namespace, filename)
    env.read_all()
    return env


def _resolve(
    program: pal.Program, env: Environment | None, namespace: str | None, filename: str | None
) -> Environment:
    """Load the statements, computing no value: fix each name's kind at
    each line and bind each name a definition reads, raising every clash
    and kind error and recording every warning, in source order."""
    with in_text(program.source, filename):
        block = _pick_namespace(program, namespace)
        if env is None:
            env = Environment()
        text = (program.source, filename)
        warned: set[tuple[str, str]] = set()  # (line prefix, category) of each empty scope
        for stmt in block.statements:
            if type(stmt) is pal.LetIs:
                _load_let(stmt, env)
            else:
                _load_define(stmt, env, program, text, warned)
    return env


def _clash(name: str, env: Environment, kinds: set[str], wanted: str, at: int) -> ResolutionError:
    """``name`` cannot be bound as ``wanted`` where it has one of
    ``kinds``: the first of them it has, or else "entity"."""
    kind = min(kinds.intersection(env.kinds_of(name)), default="entity")
    article = "an" if kind == "entity" else "a"
    message = f"'{name}' is already {article} {kind}, cannot use it as {wanted}"
    return ResolutionError(message, at=at)


def _load_let(stmt: pal.LetIs, env: Environment) -> None:
    entity, category, at = stmt
    if entity in env.functions or entity in env.categories or entity in env.conditions:
        raise _clash(entity, env, {"function", "category", "condition"}, "an entity", at)
    if (  # `let x is x` would make x both
        category == entity or category in env.functions or category in env.entities
        or category in env._latest or category in env.conditions
    ):
        kinds = {"function", "entity", "privilege", "condition"}
        raise _clash(category, env, kinds, "a category", at)
    env.entities.add(entity)
    env.categories.setdefault(category, set()).add(Entity(entity))


def _load_define(
    stmt: pal.Define, env: Environment, program: pal.Program, text: tuple, warned: set
) -> None:
    name, body, at = stmt
    bound: list = []
    _bind(body, env, bound)
    if name in env.functions or name in env.categories or name in env.conditions:
        raise _clash(name, env, {"function", "category", "condition"}, "a privilege", at)
    if name in env._latest:
        env.warnings.append(f"{_line_prefix(program, at)}redefinition of '{name}' (latest wins)")
    if not all(env.categories.values()):  # only a scope makes a category empty
        for scope in (s for n in _walk(body) if type(n) is pal.Slash for s in n.scopes):
            key = (_line_prefix(program, scope.at), scope.id)
            if key not in warned and not env.categories.get(scope.id, True):
                warned.add(key)  # once a line and category
                env.warnings.append(
                    f"{key[0]}category '{scope.id}' is empty here, "
                    f"so '/{scope.id}' restricts everything away"
                )
    env._latest[name] = definition = _Definition(body, bound, text)
    env._unread.append(definition)


def _line_prefix(program: pal.Program, at: int) -> str:
    """``line N: ``, or nothing for an offset from another text."""
    if at > len(program.source):
        return ""
    return f"line {line_column(program.line_starts, at)[0]}: "


def _eval_expr(node: pal.ExprNode, env: Environment) -> Privilege:
    """Evaluate an expression to a privilege value (a snapshot): bind its
    names in ``env``, compute the definitions they read, then its value."""
    bound: list = []
    _bind(node, env, bound)
    _evaluate(env, bound)
    return _value(node, env, iter(bound))


def eval_text(source: str, env: Environment) -> Privilege:
    """Parse and evaluate one expression against an environment. The
    text is no file, so its errors name none. Its new names bind within
    the text only, never in ``env``."""
    with in_text(source):
        return _eval_expr(pal.parse_expression(source), _reader(env))


def _reader(env: Environment) -> Environment:
    """``env`` with its own copies of the tables that binding writes."""
    reader = copy.copy(env)
    reader.functions, reader.categories = set(env.functions), dict(env.categories)
    return reader


def _bind(node: pal.ExprNode, env: Environment, bound: list) -> None:
    """Append to ``bound`` what each name of ``node`` denotes where it
    stands: a definition, a function's name, ``0``'s value or, after
    ``/``, an entity set. The names come in the order ``_value`` reads
    them, which takes one binding a read, and a fault of a name is the
    one that the first faulty read would meet. Recursion is bounded as
    the parser bounds nesting; the node shapes come most common first."""
    kind = type(node)
    if kind is pal.Sum:
        for operand in node.operands:
            _bind(operand, env, bound)
    elif kind is pal.Slash:
        _bind(node.operand, env, bound)
        for scope in node.scopes:
            bound.append(_resolve_scope(scope, env))
    elif kind is pal.Name:
        if node.id in env._latest:
            bound.append(env._latest[node.id])
        elif node.id in env.functions:  # settled by the name's first read
            bound.append(node.id)
        else:
            bound.append(_bind_name(node, env))
    elif kind is pal.Product:
        first, *rest = _factors(node.operands, env)
        _bind(first, env, bound)
        for factor in rest:
            if type(factor) is pal.Guard or not _is_condition(factor, env):
                _bind(factor, env, bound)
    elif kind is pal.Guard:
        if env.arrangement is None:
            message = (
                "guard expressions need an arrangement in scope "
                "(set one before loading, or pass --arrangement)"
            )
            raise ResolutionError(message, at=node.at)
        _bind(node.left, env, bound)
        _bind(node.right, env, bound)
    else:
        raise TypeError(f"not an expression node: {node!r}")


def _bind_name(node: pal.Name, env: Environment) -> str | Privilege:
    """What a name that is neither a privilege nor a function denotes:
    ``0``'s value, or else a new function."""
    if node.id == "0":
        return Privilege()
    kinds = env.kinds_of(node.id)
    if "entity" in kinds or "category" in kinds:
        article = "an entity" if "entity" in kinds else "a category"
        message = f"'{node.id}' is {article} and has no privilege value"
        raise ResolutionError(message, at=node.at)
    if "condition" in kinds:
        message = f"'{node.id}' is a condition; attach it with '*'"
        raise ResolutionError(message, at=node.at)
    env.functions.add(node.id)
    return node.id


def _value(node: pal.ExprNode, env: Environment, bound: Iterator) -> Privilege:
    kind = type(node)
    if kind is pal.Name:
        binding = next(bound)
        if type(binding) is _Definition:
            return binding.value
        if type(binding) is str:
            return Privilege.single(Employment(FunctionSymbol(binding), UNIVERSAL))
        return binding
    if kind is pal.Sum:
        return compose(*[_value(operand, env, bound) for operand in node.operands])
    if kind is pal.Product:
        return _eval_product(node.operands, env, bound)
    if kind is pal.Slash:
        value = _value(node.operand, env, bound)
        for _ in node.scopes:
            value = value.restricted(next(bound))
        return value
    condition = _guard_condition(node, env, bound)  # a guard: ``_bind`` takes no other node
    return Privilege.single(Employment(GUARD_FUNCTION, UNIVERSAL), [condition])


def _is_condition(node: pal.ExprNode, env: Environment) -> bool:
    return isinstance(node, pal.Guard) or isinstance(node, pal.Name) and node.id in env.conditions


def _factors(factors: tuple[pal.ExprNode, ...], env: Environment) -> list[pal.ExprNode]:
    """Left to right, but a leading guard or condition goes to the
    second factor, after that factor is evaluated."""
    first, second, *rest = factors
    if _is_condition(first, env) and not _is_condition(second, env):
        return [second, first, *rest]
    return [first, second, *rest]


def _eval_product(
    factors: tuple[pal.ExprNode, ...], env: Environment, bound: Iterator
) -> Privilege:
    # A guard or condition operand hands its condition to the other
    # side's atoms instead of merging as a separate atom.
    first, *rest = _factors(factors, env)
    value = _value(first, env, bound)
    for factor in rest:
        if isinstance(factor, pal.Guard):
            value = value.with_condition(_guard_condition(factor, env, bound))
        elif _is_condition(factor, env):
            value = value.with_condition(env.conditions[factor.id])
        else:
            value = merge(value, _value(factor, env, bound), env.merge_mode)
    return value


def _resolve_scope(scope: pal.Name, env: Environment) -> EntitySet:
    name = scope.id
    if name in env.categories:
        key = (name, len(env.categories[name]))
        if key not in env._snapshots:
            env._snapshots[key] = EntitySet.finite(env.categories[name], label=name)
        return env._snapshots[key]
    if name in env.entities:
        return EntitySet.finite([Entity(name)])
    kinds = env.kinds_of(name)
    if kinds:
        message = f"'{name}' is a {kinds[0]}; '/' needs a category or an entity"
        raise ResolutionError(message, at=scope.at)
    # Unknown scope: a new, empty category. A later let adds members to
    # the category but not to this snapshot, which restricts everything
    # away; loading warns of it.
    return EntitySet.finite(env.categories.setdefault(name, set()), label=name)


def _guard_condition(node: pal.Guard, env: Environment, bound: Iterator) -> Condition:
    left = _value(node.left, env, bound)
    right = _value(node.right, env, bound)
    if node.op == "<:":
        condition = compliance_condition(left, right, env.arrangement, env.merge_mode)
    else:
        condition = congruence_condition(left, right, env.arrangement)
    # Brackets nest at most MAX_NESTING deep in one expression, but a
    # name can hold a guard, so nesting through names is bounded here,
    # where the definition holding the guard is computed.
    if condition.depth > pal.MAX_NESTING:
        message = f"'[' nested more than {pal.MAX_NESTING} deep through names"
        raise ResolutionError(message, at=node.at)
    return condition


def load_arrangement(exprs: Sequence[pal.ExprNode], env: Environment) -> Arrangement:
    """Evaluate basis expressions and flatten their atoms, in order.

    Atoms must be unconditioned and the collected basis pairwise
    merge-disjoint; within one expression the atoms are taken in
    canonical order. An expression that evaluates to nothing is an
    error at its first name, and so is one that brings in an atom
    overlapping an earlier one. The expressions are read in one scope
    of their own: a name new to ``env`` binds in them only.
    """
    scope = _reader(env)
    basis: list[Employment] = []
    firsts: list[pal.Name | pal.Guard] = []  # where each basis element came from
    for node in exprs:
        value = _eval_expr(node, scope)
        # the element's first name or guard, for its position
        first = next(n for n in _walk(node) if isinstance(n, (pal.Name, pal.Guard)))
        if value.is_empty:
            message = f"arrangement element '{pal.format_expr(node)}' is empty"
            raise ArrangementError(message, at=first.at)
        for atom in value.sorted_atoms():
            if atom.conditions:
                message = f"arrangement element {atom.employment.render()} carries conditions"
                raise ArrangementError(message, at=first.at)
            basis.append(atom.employment)
            firsts.append(first)
    try:
        return Arrangement(tuple(basis))
    except ArrangementError as exc:  # a clash, placed at its later element
        exc.at = firsts[exc.index].at
        raise


def _sum_terms(node: pal.ExprNode) -> list[pal.ExprNode]:
    """The operands of a sum, left to right, parenthesised sums included."""
    terms: list[pal.ExprNode] = []
    pending = [node]
    while pending:
        node = pending.pop()
        if isinstance(node, pal.Sum):
            pending.extend(reversed(node.operands))
        else:
            terms.append(node)
    return terms


def _walk(node: pal.ExprNode) -> Iterator[pal.ExprNode]:
    """Every node of an expression, scopes included, in source order."""
    pending = [node]
    while pending:
        node = pending.pop()
        yield node
        if isinstance(node, pal.Slash):
            pending += reversed((node.operand, *node.scopes))
        elif isinstance(node, pal.Guard):
            pending += (node.right, node.left)
        elif not isinstance(node, pal.Name):
            pending += reversed(node.operands)


def arrangement_from_text(text: str, env: Environment) -> Arrangement:
    """Parse "m1 + m2 + ..." and load it as an arrangement. The text is
    no file, so its errors name none."""
    with in_text(text):
        return load_arrangement(_sum_terms(pal.parse_expression(text)), env)


# --- role-model import -------------------------------------------------


@dataclass
class RbacModel:
    """Operations, categories, roles with permissions, a role hierarchy
    (senior inherits junior), and user-role assignments.

    ``load_rbac`` also records the line of each declaration, keyed
    ``(kind, name)`` or ``("inherits", senior, junior)``, so that
    ``validate`` can place its errors (``load_rbac`` names the file); a
    model built by hand has none.
    """

    operations: frozenset[str] = frozenset()
    categories: frozenset[str] = frozenset()
    roles: dict[str, frozenset[tuple[str, str]]] = field(default_factory=dict)
    hierarchy: frozenset[tuple[str, str]] = frozenset()
    users: dict[str, frozenset[str]] = field(default_factory=dict)
    lines: dict[tuple[str, ...], int] = field(default_factory=dict, repr=False, compare=False)
    # senior -> its direct juniors, sorted; built once from ``hierarchy``
    _juniors: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._juniors = {}
        for senior, junior in sorted(self.hierarchy):
            self._juniors.setdefault(senior, []).append(junior)

    def validate(self) -> list[str]:
        """Check the model; return its roles juniors first."""
        for role, perms in self.roles.items():
            line = self.lines.get(("role", role))
            for op, cat in perms:
                if op not in self.operations:
                    raise RbacImportError(f"role '{role}' uses undeclared operation {op!r}", line)
                if cat not in self.categories:
                    raise RbacImportError(f"role '{role}' uses undeclared category {cat!r}", line)
        for senior, junior in sorted(self.hierarchy):
            for role in (senior, junior):
                if role not in self.roles:
                    line = self.lines.get(("inherits", senior, junior))
                    raise RbacImportError(f"hierarchy references unknown role {role!r}", line)
        # Each name becomes one PAL binding, so it may have one kind only.
        kinds: dict[str, str] = {}
        declared = zip(
            ("op", "cat", "role", "user"),
            (self.operations, self.categories, self.roles, self.users),
        )
        for kind, names in declared:
            for name in sorted(names):
                first = kinds.setdefault(name, kind)
                if first != kind:
                    message = f"'{name}' is declared both as {first} and {kind}"
                    lines = [self.lines.get((k, name)) for k in (first, kind)]
                    raise RbacImportError(message, max(filter(None, lines), default=None))
        for user, roles in self.users.items():
            for role in roles:
                if role not in self.roles:
                    message = f"user '{user}' references unknown role {role!r}"
                    raise RbacImportError(message, self.lines.get(("user", user)))
        return self._juniors_first()

    def _juniors_first(self) -> list[str]:
        """Every role after all of its juniors: depth first, roots and
        juniors in alphabetical order; a cycle is an error. The explicit
        stack keeps a deep hierarchy from recursing once per role."""
        order: list[str] = []
        done: set[str] = set()
        for root in sorted(self.roles):
            if root in done:
                continue
            path, on_path, pending = [root], {root}, [iter(self._juniors.get(root, ()))]
            while pending:
                nxt = next(pending[-1], None)
                if nxt is None:
                    pending.pop()
                    role = path.pop()
                    on_path.discard(role)
                    done.add(role)
                    order.append(role)
                elif nxt in on_path:
                    cycle = path[path.index(nxt) :] + [nxt]
                    raise RbacImportError(
                        "role hierarchy contains a cycle: " + " -> ".join(cycle),
                        self.lines.get(("inherits", path[-1], nxt)),
                    )
                elif nxt not in done:
                    path.append(nxt)
                    on_path.add(nxt)
                    pending.append(iter(self._juniors.get(nxt, ())))
        return order


def load_rbac(text: str, filename: str | None = None) -> RbacModel:
    """Parse a role-model file.

    One declaration per line, read by ``pal.declarations`` as a facts
    file is:

        op <id>
        cat <id>
        role <id> = <op>/<cat>[, <op>/<cat> ...]
        inherits <senior> <junior>
        user <id> = <role>[, <role> ...]

    Every declared ``<id>`` is a PAL identifier (``pal.is_identifier``),
    and no name is declared as two of op, cat, role and user: each
    becomes one PAL name. Errors give the line and, through
    ``errors.in_text``, name ``filename``.
    """
    operations: set[str] = set()
    categories: set[str] = set()
    roles: dict[str, frozenset[tuple[str, str]]] = {}
    hierarchy: set[tuple[str, str]] = set()
    users: dict[str, frozenset[str]] = {}
    lines: dict[tuple[str, ...], int] = {}

    with in_text(text, filename):
        for line_no, head, rest in pal.declarations(text):
            if head in ("op", "cat"):
                if len(pal.words(rest)) != 1:
                    raise RbacImportError(f"expected: {head} <id>", line_no)
                pal.declared_name(RbacImportError, line_no, rest, head)
                (operations if head == "op" else categories).add(rest)
                lines.setdefault((head, rest), line_no)
            elif head == "role":
                name, eq, perms = rest.partition("=")
                name = name.strip(pal.BLANKS)
                if not eq or not name:
                    raise RbacImportError("expected: role <id> = <op>/<cat>, ...", line_no)
                pal.declared_name(RbacImportError, line_no, name, "role", roles)
                pairs = set()
                for chunk in perms.split(","):
                    chunk = chunk.strip(pal.BLANKS)
                    if not chunk:
                        raise RbacImportError(f"role '{name}' has an empty permission", line_no)
                    op, slash, cat = chunk.partition("/")
                    op, cat = op.strip(pal.BLANKS), cat.strip(pal.BLANKS)
                    if not slash or not op or not cat:
                        raise RbacImportError(f"bad permission {chunk!r} (want op/cat)", line_no)
                    pairs.add((op, cat))
                roles[name] = frozenset(pairs)
                lines[("role", name)] = line_no
            elif head == "inherits":
                parts = pal.words(rest)
                if len(parts) != 2:
                    raise RbacImportError("expected: inherits <senior> <junior>", line_no)
                hierarchy.add((parts[0], parts[1]))
                lines.setdefault(("inherits", *parts), line_no)
            elif head == "user":
                name, eq, role_list = rest.partition("=")
                name = name.strip(pal.BLANKS)
                if not eq or not name:
                    raise RbacImportError("expected: user <id> = <role>, ...", line_no)
                pal.declared_name(RbacImportError, line_no, name, "user", users)
                names = [r.strip(pal.BLANKS) for r in role_list.split(",")]
                if not all(names):
                    raise RbacImportError(f"user '{name}' has an empty role reference", line_no)
                users[name] = frozenset(names)
                lines[("user", name)] = line_no
            else:
                raise RbacImportError(f"unknown declaration {head!r}", line_no)

        model = RbacModel(
            frozenset(operations),
            frozenset(categories),
            roles,
            frozenset(hierarchy),
            users,
            lines,
        )
        model.validate()
    return model


def import_rbac(model: RbacModel) -> pal.Program:
    """Emit a PAL program defining each role and each user as a privilege.

    Role bodies list inherited role names first, then own permissions as
    op/cat terms, all sorted; users compose their roles' names. A role
    with neither, or a user without roles, is defined as ``0``.
    """
    statements: list[pal.StatementNode] = []
    # Juniors first, so every referenced role name is already bound when
    # the emitted program loads front to back.
    for role in model.validate():
        terms: list[pal.ExprNode] = [
            pal.Name(junior) for junior in model._juniors.get(role, ())
        ]
        terms.extend(
            pal.Slash(pal.Name(op), (pal.Name(cat),))
            for op, cat in sorted(model.roles[role])
        )
        statements.append(pal.Define(role, pal.chain(pal.Sum, terms)))
    for user in sorted(model.users):
        roles = map(pal.Name, sorted(model.users[user]))
        statements.append(pal.Define(user, pal.chain(pal.Sum, roles)))
    return pal.Program((pal.Namespace("rbac", tuple(statements)),))


# --- queries -----------------------------------------------------------


@dataclass(frozen=True)
class EvalQuery:
    expr: str


@dataclass(frozen=True)
class NormalFormQuery:
    expr: str


@dataclass(frozen=True)
class EquivalenceQuery:
    left: str
    right: str


@dataclass(frozen=True)
class PulseQuery:
    expr: str
    fact: str


@dataclass(frozen=True)
class TraceQuery:
    expr: str
    facts: tuple[str, ...]


@dataclass(frozen=True)
class ComplianceQuery:
    holder: str
    target: str
    fact: str


Query = Union[
    EvalQuery, NormalFormQuery, EquivalenceQuery, PulseQuery, TraceQuery, ComplianceQuery
]


@dataclass
class QueryResult:
    text: str
    value: object


def build_environment(
    source: str | pal.Program,
    family: FactFamily | None = None,
    conditions: dict[str, Condition] | None = None,
    arrangement: str | None = None,
    merge_mode: ConditionMergeMode = ConditionMergeMode.INTERSECTION,
    namespace: str | None = None,
    filename: str | None = None,
) -> Environment:
    """Resolve one namespace of a program over facts and an arrangement.

    Inputs are read in one order, as the command line reads them: the
    program is parsed, then the arrangement; the program's names are
    resolved, so a clash or kind error in it comes first; then the
    arrangement is evaluated in a scope of the conditions and the
    namespace's final ``let`` membership over the empty basis, where a
    guard is a condition it carries. No definition is computed here:
    each is on its first read, so a query computes only the definitions
    its names depend on, and meets a fault of a value (a guard nested
    too deep through names) only there; ``read_all`` computes them all.
    ``filename`` names the program in its errors; the arrangement's
    errors name no file.
    """
    if isinstance(source, str):
        source = pal.parse_text(source, filename)
    # Until the arrangement is evaluated, the empty basis stands in for
    # it: binding a guard asks only whether there is one.
    basis = None if arrangement is None else Arrangement(())
    elements = None if arrangement is None else _sum_terms(pal.parse_expression(arrangement))
    env = Environment(family, conditions, basis, merge_mode)
    _resolve(source, env, namespace, filename)
    if elements is not None:
        with in_text(arrangement):
            scope = Environment(family, conditions, basis, merge_mode)
            scope.entities = env.entities
            # only a `let` gives a category members
            scope.categories = {c: members for c, members in env.categories.items() if members}
            # Here a privilege's name would be a function that overlaps
            # no atom of the program, and every guard would pass.
            for name in (n for e in elements for n in _walk(e) if isinstance(n, pal.Name)):
                if name.id in env._latest and not scope.kinds_of(name.id):
                    message = f"'{name.id}' is a privilege of the program"
                    raise ArrangementError(message, at=name.at)
            env.arrangement = load_arrangement(elements, scope)
    return env


def answer(query: Query, env: Environment) -> QueryResult:
    """Answer one query. Its expressions are text of their own, not part
    of a file, so errors in them carry no file name; each is read by
    ``eval_text``, so no answer depends on an earlier one. Every query
    but ``EvalQuery`` needs the arrangement, checked before any text is
    read. The answer's text is what ``pal`` prints, less the line feed."""
    if isinstance(query, EvalQuery):
        value = eval_text(query.expr, env)
        return QueryResult(value.text(), value)
    if env.arrangement is None:
        raise ResolutionError(
            "this query needs an arrangement "
            "(set Environment.arrangement, or pass --arrangement)"
        )
    if isinstance(query, NormalFormQuery):
        nf = normal_form(eval_text(query.expr, env), env.arrangement)
        return QueryResult(nf.render(), nf)
    if isinstance(query, EquivalenceQuery):
        eq = structural_eq(
            eval_text(query.left, env),
            eval_text(query.right, env),
            env.arrangement,
            env.family,
        )
        return QueryResult("equal" if eq else "different", eq)
    if isinstance(query, PulseQuery):
        form = pulse(eval_text(query.expr, env), env.arrangement, env.family.fact(query.fact))
        return QueryResult(form.render(), form)
    if isinstance(query, TraceQuery):
        matrix = trace(
            eval_text(query.expr, env),
            env.arrangement,
            [env.family.fact(fid) for fid in query.facts],
        )
        return QueryResult(matrix.to_csv().removesuffix("\n"), matrix)
    if isinstance(query, ComplianceQuery):
        verdict = compliant(
            eval_text(query.holder, env),
            eval_text(query.target, env),
            env.arrangement,
            env.family.fact(query.fact),
            env.merge_mode,
        )
        return QueryResult("compliant" if verdict else "non-compliant", verdict)
    raise TypeError(f"unknown query type: {query!r}")
