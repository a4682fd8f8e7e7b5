"""Name resolution and evaluation of PAL programs.

Names are bound by kind: function, entity, category or privilege. Kind
is fixed by first use, except that one name may carry an entity and a
privilege binding at once (an object may be restricted over with ``/``
and also be defined as a privilege). Bare names in expressions become
function symbols on first use; ``let`` introduces entities and
categories; ``:=`` binds privileges, and rebinding wins with a warning.
Evaluated privileges are snapshots: later rebindings or category growth
never change them.

Guards need an arrangement to project onto, so expressions containing
``[p <: q]`` or ``[u ~ v]`` require ``Environment.arrangement`` to be
set before evaluation. Inside a product, a guard hands its condition to
the other operand's atoms; a bare guard becomes an atom over the
reserved function ``guard``, a name no program can rebind. Names bound
to conditions (loaded from a facts file) work the same way:
``read * logged`` attaches the condition to the atoms of ``read``.

Also here: the role-model importer (``load_rbac`` / ``import_rbac``),
and the environment set-up and query dispatch (``build_environment`` /
``answer``) that the command line uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from . import pal
from .algebra import Employment, Entity, EntitySet, FunctionSymbol, UNIVERSAL
from .errors import PrivCalcError, SourceError
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
    "GUARD_FUNCTION",
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
    "eval_expr",
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

    Built statement by statement by ``load_program``; treat it as
    read-only afterwards. The default fact family is the trivial one
    (a single empty fact), enough for unconditioned privileges.
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
        self.functions: dict[str, FunctionSymbol] = {"guard": GUARD_FUNCTION}
        self.entities: dict[str, Entity] = {}
        # A category's membership only ever grows; ``/`` takes a snapshot.
        self.categories: dict[str, set[Entity]] = {}
        self.privileges: dict[str, Privilege] = {}
        self.family = family if family is not None else close_family((), ())
        self.conditions: dict[str, Condition] = dict(conditions or {})
        self.arrangement = arrangement
        self.merge_mode = merge_mode
        self.warnings: list[str] = []

    def kinds_of(self, name: str) -> list[str]:
        kinds = []
        if name in self.functions:
            kinds.append("function")
        if name in self.entities:
            kinds.append("entity")
        if name in self.categories:
            kinds.append("category")
        if name in self.privileges:
            kinds.append("privilege")
        return kinds


def _pick_namespace(
    program: pal.Program, namespace: str | None, filename: str | None
) -> pal.Namespace:
    if not program.namespaces:
        raise ResolutionError("program has no namespaces", filename=filename)
    if namespace is None:
        if len(program.namespaces) > 1:
            names = ", ".join(f'"{ns.name}"' for ns in program.namespaces)
            raise ResolutionError(
                f"program defines several namespaces ({names}); pick one",
                filename=filename,
            )
        return program.namespaces[0]
    for ns in program.namespaces:
        if ns.name == namespace:
            return ns
    raise ResolutionError(f'no namespace "{namespace}" in program', filename=filename)


def load_program(
    program: pal.Program,
    env: Environment | None = None,
    namespace: str | None = None,
    filename: str | None = None,
) -> Environment:
    """Process one namespace's statements, in order, into an environment.

    ``namespace`` selects among several; a single-namespace program
    needs no selector. Namespaces are isolated scopes: nothing defined
    in one is visible from another.
    """
    block = _pick_namespace(program, namespace, filename)
    if env is None:
        env = Environment()
    for stmt in block.statements:
        if isinstance(stmt, pal.LetIs):
            _load_let(stmt, env, filename)
        else:
            _load_define(stmt, env, filename)
    return env


def _clash(
    name: str, kinds: set[str], wanted: str, stmt, filename: str | None
) -> ResolutionError:
    kind = sorted(kinds)[0]
    return ResolutionError(
        f"'{name}' is already a {kind}, cannot use it as {wanted}",
        line=getattr(stmt, "line", None),
        column=getattr(stmt, "column", None),
        filename=filename,
    )


def _load_let(stmt: pal.LetIs, env: Environment, filename: str | None) -> None:
    bad = {"function", "category"} & set(env.kinds_of(stmt.entity))
    if bad:
        raise _clash(stmt.entity, bad, "an entity", stmt, filename)
    bad = {"function", "entity", "privilege"} & set(env.kinds_of(stmt.category))
    if bad:
        raise _clash(stmt.category, bad, "a category", stmt, filename)
    _add_member(stmt, env)


def _add_member(stmt: pal.LetIs, env: Environment) -> None:
    entity = env.entities.setdefault(stmt.entity, Entity(stmt.entity))
    env.categories.setdefault(stmt.category, set()).add(entity)


def _load_define(stmt: pal.Define, env: Environment, filename: str | None) -> None:
    value = eval_expr(stmt.body, env, filename)
    bad = {"function", "category"} & set(env.kinds_of(stmt.name))
    if bad:
        raise _clash(stmt.name, bad, "a privilege", stmt, filename)
    if stmt.name in env.privileges:
        env.warnings.append(
            f"line {stmt.line}: redefinition of '{stmt.name}' (latest wins)"
        )
    env.privileges[stmt.name] = value


def eval_expr(
    node: pal.ExprNode, env: Environment, filename: str | None = None
) -> Privilege:
    """Evaluate an expression to a privilege value (a snapshot)."""
    if isinstance(node, pal.Name):
        return _eval_name(node, env, filename)
    if isinstance(node, pal.Sum):
        value = eval_expr(node.operands[0], env, filename)
        for operand in node.operands[1:]:
            value = compose(value, eval_expr(operand, env, filename))
        return value
    if isinstance(node, pal.Product):
        return _eval_product(node.operands, env, filename)
    if isinstance(node, pal.Slash):
        value = eval_expr(node.operand, env, filename)
        for scope in node.scopes:
            value = value.restricted(_resolve_scope(scope, env, filename))
        return value
    if isinstance(node, pal.Guard):
        condition = _guard_condition(node, env, filename)
        return Privilege.single(Employment(GUARD_FUNCTION, UNIVERSAL), [condition])
    raise TypeError(f"not an expression node: {node!r}")


def eval_text(source: str, env: Environment, filename: str | None = None) -> Privilege:
    """Parse and evaluate one expression against an environment."""
    return eval_expr(pal.parse_expression(source, filename), env, filename)


def _eval_name(node: pal.Name, env: Environment, filename: str | None) -> Privilege:
    if node.id in env.privileges:
        return env.privileges[node.id]
    if node.id == "0":
        return Privilege()
    kinds = env.kinds_of(node.id)
    if "entity" in kinds or "category" in kinds:
        article = "an entity" if "entity" in kinds else "a category"
        raise ResolutionError(
            f"'{node.id}' is {article} and has no privilege value",
            line=node.line,
            column=node.column,
            filename=filename,
        )
    if node.id in env.conditions:
        raise ResolutionError(
            f"'{node.id}' is a condition; attach it with '*'",
            line=node.line,
            column=node.column,
            filename=filename,
        )
    fn = env.functions.setdefault(node.id, FunctionSymbol(node.id))
    return Privilege.single(Employment(fn, UNIVERSAL))


def _named_condition(node: pal.ExprNode, env: Environment) -> Condition | None:
    # A privilege binding shadows a same-named condition.
    if isinstance(node, pal.Name) and node.id not in env.privileges:
        return env.conditions.get(node.id)
    return None


def _is_condition(node: pal.ExprNode, env: Environment) -> bool:
    return isinstance(node, pal.Guard) or _named_condition(node, env) is not None


def _operand_condition(
    node: pal.ExprNode, env: Environment, filename: str | None
) -> Condition:
    if isinstance(node, pal.Guard):
        return _guard_condition(node, env, filename)
    return _named_condition(node, env)


def _eval_product(
    factors: tuple[pal.ExprNode, ...], env: Environment, filename: str | None
) -> Privilege:
    # Left to right. A guard or condition operand hands its condition to
    # the other side's atoms instead of merging as a separate atom; a
    # leading one goes to the second factor, after that factor is
    # evaluated.
    first, second, *rest = factors
    if _is_condition(first, env) and not _is_condition(second, env):
        first, second = second, first
    value = eval_expr(first, env, filename)
    for factor in (second, *rest):
        if _is_condition(factor, env):
            value = value.with_condition(_operand_condition(factor, env, filename))
        else:
            value = merge(value, eval_expr(factor, env, filename), env.merge_mode)
    return value


def _resolve_scope(
    scope: pal.Name, env: Environment, filename: str | None
) -> EntitySet:
    name = scope.id
    if name in env.categories:
        return EntitySet.finite(env.categories[name], label=name)
    if name in env.entities:
        return EntitySet.finite([env.entities[name]])
    kinds = env.kinds_of(name)
    if kinds:
        raise ResolutionError(
            f"'{name}' is a {kinds[0]}; '/' needs a category or an entity",
            line=scope.line,
            column=scope.column,
            filename=filename,
        )
    # Unknown scope: start an empty category, to be populated by later
    # let declarations (or left empty, restricting everything away).
    return EntitySet.finite(env.categories.setdefault(name, set()), label=name)


def _guard_condition(
    node: pal.Guard, env: Environment, filename: str | None
) -> Condition:
    if env.arrangement is None:
        raise ResolutionError(
            "guard expressions need an arrangement in scope "
            "(set one before loading, or pass --arrangement)",
            line=node.line,
            column=node.column,
            filename=filename,
        )
    left = eval_expr(node.left, env, filename)
    right = eval_expr(node.right, env, filename)
    if node.op is pal.GuardOp.COMPLIANCE:
        return compliance_condition(left, right, env.arrangement, env.merge_mode)
    return congruence_condition(left, right, env.arrangement)


def load_arrangement(
    exprs: Sequence[pal.ExprNode], env: Environment, filename: str | None = None
) -> Arrangement:
    """Evaluate basis expressions and flatten their atoms, in order.

    Atoms must be unconditioned and the collected basis pairwise
    merge-disjoint; within one expression the atoms are taken in
    canonical order. An expression that evaluates to nothing is an
    error at its first name.
    """
    basis: list[Employment] = []
    for node in exprs:
        value = eval_expr(node, env, filename)
        first = node  # the element's first name or guard, for its position
        while isinstance(first, (pal.Sum, pal.Product, pal.Slash)):
            first = first.operand if isinstance(first, pal.Slash) else first.operands[0]
        if value.is_empty:
            message = f"arrangement element '{pal.format_expr(node)}' is empty"
            raise ArrangementError(message, first.line, first.column, filename)
        for atom in value.sorted_atoms():
            if atom.conditions:
                message = f"arrangement element {atom.employment.render()} carries conditions"
                raise ArrangementError(message, first.line, first.column, filename)
            basis.append(atom.employment)
    return Arrangement(tuple(basis))


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


def _names(node: pal.ExprNode) -> list[pal.Name]:
    """Every ``Name`` in an expression, scopes and guard operands included."""
    names: list[pal.Name] = []
    pending = [node]
    while pending:
        node = pending.pop()
        if isinstance(node, pal.Name):
            names.append(node)
        elif isinstance(node, pal.Slash):
            names += node.scopes
            pending.append(node.operand)
        else:
            pending += (node.left, node.right) if isinstance(node, pal.Guard) else node.operands
    return names


def arrangement_from_text(
    text: str, env: Environment, filename: str | None = None
) -> Arrangement:
    """Parse "m1 + m2 + ..." and load it as an arrangement.

    The text is evaluated in ``env`` itself, so its new names bind there;
    ``build_environment`` gives the arrangement a scope of its own.
    """
    expr = pal.parse_expression(text, filename)
    return load_arrangement(_sum_terms(expr), env, filename)


# --- role-model import -------------------------------------------------


@dataclass
class RbacModel:
    """Operations, categories, roles with permissions, a role hierarchy
    (senior inherits junior), and user-role assignments.

    ``load_rbac`` also records the file and the line of each declaration,
    keyed ``(kind, name)`` or ``("inherits", senior, junior)``, so that
    ``validate`` can place its errors; a model built by hand has none.
    """

    operations: frozenset[str] = frozenset()
    categories: frozenset[str] = frozenset()
    roles: dict[str, frozenset[tuple[str, str]]] = field(default_factory=dict)
    hierarchy: frozenset[tuple[str, str]] = frozenset()
    users: dict[str, frozenset[str]] = field(default_factory=dict)
    lines: dict[tuple[str, ...], int] = field(default_factory=dict, repr=False, compare=False)
    filename: str | None = field(default=None, repr=False, compare=False)
    # senior -> its direct juniors, sorted; built once from ``hierarchy``
    _juniors: dict[str, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._juniors = {}
        for senior, junior in sorted(self.hierarchy):
            self._juniors.setdefault(senior, []).append(junior)

    def _error(self, message: str, line: int | None) -> RbacImportError:
        return RbacImportError(message, line=line, filename=self.filename)

    def validate(self) -> None:
        for role, perms in self.roles.items():
            line = self.lines.get(("role", role))
            for op, cat in perms:
                if op not in self.operations:
                    raise self._error(f"role '{role}' uses undeclared operation '{op}'", line)
                if cat not in self.categories:
                    raise self._error(f"role '{role}' uses undeclared category '{cat}'", line)
        for senior, junior in sorted(self.hierarchy):
            for role in (senior, junior):
                if role not in self.roles:
                    line = self.lines.get(("inherits", senior, junior))
                    raise self._error(f"hierarchy references unknown role '{role}'", line)
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
                    raise self._error(message, max(filter(None, lines), default=None))
        for user, roles in self.users.items():
            for role in roles:
                if role not in self.roles:
                    message = f"user '{user}' references unknown role '{role}'"
                    raise self._error(message, self.lines.get(("user", user)))
        self._juniors_first()

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
                    raise self._error(
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

    One declaration per line, ``#`` comments:

        op <id>
        cat <id>
        role <id> = <op>/<cat>[, <op>/<cat> ...]
        inherits <senior> <junior>
        user <id> = <role>[, <role> ...]

    Every declared ``<id>`` is a PAL identifier (``pal.is_identifier``),
    and no name is declared as two of op, cat, role and user: each
    becomes one PAL name.
    """
    operations: set[str] = set()
    categories: set[str] = set()
    roles: dict[str, frozenset[tuple[str, str]]] = {}
    hierarchy: set[tuple[str, str]] = set()
    users: dict[str, frozenset[str]] = {}
    lines: dict[tuple[str, ...], int] = {}

    def err(line_no: int, message: str) -> RbacImportError:
        return RbacImportError(message, line=line_no, filename=filename)

    def ident(line_no: int, name: str, kind: str) -> str:
        if not pal.is_identifier(name):
            raise err(line_no, f"invalid {kind} name '{name}'")
        return name

    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("op", "cat"):
            if not rest or " " in rest:
                raise err(line_no, f"expected: {head} <id>")
            (operations if head == "op" else categories).add(ident(line_no, rest, head))
            lines.setdefault((head, rest), line_no)
        elif head == "role":
            name, eq, perms = rest.partition("=")
            name = name.strip()
            if not eq or not name:
                raise err(line_no, "expected: role <id> = <op>/<cat>, ...")
            ident(line_no, name, "role")
            if name in roles:
                raise err(line_no, f"duplicate role '{name}'")
            pairs = set()
            for chunk in perms.split(","):
                chunk = chunk.strip()
                if not chunk:
                    raise err(line_no, f"role '{name}' has an empty permission")
                op, slash, cat = chunk.partition("/")
                if not slash or not op.strip() or not cat.strip():
                    raise err(line_no, f"bad permission '{chunk}' (want op/cat)")
                pairs.add((op.strip(), cat.strip()))
            roles[name] = frozenset(pairs)
            lines[("role", name)] = line_no
        elif head == "inherits":
            parts = rest.split()
            if len(parts) != 2:
                raise err(line_no, "expected: inherits <senior> <junior>")
            hierarchy.add((parts[0], parts[1]))
            lines.setdefault(("inherits", *parts), line_no)
        elif head == "user":
            name, eq, role_list = rest.partition("=")
            name = name.strip()
            if not eq or not name:
                raise err(line_no, "expected: user <id> = <role>, ...")
            ident(line_no, name, "user")
            if name in users:
                raise err(line_no, f"duplicate user '{name}'")
            names = [r.strip() for r in role_list.split(",")]
            if not all(names):
                raise err(line_no, f"user '{name}' has an empty role reference")
            users[name] = frozenset(names)
            lines[("user", name)] = line_no
        else:
            raise err(line_no, f"unknown declaration '{head}'")

    model = RbacModel(
        frozenset(operations),
        frozenset(categories),
        roles,
        frozenset(hierarchy),
        users,
        lines,
        filename,
    )
    model.validate()
    return model


def import_rbac(model: RbacModel) -> pal.Program:
    """Emit a PAL program defining each role and each user as a privilege.

    Role bodies list inherited role names first, then own permissions as
    op/cat terms, all sorted; users compose their roles' names. A role
    with neither, or a user without roles, is defined as ``0``.
    """
    model.validate()
    statements: list[pal.StatementNode] = []
    # Juniors first, so every referenced role name is already bound when
    # the emitted program loads front to back.
    for role in model._juniors_first():
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
    query: Query
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
    """Load one namespace of a program over facts and an arrangement.

    The arrangement is parsed first, then evaluated after the program
    parses, in a scope of the conditions and the namespace's final
    ``let`` membership: its names never bind in the program, and a
    fault of the program is reported before its own. ``filename``
    labels the program.
    """
    if arrangement is not None:
        elements = _sum_terms(pal.parse_expression(arrangement))
    if isinstance(source, str):
        source = pal.parse_text(source, filename)
    env = Environment(family=family, conditions=conditions, merge_mode=merge_mode)
    if arrangement is not None:
        try:
            scope = Environment(family, conditions, merge_mode=merge_mode)
            defined = set()
            for stmt in _pick_namespace(source, namespace, filename).statements:
                if isinstance(stmt, pal.LetIs):
                    _add_member(stmt, scope)
                else:
                    defined.add(stmt.name)
            # Here a privilege's name would be a function that overlaps
            # no atom of the program, and every guard would pass.
            names = [name for element in elements for name in _names(element)]
            clashes = [n for n in names if n.id in defined and not scope.kinds_of(n.id)]
            if clashes:
                first = min(clashes, key=lambda n: (n.line, n.column))
                message = f"'{first.id}' is a privilege of the program"
                raise ArrangementError(message, first.line, first.column)
            env.arrangement = load_arrangement(elements, scope)
        except PrivCalcError:
            # The program's own fault, found over an empty basis, first.
            probe = Environment(family, conditions, Arrangement(()), merge_mode)
            load_program(source, probe, namespace=namespace, filename=filename)
            raise
    return load_program(source, env, namespace=namespace, filename=filename)


def _need_arrangement(env: Environment) -> Arrangement:
    if env.arrangement is None:
        raise ResolutionError(
            "this query needs an arrangement "
            "(set Environment.arrangement, or pass --arrangement)"
        )
    return env.arrangement


def answer(query: Query, env: Environment) -> QueryResult:
    """Answer one query. Its expressions are text of their own, not part
    of a file, so errors in them carry no file name."""
    if isinstance(query, EvalQuery):
        value = eval_text(query.expr, env)
        return QueryResult(query, value.text(), value)
    if isinstance(query, NormalFormQuery):
        nf = normal_form(eval_text(query.expr, env), _need_arrangement(env))
        return QueryResult(query, nf.render(), nf)
    if isinstance(query, EquivalenceQuery):
        eq = structural_eq(
            eval_text(query.left, env),
            eval_text(query.right, env),
            _need_arrangement(env),
            env.family,
        )
        return QueryResult(query, "equal" if eq else "different", eq)
    if isinstance(query, PulseQuery):
        form = pulse(
            eval_text(query.expr, env),
            _need_arrangement(env),
            env.family.fact(query.fact),
        )
        return QueryResult(query, form.render(), form)
    if isinstance(query, TraceQuery):
        matrix = trace(
            eval_text(query.expr, env),
            _need_arrangement(env),
            [env.family.fact(fid) for fid in query.facts],
        )
        return QueryResult(query, matrix.to_csv(), matrix)
    if isinstance(query, ComplianceQuery):
        verdict = compliant(
            eval_text(query.holder, env),
            eval_text(query.target, env),
            _need_arrangement(env),
            env.family.fact(query.fact),
            env.merge_mode,
        )
        return QueryResult(query, "compliant" if verdict else "non-compliant", verdict)
    raise TypeError(f"unknown query type: {query!r}")
