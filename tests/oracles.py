"""Independent reference computations the test suite checks against.

Everything here recomputes expected results from first principles by
enumeration over small finite universes, without touching the library's
normal-form machinery.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from privcalc import (
    Condition,
    ConditionMergeMode,
    Employment,
    Entity,
    EntitySet,
    Fact,
    FactFamily,
    HighOrderCondition,
    Privilege,
    PrivilegeAtom,
    RbacModel,
    Statement,
)
from privcalc.pal import (
    EOF,
    IDENT,
    MAX_NESTING,
    STRING,
    Define,
    ExprNode,
    Guard,
    LetIs,
    LexError,
    Name,
    Namespace,
    ParseError,
    Product,
    Program,
    Slash,
    StatementNode,
    Sum,
    Token,
)

Grant = tuple[str, str]


def employment_grants(
    emp: Employment, entity_universe: Iterable[Entity]
) -> frozenset[Grant]:
    """(function, entity) pairs an employment denotes over a universe."""
    members = emp.entities.members
    entities = list(entity_universe) if members is None else list(members)
    return frozenset((emp.function, e) for e in entities)


def employment_meet(m: Employment, n: Employment) -> Employment | None:
    """The employment of the grants ``m`` and ``n`` share, or None when
    they share none: the same function over the common members, where
    ``members is None`` is the universal set."""
    if m.function != n.function:
        return None
    a, b = m.entities.members, n.entities.members
    common = b if a is None else a if b is None else a & b
    if common is not None and not common:
        return None
    return Employment(m.function, EntitySet(common))


def set_grants(atoms, entity_universe) -> frozenset[Grant]:
    out: set[Grant] = set()
    for emp in atoms:
        out |= employment_grants(emp, entity_universe)
    return frozenset(out)


def privilege_grants(
    p: Privilege, entity_universe: Iterable[Entity], fact: Fact
) -> frozenset[Grant]:
    """Grants at a fact: atoms whose conditions all hold contribute."""
    universe = list(entity_universe)
    out: set[Grant] = set()
    for atom in p.atoms:
        if all(c.evaluate(fact) for c in atom.conditions):
            out |= employment_grants(atom.employment, universe)
    return frozenset(out)


def pairwise_merge(u: Privilege, v: Privilege, mode: ConditionMergeMode) -> Privilege:
    """Mergence by its definition: every atom of ``u`` against every atom
    of ``v``, keeping the pairs whose employments share a grant, over
    that shared employment, with the condition sets intersected or joined
    per ``mode``."""
    atoms = set()
    for a in u.atoms:
        for b in v.atoms:
            emp = employment_meet(a.employment, b.employment)
            if emp is None:
                continue
            if mode is ConditionMergeMode.INTERSECTION:
                atoms.add(PrivilegeAtom(emp, a.conditions & b.conditions))
            else:
                atoms.add(PrivilegeAtom(emp, a.conditions | b.conditions))
    return Privilege(frozenset(atoms))


def pairwise_normal_form(
    p: Privilege, basis: Sequence[Employment]
) -> list[list[frozenset[Condition]]]:
    """Per basis element, the condition sets of the atoms whose
    employment shares a grant with it: the dense definition of the
    normal form, every element against every atom, before constant
    folding."""
    return [
        [a.conditions for a in p.atoms if employment_meet(a.employment, m) is not None]
        for m in basis
    ]


def pointwise_holds(condition: Condition, fact: Fact) -> bool:
    """Whether a condition holds at a fact, with no mask: a guard by the
    dense pulses of its operands at the fact, from ``pairwise_merge`` and
    ``pairwise_normal_form`` over its arrangement's basis, its nested
    guards likewise; any other condition by ``evaluate``."""
    if not isinstance(condition, HighOrderCondition):
        return condition.evaluate(fact)
    right = condition.right
    left = condition.left
    if condition.op == "<:":
        left = pairwise_merge(left, right, condition.mode)
    return pointwise_pulse(left, condition.arrangement.basis, fact) == pointwise_pulse(
        right, condition.arrangement.basis, fact
    )


def pointwise_pulse(p: Privilege, basis: Sequence[Employment], fact: Fact) -> list[bool]:
    """Per basis element, whether some atom over it has all of its
    conditions holding at the fact, by ``pointwise_holds``."""
    return [
        any(all(pointwise_holds(c, fact) for c in conditions) for conditions in element)
        for element in pairwise_normal_form(p, basis)
    ]


def pairwise_disjoint(basis: Sequence[Employment]) -> bool:
    """Every element denotes some grant, and no two elements are equal
    or share a grant."""
    for i, m in enumerate(basis):
        if m.entities.members is not None and not m.entities.members:
            return False
        for n in basis[i + 1 :]:
            if m == n or employment_meet(m, n) is not None:
                return False
    return True


def closure_masks(generators: Iterable[int], n: int) -> frozenset[int]:
    """Close bitmask subsets of an n-statement universe under union and
    intersection, always including the empty set and the full universe."""
    full = (1 << n) - 1
    sets = {0, full} | set(generators)
    changed = True
    while changed:
        changed = False
        current = list(sets)
        for i, a in enumerate(current):
            for b in current[i:]:
                for c in (a | b, a & b):
                    if c not in sets:
                        sets.add(c)
                        changed = True
    return frozenset(sets)


def is_closed_mask_family(family: frozenset[int], n: int) -> bool:
    full = (1 << n) - 1
    if 0 not in family or full not in family:
        return False
    items = list(family)
    for i, a in enumerate(items):
        for b in items[i:]:
            if (a | b) not in family or (a & b) not in family:
                return False
    return True


def all_closed_mask_families(n: int) -> list[frozenset[int]]:
    """Every family over an n-statement universe that a generator set can
    close to; equivalently every union- and intersection-closed
    collection of subsets containing the empty set and the universe."""
    full = (1 << n) - 1
    out = []
    for encoded in range(1 << (1 << n)):
        if not (encoded & 1) or not (encoded >> full) & 1:
            continue  # must contain the empty set and the universe
        family = frozenset(m for m in range(full + 1) if (encoded >> m) & 1)
        if is_closed_mask_family(family, n):
            out.append(family)
    return out


def axiom_violations(condition: Condition, family: FactFamily) -> list[tuple[Fact, Fact]]:
    """The disjoint pairs of facts of a closed family at which the
    disjoint-union axiom r(x1 | x2) = r(x1) or r(x2) fails."""
    facts = family.facts
    by_set = {f.statements: f for f in facts}
    return [
        (x1, x2)
        for i, x1 in enumerate(facts)
        for x2 in facts[i:]
        if not x1.statements & x2.statements
        and condition.evaluate(by_set[x1.statements | x2.statements])
        != (condition.evaluate(x1) or condition.evaluate(x2))
    ]


def evidence_sets(condition: Condition, family: FactFamily) -> frozenset[frozenset[Statement]]:
    return frozenset(f.statements for f in family if condition.evaluate(f))


def minimal_evidence_sets(
    condition: Condition, family: FactFamily
) -> frozenset[frozenset[Statement]]:
    """Brute-force search for inclusion-minimal evidences."""
    found = evidence_sets(condition, family)
    return frozenset(x for x in found if not any(y < x for y in found))


def rbac_role_grants(model: RbacModel) -> dict[str, frozenset[tuple[str, str]]]:
    """Per role, every (op, cat) grant through the hierarchy's
    transitive closure."""
    juniors: dict[str, set[str]] = {}
    for senior, junior in model.hierarchy:
        juniors.setdefault(senior, set()).add(junior)

    def grants(role: str, seen: frozenset[str]) -> frozenset[tuple[str, str]]:
        out = set(model.roles[role])
        for junior in juniors.get(role, ()):
            if junior not in seen:
                out |= grants(junior, seen | {junior})
        return frozenset(out)

    return {role: grants(role, frozenset({role})) for role in model.roles}


# --- PAL tokens ------------------------------------------------------------------

_PAL_SPELLINGS = {
    "namespace", "let", "is", ":=", "<:", "+", "*", "/", "(", ")", "{", "}", "[", "]", "~"
}


def _is_word_char(ch: str) -> bool:
    return ch.isascii() and (ch.isalnum() or ch == "_")


def reference_tokens(source: str) -> list[tuple[Token, tuple[int, int]]]:
    """PAL's tokens by a scan one character at a time, each with the
    line and column the scan counted for it: blanks (space, tab,
    carriage return), newlines and ``#`` comments separate tokens; a
    word is an ASCII letter then ASCII letters, digits and underscores;
    ``0`` is a token when no such character follows it; a string runs
    between two '"' on one line. A token's offset is that of its first
    character. Any other character raises ``LexError`` at its own
    offset, line and column."""
    tokens: list[tuple[Token, tuple[int, int]]] = []
    i, line, column = 0, 1, 1

    def emit(kind: str, text: str) -> None:
        tokens.append((Token(kind, text, i), (line, column)))

    while i < len(source):
        ch = source[i]
        if ch == "\n":
            i, line, column = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, column = i + 1, column + 1
            continue
        if ch == "#":
            end = source.find("\n", i)
            end = len(source) if end < 0 else end
            i, column = end, column + end - i
            continue
        end = i + 1
        if ch.isascii() and ch.isalpha():
            while end < len(source) and _is_word_char(source[end]):
                end += 1
            word = source[i:end]
            emit(word if word in _PAL_SPELLINGS else IDENT, word)
        elif ch == "0" and not (end < len(source) and _is_word_char(source[end])):
            emit("0", ch)
        elif ch == '"':
            while end < len(source) and source[end] not in '"\n':
                end += 1
            if end == len(source) or source[end] == "\n":
                raise LexError("unterminated string", line, column, at=i)
            end += 1
            emit(STRING, source[i + 1 : end - 1])
        elif source[i : i + 2] in (":=", "<:"):
            end = i + 2
            emit(source[i:end], source[i:end])
        elif ch in _PAL_SPELLINGS:
            emit(ch, ch)
        else:
            raise LexError(f"unexpected character {ch!r}", line, column, at=i)
        i, column = end, column + end - i
    emit(EOF, "")
    return tokens


# --- PAL trees ---------------------------------------------------------------------


def reference_parse(source: str, expression: bool = False) -> Program | ExprNode:
    """PAL's tree of ``source`` by a recursive-descent parser that reads
    one ``Token`` at a time, one method per grammar rule, from
    ``reference_tokens``: a whole program, or with ``expression`` one
    expression that must end the text. A ``ParseError`` is placed at its
    token's offset, line and column as the reference lexer counted them;
    a ``LexError`` is the reference lexer's."""
    scanned = reference_tokens(source)
    parser = _Parser([tok for tok, _ in scanned])
    try:
        if not expression:
            return Program(parser.namespaces(), source)
        node = parser.expr()
        if parser.tokens[parser.pos].kind != EOF:
            parser.fail(EOF)
        return node
    except ParseError as exc:
        exc.line, exc.column = dict((tok.at, place) for tok, place in scanned)[exc.at]
        raise


_SPELLINGS = _PAL_SPELLINGS | {"0"}  # the kinds an error message quotes


class _Parser:
    """Reads ``tokens[pos]`` directly. Every token list ends in the EOF
    token, which is never consumed, so ``pos`` always indexes a token."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # "(" and "[" open around the current token

    def expect(self, *kinds: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind not in kinds:
            self.fail(*kinds)
        self.pos += 1
        return tok

    def fail(self, *kinds: str):
        tok = self.tokens[self.pos]
        names = sorted(f"'{k}'" if k in _SPELLINGS else k for k in kinds)
        found = EOF if tok.kind == EOF else f"'{tok.text}'"
        raise ParseError(f"expected {' or '.join(names)}, found {found}", at=tok.at)

    # program := namespace*
    def namespaces(self) -> tuple[Namespace, ...]:
        namespaces: list[Namespace] = []
        seen: set[str] = set()
        while (tok := self.tokens[self.pos]).kind != EOF:
            ns = self.namespace()
            if ns.name in seen:
                raise ParseError(f'duplicate namespace "{ns.name}"', at=tok.at)
            seen.add(ns.name)
            namespaces.append(ns)
        return tuple(namespaces)

    def namespace(self) -> Namespace:
        self.expect("namespace")
        name = self.expect(STRING).text
        self.expect("{")
        statements: list[StatementNode] = []
        while self.tokens[self.pos].kind != "}":
            statements.append(self.statement())
        self.expect("}")
        return Namespace(name, tuple(statements))

    def statement(self) -> StatementNode:
        tok = self.tokens[self.pos]
        if tok.kind == "let":
            self.pos += 1
            entity = self.expect(IDENT).text
            self.expect("is")
            category = self.expect(IDENT).text
            return LetIs(entity, category, tok.at)
        if tok.kind == IDENT:
            self.pos += 1
            self.expect(":=")
            return Define(tok.text, self.expr(), tok.at)
        self.fail("let", IDENT, "}")
        raise AssertionError("unreachable")

    def expr(self) -> ExprNode:
        """A sum of products, each chain built once from a loop."""
        tokens, terms = self.tokens, []
        while True:
            factors = [self.primary()]
            while tokens[self.pos].kind == "*":
                self.pos += 1
                factors.append(self.primary())
            terms.append(Product(tuple(factors)) if len(factors) > 1 else factors[0])
            if tokens[self.pos].kind != "+":
                return Sum(tuple(terms)) if len(terms) > 1 else terms[0]
            self.pos += 1

    def primary(self) -> ExprNode:
        tokens = self.tokens
        kind, text, at = tokens[self.pos]
        if kind == IDENT or kind == "0":
            self.pos += 1
            node: ExprNode = Name(text, at)
        else:
            if kind != "(" and kind != "[":
                self.fail(IDENT, "0", "(", "[")
            if self.depth == MAX_NESTING:
                raise ParseError(f"'{text}' nested more than {MAX_NESTING} deep", at=at)
            self.pos += 1
            self.depth += 1
            node = self.expr()
            if kind == "(":
                self.expect(")")
            else:
                op = self.expect("<:", "~").text
                node = Guard(op, node, self.expr(), at)
                self.expect("]")
            self.depth -= 1
        if tokens[self.pos].kind != "/":
            return node
        scopes: list[Name] = []
        while tokens[self.pos].kind == "/":
            self.pos += 1
            scope = self.expect(IDENT)
            scopes.append(Name(scope.text, scope.at))
        return Slash(node, tuple(scopes))
