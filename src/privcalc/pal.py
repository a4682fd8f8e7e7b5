"""PAL: tokens, recursive-descent parser, AST, canonical formatter.

Grammar:

    program   := namespace*
    namespace := "namespace" STRING "{" stmt* "}"
    stmt      := "let" IDENT "is" IDENT
               | IDENT ":=" expr
    expr      := term ("+" term)*
    term      := primary ("*" primary)*
    primary   := (IDENT | "0"
                 | "(" expr ")"
                 | "[" expr ("<:" | "~") expr "]") ("/" IDENT)*

Identifiers are an ASCII letter followed by ASCII letters, digits or
underscores, keywords excepted (``is_identifier``). ``0`` is the empty
privilege; it cannot be bound, and a word character right after it is a
lexer error, as any other digit is. ``#`` starts a comment running to
end of line; blanks (space, tab, carriage return) and newlines (line
feeds only) are otherwise insignificant. Facts and RBAC files are split
into lines and words by the same rule (``declarations``). ``/`` binds
tighter than ``*``, which binds tighter than ``+``. Each run of one
operator is one node holding its operands, read left to right: ``Sum``
and ``Product`` hold two or more, ``Slash`` one operand and its scopes.
Parentheses are kept as nesting, so ``(a * b) * c`` is a product inside
a product. The bracket form denotes a guard: ``<:`` for compliance,
``~`` for congruence.

``format_program(parse_text(text))`` is the canonical spelling of
``text``, and ``format_expr`` that of an expression; formatting then
parsing returns an equal tree (node equality ignores source positions).

A token's kind is its spelling for a keyword or punctuation (``"let"``,
``":="``, ``"0"``), and otherwise ``IDENT``, ``STRING`` or ``EOF``. A
token or node holds its source position as one character offset,
``at``. The reader of a text counts the line and column of an offset
only for an error that leaves it (``errors.in_text``), and the engine
only for a warning.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Container, Iterable, Iterator, NamedTuple, Union

from .errors import SourceError, in_text, line_starts

__all__ = [
    "BLANKS",
    "Define",
    "EOF",
    "ExprNode",
    "Guard",
    "IDENT",
    "LetIs",
    "LexError",
    "MAX_NESTING",
    "Name",
    "Namespace",
    "ParseError",
    "Product",
    "Program",
    "STRING",
    "Slash",
    "StatementNode",
    "Sum",
    "Token",
    "chain",
    "declarations",
    "declared_name",
    "format_expr",
    "format_program",
    "is_identifier",
    "parse_expression",
    "parse_text",
    "tokenize",
    "words",
]


class LexError(SourceError):
    """The input contains a character no token starts with."""


class ParseError(SourceError):
    """The token stream does not match the grammar."""


# A keyword or punctuation token's kind is its spelling (``_SPELLINGS``);
# the other kinds are named as an error message prints them.
IDENT, STRING, EOF = "identifier", "string", "end of input"
_SPELLINGS = frozenset("namespace let is := + * / ( ) { } [ ] <: ~ 0".split())


class Token(NamedTuple):
    kind: str  # a spelling, IDENT, STRING or EOF
    text: str
    at: int  # offset of the first character in the source text


# The characters that separate words in PAL, facts and RBAC files. Only
# "\n" ends a line: other Unicode breaks and spaces are characters.
BLANKS = " \t\r"
_NON_BLANKS = re.compile(f"[^{BLANKS}]+")
# ASCII only, unlike \w. Each match takes the blanks, newlines and
# comments before a token (group 1, possessive, so a long run is never
# backtracked into) and then one of: a word or operator (2), a string's
# body (3), an unpaired '"' (4), any other character (5) or the end of
# the input (none). A "0" is a token only when no word character follows.
_WORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN = re.compile(
    rf"((?:[{BLANKS}\n]+|#[^\n]*)*+)"
    rf"(?:({_WORD.pattern}|0(?![A-Za-z0-9_])|:=|<:|[+*/(){{}}\[\]~])|\"([^\"\n]*)\"|(\")|(.)|\Z)"
)


def is_identifier(text: str) -> bool:
    """A name PAL can bind: a word that is neither a keyword nor
    ``guard``, the function of bare guards. Facts and RBAC files name
    things by the same rule."""
    return _WORD.fullmatch(text) is not None and text not in _SPELLINGS and text != "guard"


def declared_name(
    error: type[SourceError], line: int, name: str, kind: str, taken: Container[str] = ()
) -> str:
    """``name`` as a facts or RBAC file declares a ``kind`` at ``line``:
    an identifier not in ``taken``, or else an ``error`` at the line."""
    if not is_identifier(name):
        raise error(f"invalid {kind} name {name!r}", line)
    if name in taken:
        raise error(f"duplicate {kind} '{name}'", line)
    return name


def words(text: str) -> list[str]:
    """The runs of non-blanks in ``text``, in order."""
    return _NON_BLANKS.findall(text)


def declarations(text: str) -> Iterator[tuple[int, str, str]]:
    """The lines of a facts or RBAC file that hold a declaration, as
    (line number, first word, the rest with blanks trimmed). A line ends
    at a line feed, and ``#`` starts a comment running to its end, as in
    PAL."""
    for line_no, line in enumerate(text.split("\n"), 1):
        line = line.partition("#")[0].strip(BLANKS)
        if line:
            head = _NON_BLANKS.match(line)[0]
            yield line_no, head, line[len(head) :].lstrip(BLANKS)


def tokenize(source: str) -> list[Token]:
    """Scan the whole text. A token's ``at`` is the offset of its first
    character, a string's opening '"'; the end-of-input token's is the
    text's length. A ``LexError`` is placed at the character at fault."""
    tokens: list[Token] = []
    append, spellings, new = tokens.append, _SPELLINGS, tuple.__new__
    with in_text(source):
        for match in _TOKEN.finditer(source):
            group = match.lastindex
            if group == 2:
                text = match[2]
                # Token's own constructor, less a Python-level call per token
                append(new(Token, (text if text in spellings else IDENT, text, match.end(1))))
            elif group == 3:
                append(Token(STRING, match[3], match.end(1)))
            elif group == 4:
                raise LexError("unterminated string", at=match.end(1))
            elif group == 5:
                raise LexError(f"unexpected character {match[5]!r}", at=match.end(1))
            else:
                append(Token(EOF, "", match.end(1)))
                return tokens


@dataclass(frozen=True)
class Name:
    id: str
    at: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Sum:
    operands: tuple[ExprNode, ...]  # two or more


@dataclass(frozen=True)
class Product:
    operands: tuple[ExprNode, ...]  # two or more


@dataclass(frozen=True)
class Slash:
    operand: ExprNode
    scopes: tuple[Name, ...]  # one or more, applied left to right


@dataclass(frozen=True)
class Guard:
    op: str  # "<:" or "~"
    left: ExprNode
    right: ExprNode
    at: int = field(default=0, compare=False)  # of the "["


ExprNode = Union[Name, Sum, Product, Slash, Guard]


def chain(kind: type[Sum] | type[Product], operands: Iterable[ExprNode]) -> ExprNode:
    """A ``Sum`` or ``Product`` of ``operands``, the one operand itself,
    or ``0`` when there is none."""
    operands = tuple(operands)
    if len(operands) > 1:
        return kind(operands)
    return operands[0] if operands else Name("0")


@dataclass(frozen=True)
class LetIs:
    entity: str
    category: str
    at: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Define:
    name: str
    body: ExprNode
    at: int = field(default=0, compare=False)


StatementNode = Union[LetIs, Define]


@dataclass(frozen=True)
class Namespace:
    name: str
    statements: tuple[StatementNode, ...] = ()


@dataclass(frozen=True)
class Program:
    """Its namespaces, and the text they were read from, which the
    nodes' offsets index. A program built by hand has the empty text."""

    namespaces: tuple[Namespace, ...] = ()
    source: str = field(default="", compare=False, repr=False)

    @cached_property
    def line_starts(self) -> list[int]:
        """``errors.line_starts`` of the source, found on first use."""
        return line_starts(self.source)


# Deepest nesting of "(" and "[" the parser accepts. Each level costs
# the parser two stack frames (``expr`` and ``primary``) and the
# evaluator at most two, so without a bound a deeply nested input
# exhausts Python's recursion limit.
MAX_NESTING = 100


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


def parse_text(source: str, filename: str | None = None) -> Program:
    """Parse a whole program; its errors name ``filename``."""
    with in_text(source, filename):
        return Program(_Parser(tokenize(source)).namespaces(), source)


def parse_expression(source: str) -> ExprNode:
    """Parse a bare expression: the whole text must be one expr. The
    text is no file, so its errors give only a position."""
    with in_text(source):
        parser = _Parser(tokenize(source))
        node = parser.expr()
        if parser.tokens[parser.pos].kind != EOF:
            parser.fail(EOF)
    return node


_PRECEDENCE = {Sum: 1, Product: 2, Slash: 3}
_JOINERS = {Sum: " + ", Product: " * "}


def format_expr(node: ExprNode) -> str:
    return _expr_text(node, 0)


def _expr_text(node: ExprNode, context: int) -> str:
    """``node`` as an operand of an operator of precedence ``context``
    (0 for none): parenthesised unless it binds tighter, so that parsing
    the text gives back the same nesting."""
    if isinstance(node, Name):
        return node.id
    if isinstance(node, Guard):
        left, right = _expr_text(node.left, 0), _expr_text(node.right, 0)
        return f"[{left} {node.op} {right}]"
    prec = _PRECEDENCE[type(node)]
    if isinstance(node, Slash):
        text = "/".join([_expr_text(node.operand, prec), *(s.id for s in node.scopes)])
    else:
        text = _JOINERS[type(node)].join([_expr_text(o, prec) for o in node.operands])
    return f"({text})" if prec <= context else text


def format_program(program: Program) -> str:
    blocks = []
    for ns in program.namespaces:
        lines = [f'namespace "{ns.name}" {{']
        for stmt in ns.statements:
            if isinstance(stmt, LetIs):
                lines.append(f"  let {stmt.entity} is {stmt.category}")
            else:
                lines.append(f"  {stmt.name} := {format_expr(stmt.body)}")
        lines.append("}")
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"
