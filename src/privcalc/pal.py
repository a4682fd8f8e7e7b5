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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import SourceError, in_file

__all__ = [
    "BLANKS",
    "Define",
    "ExprNode",
    "Guard",
    "LetIs",
    "LexError",
    "MAX_NESTING",
    "Name",
    "Namespace",
    "ParseError",
    "Product",
    "Program",
    "Slash",
    "StatementNode",
    "Sum",
    "Token",
    "TokenKind",
    "chain",
    "declarations",
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


class TokenKind(Enum):
    IDENT = "identifier"
    STRING = "string"
    NAMESPACE = "'namespace'"
    LET = "'let'"
    IS = "'is'"
    ASSIGN = "':='"
    PLUS = "'+'"
    STAR = "'*'"
    SLASH = "'/'"
    LPAREN = "'('"
    RPAREN = "')'"
    LBRACE = "'{'"
    RBRACE = "'}'"
    LBRACKET = "'['"
    RBRACKET = "']'"
    COMPLIES = "'<:'"
    TILDE = "'~'"
    ZERO = "'0'"
    EOF = "end of input"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int


# Keywords and punctuation by spelling, read off the kinds' quoted names.
_SPELLINGS = {kind.value[1:-1]: kind for kind in TokenKind if kind.value[0] == "'"}
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
    """Scan the whole text; positions are 1-based line and column."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        skipped, start = match.span(1)
        newlines = source.count("\n", skipped, start)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", skipped, start) + 1
        column, group = start - line_start + 1, match.lastindex
        if group == 2:
            text = match[2]
            tokens.append(Token(_SPELLINGS.get(text, TokenKind.IDENT), text, line, column))
        elif group == 3:
            tokens.append(Token(TokenKind.STRING, match[3], line, column))
        elif group == 4:
            raise LexError("unterminated string", line, column)
        elif group == 5:
            raise LexError(f"unexpected character {match[5]!r}", line, column)
        else:
            tokens.append(Token(TokenKind.EOF, "", line, column))
            return tokens


@dataclass(frozen=True)
class Name:
    id: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


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
    line: int = field(default=0, compare=False)  # of the "["
    column: int = field(default=0, compare=False)


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
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Define:
    name: str
    body: ExprNode
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


StatementNode = Union[LetIs, Define]


@dataclass(frozen=True)
class Namespace:
    name: str
    statements: tuple[StatementNode, ...] = ()


@dataclass(frozen=True)
class Program:
    namespaces: tuple[Namespace, ...] = ()


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

    def expect(self, *kinds: TokenKind) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind not in kinds:
            self.fail(*kinds)
        self.pos += 1
        return tok

    def fail(self, *kinds: TokenKind):
        tok = self.tokens[self.pos]
        names = sorted(k.value for k in kinds)
        found = tok.kind.value if tok.kind is TokenKind.EOF else f"'{tok.text}'"
        raise ParseError(f"expected {' or '.join(names)}, found {found}", tok.line, tok.column)

    # program := namespace*
    def program(self) -> Program:
        namespaces: list[Namespace] = []
        seen: set[str] = set()
        while (tok := self.tokens[self.pos]).kind is not TokenKind.EOF:
            ns = self.namespace()
            if ns.name in seen:
                raise ParseError(f'duplicate namespace "{ns.name}"', tok.line, tok.column)
            seen.add(ns.name)
            namespaces.append(ns)
        return Program(tuple(namespaces))

    def namespace(self) -> Namespace:
        self.expect(TokenKind.NAMESPACE)
        name = self.expect(TokenKind.STRING).text
        self.expect(TokenKind.LBRACE)
        statements: list[StatementNode] = []
        while self.tokens[self.pos].kind is not TokenKind.RBRACE:
            statements.append(self.statement())
        self.expect(TokenKind.RBRACE)
        return Namespace(name, tuple(statements))

    def statement(self) -> StatementNode:
        tok = self.tokens[self.pos]
        if tok.kind is TokenKind.LET:
            self.pos += 1
            entity = self.expect(TokenKind.IDENT).text
            self.expect(TokenKind.IS)
            category = self.expect(TokenKind.IDENT).text
            return LetIs(entity, category, tok.line, tok.column)
        if tok.kind is TokenKind.IDENT:
            self.pos += 1
            self.expect(TokenKind.ASSIGN)
            return Define(tok.text, self.expr(), tok.line, tok.column)
        self.fail(TokenKind.LET, TokenKind.IDENT, TokenKind.RBRACE)
        raise AssertionError("unreachable")

    def expr(self) -> ExprNode:
        """A sum of products, each chain built once from a loop."""
        tokens, terms = self.tokens, []
        while True:
            factors = [self.primary()]
            while tokens[self.pos].kind is TokenKind.STAR:
                self.pos += 1
                factors.append(self.primary())
            terms.append(chain(Product, factors))
            if tokens[self.pos].kind is not TokenKind.PLUS:
                return chain(Sum, terms)
            self.pos += 1

    def primary(self) -> ExprNode:
        tok = self.tokens[self.pos]
        if tok.kind is TokenKind.IDENT or tok.kind is TokenKind.ZERO:
            self.pos += 1
            node: ExprNode = Name(tok.text, tok.line, tok.column)
        else:
            if tok.kind not in (TokenKind.LPAREN, TokenKind.LBRACKET):
                self.fail(TokenKind.IDENT, TokenKind.ZERO, TokenKind.LPAREN, TokenKind.LBRACKET)
            if self.depth == MAX_NESTING:
                message = f"'{tok.text}' nested more than {MAX_NESTING} deep"
                raise ParseError(message, tok.line, tok.column)
            self.pos += 1
            self.depth += 1
            node = self.expr()
            if tok.kind is TokenKind.LPAREN:
                self.expect(TokenKind.RPAREN)
            else:
                op = self.expect(TokenKind.COMPLIES, TokenKind.TILDE).text
                node = Guard(op, node, self.expr(), tok.line, tok.column)
                self.expect(TokenKind.RBRACKET)
            self.depth -= 1
        scopes: list[Name] = []
        while self.tokens[self.pos].kind is TokenKind.SLASH:
            self.pos += 1
            scope = self.expect(TokenKind.IDENT)
            scopes.append(Name(scope.text, scope.line, scope.column))
        return Slash(node, tuple(scopes)) if scopes else node


def parse_text(source: str, filename: str | None = None) -> Program:
    """Parse a whole program; its errors name ``filename``."""
    with in_file(filename):
        return _Parser(tokenize(source)).program()


def parse_expression(source: str) -> ExprNode:
    """Parse a bare expression: the whole text must be one expr. The
    text is no file, so its errors give only a position."""
    parser = _Parser(tokenize(source))
    node = parser.expr()
    if parser.tokens[parser.pos].kind is not TokenKind.EOF:
        parser.fail(TokenKind.EOF)
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
