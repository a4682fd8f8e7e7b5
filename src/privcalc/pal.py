"""PAL: tokens, recursive-descent parser, AST, canonical formatter.

Grammar:

    program   := namespace*
    namespace := "namespace" STRING "{" stmt* "}"
    stmt      := "let" IDENT "is" IDENT
               | IDENT ":=" expr
    expr      := term ("+" term)*
    term      := factor ("*" factor)*
    factor    := primary ("/" IDENT)*
    primary   := IDENT
               | "(" expr ")"
               | "[" expr ("<:" | "~") expr "]"

Identifiers are a letter followed by letters, digits or underscores;
``#`` starts a comment running to end of line; whitespace is otherwise
insignificant. ``/`` binds tighter than ``*``, which binds tighter than
``+``; all three associate to the left. The bracket form denotes a
guard: ``<:`` for compliance, ``~`` for congruence.

``format_node(parse(tokenize(text)))`` is the canonical spelling of
``text``; formatting then parsing returns an equal tree (node equality
ignores source positions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .errors import SourceError

__all__ = [
    "Define",
    "ExprNode",
    "Guard",
    "GuardOp",
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
    "format_expr",
    "format_node",
    "format_program",
    "parse",
    "parse_expression",
    "parse_text",
    "tokenize",
]


class LexError(SourceError):
    """The input contains a character no token starts with."""


class ParseError(SourceError):
    """The token stream does not match the grammar."""

    def __init__(
        self,
        message: str,
        expected: frozenset[str] = frozenset(),
        line: int | None = None,
        column: int | None = None,
        filename: str | None = None,
    ):
        super().__init__(message, line, column, filename)
        self.expected = frozenset(expected)


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
    EOF = "end of input"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int


_KEYWORDS = {
    "namespace": TokenKind.NAMESPACE,
    "let": TokenKind.LET,
    "is": TokenKind.IS,
}

_SINGLE = {
    "+": TokenKind.PLUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "~": TokenKind.TILDE,
}


def _is_letter(ch: str) -> bool:
    return "a" <= ch <= "z" or "A" <= ch <= "Z"


def _is_ident_char(ch: str) -> bool:
    return _is_letter(ch) or "0" <= ch <= "9" or ch == "_"


def tokenize(source: str) -> list[Token]:
    """Scan the whole text; positions are 1-based line and column."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if _is_letter(ch):
            start = i
            while i < n and _is_ident_char(source[i]):
                i += 1
            text = source[start:i]
            tokens.append(Token(_KEYWORDS.get(text, TokenKind.IDENT), text, line, col))
            col += i - start
            continue
        if ch == ":":
            if i + 1 < n and source[i + 1] == "=":
                tokens.append(Token(TokenKind.ASSIGN, ":=", line, col))
                i += 2
                col += 2
                continue
            raise LexError("unexpected character ':'", line=line, column=col)
        if ch == "<":
            if i + 1 < n and source[i + 1] == ":":
                tokens.append(Token(TokenKind.COMPLIES, "<:", line, col))
                i += 2
                col += 2
                continue
            raise LexError("unexpected character '<'", line=line, column=col)
        if ch == '"':
            j = i + 1
            while j < n and source[j] not in '"\n':
                j += 1
            if j >= n or source[j] == "\n":
                raise LexError("unterminated string", line=line, column=col)
            tokens.append(Token(TokenKind.STRING, source[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch in _SINGLE:
            tokens.append(Token(_SINGLE[ch], ch, line, col))
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line=line, column=col)
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens


class GuardOp(Enum):
    COMPLIANCE = "<:"
    CONGRUENCE = "~"


@dataclass(frozen=True)
class Name:
    id: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Sum:
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Product:
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Slash:
    left: ExprNode
    scope: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Guard:
    op: GuardOp
    left: ExprNode
    right: ExprNode


ExprNode = Union[Name, Sum, Product, Slash, Guard]


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
# the parser and the evaluator a few stack frames, so without a bound a
# deeply nested input exhausts Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token], filename: str | None = None):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.depth = 0  # "(" and "[" open around the current token

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def accept(self, kind: TokenKind) -> Token | None:
        if self.current.kind is kind:
            return self.advance()
        return None

    def expect(self, *kinds: TokenKind) -> Token:
        if self.current.kind in kinds:
            return self.advance()
        self.fail(*kinds)
        raise AssertionError("unreachable")

    def fail(self, *kinds: TokenKind):
        tok = self.current
        names = sorted(k.value for k in kinds)
        found = tok.kind.value if tok.kind is TokenKind.EOF else f"'{tok.text}'"
        raise ParseError(
            f"expected {' or '.join(names)}, found {found}",
            expected=frozenset(names),
            line=tok.line,
            column=tok.column,
            filename=self.filename,
        )

    # program := namespace*
    def program(self) -> Program:
        namespaces: list[Namespace] = []
        seen: set[str] = set()
        while self.current.kind is not TokenKind.EOF:
            tok = self.current
            ns = self.namespace()
            if ns.name in seen:
                raise ParseError(
                    f"duplicate namespace \"{ns.name}\"",
                    expected=frozenset(),
                    line=tok.line,
                    column=tok.column,
                    filename=self.filename,
                )
            seen.add(ns.name)
            namespaces.append(ns)
        return Program(tuple(namespaces))

    def namespace(self) -> Namespace:
        self.expect(TokenKind.NAMESPACE)
        name = self.expect(TokenKind.STRING).text
        self.expect(TokenKind.LBRACE)
        statements: list[StatementNode] = []
        while self.current.kind is not TokenKind.RBRACE:
            statements.append(self.statement())
        self.expect(TokenKind.RBRACE)
        return Namespace(name, tuple(statements))

    def statement(self) -> StatementNode:
        if self.current.kind is TokenKind.LET:
            tok = self.advance()
            entity = self.expect(TokenKind.IDENT).text
            self.expect(TokenKind.IS)
            category = self.expect(TokenKind.IDENT).text
            return LetIs(entity, category, tok.line, tok.column)
        if self.current.kind is TokenKind.IDENT:
            tok = self.advance()
            self.expect(TokenKind.ASSIGN)
            return Define(tok.text, self.expr(), tok.line, tok.column)
        self.fail(TokenKind.LET, TokenKind.IDENT, TokenKind.RBRACE)
        raise AssertionError("unreachable")

    def expr(self) -> ExprNode:
        node = self.term()
        while self.accept(TokenKind.PLUS):
            node = Sum(node, self.term())
        return node

    def term(self) -> ExprNode:
        node = self.factor()
        while self.accept(TokenKind.STAR):
            node = Product(node, self.factor())
        return node

    def factor(self) -> ExprNode:
        node = self.primary()
        while self.accept(TokenKind.SLASH):
            tok = self.expect(TokenKind.IDENT)
            node = Slash(node, tok.text, tok.line, tok.column)
        return node

    def primary(self) -> ExprNode:
        tok = self.current
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return Name(tok.text, tok.line, tok.column)
        if tok.kind not in (TokenKind.LPAREN, TokenKind.LBRACKET):
            self.fail(TokenKind.IDENT, TokenKind.LPAREN, TokenKind.LBRACKET)
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"'{tok.text}' nested more than {MAX_NESTING} deep",
                line=tok.line,
                column=tok.column,
                filename=self.filename,
            )
        self.advance()
        self.depth += 1
        if tok.kind is TokenKind.LPAREN:
            node = self.expr()
            self.expect(TokenKind.RPAREN)
        else:
            left = self.expr()
            op_tok = self.expect(TokenKind.COMPLIES, TokenKind.TILDE)
            op = (
                GuardOp.COMPLIANCE
                if op_tok.kind is TokenKind.COMPLIES
                else GuardOp.CONGRUENCE
            )
            right = self.expr()
            self.expect(TokenKind.RBRACKET)
            node = Guard(op, left, right)
        self.depth -= 1
        return node


def parse(tokens: list[Token], filename: str | None = None) -> Program:
    return _Parser(tokens, filename).program()


def parse_text(source: str, filename: str | None = None) -> Program:
    return parse(tokenize(source), filename)


def parse_expression(source: str, filename: str | None = None) -> ExprNode:
    """Parse a bare expression (the whole text must be one expr)."""
    parser = _Parser(tokenize(source), filename)
    node = parser.expr()
    parser.expect(TokenKind.EOF)
    return node


_PRECEDENCE = {Sum: 1, Product: 2, Slash: 3}


def format_expr(node: ExprNode) -> str:
    return _expr_text(node, 0, False)


def _expr_text(node: ExprNode, parent_prec: int, is_right: bool) -> str:
    if isinstance(node, Name):
        return node.id
    if isinstance(node, Guard):
        left = _expr_text(node.left, 0, False)
        right = _expr_text(node.right, 0, False)
        return f"[{left} {node.op.value} {right}]"
    prec = _PRECEDENCE[type(node)]
    if isinstance(node, Slash):
        text = f"{_expr_text(node.left, prec, False)}/{node.scope}"
    else:
        # Walk the left-nested chain of this operator with a loop, so a
        # long sum does not recurse once per term.
        op, rights = type(node), []
        while isinstance(node, op):
            rights.append(node.right)
            node = node.left
        joiner = " + " if op is Sum else " * "
        text = joiner.join(
            [_expr_text(node, prec, False)]
            + [_expr_text(right, prec, True) for right in reversed(rights)]
        )
    # Parenthesize when binding looser than the context, or equally on
    # the right of a left-associative operator.
    if prec < parent_prec or (prec == parent_prec and is_right):
        return f"({text})"
    return text


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


def format_node(node: Program | ExprNode) -> str:
    """Canonical text for a program or expression node."""
    if isinstance(node, Program):
        return format_program(node)
    return format_expr(node)
