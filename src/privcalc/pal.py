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
only for a warning. Tokens and nodes are named tuples, which the lexer
and parser build with ``tuple.__new__``, bypassing a Python-level
constructor per token and node; a node's equality and hash ignore
``at``. ``parse_text`` and ``parse_expression`` pause the cyclic
garbage collector while they read (``_collector_paused``).
"""

from __future__ import annotations

import gc
import re
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Container, Iterable, Iterator, NamedTuple, NoReturn, Union

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
# ASCII only, unlike \w. Each match is the blanks, newlines and comments
# before a token (group 1, possessive, so a long run is never backtracked
# into), then a word or operator (2) or anything else (3): a string, an
# unpaired '"', any other character or, at the end of the input, nothing.
# A "0" is a token only when no word character follows.
_WORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN = re.compile(
    rf"([{BLANKS}\n]*+(?:#[^\n]*+[{BLANKS}\n]*+)*+)"
    rf"(?:({_WORD.pattern}|0(?![A-Za-z0-9_])|:=|<:|[+*/(){{}}\[\]~])|(\"[^\"\n]*+\"?|.|\Z))"
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
    at = 0  # each match starts where the last one ended
    with in_text(source):
        # four strings a match, the empty gap before it and its groups
        pieces = iter(_TOKEN.split(source))
        for _, skip, word, other in zip(pieces, pieces, pieces, pieces):
            at += len(skip)
            if word:
                # Token's own constructor, less a Python-level call per token
                append(new(Token, (word if word in spellings else IDENT, word, at)))
                at += len(word)
            elif len(other) > 1 and other[-1] == '"':
                append(Token(STRING, other[1:-1], at))
                at += len(other)
            elif other[:1] == '"':
                raise LexError("unterminated string", at=at)
            elif other:
                raise LexError(f"unexpected character {other!r}", at=at)
            else:
                append(Token(EOF, "", at))
                return tokens


class _Node(tuple):
    """What AST nodes share. A node is a named tuple of its fields, with
    its source position ``at`` last where it has one, 0 in a node built
    by hand. Nodes are values: equality and hash read the node's type
    and every field but ``at``."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        cls._compared = len(cls._fields) - (cls._fields[-1] == "at")

    def __eq__(self, other):
        n = self._compared
        return type(other) is type(self) and self[:n] == other[:n]

    def __ne__(self, other):  # not tuple's, which reads ``at``
        return not self == other

    def __hash__(self):
        return hash((type(self), self[: self._compared]))


class Name(namedtuple("Name", "id at", defaults=[0]), _Node):
    __slots__ = ()


class Sum(namedtuple("Sum", "operands"), _Node):  # two or more operands
    __slots__ = ()


class Product(namedtuple("Product", "operands"), _Node):  # two or more operands
    __slots__ = ()


class Slash(namedtuple("Slash", "operand scopes"), _Node):
    """``operand`` restricted to each scope ``Name`` in turn."""

    __slots__ = ()


class Guard(namedtuple("Guard", "op left right at", defaults=[0]), _Node):
    """``[left op right]``, ``op`` "<:" or "~", at its "["."""

    __slots__ = ()


ExprNode = Union[Name, Sum, Product, Slash, Guard]


def chain(kind: type[Sum] | type[Product], operands: Iterable[ExprNode]) -> ExprNode:
    """A ``Sum`` or ``Product`` of ``operands``, the one operand itself,
    or ``0`` when there is none."""
    operands = tuple(operands)
    if len(operands) > 1:
        return kind(operands)
    return operands[0] if operands else Name("0")


class LetIs(namedtuple("LetIs", "entity category at", defaults=[0]), _Node):
    __slots__ = ()


class Define(namedtuple("Define", "name body at", defaults=[0]), _Node):
    __slots__ = ()


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
# the parser two stack frames (``expr`` and ``nested``) and the
# evaluator at most two, so without a bound a deeply nested input
# exhausts Python's recursion limit.
MAX_NESTING = 100


class _Parser:
    """Reads the columns of a token list, ``kinds[pos]``, ``texts[pos]``
    and ``ats[pos]``: each rule takes the index of its first token and
    returns what it read with the index after it. Every token list ends
    in the EOF token, which no rule consumes, so an index past a token
    that is not EOF indexes a token."""

    def __init__(self, tokens: list[Token]):
        # not zip(*tokens), which makes an iterator for every token
        self.kinds, self.texts, self.ats = (tuple(map(itemgetter(i), tokens)) for i in range(3))
        self.depth = 0  # "(" and "[" open around the current token

    def expect(self, pos: int, *kinds: str) -> int:
        if self.kinds[pos] not in kinds:
            self.fail(pos, *kinds)
        return pos + 1

    def fail(self, pos: int, *kinds: str) -> NoReturn:
        names = sorted(f"'{k}'" if k in _SPELLINGS else k for k in kinds)
        found = EOF if self.kinds[pos] == EOF else f"'{self.texts[pos]}'"
        raise ParseError(f"expected {' or '.join(names)}, found {found}", at=self.ats[pos])

    # program := namespace*
    def namespaces(self) -> tuple[Namespace, ...]:
        namespaces: list[Namespace] = []
        seen: set[str] = set()
        pos = 0
        while self.kinds[pos] != EOF:
            at = self.ats[pos]
            ns, pos = self.namespace(pos)
            if ns.name in seen:
                raise ParseError(f'duplicate namespace "{ns.name}"', at=at)
            seen.add(ns.name)
            namespaces.append(ns)
        return tuple(namespaces)

    def namespace(self, pos: int) -> tuple[Namespace, int]:
        """The namespace and its statements, each statement read here."""
        kinds, texts, ats, new = self.kinds, self.texts, self.ats, tuple.__new__
        pos = self.expect(self.expect(pos, "namespace"), STRING)
        name = texts[pos - 1]
        pos = self.expect(pos, "{")
        statements: list[StatementNode] = []
        while (kind := kinds[pos]) != "}":
            if kind == "let":
                if kinds[pos + 1 : pos + 4] != (IDENT, "is", IDENT):
                    self.expect(self.expect(self.expect(pos + 1, IDENT), "is"), IDENT)
                statements.append(new(LetIs, (texts[pos + 1], texts[pos + 3], ats[pos])))
                pos += 4
            elif kind == IDENT:
                if kinds[pos + 1] != ":=":
                    self.fail(pos + 1, ":=")
                body, end = self.expr(pos + 2)
                statements.append(new(Define, (texts[pos], body, ats[pos])))
                pos = end
            else:
                self.fail(pos, "let", IDENT, "}")
        return Namespace(name, tuple(statements)), pos + 1

    def expr(self, pos: int) -> tuple[ExprNode, int]:
        """A sum of products, read in one loop over the primaries: the
        operator after a primary says whether it joins a product or ends
        a term, and each chain is built once. A name and its scopes are
        read here, a bracketed primary by ``nested``."""
        kinds, texts, ats, new = self.kinds, self.texts, self.ats, tuple.__new__
        terms: list[ExprNode] = []
        factors: list[ExprNode] = []
        while True:
            kind = kinds[pos]
            if kind == IDENT or kind == "0":
                node = new(Name, (texts[pos], ats[pos]))
                pos += 1
            else:
                node, pos = self.nested(pos)
            if kinds[pos] == "/":
                scopes = []
                while kinds[pos] == "/":
                    if kinds[pos + 1] != IDENT:
                        self.fail(pos + 1, IDENT)
                    scopes.append(new(Name, (texts[pos + 1], ats[pos + 1])))
                    pos += 2
                node = new(Slash, (node, tuple(scopes)))
            kind = kinds[pos]
            if kind == "*":
                factors.append(node)
            else:
                if factors:
                    factors.append(node)
                    node, factors = new(Product, (tuple(factors),)), []
                if kind != "+":
                    if terms:
                        terms.append(node)
                        node = new(Sum, (tuple(terms),))
                    return node, pos
                terms.append(node)
            pos += 1

    def nested(self, pos: int) -> tuple[ExprNode, int]:
        """``( expr )`` or ``[ expr op expr ]``, before any scope."""
        kind, at = self.kinds[pos], self.ats[pos]
        if kind != "(" and kind != "[":
            self.fail(pos, IDENT, "0", "(", "[")
        if self.depth == MAX_NESTING:
            raise ParseError(f"'{kind}' nested more than {MAX_NESTING} deep", at=at)
        self.depth += 1
        node, pos = self.expr(pos + 1)
        if kind == "(":
            pos = self.expect(pos, ")")
        else:
            op = self.texts[self.expect(pos, "<:", "~") - 1]
            right, pos = self.expr(pos + 1)
            node, pos = Guard(op, node, right, at), self.expect(pos, "]")
        self.depth -= 1
        return node, pos


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector disabled, and
    enable it again after the block only if it was enabled before, so a
    caller's own ``gc.disable()`` stands. Every token and node is a tuple
    the collector tracks, so collections during a reading would walk its
    growing trees and the rest of the heap again and again; a reading
    builds no reference cycle, so refcounting alone frees its garbage.
    The switch is process-wide: other threads' collections wait until
    the reading ends."""
    paused = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


def parse_text(source: str, filename: str | None = None) -> Program:
    """Parse a whole program; its errors name ``filename``."""
    with _collector_paused(), in_text(source, filename):
        return Program(_Parser(tokenize(source)).namespaces(), source)


def parse_expression(source: str) -> ExprNode:
    """Parse a bare expression: the whole text must be one expr. The
    text is no file, so its errors give only a position."""
    with _collector_paused(), in_text(source):
        parser = _Parser(tokenize(source))
        node, pos = parser.expr(0)
        parser.expect(pos, EOF)
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
