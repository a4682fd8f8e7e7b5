"""Lexer, parser, and canonical formatter for the policy language."""

from __future__ import annotations

import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from privcalc.pal import (
    Define,
    Guard,
    GuardOp,
    LetIs,
    LexError,
    MAX_NESTING,
    Name,
    Namespace,
    ParseError,
    Product,
    Program,
    Slash,
    Sum,
    Token,
    TokenKind,
    chain,
    format_expr,
    format_program,
    is_identifier,
    parse_expression,
    parse_text,
    tokenize,
)

from fixtures import CHILD_ENV, EXAMPLE_PAL
from oracles import reference_tokens


# --- lexer -----------------------------------------------------------------


def test_tokenize_kinds_and_positions():
    toks = tokenize('namespace "x" {\n  a := b/C\n}')
    kinds = [t.kind for t in toks]
    assert kinds == [
        TokenKind.NAMESPACE,
        TokenKind.STRING,
        TokenKind.LBRACE,
        TokenKind.IDENT,
        TokenKind.ASSIGN,
        TokenKind.IDENT,
        TokenKind.SLASH,
        TokenKind.IDENT,
        TokenKind.RBRACE,
        TokenKind.EOF,
    ]
    a = toks[3]
    assert (a.line, a.column) == (2, 3)
    close = toks[8]
    assert (close.line, close.column) == (3, 1)


def test_tokenize_comments_and_operators():
    toks = tokenize("a + b * c # trailing + junk\n[x <: y] ~")
    texts = [t.text for t in toks if t.kind is not TokenKind.EOF]
    assert texts == ["a", "+", "b", "*", "c", "[", "x", "<:", "y", "]", "~"]


def test_tokenize_keywords_vs_identifiers():
    toks = tokenize("let letter is isis")
    assert [t.kind for t in toks[:4]] == [
        TokenKind.LET,
        TokenKind.IDENT,
        TokenKind.IS,
        TokenKind.IDENT,
    ]


def test_lex_error_positions():
    with pytest.raises(LexError) as exc:
        tokenize("ab\n  a : b")
    assert (exc.value.line, exc.value.column) == (2, 5)
    with pytest.raises(LexError):
        tokenize("a < b")
    with pytest.raises(LexError, match="unterminated string"):
        tokenize('namespace "oops')
    with pytest.raises(LexError, match="unexpected character"):
        tokenize("a $ b")


def test_identifiers_allow_digits_and_underscores():
    toks = tokenize("session_1")
    assert toks[0].kind is TokenKind.IDENT and toks[0].text == "session_1"
    with pytest.raises(LexError):
        tokenize("1session")


# PAL's own spellings plus characters no token starts with.
_LEX_PIECES = st.sampled_from(
    ["a", "b_1", "Zz9", "namespace", "let", "is", "isis", ":=", "<:", "+", "*",
     "/", "(", ")", "{", "}", "[", "]", "~", '"s t"', " ", "\t", "\r", "\n",
     "# c", ":", "<", '"', "9", "_", "$", "-", "\u00e9", "\u0663", "\x0b", "0", "00"]
)


def _offset(source: str, line: int, column: int) -> int:
    lines = source.split("\n")
    return sum(len(text) + 1 for text in lines[: line - 1]) + column - 1


@settings(max_examples=300)
@given(st.lists(_LEX_PIECES, max_size=40).map("".join))
def test_token_positions_index_their_own_text(source):
    try:
        tokens = tokenize(source, "in.pal")
    except LexError as exc:
        assert exc.filename == "in.pal"
        assert str(exc).startswith(f"in.pal:{exc.line}:{exc.column}: ")
        bad = source[_offset(source, exc.line, exc.column)]
        if exc.message == "unterminated string":
            assert bad == '"'
        else:
            assert exc.message == f"unexpected character {bad!r}"
        return
    end = 0
    for tok in tokens:
        start = _offset(source, tok.line, tok.column)
        # only blanks and comments lie between tokens
        assert re.fullmatch(r"(?:[ \t\r\n]|#[^\n]*)*", source[end:start])
        spelled = f'"{tok.text}"' if tok.kind is TokenKind.STRING else tok.text
        assert source.startswith(spelled, start)
        end = start + len(spelled)
    assert tokens[-1].kind is TokenKind.EOF
    assert _offset(source, tokens[-1].line, tokens[-1].column) == len(source)


def test_end_of_input_after_a_trailing_comment():
    # The end-of-input token sits past the comment, where the input ends.
    eof = tokenize("a\n  x := a + # trailing")[-1]
    assert (eof.kind, eof.line, eof.column) == (TokenKind.EOF, 2, 22)
    with pytest.raises(ParseError) as exc:
        parse_text('namespace "n" {\n  x := a + # trailing', "t.pal")
    assert str(exc.value).startswith("t.pal:2:22: expected ")


def test_lex_errors_name_their_file():
    with pytest.raises(LexError) as exc:
        parse_text('namespace "n" {\n  9x := a\n}', "bad.pal")
    assert str(exc.value) == "bad.pal:2:3: unexpected character '9'"
    with pytest.raises(LexError) as exc:
        parse_expression("a $ b", "expr")
    assert str(exc.value) == "expr:1:3: unexpected character '$'"
    with pytest.raises(LexError) as exc:
        tokenize("a $ b")
    assert str(exc.value) == "1:3: unexpected character '$'"


def test_is_identifier_is_the_lexers_name_rule():
    for name in ["a", "Read", "session_1", "x9_", "isis", "lets", "Namespace"]:
        assert is_identifier(name)
        assert [t.kind for t in tokenize(name)] == [TokenKind.IDENT, TokenKind.EOF]
    for name in ["", "9lives", "_a", "a-b", "a b", "is", "let", "namespace", "caf\u00e9", "0"]:
        assert not is_identifier(name)


def test_zero_is_a_token_that_no_statement_can_bind():
    kinds = [t.kind for t in tokenize("0 +0*(0)# c\n[a0 <: 0]")]
    assert kinds == [
        TokenKind.ZERO, TokenKind.PLUS, TokenKind.ZERO, TokenKind.STAR, TokenKind.LPAREN,
        TokenKind.ZERO, TokenKind.RPAREN, TokenKind.LBRACKET, TokenKind.IDENT,
        TokenKind.COMPLIES, TokenKind.ZERO, TokenKind.RBRACKET, TokenKind.EOF,
    ]
    for text in ["0abc", "00", "0_", "01"]:
        with pytest.raises(LexError) as exc:
            tokenize("x + " + text)
        assert (exc.value.message, exc.value.column) == ("unexpected character '0'", 5)
    assert parse_expression("0") == Name("0")
    assert parse_expression("[read <: 0]/C") == Slash(
        Guard(GuardOp.COMPLIANCE, Name("read"), Name("0")), (Name("C"),)
    )
    for body in ["0 := read", "let 0 is C", "let d is 0", "x := read/0"]:
        with pytest.raises(ParseError):
            parse_text(f'namespace "n" {{\n  {body}\n}}')


# PAL's spellings, blanks, comments, newlines and stray characters.
_DIFF_PIECES = st.sampled_from(
    ["a", "b_1", "Zz9", "namespace", "let", "is", "x", ":=", "<:", "+", "*", "/",
     "(", ")", "{", "}", "[", "]", "~", '"s t"', '""', " ", "  ", "\t", "\r", "\n",
     "\n\n", "#", "# c", "#:=", ":", "<", '"', "$", "9", "\u00e9", "\x0b", "0", "0a"]
)


@settings(max_examples=500)
@given(st.lists(_DIFF_PIECES, max_size=40).map("".join))
def test_tokenize_agrees_with_the_reference_lexer(source):
    try:
        expected = reference_tokens(source, "in.pal")
    except LexError as exc:
        with pytest.raises(LexError) as got:
            tokenize(source, "in.pal")
        assert (str(got.value), got.value.line, got.value.column) == (
            str(exc), exc.line, exc.column
        )
        return
    assert tokenize(source, "in.pal") == expected


def test_tokens_are_named_tuples():
    (tok, eof) = tokenize("read")
    assert tok == Token(TokenKind.IDENT, "read", 1, 1) == (TokenKind.IDENT, "read", 1, 1)
    assert (tok.kind, tok.text, tok.line, tok.column) == tuple(tok)
    assert eof == (TokenKind.EOF, "", 1, 5)


MEGABYTE = 1 << 20


@pytest.mark.parametrize(
    "source, line, column, message",
    [
        (" " * MEGABYTE, 1, MEGABYTE + 1, None),
        ("\n#" * (MEGABYTE // 2), MEGABYTE // 2 + 1, 2, None),
        ("# c\n" * (MEGABYTE // 4) + "$", MEGABYTE // 4 + 1, 1, "unexpected character '$'"),
    ],
    ids=["blanks", "newline-hash", "comment-lines"],
)
def test_megabyte_of_blanks_and_comments_lexes_in_linear_time(source, line, column, message):
    # Untrusted input: a pattern that backtracked catastrophically over
    # these runs would not finish within the bound.
    start = time.perf_counter()
    try:
        (eof,) = tokenize(source)
        found = (eof.line, eof.column, None)
    except LexError as exc:
        found = (exc.line, exc.column, exc.message)
    assert time.perf_counter() - start < 2.0
    assert found == (line, column, message)


def test_megabyte_of_comment_lines_lexes_in_constant_memory():
    # A backtracking repeat keeps a record per blank run and comment it
    # has passed: about 200 MB for this input.
    script = (
        "import resource\n"
        "from privcalc.pal import tokenize\n"
        "source = '\\n#' * (1 << 19)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "tokenize(source)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 32 * 1024  # KiB


# --- expression parsing -------------------------------------------------------


a, b, c = Name("a"), Name("b"), Name("c")


def test_precedence_slash_star_plus():
    got = parse_expression("a + b * c/D")
    assert got == Sum((a, Product((b, Slash(c, (Name("D"),))))))


def test_left_associativity():
    # A chain of one operator is one node, read left to right; a
    # parenthesised chain is kept as a nested node.
    assert parse_expression("a + b + c") == Sum((a, b, c))
    assert parse_expression("a * b * c") == Product((a, b, c))
    assert parse_expression("a/B/C") == Slash(a, (Name("B"), Name("C")))
    assert parse_expression("(a + b) + c") == Sum((Sum((a, b)), c))
    assert parse_expression("(a * b) * c") == Product((Product((a, b)), c))
    assert parse_expression("(a/B)/C") == Slash(Slash(a, (Name("B"),)), (Name("C"),))
    assert parse_expression("((a))") == a


def test_chain_of_one_operand_is_the_operand():
    assert chain(Sum, [a]) == a
    assert chain(Product, iter([a, b])) == Product((a, b))


def test_chain_of_no_operands_is_zero():
    assert chain(Sum, []) == Name("0")
    assert format_expr(chain(Sum, iter(()))) == "0"


def test_parens_override():
    got = parse_expression("(a + b)/C")
    assert got == Slash(Sum((a, b)), (Name("C"),))


def test_guard_forms():
    comp = parse_expression("[a <: b]")
    assert comp == Guard(GuardOp.COMPLIANCE, a, b)
    cong = parse_expression("[a + b ~ c]")
    assert cong == Guard(GuardOp.CONGRUENCE, Sum((a, b)), c)


def test_guard_composes_like_primary():
    got = parse_expression("write * [s <: w]")
    assert got == Product((Name("write"), Guard(GuardOp.COMPLIANCE, Name("s"), Name("w"))))


def test_ast_equality_ignores_positions():
    assert parse_expression("a +\n  b") == parse_expression("a + b")
    assert parse_expression("x/Y") == Slash(Name("x", 9, 9), (Name("Y", 1, 1),))
    assert parse_expression(" [a ~ b]") == Guard(GuardOp.CONGRUENCE, a, b, 7, 7)


def test_nodes_keep_the_positions_of_names_and_brackets():
    got = parse_expression("x +\n  [a ~ b]/C")
    assert (got.operands[0].line, got.operands[0].column) == (1, 1)
    slash = got.operands[1]
    assert (slash.operand.line, slash.operand.column) == (2, 3)
    assert (slash.scopes[0].line, slash.scopes[0].column) == (2, 11)


def test_expression_errors_carry_expectations():
    with pytest.raises(ParseError) as exc:
        parse_expression("a + ")
    assert exc.value.expected == {"identifier", "'0'", "'('", "'['"}
    with pytest.raises(ParseError) as exc:
        parse_expression("a/(b)")
    assert "identifier" in exc.value.expected
    with pytest.raises(ParseError) as exc:
        parse_expression("a b")
    assert exc.value.expected == {"end of input"}
    with pytest.raises(ParseError) as exc:
        parse_expression("[a b]")
    assert exc.value.expected == {"'<:'", "'~'"}


def test_error_position_is_the_offending_token():
    with pytest.raises(ParseError) as exc:
        parse_expression("a +\n+ b")
    assert (exc.value.line, exc.value.column) == (2, 1)


# --- program parsing ------------------------------------------------------------


def test_parse_program_shapes():
    prog = parse_text(EXAMPLE_PAL)
    assert [ns.name for ns in prog.namespaces] == ["example"]
    (ns,) = prog.namespaces
    assert len(ns.statements) == 9
    assert ns.statements[0] == LetIs("doc1", "TechDoc")
    assert ns.statements[1].name == "reader"
    assert isinstance(ns.statements[1], Define)


def test_parse_empty_program_and_namespace():
    assert parse_text("") == Program(())
    assert parse_text('namespace "n" { }') == Program((Namespace("n", ()),))


def test_duplicate_namespace_rejected():
    with pytest.raises(ParseError, match="duplicate namespace"):
        parse_text('namespace "n" { } namespace "n" { }')


def test_statement_errors():
    with pytest.raises(ParseError) as exc:
        parse_text('namespace "n" { let a b }')
    assert exc.value.expected == {"'is'"}
    with pytest.raises(ParseError) as exc:
        parse_text('namespace "n" { + }')
    assert exc.value.expected == {"'let'", "identifier", "'}'"}


def test_nesting_is_bounded_at_the_opening_token():
    deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse_expression(deepest) == Name("a")
    mixed = "[a <: (" * (MAX_NESTING // 2) + "b" + ")]" * (MAX_NESTING // 2)
    assert isinstance(parse_expression(mixed), Guard)
    with pytest.raises(ParseError, match=r"'\(' nested more than") as exc:
        parse_expression("(" + deepest + ")")
    assert (exc.value.line, exc.value.column) == (1, MAX_NESTING + 1)
    guards = "[" * MAX_NESTING + "a" + " ~ b]" * MAX_NESTING
    with pytest.raises(ParseError, match=r"'\[' nested more than") as exc:
        parse_text(f'namespace "n" {{\n  x := [{guards} ~ a]\n}}', filename="d.pal")
    assert str(exc.value).startswith(f"d.pal:2:{len('  x := ') + MAX_NESTING + 1}: ")


def test_parse_error_includes_filename():
    with pytest.raises(ParseError) as exc:
        parse_text("junk", filename="p.pal")
    assert str(exc.value).startswith("p.pal:1:1:")


# --- formatter --------------------------------------------------------------------


def test_format_expr_golden():
    cases = {
        "a + b * c/D": "a + b * c/D",
        "(a+b)*c": "(a + b) * c",
        "a*(b*c)": "a * (b * c)",
        "a + (b + c)": "a + (b + c)",
        "(a + b) + c": "(a + b) + c",
        "(a * b) * c": "(a * b) * c",
        "(a/C)/D": "(a/C)/D",
        "(a+b)/C/D": "(a + b)/C/D",
        "w * [x + y <: z]": "w * [x + y <: z]",
        "[a~b]": "[a ~ b]",
        "((a))": "a",
    }
    for source, want in cases.items():
        assert format_expr(parse_expression(source)) == want


def test_format_long_slash_chain_without_recursion():
    text = "f" + "/c" * 3000
    assert format_expr(parse_expression(text)) == text
    assert format_expr(Slash(Sum((a, b)), (Name("C"),))) == "(a + b)/C"


def test_format_program_golden():
    prog = parse_text('namespace "a" {let d is C\nx := d} namespace "b" {}')
    assert format_program(prog) == (
        'namespace "a" {\n'
        "  let d is C\n"
        "  x := d\n"
        "}\n"
        "\n"
        'namespace "b" {\n'
        "}\n"
    )
    assert format_program(Program(())) == ""


def test_fixture_round_trips():
    prog = parse_text(EXAMPLE_PAL)
    assert parse_text(format_program(prog)) == prog


_names = st.sampled_from(["a", "b", "c", "read", "s_1"])
_operands = st.sampled_from(["a", "b", "c", "read", "s_1", "0"])
_scopes = st.sampled_from(["C", "D", "TechDoc"])


def _exprs(depth: int):
    # Chains of 2-4 operands, which may themselves be chains of the same
    # operator (parenthesised), and "/" nodes inside "/" nodes.
    if depth <= 0:
        return st.builds(Name, _operands)
    sub = _exprs(depth - 1)
    operands = st.lists(sub, min_size=2, max_size=4).map(tuple)
    scopes = st.lists(st.builds(Name, _scopes), min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(Name, _operands),
        st.builds(Sum, operands),
        st.builds(Product, operands),
        st.builds(Slash, sub, scopes),
        st.builds(Guard, st.sampled_from(list(GuardOp)), sub, sub),
    )


@given(_exprs(5))
def test_random_expr_round_trip(expr):
    text = format_expr(expr)
    assert parse_expression(text) == expr
    assert format_expr(parse_expression(text)) == text


_statements = st.one_of(
    st.builds(LetIs, _names, _scopes),
    st.builds(Define, _names, _exprs(3)),
)


@st.composite
def _programs(draw):
    names = draw(st.lists(st.sampled_from(["ns1", "ns2", "ns3"]), max_size=3, unique=True))
    return Program(
        tuple(
            Namespace(n, tuple(draw(st.lists(_statements, max_size=4))))
            for n in names
        )
    )


@given(_programs())
def test_random_program_round_trip(prog):
    assert parse_text(format_program(prog)) == prog
