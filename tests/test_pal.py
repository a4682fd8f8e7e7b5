"""Lexer, parser, and canonical formatter for the policy language."""

from __future__ import annotations

import gc
import re
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from privcalc.errors import line_column, line_starts
from privcalc.pal import (
    Define,
    EOF,
    Guard,
    IDENT,
    LetIs,
    LexError,
    MAX_NESTING,
    Name,
    Namespace,
    ParseError,
    Product,
    Program,
    Slash,
    STRING,
    Sum,
    Token,
    _Parser,
    chain,
    format_expr,
    format_program,
    is_identifier,
    parse_expression,
    parse_text,
    tokenize,
)

from fixtures import CHILD_ENV, EXAMPLE_PAL
from oracles import reference_parse, reference_tokens


def _place(source: str, at: int) -> tuple[int, int]:
    return line_column(line_starts(source), at)


# --- lexer -----------------------------------------------------------------


def test_tokenize_kinds_and_positions():
    toks = tokenize('namespace "x" {\n  a := b/C\n}')
    kinds = [t.kind for t in toks]
    assert kinds == [
        "namespace",
        STRING,
        "{",
        IDENT,
        ":=",
        IDENT,
        "/",
        IDENT,
        "}",
        EOF,
    ]
    source = 'namespace "x" {\n  a := b/C\n}'
    a = toks[3]
    assert a.at == 18 and _place(source, a.at) == (2, 3)
    close = toks[8]
    assert close.at == 27 and _place(source, close.at) == (3, 1)


def test_tokenize_comments_and_operators():
    toks = tokenize("a + b * c # trailing + junk\n[x <: y] ~")
    texts = [t.text for t in toks if t.kind != EOF]
    assert texts == ["a", "+", "b", "*", "c", "[", "x", "<:", "y", "]", "~"]


def test_tokenize_keywords_vs_identifiers():
    toks = tokenize("let letter is isis")
    assert [t.kind for t in toks[:4]] == [
        "let",
        IDENT,
        "is",
        IDENT,
    ]


def test_lex_error_positions():
    with pytest.raises(LexError) as exc:
        tokenize("ab\n  a : b")
    assert (exc.value.at, exc.value.line, exc.value.column) == (7, 2, 5)
    with pytest.raises(LexError):
        tokenize("a < b")
    with pytest.raises(LexError, match="unterminated string"):
        tokenize('namespace "oops')
    with pytest.raises(LexError, match="unexpected character"):
        tokenize("a $ b")


def test_identifiers_allow_digits_and_underscores():
    toks = tokenize("session_1")
    assert toks[0].kind == IDENT and toks[0].text == "session_1"
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
        tokens = tokenize(source)
    except LexError as exc:
        assert exc.filename is None
        assert str(exc).startswith(f"{exc.line}:{exc.column}: ")
        assert _offset(source, exc.line, exc.column) == exc.at
        bad = source[exc.at]
        if exc.message == "unterminated string":
            assert bad == '"'
        else:
            assert exc.message == f"unexpected character {bad!r}"
        return
    end = 0
    for tok in tokens:
        start = tok.at
        assert _offset(source, *_place(source, start)) == start
        # only blanks and comments lie between tokens
        assert re.fullmatch(r"(?:[ \t\r\n]|#[^\n]*)*", source[end:start])
        spelled = f'"{tok.text}"' if tok.kind == STRING else tok.text
        assert source.startswith(spelled, start)
        end = start + len(spelled)
    assert tokens[-1].kind == EOF
    assert tokens[-1].at == len(source)


def test_end_of_input_after_a_trailing_comment():
    # The end-of-input token sits past the comment, where the input ends.
    source = "a\n  x := a + # trailing"
    eof = tokenize(source)[-1]
    assert (eof.kind, eof.at, _place(source, eof.at)) == (EOF, 23, (2, 22))
    with pytest.raises(ParseError) as exc:
        parse_text('namespace "n" {\n  x := a + # trailing', "t.pal")
    assert str(exc.value).startswith("t.pal:2:22: expected ")


def test_lex_errors_name_their_file():
    with pytest.raises(LexError) as exc:
        parse_text('namespace "n" {\n  9x := a\n}', "bad.pal")
    assert str(exc.value) == "bad.pal:2:3: unexpected character '9'"
    with pytest.raises(LexError) as exc:
        parse_text('namespace "n" {\n  x := a $ b\n}', filename="expr.pal")
    assert str(exc.value) == "expr.pal:2:10: unexpected character '$'"
    # text that is no file names none
    for read in (tokenize, parse_expression):
        with pytest.raises(LexError) as exc:
            read("a $ b")
        assert exc.value.filename is None
        assert str(exc.value) == "1:3: unexpected character '$'"


def test_is_identifier_is_the_lexers_name_rule():
    for name in ["a", "Read", "session_1", "x9_", "isis", "lets", "Namespace"]:
        assert is_identifier(name)
        assert [t.kind for t in tokenize(name)] == [IDENT, EOF]
    for name in ["", "9lives", "_a", "a-b", "a b", "is", "let", "namespace", "caf\u00e9", "0"]:
        assert not is_identifier(name)


def test_zero_is_a_token_that_no_statement_can_bind():
    kinds = [t.kind for t in tokenize("0 +0*(0)# c\n[a0 <: 0]")]
    assert kinds == ["0", "+", "0", "*", "(", "0", ")", "[", IDENT, "<:", "0", "]", EOF]
    for text in ["0abc", "00", "0_", "01"]:
        with pytest.raises(LexError) as exc:
            tokenize("x + " + text)
        assert (exc.value.message, exc.value.at, exc.value.column) == (
            "unexpected character '0'", 4, 5
        )
    assert parse_expression("0") == Name("0")
    assert parse_expression("[read <: 0]/C") == Slash(
        Guard("<:", Name("read"), Name("0")), (Name("C"),)
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
        expected = reference_tokens(source)
    except LexError as exc:
        with pytest.raises(LexError) as got:
            tokenize(source)
        assert (str(got.value), got.value.at, got.value.line, got.value.column) == (
            str(exc), exc.at, exc.line, exc.column
        )
        return
    tokens = tokenize(source)
    assert tokens == [tok for tok, _ in expected]
    assert [_place(source, tok.at) for tok in tokens] == [place for _, place in expected]


def test_tokens_are_named_tuples():
    (tok, eof) = tokenize("read")
    assert tok == Token(IDENT, "read", 0) == (IDENT, "read", 0)
    assert (tok.kind, tok.text, tok.at) == tuple(tok)
    assert eof == (EOF, "", 4)


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
        found = (*_place(source, eof.at), None)
        assert eof.at == len(source)
    except LexError as exc:
        found = (exc.line, exc.column, exc.message)
        assert exc.at == len(source) - 1
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


_CHAIN = 'namespace "n" {\n  x := a' + " + a" * (MEGABYTE // 4) + "\n}\n"
_DEFINITIONS = (
    'namespace "n" {\n'
    + "".join(f"  x{i} := a{i} * b/C + c\n" for i in range(40_000))
    + "}\n"
)


@pytest.mark.parametrize("source", [_CHAIN, _DEFINITIONS], ids=["one-sum", "many-definitions"])
def test_megabyte_programs_parse_in_linear_time(source):
    # One long chain is one node built once, and many statements are
    # read in one pass; a quadratic step would not finish within the
    # bound. Each parse takes about 1 s on a 2-core VM, so the bound is
    # on this process's CPU time, which other tenants do not inflate.
    start = time.process_time()
    (namespace,) = parse_text(source).namespaces
    assert time.process_time() - start < 2.0
    last = namespace.statements[-1]
    if source is _CHAIN:
        assert len(namespace.statements) == 1 and len(last.body.operands) == MEGABYTE // 4 + 1
    else:
        assert len(namespace.statements) == 40_000 and last.at == source.rindex("x39999")
        product = Product((Name("a39999"), Slash(Name("b"), (Name("C"),))))
        assert last.body == Sum((product, Name("c")))


# --- the collector while a text is read ---------------------------------------


@pytest.fixture
def collector():
    """The collector enabled for the test, and enabled again after it."""
    gc.enable()
    yield
    gc.enable()


# the code of the lexer and of every parser rule
_READER_CODE = {tokenize.__code__} | {
    rule.__code__ for rule in vars(_Parser).values() if hasattr(rule, "__code__")
}


def _collections(read) -> list[int]:
    """The generation of each collection that starts while ``read()`` is
    in the lexer or the parser. The one that falls due when a reading
    ends and enables the collector again is not one of them."""
    started: list[int] = []

    def record(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in _READER_CODE:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        read()
    finally:
        gc.callbacks.remove(record)
    return started


def test_reading_a_text_runs_no_collection(collector):
    # Every token and node is a tuple the collector tracks: a reading
    # with the collector on starts thousands of collections on this text.
    program = 'namespace "n" {\n  x := a' + " + a" * 100_000 + "\n}\n"
    assert len(program) > 300_000
    assert _collections(lambda: parse_text(program)) == []
    assert _collections(lambda: parse_expression("a" + " + a" * 100_000)) == []
    assert gc.isenabled()


# each reading, and the error it raises, if any
_READINGS = {
    "program": (lambda: parse_text('namespace "n" {\n  x := a + b\n}\n'), None),
    "expression": (lambda: parse_expression("a * [b <: c]"), None),
    "lex-error": (lambda: parse_text('namespace "n" {\n  x := a $ b\n}\n'), LexError),
    "parse-error": (lambda: parse_expression("a + * b"), ParseError),
    "nesting-bound": (
        lambda: parse_expression("(" * (MAX_NESTING + 1) + "a" + ")" * (MAX_NESTING + 1)),
        ParseError,
    ),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("reading", list(_READINGS))
def test_a_reading_leaves_the_collector_as_it_found_it(collector, reading, enabled):
    # A caller's own gc.disable() survives a reading, and an error leaves
    # the collector as a success does.
    read, error = _READINGS[reading]
    if not enabled:
        gc.disable()
    if error is None:
        read()
    else:
        with pytest.raises(error):
            read()
    assert gc.isenabled() is enabled


def test_readings_in_two_threads_leave_the_collector_enabled(collector):
    # Each reading re-enables only a pause that it made, so whichever
    # thread ends last, the collector is on once both have ended.
    text = 'namespace "n" {\n  x := a' + " + a" * 2_000 + "\n}\n"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            start, done = threading.Barrier(2, timeout=10), []
            read = [
                lambda: (start.wait(), done.append(parse_text(text))),
                lambda: (start.wait(), done.append(parse_expression("b" + " * b" * 2_000))),
            ]
            threads = [threading.Thread(target=r) for r in read]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads) and len(done) == 2
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(interval)


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
    assert comp == Guard("<:", a, b)
    cong = parse_expression("[a + b ~ c]")
    assert cong == Guard("~", Sum((a, b)), c)


def test_guard_composes_like_primary():
    got = parse_expression("write * [s <: w]")
    assert got == Product((Name("write"), Guard("<:", Name("s"), Name("w"))))


def test_ast_equality_ignores_positions():
    assert parse_expression("a +\n  b") == parse_expression("a + b")
    assert parse_expression("x/Y") == Slash(Name("x", 9), (Name("Y", 1),))
    assert parse_expression(" [a ~ b]") == Guard("~", a, b, 7)
    assert hash(Name("x", 9)) == hash(Name("x")) and not Name("x", 9) != Name("x")
    # a node is a tuple of its fields, but equals only a node of its type
    assert Sum((a, b)) != Product((a, b)) and Name("x") != ("x", 0)
    assert {Define("x", a, 3), Define("x", a)} == {Define("x", a, 5)}


def test_nodes_keep_the_positions_of_names_and_brackets():
    source = "x +\n  [a ~ b]/C"
    got = parse_expression(source)
    assert got.operands[0].at == 0 and _place(source, got.operands[0].at) == (1, 1)
    slash = got.operands[1]
    assert slash.operand.at == 6 and _place(source, slash.operand.at) == (2, 3)
    assert slash.scopes[0].at == 14 and _place(source, slash.scopes[0].at) == (2, 11)


def test_expression_errors_carry_expectations():
    with pytest.raises(ParseError) as exc:
        parse_expression("a + ")
    assert exc.value.message == "expected '(' or '0' or '[' or identifier, found end of input"
    with pytest.raises(ParseError) as exc:
        parse_expression("a/(b)")
    assert exc.value.message == "expected identifier, found '('"
    with pytest.raises(ParseError) as exc:
        parse_expression("a b")
    assert exc.value.message == "expected end of input, found 'b'"
    with pytest.raises(ParseError) as exc:
        parse_expression("[a b]")
    assert exc.value.message == "expected '<:' or '~', found 'b'"
    with pytest.raises(ParseError) as exc:
        parse_expression("[a <: b")
    assert exc.value.message == "expected ']', found end of input"


def test_error_position_is_the_offending_token():
    with pytest.raises(ParseError) as exc:
        parse_expression("a +\n+ b")
    assert (exc.value.at, exc.value.line, exc.value.column) == (4, 2, 1)


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
    assert exc.value.message == "expected 'is', found 'b'"
    with pytest.raises(ParseError) as exc:
        parse_text('namespace "n" { + }')
    assert exc.value.message == "expected 'let' or '}' or identifier, found '+'"
    with pytest.raises(ParseError) as exc:
        parse_text("x := a")
    assert exc.value.message == "expected 'namespace', found 'x'"
    with pytest.raises(ParseError) as exc:
        parse_text("namespace n { }")
    assert exc.value.message == "expected string, found 'n'"
    with pytest.raises(ParseError) as exc:
        parse_text('namespace "n" x')
    assert exc.value.message == "expected '{', found 'x'"
    with pytest.raises(ParseError) as exc:
        parse_text('namespace "n" { x y }')
    assert exc.value.message == "expected ':=', found 'y'"


def test_nesting_is_bounded_at_the_opening_token():
    deepest = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse_expression(deepest) == Name("a")
    mixed = "[a <: (" * (MAX_NESTING // 2) + "b" + ")]" * (MAX_NESTING // 2)
    assert isinstance(parse_expression(mixed), Guard)
    with pytest.raises(ParseError, match=r"'\(' nested more than") as exc:
        parse_expression("(" + deepest + ")")
    assert (exc.value.at, exc.value.line, exc.value.column) == (MAX_NESTING, 1, MAX_NESTING + 1)
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
        st.builds(Guard, st.sampled_from(["<:", "~"]), sub, sub),
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


# Layout between tokens, and what may be spliced into a program's text:
# characters no token starts with, a stray quote, and tokens out of place.
_LAYOUT = st.lists(
    st.sampled_from([" ", "  ", "\t", "\r", "\n", "\n\n", "# c\n", "#:= x\n"]),
    min_size=1,
    max_size=3,
).map("".join)
_FAULTS = st.sampled_from(["$", "é", '"', "9", ":", "<", "+", ")", "]", "{", "namespace", ":="])


@st.composite
def _laid_out(draw, texts):
    """A text drawn from ``texts`` with each blank replaced by layout
    and, in about half the draws, one fault spliced in."""
    pieces = draw(texts).split(" ")
    source = "".join(piece + draw(_LAYOUT) for piece in pieces)
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(source)))
        source = source[:cut] + draw(_FAULTS) + source[cut:]
    return source


def _pal_sources():
    """A program's canonical text, laid out, perhaps with a fault."""
    return _laid_out(_programs().map(format_program))


@settings(max_examples=150)
@given(_pal_sources())
def test_offsets_place_tokens_and_errors_as_the_reference_lexer_counts(source):
    try:
        expected = reference_tokens(source)
    except LexError as exc:
        with pytest.raises(LexError) as got:
            parse_text(source, "g.pal")
        assert (got.value.at, got.value.line, got.value.column) == (exc.at, exc.line, exc.column)
        assert str(got.value) == f"g.pal:{exc}"
        return
    places = dict((tok.at, place) for tok, place in expected)
    assert [places[tok.at] for tok in tokenize(source)] == [place for _, place in expected]
    assert [_place(source, tok.at) for tok, _ in expected] == [place for _, place in expected]
    try:
        parse_text(source, "g.pal")
    except ParseError as exc:
        # a parse fault sits at a token, where the reference lexer put it
        assert (exc.line, exc.column) == places[exc.at]
        assert str(exc).startswith(f"g.pal:{exc.line}:{exc.column}: ")


# Sources for the parser referee: soups of PAL's spellings, alone or
# inside a namespace, and the texts of small programs and expressions,
# laid out, perhaps with a fault.
_SOUPS = st.lists(_DIFF_PIECES, max_size=40).map("".join)
_REFEREE_SOURCES = st.one_of(
    _SOUPS,
    _SOUPS.map(lambda soup: 'namespace "n" {\n  ' + soup),
    _laid_out(
        st.lists(st.one_of(st.builds(LetIs, _names, _scopes), st.builds(Define, _names, _exprs(2))), max_size=3)
        .map(lambda statements: format_program(Program((Namespace("n", tuple(statements)),))))
    ),
    _laid_out(_exprs(3).map(format_expr)),
)


def _read(parse, source):
    """``parse``'s tree with every position shown, or its error's type,
    message and place."""
    try:
        return repr(parse(source))
    except (LexError, ParseError) as exc:
        return type(exc), exc.message, exc.at, exc.line, exc.column


@settings(max_examples=500)
@given(_REFEREE_SOURCES)
def test_parser_agrees_with_the_reference_parser(source):
    # The repr of a tree shows every node's fields, ``at`` included.
    for expression, parse in ((False, parse_text), (True, parse_expression)):
        expected = _read(lambda text: reference_parse(text, expression), source)
        assert _read(parse, source) == expected
        if isinstance(expected, str):
            assert parse(source) == reference_parse(source, expression)
