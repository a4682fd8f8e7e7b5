"""Command-line interface: exit codes, stdout/stderr contracts."""

from __future__ import annotations

import collections
import contextlib
import inspect
import io
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from privcalc import (
    Arrangement,
    ComplianceQuery,
    Employment,
    FunctionSymbol,
    PrivCalcError,
    EquivalenceQuery,
    EvalQuery,
    NormalFormQuery,
    Privilege,
    PulseQuery,
    TraceQuery,
    UNIVERSAL,
    close_family,
    compliance_condition,
    load_facts,
)
from privcalc import engine, pal
from privcalc.cli import main
from privcalc.engine import answer, build_environment
from privcalc.facts import MAX_FAMILY
from privcalc.pal import MAX_NESTING, LetIs, LexError, ParseError, format_expr, format_program

from fixtures import CHILD_ENV, EXAMPLE_PAL, GUARDS_PAL, SESSION_ARRANGEMENT
from oracles import reference_parse
from test_pal import _laid_out, _programs, _statements

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

FACTS_TEXT = """\
statement s1
statement s2
fact phone = s1
fact pc = s1 s2
condition logged = any s2
"""

RBAC_TEXT = """\
op read
op write
cat Docs
role viewer = read/Docs
role editor = write/Docs
inherits editor viewer
user ann = editor
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "example.pal").write_text(EXAMPLE_PAL)
    (tmp_path / "guards.pal").write_text(GUARDS_PAL)
    (tmp_path / "store.facts").write_text(FACTS_TEXT)
    (tmp_path / "staff.rbac").write_text(RBAC_TEXT)
    (tmp_path / "sessions.arr").write_text(SESSION_ARRANGEMENT + "\n")
    return tmp_path


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(workspace, capsys):
    code, out, err = run(capsys, "check", str(workspace / "example.pal"))
    assert (code, out, err) == (0, "ok\n", "")


def test_check_reports_warnings_on_stderr(workspace, capsys):
    source = 'namespace "n" { p := read\np := write }'
    path = workspace / "redefine.pal"
    path.write_text(source)
    code, out, err = run(capsys, "check", str(path))
    assert code == 0
    assert out == "ok\n"
    assert "redefinition of 'p'" in err


def test_check_loads_every_namespace_by_default(workspace, capsys):
    path = workspace / "multi.pal"
    path.write_text(
        'namespace "a" { p := read }\nnamespace "b" { let d is C\nq := d }'
    )
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "an entity" in err
    # selecting the healthy namespace passes
    code, out, _ = run(capsys, "check", str(path), "--namespace", "a")
    assert (code, out) == (0, "ok\n")


def test_eval_reports_warnings_and_answers(workspace, capsys):
    path = workspace / "redefine.pal"
    path.write_text('namespace "n" { p := read\np := write }')
    code, out, err = run(capsys, "eval", str(path), "--expr", "p")
    assert (code, out) == (0, "write\n")
    assert err == f"{path}: warning: line 2: redefinition of 'p' (latest wins)\n"


def test_empty_category_scope_warns_on_every_command(workspace, capsys):
    path = workspace / "later.pal"
    path.write_text('namespace "n" {\n  x := read/Later\n  let d is Later\n  y := read/Later\n}\n')
    warning = (
        f"{path}: warning: line 2: category 'Later' is empty here, "
        "so '/Later' restricts everything away\n"
    )
    assert run(capsys, "check", str(path)) == (0, "ok\n", warning)
    assert run(capsys, "eval", str(path), "--expr", "x") == (0, "0\n", warning)
    assert run(capsys, "eval", str(path), "--expr", "y") == (0, "read/Later\n", warning)
    # members at the scope: no word on stderr
    assert run(capsys, "check", str(workspace / "example.pal")) == (0, "ok\n", "")


def test_eval_session(workspace, capsys):
    code, out, _ = run(
        capsys, "eval", str(workspace / "example.pal"), "--expr", "session_1"
    )
    assert code == 0
    assert out == "list/TechDoc + read/TechDoc + write/TechDoc\n"


def test_eval_parse_error_exit_2(workspace, capsys):
    path = workspace / "bad.pal"
    path.write_text('namespace "n" { p := + }')
    code, out, err = run(capsys, "eval", str(path), "--expr", "p")
    assert code == 2
    assert out == ""
    assert f"{path}:1:22:" in err


def test_missing_file_exit_2(workspace, capsys):
    code, _, err = run(capsys, "eval", str(workspace / "ghost.pal"), "--expr", "p")
    assert code == 2
    assert "error:" in err


def test_usage_error_exit_2(workspace, capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["eval", str(workspace / "example.pal")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["eval", "--expr", "session_1", "--facts", ""], "--facts: empty value"),
        (["nf", "--expr", "session_1", "--arrangement", ""], "--arrangement: empty value"),
        (["check", "--arrangement", ""], "--arrangement: empty value"),
        (["check", "--arrangement", "@"], "--arrangement: '@' names no file"),
        (["trace", "--expr", "bob", "--seq", " , "], "--seq: lists no fact ids"),
    ],
    ids=["facts", "nf-arrangement", "check-arrangement", "arrangement-file", "trace-seq"],
)
def test_empty_file_option_is_a_usage_error(workspace, capsys, argv, error):
    command, *options = argv
    code, out, err = run(capsys, command, str(workspace / "example.pal"), *options)
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if "error" in line] == [
        f"pal {command}: error: argument {error}"
    ]


def test_an_unexpected_exception_is_an_internal_error_not_a_verdict(
    workspace, capsys, monkeypatch
):
    def boom(query, env):
        raise RuntimeError("boom")

    monkeypatch.setattr("privcalc.engine.answer", boom)
    assert run(capsys, "eval", str(workspace / "example.pal"), "--expr", "session_1") == (
        2,
        "",
        "error: internal error: RuntimeError: boom\n",
    )


def test_nf_requires_arrangement(workspace, capsys):
    code, _, err = run(
        capsys, "nf", str(workspace / "example.pal"), "--expr", "session_1"
    )
    assert code == 2
    assert "needs an arrangement (set Environment.arrangement, or pass --arrangement)" in err


def test_nf_golden(workspace, capsys):
    code, out, _ = run(
        capsys,
        "nf",
        str(workspace / "example.pal"),
        "--expr",
        "session_2",
        "--arrangement",
        SESSION_ARRANGEMENT,
    )
    assert code == 0
    assert out == "read/*: true\nlist/*: true\nwrite/*: false\nremove/*: false\n"


def test_arrangement_from_file(workspace, capsys):
    code, out, _ = run(
        capsys,
        "pulse",
        str(workspace / "example.pal"),
        "--expr",
        "session_1",
        "--arrangement",
        f"@{workspace / 'sessions.arr'}",
    )
    assert code == 0
    assert out == "1 1 1 0\n"


def test_eq_exit_codes(workspace, capsys):
    base = [
        "eq",
        str(workspace / "example.pal"),
        "--arrangement",
        SESSION_ARRANGEMENT,
    ]
    code, out, _ = run(capsys, *base, "--left", "session_1", "--right", "bob")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run(capsys, *base, "--left", "session_1", "--right", "session_2")
    assert (code, out) == (1, "different\n")


def test_pulse_with_facts_and_condition(workspace, capsys):
    path = workspace / "cond.pal"
    path.write_text('namespace "n" { p := read * logged + list }')
    base = [
        "pulse",
        str(path),
        "--facts",
        str(workspace / "store.facts"),
        "--arrangement",
        "read + list",
        "--expr",
        "p",
    ]
    code, out, _ = run(capsys, *base, "--fact", "phone")
    assert (code, out) == (0, "0 1\n")
    code, out, _ = run(capsys, *base, "--fact", "pc")
    assert (code, out) == (0, "1 1\n")
    # --fact defaults to the empty fact
    code, out, _ = run(capsys, *base)
    assert (code, out) == (0, "0 1\n")


def test_pulse_unknown_fact_exit_2(workspace, capsys):
    code, _, err = run(
        capsys,
        "pulse",
        str(workspace / "example.pal"),
        "--expr",
        "bob",
        "--arrangement",
        SESSION_ARRANGEMENT,
        "--fact",
        "nope",
    )
    assert code == 2
    assert "unknown fact 'nope'" in err


@pytest.mark.parametrize(
    "command, data, message",
    [
        # the column counts characters, so "é" is one
        ("check BAD", b'namespace "n" {\r\n  x := \xc3\xa9\xff\r\n}\r\n',
         "2:9: byte 0xff is not UTF-8 (invalid start byte)"),
        ("check EXAMPLE --facts BAD", b"statement s1\n\xff\n",
         "2:1: byte 0xff is not UTF-8 (invalid start byte)"),
        ("nf EXAMPLE --expr bob --arrangement @BAD", b"read +\xe9",
         "1:7: byte 0xe9 is not UTF-8 (unexpected end of data)"),
        ("import-rbac BAD", b"op read\nop w\xe9x\n",
         "2:5: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
    ],
    ids=["program", "facts", "arrangement", "rbac"],
)
def test_non_utf8_input_is_an_error_at_its_first_bad_byte(
    workspace, capsys, command, data, message
):
    bad = workspace / "bad.bin"
    bad.write_bytes(data)
    command = command.replace("BAD", str(bad)).replace("EXAMPLE", str(workspace / "example.pal"))
    code, out, err = run(capsys, *command.split())
    assert (code, out, err) == (2, "", f"error: {bad}:{message}\n")


def test_carriage_returns_read_as_the_library_reads_them(workspace, capsys):
    # A lone carriage return ends no line, through pal as through
    # load_facts; in CRLF text the line feed ends the line.
    text = "statement a\rstatement b\rfact f = a b\r"
    path = workspace / "cr.facts"
    path.write_bytes(text.encode())
    with pytest.raises(PrivCalcError) as info:
        load_facts(text, filename=str(path))
    assert str(info.value) == f"{path}:1: expected: statement <id>"
    example = str(workspace / "example.pal")
    assert run(capsys, "check", example, "--facts", str(path)) == (
        2, "", f"error: {info.value}\n"
    )
    # CRLF text reads as its LF copy: the same value, the same error
    bad = 'namespace "n" {\n  x := read +\n}\n'
    lf, crlf = workspace / "lf.pal", workspace / "crlf.pal"
    codes = []
    for program, expr in ((EXAMPLE_PAL, "session_1"), (bad, "x")):
        lf.write_bytes(program.encode())
        crlf.write_bytes(program.replace("\n", "\r\n").encode())
        code, out, err = run(capsys, "eval", str(lf), "--expr", expr)
        assert run(capsys, "eval", str(crlf), "--expr", expr) == (
            code, out, err.replace(str(lf), str(crlf))
        )
        codes.append(code)
    assert codes == [0, 2]


def test_trace_csv(workspace, capsys):
    path = workspace / "cond.pal"
    path.write_text('namespace "n" { p := read * logged + list }')
    code, out, _ = run(
        capsys,
        "trace",
        str(path),
        "--facts",
        str(workspace / "store.facts"),
        "--arrangement",
        "read + list",
        "--expr",
        "p",
        "--seq",
        "empty, phone, pc",
    )
    assert code == 0
    assert out == ("employment,empty,phone,pc\nread/*,0,0,1\nlist/*,1,1,1\n")


def test_trace_empty_seq_exit_2(workspace, capsys):
    code, _, err = run(
        capsys,
        "trace",
        str(workspace / "example.pal"),
        "--expr",
        "bob",
        "--arrangement",
        SESSION_ARRANGEMENT,
        "--seq",
        " , ",
    )
    assert code == 2
    assert "no fact ids" in err


def test_comply_exit_codes(workspace, capsys):
    base = [
        "comply",
        str(workspace / "example.pal"),
        "--arrangement",
        SESSION_ARRANGEMENT,
    ]
    code, out, _ = run(capsys, *base, "--p", "session_1", "--q", "read/doc1")
    assert (code, out) == (0, "compliant\n")
    code, out, _ = run(capsys, *base, "--p", "session_2", "--q", "write/doc1")
    assert (code, out) == (1, "non-compliant\n")


def test_comply_merge_mode_switch(workspace, capsys):
    # two atoms over overlapping employments, both conditioned on guards
    # that fail: intersection-mode mergence drops the conditions and
    # breaks self-compliance, union mode keeps them
    path = workspace / "quirk.pal"
    path.write_text(
        EXAMPLE_PAL.replace(
            "}\n",
            "  p := read * [session_2 <: write/doc1]"
            " + read/doc1 * [session_2 <: remove/doc1]\n}\n",
        )
    )
    base = [
        "comply",
        str(path),
        "--arrangement",
        SESSION_ARRANGEMENT,
        "--p",
        "p",
        "--q",
        "p",
    ]
    code, out, _ = run(capsys, *base)
    assert (code, out) == (1, "non-compliant\n")
    code, out, _ = run(capsys, *base, "--merge-conditions", "union")
    assert (code, out) == (0, "compliant\n")


def test_guards_program_checks(workspace, capsys):
    code, out, _ = run(
        capsys,
        "check",
        str(workspace / "guards.pal"),
        "--arrangement",
        SESSION_ARRANGEMENT,
    )
    assert (code, out) == (0, "ok\n")


def test_import_rbac_golden(workspace, capsys):
    code, out, _ = run(capsys, "import-rbac", str(workspace / "staff.rbac"))
    assert code == 0
    assert out == (
        'namespace "rbac" {\n'
        "  viewer := read/Docs\n"
        "  editor := viewer + write/Docs\n"
        "  ann := editor\n"
        "}\n"
    )


def test_import_rbac_error(workspace, capsys):
    path = workspace / "cyclic.rbac"
    path.write_text("op a\ncat C\nrole r = a/C\nrole s = a/C\ninherits r s\ninherits s r\n")
    code, _, err = run(capsys, "import-rbac", str(path))
    assert code == 2
    assert "cycle" in err


def test_import_then_eval_round_trip(workspace, capsys):
    code, out, _ = run(capsys, "import-rbac", str(workspace / "staff.rbac"))
    emitted = workspace / "staff.pal"
    # the model carries no objects; declare one so grants are observable
    emitted.write_text(out.replace("{\n", "{\n  let paper is Docs\n", 1))
    code, out, _ = run(capsys, "eval", str(emitted), "--expr", "ann")
    assert code == 0
    assert out == "read/Docs + write/Docs\n"
    # without members every role's privilege is empty
    bare = workspace / "bare.pal"
    code2, out2, _ = run(capsys, "import-rbac", str(workspace / "staff.rbac"))
    bare.write_text(out2)
    code2, out2, _ = run(capsys, "eval", str(bare), "--expr", "ann")
    assert (code2, out2) == (0, "0\n")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "privcalc.cli", "--help"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode in (0, 2)


def test_module_main_via_subprocess(workspace):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "privcalc.cli",
            "eval",
            str(workspace / "example.pal"),
            "--expr",
            "session_2",
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "list/TechDoc + read/TechDoc\n"


def test_module_main_writes_nothing_to_stderr():
    sample = Path(__file__).resolve().parent.parent / "samples" / "example.pal"
    proc = subprocess.run(
        [sys.executable, "-m", "privcalc.cli", "eval", str(sample), "--expr", "session_2"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_bare_guard_prints_in_bracket_form(tmp_path, capsys):
    # A bare guard is an atom of the reserved function 'guard'; printing
    # it as "guard * [...]" read like the program's own 'guard' under a
    # condition.
    path = tmp_path / "g.pal"
    path.write_text('namespace "g" {\n  x := [list <: read]\n  y := guard\n}\n')
    arr = ("--arrangement", "read + guard")
    assert run(capsys, "eval", str(path), *arr, "--expr", "x + y") == (
        0, "guard + [list <: read]\n", "",
    )
    for right, verdict in [("guard + [list <: read]", (0, "equal\n")), ("x", (1, "different\n"))]:
        code, out, _ = run(capsys, "eq", str(path), *arr, "--left", "x + y", "--right", right)
        assert (code, out) == verdict
    path.write_text('namespace "g" {\n  guard := read\n}\n')
    assert run(capsys, "check", str(path)) == (
        2, "", f"error: {path}:2:3: 'guard' is already a function, cannot use it as a privilege\n",
    )


def test_guard_over_an_empty_operand_re_reads(tmp_path, capsys):
    # The empty privilege prints as PAL's 0, so the printed guard is an
    # expression again and evaluates to the value that printed it.
    path = tmp_path / "z.pal"
    path.write_text('namespace "z" {\n  x := [read <: read * write]\n}\n')
    arr = ("--arrangement", "read + guard")
    for expr in ("x", "[read <: 0]"):
        assert run(capsys, "eval", str(path), *arr, "--expr", expr) == (0, "[read <: 0]\n", "")
    code, out, _ = run(capsys, "eq", str(path), *arr, "--left", "x", "--right", "[read <: 0]")
    assert (code, out) == (0, "equal\n")


def test_one_process_answers_like_fresh_processes(workspace, capsys):
    # The argument parser is built once per process: no option, default
    # or handler may carry over from one call of main to the next.
    quirk = workspace / "quirk.pal"
    quirk.write_text(EXAMPLE_PAL.replace(
        "}\n",
        "  p := read * [session_2 <: write/doc1] + read/doc1 * [session_2 <: remove/doc1]\n}\n",
    ))
    example, facts = str(workspace / "example.pal"), str(workspace / "store.facts")
    comply = ["comply", str(quirk), "--arrangement", SESSION_ARRANGEMENT, "--p", "p", "--q", "p"]
    logged = ["eval", example, "--expr", "read * logged"]
    calls = [
        [*comply, "--merge-conditions", "union"],
        comply,
        ["eval", example, "--namespace", "example", "--expr", "session_2"],
        ["eval", example, "--namespace", "other", "--expr", "session_2"],
        [*logged, "--facts", facts],
        logged,
        ["import-rbac", str(workspace / "staff.rbac")],
        ["eval", example],
        ["check", example],
    ]
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "privcalc.cli", *argv],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    codes = [run(capsys, *argv)[0] for argv in calls]
    assert codes == [0, 1, 0, 2, 0, 0, 0, 2, 0]


def test_crash_exits_2_not_1(tmp_path, capsys):
    # A 3,000-term sum may evaluate or exhaust the recursion limit; either
    # way main() returns, and a crash must not read as a negative verdict.
    terms = " + ".join(f"f{i}" for i in range(3000))
    path = tmp_path / "long.pal"
    path.write_text(f'namespace "h" {{\n  x := {terms}\n}}\n')
    code, out, err = run(capsys, "eval", str(path), "--expr", "x")
    assert code in (0, 2)
    assert code == 0 or err.startswith("error: ")


def test_long_sum_checks_and_evaluates(tmp_path, capsys):
    names = [f"f{i:04d}" for i in range(3000)]
    path = tmp_path / "long.pal"
    path.write_text(f'namespace "h" {{\n  x := {" + ".join(names)}\n}}\n')
    assert run(capsys, "check", str(path)) == (0, "ok\n", "")
    assert run(capsys, "eval", str(path), "--expr", "x") == (
        0,
        " + ".join(names) + "\n",
        "",
    )


def test_long_product_checks_and_evaluates(tmp_path, capsys):
    names = [f"f{i:04d}" for i in range(3000)]
    path = tmp_path / "product.pal"
    path.write_text(
        f'namespace "h" {{\n  x := {" * ".join(names)}\n  y := {" * ".join(["read"] * 3000)}\n}}\n'
    )
    assert run(capsys, "check", str(path)) == (0, "ok\n", "")
    assert run(capsys, "eval", str(path), "--expr", "x") == (0, "0\n", "")
    assert run(capsys, "eval", str(path), "--expr", "y") == (0, "read\n", "")


def test_long_slash_chain_checks_and_evaluates(tmp_path, capsys):
    path = tmp_path / "slash.pal"
    path.write_text('namespace "h" {\n  let d is c\n  x := f' + "/c" * 3000 + "\n}\n")
    assert run(capsys, "check", str(path)) == (0, "ok\n", "")
    assert run(capsys, "eval", str(path), "--expr", "x") == (0, "f/c\n", "")


def test_lex_error_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.pal"
    path.write_text('namespace "n" {\n  a := b\n  9x := a\n}\n')
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"error: {path}:3:3: unexpected character '9'\n")


def test_arrangement_resolves_in_the_programs_scope(workspace, capsys):
    path = str(workspace / "example.pal")
    nf = ("nf", path, "--expr", "session_2", "--arrangement")
    assert run(capsys, *nf, "read/TechDoc + write") == (
        0,
        "read/TechDoc: true\nwrite/*: false\n",
        "",
    )
    assert run(capsys, *nf, "read/doc1 + write") == (
        0,
        "read/{doc1}: true\nwrite/*: false\n",
        "",
    )
    assert run(capsys, *nf, "write + read/Nowhere") == (
        2,
        "",
        "error: 1:9: arrangement element 'read/Nowhere' is empty\n",
    )
    # a privilege of the program would be a function that overlaps nothing
    assert run(capsys, *nf, "reader") == (
        2,
        "",
        "error: 1:1: 'reader' is a privilege of the program\n",
    )


_PROGRAM_FAULT = 'namespace "n" {\n  x := read\n  let read is C\n}\n'


@pytest.mark.parametrize("command", [["check"], ["nf", "--expr", "bob"]])
@pytest.mark.parametrize(
    "program, arrangement, error",
    [
        (
            EXAMPLE_PAL,
            "read + (\n",
            "ARR:2:1: expected '(' or '0' or '[' or identifier, found end of input",
        ),
        (EXAMPLE_PAL, "read + reader\n", "ARR:1:8: 'reader' is a privilege of the program"),
        (
            EXAMPLE_PAL,
            "write + read/Nowhere\n",
            "ARR:1:9: arrangement element 'read/Nowhere' is empty",
        ),
        (
            EXAMPLE_PAL,
            "read +\n  read/TechDoc\n",
            "ARR:2:3: arrangement elements overlap: read/* and read/TechDoc",
        ),
        # the program's own fault is named by the program's file
        (
            _PROGRAM_FAULT,
            "write + read/Nowhere\n",
            "PAL:3:3: 'read' is already a function, cannot use it as an entity",
        ),
        # a guard in the arrangement is a condition, not a missing basis
        (
            EXAMPLE_PAL,
            "[read <: read]\n",
            "ARR:1:1: arrangement element guard/* carries conditions",
        ),
        (
            EXAMPLE_PAL,
            "read * [read <: write]\n",
            "ARR:1:1: arrangement element read/* carries conditions",
        ),
    ],
    ids=["syntax", "privilege", "empty", "overlap", "program-fault", "guard", "guarded"],
)
def test_arrangement_file_names_itself(tmp_path, capsys, command, program, arrangement, error):
    pal_path, arr_path = tmp_path / "p.pal", tmp_path / "bad.arr"
    pal_path.write_text(program)
    arr_path.write_text(arrangement)
    argv = [command[0], str(pal_path), *command[1:], "--arrangement", f"@{arr_path}"]
    error = error.replace("ARR", str(arr_path)).replace("PAL", str(pal_path))
    assert run(capsys, *argv) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "command",
    [
        ["check"],
        ["eval", "--expr", "x"],
        ["nf", "--expr", "x"],
        ["eq", "--left", "x", "--right", "x"],
        ["pulse", "--expr", "x"],
        ["trace", "--expr", "x", "--seq", "empty"],
        ["comply", "--p", "x", "--q", "x"],
    ],
    ids=lambda command: command[0],
)
def test_every_program_command_reads_its_inputs_in_one_order(tmp_path, capsys, command):
    # The program file first, then --facts, then --arrangement.
    bad, good, facts = tmp_path / "bad.pal", tmp_path / "good.pal", tmp_path / "bad.facts"
    bad.write_text('namespace "n" {\n  x := (read\n}\n')
    good.write_text(EXAMPLE_PAL)
    facts.write_text("statement s\nfact\n")
    name, *options = command
    for other in (
        ["--facts", str(facts)],
        ["--arrangement", "read +"],
        ["--arrangement", f"@{tmp_path / 'missing.arr'}"],
    ):
        assert run(capsys, name, str(bad), *options, *other) == (
            2, "", f"error: {bad}:3:1: expected ')', found '}}'\n"
        )
    assert run(capsys, name, str(good), *options, "--namespace", "") == (
        2, "", f'error: {good}: no namespace "" in program\n'
    )


def test_import_rbac_rejects_names_pal_cannot_bind(tmp_path, capsys):
    path = tmp_path / "bad.rbac"
    path.write_text("op read\ncat C\nrole 9lives = read/C\n")
    code, out, err = run(capsys, "import-rbac", str(path))
    assert (code, out, err) == (2, "", f"error: {path}:3: invalid role name '9lives'\n")
    path.write_text("op read\ncat C\nrole r = read/C\nuser read = r\n")
    code, out, err = run(capsys, "import-rbac", str(path))
    assert (code, out, err) == (2, "", f"error: {path}:4: 'read' is declared both as op and user\n")


def test_import_rbac_deep_hierarchy(tmp_path, capsys):
    roles = [f"r{i:04d}" for i in range(1200)]
    path = tmp_path / "deep.rbac"
    path.write_text(
        "\n".join(
            ["op read", "cat C"]
            + [f"role {r} = read/C" for r in roles]
            + [f"inherits {s} {j}" for s, j in zip(roles, roles[1:])]
        )
        + "\n"
    )
    code, out, err = run(capsys, "import-rbac", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == "  r1199 := read/C"
    assert lines[-2] == "  r0000 := r0001 + read/C"


def test_deep_nesting_exits_2_with_position(tmp_path, capsys):
    path = tmp_path / "deep.pal"
    path.write_text(f'namespace "h" {{\n  x := {"(" * 1200}read{")" * 1200}\n}}\n')
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}:2:{8 + MAX_NESTING}: '(' nested more than {MAX_NESTING} deep\n"


def test_import_rbac_wide_user(tmp_path, capsys):
    roles = [f"q{i:04d}" for i in range(1200)]
    path = tmp_path / "wide.rbac"
    path.write_text(
        "\n".join(
            ["op read", "cat C"]
            + [f"role {r} = read/C" for r in roles]
            + ["user wide = " + ", ".join(roles)]
        )
        + "\n"
    )
    code, out, err = run(capsys, "import-rbac", str(path))
    assert (code, err) == (0, "")
    assert f"  wide := {' + '.join(roles)}" in out.splitlines()


# Expression pairs per sample; each pair is also asked the other way
# round and against itself, so both verdicts of eq and comply occur.
DIFFERENTIAL_PAIRS = {
    "example.pal": ("session_1", "session_2"),
    "audited.pal": ("audited", "reader"),
}


def _query_commands(p: str, q: str, fact: str, seq: tuple[str, ...]):
    return [
        (["eval", "--expr", p], EvalQuery(p)),
        (["nf", "--expr", p], NormalFormQuery(p)),
        (["eq", "--left", p, "--right", q], EquivalenceQuery(p, q)),
        (["pulse", "--expr", p, "--fact", fact], PulseQuery(p, fact)),
        (["trace", "--expr", p, "--seq", ",".join(seq)], TraceQuery(p, seq)),
        (["comply", "--p", p, "--q", q, "--fact", fact], ComplianceQuery(p, q, fact)),
    ]


@pytest.mark.parametrize("with_facts", [False, True])
@pytest.mark.parametrize("sample", sorted(DIFFERENTIAL_PAIRS))
def test_cli_matches_library(sample, with_facts, capsys):
    path = SAMPLES / sample
    arrangement = SAMPLES / "sessions.arr"
    options = ["--arrangement", f"@{arrangement}"]
    family = conditions = None
    fact, seq = "empty", ("empty",)
    if with_facts:
        facts = SAMPLES / "store.facts"
        family, conditions = load_facts(facts.read_text(), filename=str(facts))
        options += ["--facts", str(facts)]
        fact, seq = "roaming", ("empty", "roaming", "office")
    a, b = DIFFERENTIAL_PAIRS[sample]
    verdicts = set()
    env = build_environment(
        path.read_text(),
        family,
        conditions,
        arrangement=arrangement.read_text(),
        filename=str(path),
    )
    for p, q in [(a, b), (b, a), (a, a)]:
        for argv, query in _query_commands(p, q, fact, seq):
            result = answer(query, env)
            code, out, err = run(capsys, argv[0], str(path), *argv[1:], *options)
            assert (out, err) == (result.text + "\n", ""), argv
            assert code == (1 if result.value is False else 0), argv
            verdicts.add((argv[0], code))
    assert {("eq", 0), ("eq", 1), ("comply", 0), ("comply", 1)} <= verdicts


# A guard merged with an equal copy of itself: the copies are equal
# values, so mergence keeps the guard in either mode.
TWICE_GUARDED_PAL = """\
namespace "g" {
  x := (read * [write <: read]) * (read * [write <: read])
  y := read * [write <: read]
}
"""


def test_guard_merged_with_its_copy_keeps_the_guard(tmp_path, capsys):
    path = tmp_path / "g.pal"
    path.write_text(TWICE_GUARDED_PAL)
    arr = ("--arrangement", "read + write")
    assert run(capsys, "pulse", str(path), *arr, "--expr", "x") == (0, "0 0\n", "")
    assert run(capsys, "pulse", str(path), *arr, "--expr", "y") == (0, "0 0\n", "")
    assert run(capsys, "eq", str(path), *arr, "--left", "x", "--right", "y") == (
        0,
        "equal\n",
        "",
    )
    for mode in ("union", "intersection"):
        assert run(
            capsys, "eval", str(path), *arr, "--merge-conditions", mode, "--expr", "x"
        ) == (0, "read * [write <: read]\n", "")


@pytest.mark.parametrize("op", ["<:", "~"])
def test_deepest_guard_merged_with_itself_at_low_recursion_limit(tmp_path, capsys, op):
    # Comparing two copies of a guard nested MAX_NESTING deep must not
    # recurse once per level. The limit leaves the program 450 frames
    # above the test's own stack, as a script run at limit 450 has.
    guard = "[" * MAX_NESTING + "read" + f" {op} write]" * MAX_NESTING
    path = tmp_path / "deep.pal"
    path.write_text(f'namespace "d" {{\n  e := {guard}\n  x := {guard} * {guard}\n}}\n')
    arr = ("--arrangement", "read + write + guard")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 450)
    try:
        code, out, err = run(capsys, "eval", str(path), *arr, "--expr", "x")
        assert (code, err) == (0, "")
        assert out == run(capsys, "eval", str(path), *arr, "--expr", "e")[1]
        for mode in ("union", "intersection"):
            assert run(
                capsys, "eq", str(path), *arr, "--merge-conditions", mode,
                "--left", "x", "--right", "e",
            ) == (0, "equal\n", "")
    finally:
        sys.setrecursionlimit(limit)


_DEEP = MAX_NESTING
DEEP_SHAPES = {
    "compliance": "[" * _DEEP + "read" + " <: write]" * _DEEP,
    "congruence": "[" * _DEEP + "read" + " ~ write]" * _DEEP,
    "parentheses": "(" * _DEEP + "read" + ")" * _DEEP,
    "product": "(a * " * _DEEP + "read" + ")" * _DEEP,
    "sum": "(a + " * _DEEP + "read" + ")" * _DEEP,
}


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_deepest_nesting_checks_and_evaluates_at_low_recursion_limit(tmp_path, capsys, shape):
    # The parser spends two frames per bracket and the evaluator at most
    # two, so MAX_NESTING levels fit in 250 frames above the caller's.
    path = tmp_path / "deep.pal"
    path.write_text(f'namespace "d" {{\n  x := {DEEP_SHAPES[shape]}\n}}\n')
    arr = ("--arrangement", "read + write + guard")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 250)
    try:
        assert run(capsys, "check", str(path), *arr) == (0, "ok\n", "")
        code, out, err = run(capsys, "eval", str(path), *arr, "--expr", "x")
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    assert out == run(capsys, "eval", str(path), *arr, "--expr", DEEP_SHAPES[shape])[1]


def test_bench_tracer_counts_guard_evaluations(monkeypatch, capsys):
    # The bench reads facts.guard_evals from the tracer, which finds the
    # guard class among the Condition subclasses by name. A query reads
    # the guard's mask and calls no evaluate; a direct evaluate counts.
    monkeypatch.syspath_prepend(str(SAMPLES.parent / "bench"))
    from tracing import Tracer

    read = Employment(FunctionSymbol("read"), UNIVERSAL)
    reads = Privilege.single(read)
    guard = compliance_condition(reads, reads, Arrangement((read,)))
    with Tracer().installed() as tracer:
        code = main([
            "pulse", str(SAMPLES / "guards.pal"),
            "--arrangement", f"@{SAMPLES / 'sessions.arr'}",
            "--expr", "readguard",
        ])
        assert guard.evaluate(close_family((), ()).fact("empty")) is True
    assert code == 0
    assert capsys.readouterr().out == "1 0 0 0\n"
    assert tracer.metrics()["facts.guard_evals"][0] == 1


def test_oversized_fact_family_exits_2_within_a_second(workspace, capsys):
    lines = [f"statement s{i}" for i in range(24)]
    lines += [f"fact f{i} = s{i}" for i in range(24)]
    path = workspace / "f24.facts"
    path.write_text("\n".join(lines) + "\n")
    started = time.perf_counter()
    code, out, err = run(
        capsys, "check", str(workspace / "example.pal"), "--facts", str(path)
    )
    assert time.perf_counter() - started < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: {path}:48: 24 facts close to more than {MAX_FAMILY} facts\n"


def _guard_chain(op: str, levels: int) -> str:
    """``g0 := read``, then ``g{i} := read * [g{i-1} <op> read]``: each
    guard nests the one before it through a name."""
    lines = ["  g0 := read"]
    lines += [f"  g{i} := read * [g{i - 1} {op} read]" for i in range(1, levels + 1)]
    return 'namespace "c" {\n' + "\n".join(lines) + "\n}\n"


def _program_commands(name: str) -> list[list[str]]:
    return [
        ["check"],
        ["eval", "--expr", name],
        ["nf", "--expr", name],
        ["eq", "--left", name, "--right", "read"],
        ["pulse", "--expr", name],
        ["trace", "--expr", name, "--seq", "empty"],
        ["comply", "--p", name, "--q", "read"],
    ]


@pytest.mark.parametrize("mode", ["intersection", "union"])
@pytest.mark.parametrize("op", ["<:", "~"])
def test_guards_nested_through_names_are_bounded(tmp_path, capsys, op, mode):
    # Brackets cannot nest a guard deeper than MAX_NESTING, but names
    # can; the guard one level past the bound is refused at its '[', by
    # `check` and by every query that reads it.
    path = tmp_path / "chain.pal"
    path.write_text(_guard_chain(op, 150))
    options = ["--arrangement", "read + write", "--merge-conditions", mode]
    line, column = MAX_NESTING + 3, len(f"  g{MAX_NESTING + 1} := read * ") + 1
    message = f"'[' nested more than {MAX_NESTING} deep through names"
    error = f"error: {path}:{line}:{column}: {message}\n"
    for command, *query in _program_commands("g150"):
        assert run(capsys, command, str(path), *query, *options) == (2, "", error), command


@pytest.mark.parametrize("op", ["<:", "~"])
def test_a_query_whose_cone_avoids_a_fault_of_a_value_answers(tmp_path, capsys, op):
    # A definition is computed when a command first reads it: `check`
    # reads every one, a query only those its names depend on. g1 reads
    # g0 alone, so the guard too deep at g101 is no fault of its queries.
    path = tmp_path / "chain.pal"
    path.write_text(_guard_chain(op, 150))
    options = ["--arrangement", "read + write"]
    code, out, err = run(capsys, "check", str(path), *options)
    assert (code, out) == (2, "") and err.startswith(f"error: {path}:{MAX_NESTING + 3}:")
    for command, *query in _program_commands("g1")[1:]:
        code, out, err = run(capsys, command, str(path), *query, *options)
        assert code in (0, 1) and out and not err, command
    assert run(capsys, "eval", str(path), "--expr", "g0 + g1", *options) == (
        0, f"read + read * [read {op} read]\n", ""
    )


@pytest.mark.parametrize("op", ["<:", "~"])
def test_guards_nested_through_names_to_the_bound_answer(tmp_path, capsys, op):
    path = tmp_path / "chain.pal"
    path.write_text(_guard_chain(op, MAX_NESTING))
    options = ["--arrangement", "read + write", "--merge-conditions", "union"]
    last = f"g{MAX_NESTING}"
    assert run(capsys, "pulse", str(path), "--expr", last, *options) == (0, "1 0\n", "")
    assert run(capsys, "eq", str(path), "--left", last, "--right", last, *options) == (
        0, "equal\n", ""
    )
    # one more level in a query's own text is placed in that text
    deeper = f"read * [{last} {op} read]"
    assert run(capsys, "eval", str(path), "--expr", deeper, *options) == (
        2, "", f"error: 1:8: '[' nested more than {MAX_NESTING} deep through names\n"
    )


# Shaped like policy-load's policies: roles, users, terminals, sessions
# (user * terminal) and an audited session.
ORG_PAL = """\
namespace "org" {
  let d1 is Docs
  let d2 is Docs
  reader := (read + list)/Docs
  writer := reader + write/Docs
  admin := writer + remove/Docs
  alice := reader
  bob := writer
  carol := admin
  phone := read + list
  desk := read + list + write + remove
  s_alice := alice * phone
  s_bob := bob * desk
  s_carol := carol * desk
  a_bob := s_bob * logged
}
"""


def test_a_query_evaluates_only_its_cone(workspace, capsys, monkeypatch):
    # A command reads the program to its token columns; a body is parsed
    # from them when its definition is computed, and `_value` meets the
    # body only then, so these counts are parses and computations.
    path = workspace / "org.pal"
    path.write_text(ORG_PAL)
    starts: dict[int, str] = {}  # a body's first token: its definition's name
    bodies: dict[int, str] = {}  # a parsed body's id: its definition's name
    parsed: collections.Counter = collections.Counter()
    counts: collections.Counter = collections.Counter()
    program = []
    read, expr, value = pal.read_columns, pal._Parser.expr, engine._value

    def reading(text, filename=None):
        columns = read(text, filename)
        program[:] = [columns.parser]
        kinds, texts = columns.parser.kinds, columns.parser.texts
        for heads in columns.namespaces.values():
            starts.update((head + 2, texts[head]) for head in heads if kinds[head] != "let")
        return columns

    def parsing(parser, pos):
        node, end = expr(parser, pos)
        if parser is program[0] and parser.depth == 0:
            parsed[starts[pos]] += 1
            bodies[id(node)] = starts[pos]
            program.append(node)  # alive, so that no later node takes its id
        return node, end

    def counting(node, env, bound):
        counts[bodies.get(id(node))] += 1
        return value(node, env, bound)

    monkeypatch.setattr(pal, "read_columns", reading)
    monkeypatch.setattr(pal._Parser, "expr", parsing)
    monkeypatch.setattr(engine, "_value", counting)

    def computed(command, *options):
        for counter in (starts, bodies, parsed, counts):
            counter.clear()
        facts = ["--facts", str(workspace / "store.facts")]
        code, out, err = run(capsys, command, str(path), *options, *facts)
        assert code == 0 and out and not err
        assert {name: n for name, n in counts.items() if name is not None} == parsed
        return dict(parsed)

    cone = {"reader": 1, "writer": 1, "bob": 1, "desk": 1, "s_bob": 1}
    assert computed("eval", "--expr", "s_bob") == cone
    every = [line.split(" := ")[0].strip() for line in ORG_PAL.splitlines() if " := " in line]
    assert computed("check") == dict.fromkeys(every, 1)
    arrangement = ["--arrangement", "read + list + write + remove"]
    both = ["--left", "a_bob", "--right", "a_bob"]
    assert computed("eq", *both, *arrangement) == {**cone, "a_bob": 1}


# Every command that reads a program, with arguments that are
# well-formed whatever the program holds.
_PROGRAM_COMMANDS = (
    ["check"],
    ["eval", "--expr", "0"],
    ["pulse", "--expr", "0"],
    ["trace", "--expr", "0", "--seq", "empty"],
    ["comply", "--p", "0", "--q", "0"],
)


@pytest.fixture(scope="module")
def fault_file(tmp_path_factory):
    return tmp_path_factory.mktemp("faults") / "f.pal"


@settings(max_examples=100)
@given(_laid_out(_programs().map(format_program), spliced=st.just(True)))
def test_every_command_reports_a_syntax_fault_where_check_does(fault_file, source):
    # Whatever a command then asks, it reads the whole file first, so
    # one fault anywhere in it is reported by each command at the place
    # the reference lexer and parser give it.
    try:
        reference_parse(source)
    except (LexError, ParseError) as exc:
        expected = f"error: {fault_file}:{exc.line}:{exc.column}: {exc.message}\n"
    else:
        assume(False)  # the fault landed in a comment or a string
    fault_file.write_bytes(source.encode())
    for command, *options in _PROGRAM_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(fault_file), *options])
        assert (command, code, out.getvalue(), err.getvalue()) == (command, 2, "", expected)


# Lines that make a program faulty or warn, and the name each defines,
# which the queried name reads when the lines stand in its cone.
_RESOLUTION_FAULTS = {
    "clash": (["let k is K", "K := read"], "K"),
    "redefinition": (["f := read", "f := write/K"], "f"),
    "empty scope": (["f := read/Empty + write"], "f"),
}
# Every command that reads a program, asking for "q" over an
# arrangement that no program's name clashes with.
_QUERIES_OF_Q = (
    ["check"],
    ["eval", "--expr", "q"],
    ["pulse", "--expr", "q"],
    ["trace", "--expr", "q", "--seq", "empty"],
    ["comply", "--p", "q", "--q", "q"],
)


@settings(max_examples=40)
@given(
    st.lists(_statements, max_size=4),
    st.sampled_from(sorted(_RESOLUTION_FAULTS)),
    st.booleans(),
    st.data(),
)
def test_every_command_reports_a_resolution_fault_or_warning_as_check_does(
    fault_file, statements, shape, in_cone, data
):
    # A query parses only the bodies it computes, but it binds every
    # name of the file first: a clash anywhere fails it as it fails
    # `check`, and every warning is printed, whether or not the faulty
    # or warned line is in the queried name's cone.
    lines = [
        f"let {s.entity} is {s.category}" if isinstance(s, LetIs)
        else f"{s.name} := {format_expr(s.body)}"
        for s in statements
    ]
    faulty, name = _RESOLUTION_FAULTS[shape]
    cut = data.draw(st.integers(0, len(lines)))
    lines[cut:cut] = faulty
    lines.append(f"q := read + {name}" if in_cone else "q := read")
    text = 'namespace "n" { ' + " ".join(line.replace(" ", "  ") for line in lines) + " }"
    fault_file.write_bytes(data.draw(_laid_out(st.just(text), spliced=st.just(False))).encode())
    results = []
    for command, *options in _QUERIES_OF_Q:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(fault_file), *options, "--arrangement", "zz"])
        results.append((command, code, out.getvalue(), err.getvalue()))
    check = results[0]
    warnings = [line for line in check[3].splitlines() if ": warning: " in line]
    assert (check[1] == 2) == (not check[2])
    for command, code, out, err in results[1:]:
        if check[1] == 2:
            assert (command, code, out, err) == (command, 2, "", check[3])
        else:
            assert (command, err.splitlines()) == (command, warnings)
            assert code in (0, 1) and out
    assert check[1] == 2 or shape != "clash" and warnings
