"""Command-line front end.

Exit codes: 0 success, 1 negative verdict (eq, comply), 2 input,
usage and internal errors. All diagnostics go to stderr with
file:line:column positions where available.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import engine, pal
from .errors import PrivCalcError, SourceError, in_text
from .facts import load_facts
from .privilege import ConditionMergeMode


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else int(exc.code or 0)
    try:
        return args.handler(args)
    except (PrivCalcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Last resort: exit 1 means a negative verdict, so a crash must
        # not reach the interpreter's default handler.
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pal", description="Privilege calculus and PAL toolchain."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--merge-conditions",
        choices=["intersection", "union"],
        default="intersection",
        help="how mergence combines condition sets (default: intersection)",
    )
    common.add_argument(
        "--namespace", default=None, help="namespace to load from the program"
    )
    common.add_argument(
        "--facts", type=_given, help="facts file declaring statements and facts"
    )
    common.add_argument(
        "--arrangement", type=_given, help="arrangement expression, or @FILE to read it from a file"
    )
    common.add_argument("file")
    common.set_defaults(handler=_cmd_program, query=None)

    sub.add_parser("check", parents=[common], help="parse and resolve a program")

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression")
    p.add_argument("--expr", required=True)
    p.set_defaults(query=lambda a: engine.EvalQuery(a.expr))

    p = sub.add_parser("nf", parents=[common], help="normal form over an arrangement")
    p.add_argument("--expr", required=True)
    p.set_defaults(query=lambda a: engine.NormalFormQuery(a.expr))

    p = sub.add_parser("eq", parents=[common], help="structural equality of two expressions")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(query=lambda a: engine.EquivalenceQuery(a.left, a.right))

    p = sub.add_parser("pulse", parents=[common], help="pulsed form at one fact")
    p.add_argument("--expr", required=True)
    p.add_argument("--fact", default="empty")
    p.set_defaults(query=lambda a: engine.PulseQuery(a.expr, a.fact))

    p = sub.add_parser("trace", parents=[common], help="trace matrix over a fact sequence (CSV)")
    p.add_argument("--expr", required=True)
    p.add_argument("--seq", required=True, type=_fact_ids, help="comma-separated fact ids")
    p.set_defaults(query=lambda a: engine.TraceQuery(a.expr, a.seq))

    p = sub.add_parser("comply", parents=[common], help="does p comply with q at a fact")
    p.add_argument("--p", required=True, dest="holder")
    p.add_argument("--q", required=True, dest="target")
    p.add_argument("--fact", default="empty")
    p.set_defaults(query=lambda a: engine.ComplianceQuery(a.holder, a.target, a.fact))

    p = sub.add_parser("import-rbac", help="translate a role model to PAL")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_import_rbac)

    return parser


def _given(value: str) -> str:
    """A ``--facts`` or ``--arrangement`` value, or the FILE of ``@FILE``: never empty."""
    if not value.removeprefix("@"):
        raise argparse.ArgumentTypeError(f"{value!r} names no file" if value else "empty value")
    return value


def _fact_ids(value: str) -> tuple[str, ...]:
    """A ``--seq`` value's fact ids, without empty chunks: never none."""
    fact_ids = tuple(chunk.strip() for chunk in value.split(",") if chunk.strip())
    if not fact_ids:
        raise argparse.ArgumentTypeError("lists no fact ids")
    return fact_ids


def _read(path: str) -> str:
    """The file's text as it is: readers end lines at line feeds only.
    Bytes that are not UTF-8 are an error at the first of them."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        valid = data[: exc.start].decode("utf-8")
        message = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        with in_text(valid, path):
            raise SourceError(message, at=len(valid)) from None
    return text


def _warn(filename: str, envs: list[engine.Environment]) -> None:
    for env in envs:
        for warning in env.warnings:
            print(f"{filename}: warning: {warning}", file=sys.stderr)


def _cmd_program(args: argparse.Namespace) -> int:
    """Read the program, ``--facts`` and ``--arrangement``, in that
    order, then load the program and answer the query, or print ``ok``
    for ``check``, which loads every namespace unless one is named. The
    program is read once, to its token columns (``pal.read_columns``):
    its syntax faults come first, and a body is parsed only when a
    definition is computed."""
    program = pal.read_columns(_read(args.file), filename=args.file)
    family = conditions = path = None
    if args.facts:
        family, conditions = load_facts(_read(args.facts), filename=args.facts)
    arrangement = args.arrangement
    if arrangement is not None and arrangement.startswith("@"):
        path = arrangement[1:]
        arrangement = _read(path)
    names = [args.namespace]
    if args.query is None and args.namespace is None:
        names = list(program.namespaces) or [None]
    mode = ConditionMergeMode(args.merge_conditions)
    # The program's faults name the program, so an error that leaves
    # ``build_environment`` naming no file is the arrangement's.
    with in_text(arrangement or "", path):
        envs = [
            engine.build_environment(
                program, family, conditions, arrangement, mode, name, filename=args.file
            )
            for name in names
        ]
    if args.query is None:
        for env in envs:
            env.read_all()
    _warn(args.file, envs)
    if args.query is None:
        print("ok")
        return 0
    result = engine.answer(args.query(args), envs[0])
    print(result.text)
    return 1 if result.value is False else 0


def _cmd_import_rbac(args: argparse.Namespace) -> int:
    model = engine.load_rbac(_read(args.file), filename=args.file)
    print(pal.format_program(engine.import_rbac(model)), end="")
    return 0


# Built once, after the handlers it names: parsing reads it and never
# changes it.
_PARSER = _build_parser()

if __name__ == "__main__":
    sys.exit(main())
