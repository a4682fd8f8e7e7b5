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
from .errors import PrivCalcError, SourceError
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
        "--facts", default=None, help="facts file declaring statements and facts"
    )
    common.add_argument(
        "--arrangement",
        default=None,
        help="arrangement expression, or @FILE to read it from a file",
    )
    common.set_defaults(handler=_cmd_query)

    p = sub.add_parser("check", parents=[common], help="parse and resolve a program")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.set_defaults(query=lambda a: engine.EvalQuery(a.expr))

    p = sub.add_parser("nf", parents=[common], help="normal form over an arrangement")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.set_defaults(query=lambda a: engine.NormalFormQuery(a.expr))

    p = sub.add_parser("eq", parents=[common], help="structural equality of two expressions")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(query=lambda a: engine.EquivalenceQuery(a.left, a.right))

    p = sub.add_parser("pulse", parents=[common], help="pulsed form at one fact")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.add_argument("--fact", default="empty")
    p.set_defaults(query=lambda a: engine.PulseQuery(a.expr, a.fact))

    p = sub.add_parser("trace", parents=[common], help="trace matrix over a fact sequence (CSV)")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.add_argument("--seq", required=True, help="comma-separated fact ids")
    p.set_defaults(query=_trace_query)

    p = sub.add_parser("comply", parents=[common], help="does p comply with q at a fact")
    p.add_argument("file")
    p.add_argument("--p", required=True, dest="holder")
    p.add_argument("--q", required=True, dest="target")
    p.add_argument("--fact", default="empty")
    p.set_defaults(query=lambda a: engine.ComplianceQuery(a.holder, a.target, a.fact))

    p = sub.add_parser("import-rbac", help="translate a role model to PAL")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_import_rbac)

    return parser


def _read(path: str) -> str:
    """The file's text with newlines translated, as text mode reads it.
    Bytes that are not UTF-8 are an error at the first of them."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise SourceError(
            f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})",
            line=data.count(b"\n", 0, exc.start) + 1,
            column=len(data[line_start : exc.start].decode("utf-8")) + 1,
            filename=path,
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _context(args: argparse.Namespace) -> dict:
    """Keyword arguments for ``engine.build_environment`` from the options."""
    family = conditions = None
    if args.facts:
        family, conditions = load_facts(_read(args.facts), filename=args.facts)
    text = args.arrangement or None
    if text is not None and text.startswith("@"):
        text = _read(text[1:])
    return dict(
        family=family,
        conditions=conditions,
        arrangement=text,
        merge_mode=ConditionMergeMode(args.merge_conditions),
    )


def _warn(filename: str, envs: list[engine.Environment]) -> None:
    for env in envs:
        for warning in env.warnings:
            print(f"{filename}: warning: {warning}", file=sys.stderr)


def _cmd_check(args: argparse.Namespace) -> int:
    program = pal.parse_text(_read(args.file), filename=args.file)
    names = (
        [args.namespace]
        if args.namespace
        else [ns.name for ns in program.namespaces] or [None]
    )
    context = _context(args)
    envs = [
        engine.build_environment(program, namespace=name, filename=args.file, **context)
        for name in names
    ]
    _warn(args.file, envs)
    print("ok")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    context = _context(args)
    env = engine.build_environment(
        _read(args.file), namespace=args.namespace, filename=args.file, **context
    )
    _warn(args.file, [env])
    result = engine.answer(args.query(args), env)
    print(result.text, end="" if isinstance(result.query, engine.TraceQuery) else "\n")
    return 1 if result.value is False else 0


def _trace_query(args: argparse.Namespace) -> engine.TraceQuery:
    fact_ids = [chunk.strip() for chunk in args.seq.split(",") if chunk.strip()]
    if not fact_ids:
        raise PrivCalcError("--seq lists no fact ids")
    return engine.TraceQuery(args.expr, tuple(fact_ids))


def _cmd_import_rbac(args: argparse.Namespace) -> int:
    model = engine.load_rbac(_read(args.file), filename=args.file)
    print(pal.format_program(engine.import_rbac(model)), end="")
    return 0


# Built once, after the handlers it names: parsing reads it and never
# changes it.
_PARSER = _build_parser()

if __name__ == "__main__":
    sys.exit(main())
