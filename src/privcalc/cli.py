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
from .errors import PrivCalcError
from .facts import load_facts
from .privilege import ConditionMergeMode, compliant, normal_form, pulse, structural_eq, trace


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else int(exc.code or 0)
    try:
        return args.handler(args)
    except PrivCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
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

    p = sub.add_parser("check", parents=[common], help="parse and resolve a program")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("eval", parents=[common], help="evaluate an expression")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("nf", parents=[common], help="normal form over an arrangement")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.set_defaults(handler=_cmd_nf, needs_arrangement=True)

    p = sub.add_parser("eq", parents=[common], help="structural equality of two expressions")
    p.add_argument("file")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(handler=_cmd_eq, needs_arrangement=True)

    p = sub.add_parser("pulse", parents=[common], help="pulsed form at one fact")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.add_argument("--fact", default="empty")
    p.set_defaults(handler=_cmd_pulse, needs_arrangement=True)

    p = sub.add_parser("trace", parents=[common], help="trace matrix over a fact sequence (CSV)")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.add_argument("--seq", required=True, help="comma-separated fact ids")
    p.set_defaults(handler=_cmd_trace, needs_arrangement=True)

    p = sub.add_parser("comply", parents=[common], help="does p comply with q at a fact")
    p.add_argument("file")
    p.add_argument("--p", required=True, dest="holder")
    p.add_argument("--q", required=True, dest="target")
    p.add_argument("--fact", default="empty")
    p.set_defaults(handler=_cmd_comply, needs_arrangement=True)

    p = sub.add_parser("import-rbac", help="translate a role model to PAL")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_import_rbac)

    return parser


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_env(args: argparse.Namespace) -> engine.Environment:
    family = None
    conditions = None
    if args.facts:
        family, conditions = load_facts(_read(args.facts), filename=args.facts)
    env = engine.Environment(
        family=family,
        conditions=conditions,
        merge_mode=ConditionMergeMode(args.merge_conditions),
    )
    text = args.arrangement
    if text:
        if text.startswith("@"):
            text = _read(text[1:])
        env.arrangement = engine.arrangement_from_text(text, env)
    elif getattr(args, "needs_arrangement", False):
        raise PrivCalcError("this command needs --arrangement")
    program = pal.parse_text(_read(args.file), filename=args.file)
    engine.load_program(program, env, namespace=args.namespace, filename=args.file)
    return env


def _cmd_check(args: argparse.Namespace) -> int:
    source = _read(args.file)
    program = pal.parse_text(source, filename=args.file)
    names = (
        [args.namespace]
        if args.namespace
        else [ns.name for ns in program.namespaces] or [None]
    )
    warnings: list[str] = []
    for name in names:
        family = conditions = None
        if args.facts:
            family, conditions = load_facts(_read(args.facts), filename=args.facts)
        env = engine.Environment(
            family=family,
            conditions=conditions,
            merge_mode=ConditionMergeMode(args.merge_conditions),
        )
        text = args.arrangement
        if text:
            if text.startswith("@"):
                text = _read(text[1:])
            env.arrangement = engine.arrangement_from_text(text, env)
        engine.load_program(program, env, namespace=name, filename=args.file)
        warnings.extend(env.warnings)
    for warning in warnings:
        print(f"{args.file}: warning: {warning}", file=sys.stderr)
    print("ok")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    env = _load_env(args)
    print(engine.eval_text(args.expr, env).text())
    return 0


def _cmd_nf(args: argparse.Namespace) -> int:
    env = _load_env(args)
    assert env.arrangement is not None
    print(normal_form(engine.eval_text(args.expr, env), env.arrangement).render())
    return 0


def _cmd_eq(args: argparse.Namespace) -> int:
    env = _load_env(args)
    assert env.arrangement is not None
    equal = structural_eq(
        engine.eval_text(args.left, env),
        engine.eval_text(args.right, env),
        env.arrangement,
        env.family,
    )
    print("equal" if equal else "different")
    return 0 if equal else 1


def _cmd_pulse(args: argparse.Namespace) -> int:
    env = _load_env(args)
    assert env.arrangement is not None
    form = pulse(
        engine.eval_text(args.expr, env), env.arrangement, env.family.fact(args.fact)
    )
    print(form.render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    env = _load_env(args)
    assert env.arrangement is not None
    fact_ids = [chunk.strip() for chunk in args.seq.split(",") if chunk.strip()]
    if not fact_ids:
        raise PrivCalcError("--seq lists no fact ids")
    matrix = trace(
        engine.eval_text(args.expr, env),
        env.arrangement,
        [env.family.fact(fid) for fid in fact_ids],
    )
    print(matrix.to_csv(), end="")
    return 0


def _cmd_comply(args: argparse.Namespace) -> int:
    env = _load_env(args)
    assert env.arrangement is not None
    verdict = compliant(
        engine.eval_text(args.holder, env),
        engine.eval_text(args.target, env),
        env.arrangement,
        env.family.fact(args.fact),
        env.merge_mode,
    )
    print("compliant" if verdict else "non-compliant")
    return 0 if verdict else 1


def _cmd_import_rbac(args: argparse.Namespace) -> int:
    model = engine.load_rbac(_read(args.file), filename=args.file)
    print(pal.format_program(engine.import_rbac(model)), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
