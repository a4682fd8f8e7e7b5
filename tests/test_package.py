"""The package root: what ``from privcalc import *`` exports."""

from __future__ import annotations

import subprocess
import sys
import types

import privcalc
import privcalc.pal as pal

from fixtures import CHILD_ENV

PAL_INTERNALS = {
    "Define",
    "ExprNode",
    "Guard",
    "GuardOp",
    "LetIs",
    "Name",
    "Namespace",
    "Product",
    "Program",
    "Slash",
    "StatementNode",
    "Sum",
    "Token",
    "TokenKind",
    "format_node",
    "parse",
    "tokenize",
}


def test_all_names_resolve():
    assert len(privcalc.__all__) == len(set(privcalc.__all__))
    for name in privcalc.__all__:
        getattr(privcalc, name)


def test_all_has_no_modules_or_pal_internals():
    for name in privcalc.__all__:
        assert not isinstance(getattr(privcalc, name), types.ModuleType), name
    assert PAL_INTERNALS <= set(pal.__all__)
    assert not PAL_INTERNALS & set(privcalc.__all__)


def test_import_does_not_load_the_cli():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, privcalc; print('privcalc.cli' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")
