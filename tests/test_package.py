"""The package root: what ``from privcalc import *`` exports."""

from __future__ import annotations

import ast
import importlib
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import privcalc
import privcalc.pal as pal

from fixtures import CHILD_ENV

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SOURCES = sorted((ROOT / "src" / "privcalc").glob("*.py"))

# README's Layout order: a module imports only modules listed before it.
LAYERS = ("errors", "algebra", "pal", "facts", "privilege", "engine", "cli")

PAL_INTERNALS = {
    "Define",
    "EOF",
    "ExprNode",
    "Guard",
    "IDENT",
    "LetIs",
    "Name",
    "Namespace",
    "Product",
    "Program",
    "STRING",
    "Slash",
    "StatementNode",
    "Sum",
    "Token",
    "tokenize",
}


def test_all_names_resolve():
    assert len(privcalc.__all__) == len(set(privcalc.__all__))
    for name in privcalc.__all__:
        getattr(privcalc, name)


@pytest.mark.parametrize("module", ["algebra", "facts", "privilege", "pal", "engine"])
def test_submodule_all_names_resolve(module):
    # The traced bench wraps every name a module exports, so a stale
    # name would crash it.
    submodule = importlib.import_module(f"privcalc.{module}")
    assert len(submodule.__all__) == len(set(submodule.__all__))
    for name in submodule.__all__:
        getattr(submodule, name)


def test_readme_lists_the_root_exports_by_module():
    text = README.read_text(encoding="utf-8")
    block = text.split("The package root exports, by module:\n\n", 1)[1].split("\n\n", 1)[0]
    listed = []
    for module, names in re.findall(r"^- (\w+): (.*?)(?=^- |\Z)", block, re.M | re.S):
        submodule = importlib.import_module(f"privcalc.{module}")
        for name in re.findall(r"`(\w+)`", names):
            assert hasattr(submodule, name), (module, name)
            listed.append(name)
    assert sorted(listed) == sorted(privcalc.__all__)


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


def _package_imports(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The privcalc modules an import statement names."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:
            base = f"privcalc.{base}" if base else "privcalc"
        dotted = [f"{base}.{a.name}" for a in node.names] if base == "privcalc" else [base]
    return [d.split(".")[1] for d in dotted if d.startswith("privcalc.")]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_import_is_at_module_level():
    nested = []
    for path in SOURCES:
        tree = _parse(path)
        top = {id(node) for node in tree.body}
        nested += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        ]
    assert nested == []


def test_modules_import_only_lower_layers():
    assert {path.stem for path in SOURCES} == set(LAYERS) | {"__init__"}
    upward = [
        f"{path.name}:{node.lineno} imports {name}"
        for path in SOURCES
        if path.stem in LAYERS
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _package_imports(node)
        if LAYERS.index(name) >= LAYERS.index(path.stem)
    ]
    assert upward == []
