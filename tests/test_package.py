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


def _assigned(target: ast.expr) -> list[str]:
    """The names and attribute names an assignment target binds."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for element in target.elts for name in _assigned(element)]
    if isinstance(target, ast.Starred):
        return _assigned(target.value)
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Attribute):
        return [target.attr]
    return []


def _private_names(tree: ast.Module) -> tuple[set[str], list[tuple[int, str]]]:
    """The private names a module defines (``def`` and ``class`` names,
    assignment and annotation targets, ``_``-prefixed string constants
    such as ``__slots__`` entries), and each ``x._name`` it reads, by line."""
    defined: set[str] = set()
    read: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(name for target in node.targets for name in _assigned(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            defined.update(_assigned(node.target))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            defined.add(node.value)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.append((node.lineno, node.attr))

    def private(name: str) -> bool:
        return name.startswith("_") and not re.fullmatch(r"__\w+__", name)

    return set(filter(private, defined)), [(line, name) for line, name in read if private(name)]


def test_modules_read_no_private_name_only_another_module_defines():
    # A module's private state is its own: no module reaches into the
    # private attributes of another (as ``privilege`` once did into the
    # masks that ``facts.Masked`` stores).
    scanned = {path.name: _private_names(_parse(path)) for path in SOURCES}
    reaches = [
        f"{module}:{line} reads {name}"
        for module, (own, reads) in scanned.items()
        for line, name in reads
        if name not in own
        and any(name in other for m, (other, _) in scanned.items() if m != module)
    ]
    assert reaches == []
