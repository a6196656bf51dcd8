"""No module in src/ or tests/ imports a name it never reads, parsing a
config imports no standard library INI reader, and src/ builds instances
without their checks, and checks the arrays callers pass in, in one place
only.

The project depends on no linter, so each file is read with ``ast``: every
name an import binds must be read somewhere in the same file. A package's
``__init__.py`` imports names to export them and is exempt, as are
``from __future__`` imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``"line N: name"`` for each imported name the source never reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os\nimport os.path\n"
              "from math import pi as half_turn, tau\nprint(tau)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: half_turn"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_parsing_a_config_does_not_import_configparser():
    # configparser cost about 40 us per parser and about 1 MB of peak memory;
    # config.py reads INI text itself.
    code = ("import sys, modrotor\n"
            f"modrotor.parse_config(open({str(ROOT / 'configs' / 'experiment3.cfg')!r}).read())\n"
            "assert 'configparser' not in sys.modules, 'configparser was imported'\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr


def object_new_owners(source: str) -> list[str]:
    """The innermost function around each use of ``object.__new__``, in
    source order; ``<module>`` for a use at the top level."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_object_new_uses_are_found():
    source = ("make = object.__new__\nclass A:\n    def f(cls):\n"
              "        def g():\n            return object.__new__(cls)\n        return g\n")
    assert object_new_owners(source) == ["<module>", "g"]


def test_only_lazy_unchecked_skips_the_checks():
    # Values the library builds from checked inputs skip re-validation
    # through lazy.unchecked, the one place src/ uses object.__new__.
    uses = {path.relative_to(ROOT).as_posix(): object_new_owners(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src").rglob("*.py"))}
    assert {path: owners for path, owners in uses.items() if owners} == {
        "src/modrotor/lazy.py": ["unchecked"]}


# The array conversions a caller's value may go through only inside
# lazy.finite_array and lazy.rotation.
ARRAY_CHECKS = frozenset(("float_array", "is_rotation"))


def name_uses(source: str, names) -> list[str]:
    """``"line N: name"`` for each read of one of ``names``, bare or as an
    attribute, in source order; a definition is not a read."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        if name in names:
            uses.append((node.lineno, node.col_offset, name))
    return [f"line {line}: {name}" for line, _, name in sorted(uses)]


def test_name_uses_are_found():
    source = ("from .so3 import is_rotation\ndef float_array(x):\n    return x\n"
              "ok = is_rotation(float_array(1))\nalso = so3.is_rotation\n")
    assert name_uses(source, ARRAY_CHECKS) == [
        "line 4: is_rotation", "line 4: float_array", "line 5: is_rotation"]


def test_only_lazy_checks_caller_arrays():
    # A caller's array is checked by lazy.finite_array or lazy.rotation, so
    # no other module converts one or tests a rotation with a rule of its own.
    uses = {path.relative_to(ROOT).as_posix(): name_uses(path.read_text(encoding="utf-8"),
                                                         ARRAY_CHECKS)
            for path in sorted((ROOT / "src").rglob("*.py")) if path.name != "lazy.py"}
    assert {path: found for path, found in uses.items() if found} == {}
