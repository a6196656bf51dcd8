"""No module in src/, tests/ or tools/ imports a name it never reads,
parsing a config imports no standard library INI reader, and src/ builds
instances without their checks, fills an instance's ``__dict__`` by hand,
and checks the arrays callers pass in, in one place only; only the per-step
kernels build a record without its checks. No module-level
array in src/ can be written, src/ defines nothing that only the tests
read, and no default of a function src/ keeps to itself is one that only
the tests set.

The project depends on no linter, so each file is read with ``ast``: every
name an import binds must be read somewhere in the same file. A package's
``__init__.py`` imports names to export them and is exempt, as are
``from __future__`` imports.
"""

import ast
import importlib
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "tools") for path in (ROOT / top).rglob("*.py")
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


def module_level_names(source: str) -> list[str]:
    """The functions, classes and constants a source defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def read_names(source: str, exports: bool = False) -> set[str]:
    """Every name the source reads, bare or as an attribute; with
    ``exports``, also each name it imports, as a package's ``__init__``
    imports the names it exports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif exports and isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_module_level_names_and_reads_are_found():
    source = ("X, (Y, _z) = 1, (2, 3)\nW: int = 4\ndef f():\n    return X + m.Y\n"
              "class C:\n    def g(self):\n        return self\nfrom .a import h\n")
    assert module_level_names(source) == ["X", "Y", "_z", "W", "f", "C"]
    assert read_names(source) == {"X", "Y", "int", "m", "self"}
    assert read_names(source, exports=True) == {"X", "Y", "int", "m", "self", "h"}


def test_src_defines_nothing_only_the_tests_read():
    # A module-level function, class or constant in src/modrotor that no
    # file under src/ or bench/ reads serves the tests alone; a test that
    # needs such a helper keeps it in tests/.
    read = set()
    for top in ("src", "bench"):
        for path in (ROOT / top).rglob("*.py"):
            read |= read_names(path.read_text(encoding="utf-8"), path.name == "__init__.py")
    unread = [f"{path.stem}.{name}" for path in sorted((ROOT / "src" / "modrotor").glob("*.py"))
              if path.name != "__init__.py"
              for name in module_level_names(path.read_text(encoding="utf-8"))
              if name not in read]
    assert unread == []


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


def owners(source: str, is_use) -> list[str]:
    """The innermost function around each node for which ``is_use`` holds,
    in source order; ``<module>`` for a use at the top level."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if is_use(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def object_new_owners(source: str) -> list[str]:
    """:func:`owners` of each use of ``object.__new__``."""
    return owners(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"))


def instance_dict_owners(source: str) -> list[str]:
    """:func:`owners` of each read or write of an object's ``__dict__``,
    as an attribute or through ``vars()``."""
    return owners(source, lambda node: (
        (isinstance(node, ast.Attribute) and node.attr == "__dict__")
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars")))


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


def unchecked_owners(source: str) -> list[str]:
    """:func:`owners` of each read of ``unchecked``, bare or as an attribute;
    importing or defining it is not a read."""
    return owners(source, lambda node: (
        (isinstance(node, ast.Name) and node.id == "unchecked" and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "unchecked")))


def test_unchecked_uses_are_found():
    source = ("from .lazy import unchecked\nmake = unchecked\ndef unchecked_of(x):\n"
              "    def inner():\n        return lazy.unchecked(x)\n"
              "    return unchecked(x, y=1), inner\nunchecked = None\n")
    assert unchecked_owners(source) == ["<module>", "inner", "unchecked_of"]


def test_only_per_step_kernels_build_unchecked_records():
    # lazy.unchecked is only for the values a per-step kernel builds: the
    # trajectory samples, the integrator's state and the step's Wrench.
    # Every other record, the library's own included, is built by its
    # constructor and takes its checks.
    uses = {path.relative_to(ROOT).as_posix(): unchecked_owners(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src").rglob("*.py"))}
    assert {path: owners for path, owners in uses.items() if owners} == {
        "src/modrotor/control.py": ["step"],
        "src/modrotor/dynamics.py": ["_state_of"],
        "src/modrotor/trajectory.py": ["sample", "helix", "sample"]}


def test_instance_dict_uses_are_found():
    source = ("def f(m):\n    m.__dict__['x'] = 1\n    return vars(m)\n"
              "def g(m):\n    return m.__dict__.get('x')\nkeys = vars(object)\n")
    assert instance_dict_owners(source) == ["f", "f", "g", "<module>"]


def test_only_lazy_unchecked_touches_an_instance_dict():
    # src/ keeps derived data in functools.cached_property and modules in
    # one functools.lru_cache; lazy.unchecked, which fills a new instance's
    # fields, is the one place that reads or writes a __dict__ by hand.
    uses = {path.relative_to(ROOT).as_posix():
            instance_dict_owners(path.read_text(encoding="utf-8"))
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


def writable_module_arrays(modules) -> list[str]:
    """``"module.name"`` for each module-level numpy array that can be written."""
    return [f"{module.__name__}.{name}" for module in modules
            for name, value in vars(module).items()
            if isinstance(value, np.ndarray) and value.flags.writeable]


def test_writable_module_arrays_are_found():
    module = types.ModuleType("fake")
    module.TABLE, module.FROZEN = np.zeros(3), np.zeros(3)
    module.FROZEN.setflags(write=False)
    assert writable_module_arrays([module]) == ["fake.TABLE"]


def test_module_level_arrays_are_read_only():
    # Every call shares a module's arrays (axes, rotation tables, polygon
    # angles); a writable one lets a caller's `E1 *= -1` flip the frame of
    # every later structure.
    modules = [importlib.import_module("modrotor." + path.stem)
               for path in sorted((ROOT / "src" / "modrotor").glob("*.py"))
               if path.name != "__init__.py"]
    assert len(modules) >= 10
    assert writable_module_arrays(modules) == []



def defaulted_parameters(source: str) -> dict[str, list[tuple[str, float]]]:
    """Each top-level function of the source with a parameter that has a
    default: (name, position) for each such parameter, the position among
    the positional parameters, or inf for a keyword-only one."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(arg.arg, index) for index, arg in enumerate(positional) if index >= first]
            params += [(arg.arg, math.inf) for arg, default in zip(args.kwonlyargs,
                                                                     args.kw_defaults)
                       if default is not None]
            if params:
                found[node.name] = params
    return found


def passed_parameters(sources) -> dict[str, tuple[float, set]]:
    """For each name the sources call, bare or as an attribute: the most
    positional arguments a call passes and the keywords the calls pass. A
    call with ``*args`` or ``**kwargs`` passes every parameter."""
    passed: dict[str, tuple[float, set]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            most, keywords = passed.get(name, (0, set()))
            if (any(isinstance(arg, ast.Starred) for arg in node.args)
                    or any(kw.arg is None for kw in node.keywords)):
                most = math.inf
            passed[name] = (max(most, len(node.args)),
                            keywords | {kw.arg for kw in node.keywords})
    return passed


def unset_defaults(defined: dict[str, str], callers, exported: set[str]) -> list[str]:
    """``"module.function: parameter"`` for each defaulted parameter of a
    top-level function in ``defined`` (module name -> source), not in
    ``exported``, that no call in the ``callers`` sources passes."""
    passed = passed_parameters(callers)
    unset = []
    for module, source in defined.items():
        for name, params in defaulted_parameters(source).items():
            most, keywords = passed.get(name, (0, set()))
            unset += [f"{module}.{name}: {param}" for param, position in params
                      if name not in exported and param not in keywords
                      and most < math.inf and position >= most]
    return unset


def test_unset_defaults_are_found():
    source = ("def f(a, b=1, /, c=2, *, d=3):\n    return a\n"
              "def g(x, y=0):\n    return x\n"
              "def h(z=0):\n    return z\n"
              "def k(*, w=0):\n    return w\n"
              "f(1, 2, d=4)\nm.g(*args)\nk(**opts)\n")
    assert defaulted_parameters(source) == {"f": [("b", 1), ("c", 2), ("d", math.inf)],
                                            "g": [("y", 1)], "h": [("z", 0)],
                                            "k": [("w", math.inf)]}
    assert unset_defaults({"m": source}, [source], set()) == ["m.f: c", "m.h: z"]
    assert unset_defaults({"m": source}, [source], {"f", "h"}) == []


def test_src_sets_every_default_it_declares():
    # A defaulted parameter of a library-internal function that neither
    # src/ nor bench/ ever passes is a knob that only the tests turn.
    package = ROOT / "src" / "modrotor"
    defined = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    exported = read_names((package / "__init__.py").read_text(encoding="utf-8"), exports=True)
    callers = [path.read_text(encoding="utf-8")
               for top in ("src", "bench") for path in sorted((ROOT / top).rglob("*.py"))]
    assert unset_defaults(defined, callers, exported) == []
