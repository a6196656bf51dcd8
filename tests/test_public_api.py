"""The names real callers take from modrotor must exist.

The README's Python example and the benchmark scripts in bench/ are the
package's callers outside the test suite. Their imports are read with
``ast`` (nothing is executed) and each name is resolved against the
package, so removing something they use fails here. The package's export
set is pinned as well, and so is the README's list of it, so an export is
never renamed, added or dropped unnoticed.
"""

import ast
import importlib
import inspect
import pydoc
import re
import types
from pathlib import Path

import pytest

import modrotor
from test_input_contract import NO_NUMBERS, ROWS

ROOT = Path(__file__).resolve().parent.parent

# Every name ``modrotor/__init__.py`` exports.
EXPORTS = frozenset((
    "AllocationError", "AssemblyError", "BalanceReport", "ConfigError", "ControlDegeneracyError",
    "ControlOutput", "Controller", "Gains", "IntegrationError", "ModrotorError",
    "ModulePlacement", "ModuleSpec", "PropellerSpec", "RigidState", "RunResult", "SimParams",
    "SimulationError", "StructureConfig", "StructureModel", "TrajectorySample", "Wrench",
    "actuation_ellipsoid", "assemble", "build_r_module", "check_balanced", "helix", "hover",
    "initial_state_from_sample", "numerical_rank", "parse_config", "rectangle",
    "run_closed_loop", "step",
))


def _callers() -> dict[str, str]:
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "bench").glob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        sources[f"README.md[python {k + 1}]"] = block
    return sources


def _used_names(source: str) -> list[str]:
    """Dotted paths a source takes from modrotor: every name in a
    ``from modrotor... import`` and every attribute read off a name it binds
    that way or by ``import modrotor``."""
    tree = ast.parse(source)
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "modrotor":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "modrotor":
                    bound[alias.asname or alias.name] = alias.name
    used = list(bound.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            used.append(f"{bound[node.value.id]}.{node.attr}")
    return used


def _resolves(dotted: str) -> bool:
    """True when ``dotted`` names a module, or an attribute chain off one;
    a submodule not yet imported is imported, as ``from ... import`` does."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for depth, attr in enumerate(parts[1:], start=2):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif isinstance(obj, types.ModuleType):
            try:
                obj = importlib.import_module(".".join(parts[:depth]))
            except ModuleNotFoundError:
                return False
        else:
            return False
    return True


def test_callers_are_found():
    sources = _callers()
    assert any(name.startswith("README.md") for name in sources)
    assert "bench/flights.py" in sources
    assert all(_used_names(sources[name]) for name in ("bench/flights.py", "bench/harness.py"))


@pytest.mark.parametrize("caller", sorted(_callers()))
def test_every_name_a_caller_imports_resolves(caller):
    missing = [name for name in _used_names(_callers()[caller]) if not _resolves(name)]
    assert not missing, f"{caller} uses names modrotor does not define: {missing}"


def test_build_r_module_keeps_its_signature_and_help():
    # build_r_module keeps its modules inside its own body, not behind a
    # caching wrapper, so inspect and help() show the plain function.
    from modrotor import build_r_module

    signature = ("(mass: 'float' = 0.135, base: 'float' = 0.12, height: 'float' = 0.06, "
                 "alpha: 'float' = 0.0, beta: 'float' = 0.0, k_m: 'float' = 0.006, "
                 "f_max: 'float' = 2.0, "
                 "inertia: 'np.ndarray | None' = None) -> 'ModuleSpec'")
    assert str(inspect.signature(build_r_module)) == signature
    assert not hasattr(build_r_module, "__wrapped__")
    doc = inspect.getdoc(build_r_module)
    assert doc.startswith("Build a module whose four rotors share the tilt (alpha, beta).\n")
    assert "the same inputs return the same\nobject" in doc
    body = "\n".join(f"    {line}" for line in doc.splitlines())
    assert pydoc.render_doc(build_r_module, renderer=pydoc.plaintext) == (
        "Python Library Documentation: function build_r_module in module modrotor.module_design"
        f"\n\nbuild_r_module{signature}\n{body}\n")


def _names_an_export(key: str, exported: set) -> bool:
    """True when a contract row's key is an export, ``<export>.<method>``
    or ``<export> sampler``."""
    if key.endswith(" sampler"):
        return key.removesuffix(" sampler") in exported
    name, _, method = key.partition(".")
    return name in exported and (not method or hasattr(getattr(modrotor, name), method))


def test_every_export_has_a_row_in_the_input_contract():
    # A new export must say what it does with a caller's numbers: a row in
    # tests/test_input_contract.py, or a place in its NO_NUMBERS list; and
    # a removed export's rows must go with it.
    exported = {name for name, value in vars(modrotor).items()
                if callable(value) and not name.startswith("_")}
    assert not exported - ROWS.keys() - NO_NUMBERS, "exports without a contract row"
    assert NO_NUMBERS <= exported and not NO_NUMBERS & ROWS.keys()
    stale = [key for key in ROWS if not _names_an_export(key, exported)]
    assert not stale, f"contract rows that name no export: {stale}"


def test_export_set_is_pinned():
    # Public names other than the package's own submodules and version.
    exported = {name for name, value in vars(modrotor).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == EXPORTS


def test_readme_lists_the_exports():
    # The README's Public API section lists every export once, in its
    # bullets, and nothing else.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Public API\n(.*?)^## ", readme, re.S | re.M)
    assert section, "README.md has no Public API section"
    listed = re.findall(r"`(\w+)`", section.group(1).split("\n* ", 1)[1])
    assert len(listed) == len(set(listed)) and set(listed) == EXPORTS
