"""Every public function and class in the package has a caller that ships,
and every config field is read by the code it configures.

A public top-level ``def`` or ``class`` of ``src/wpxlab`` counts as used when
one of these refers to it:

- another top-level statement of a module in ``src/wpxlab`` other than a
  package ``__init__`` (a re-export is not a use);
- the benchmark (``perfbench/**/*.py``) or ``pyproject.toml``, where any
  mention of the name as a word counts;
- the allowlist below, of reference oracles kept in ``src/`` on purpose.

Tests do not count: a name that only tests call is dead weight in the package.

A field of a dataclass that a command-line config file is read into counts as
read when ``src/wpxlab`` reads an attribute of that name outside the class's
own body; a field that only its own validation reads changes no result.
"""

import ast
import importlib
import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

from wpxlab.dml.pipeline import DmlConfig
from wpxlab.domain import ContextFeatures
from wpxlab.harness.experiment import ArmConfig, ExperimentConfig
from wpxlab.sim.world import WorldConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wpxlab"

#: Kept in ``src/`` although only tests call them.
REFERENCE_ORACLES = {
    # the closed-form posterior mean that criterion 5 checks the draws against
    "predict_mean",
}


def _modules() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}


def _names_in(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _outside_text() -> str:
    paths = [*sorted((ROOT / "perfbench").rglob("*.py")), ROOT / "pyproject.toml"]
    return "\n".join(path.read_text() for path in paths)


def unreferenced_public_names() -> list[str]:
    modules = _modules()
    outside = _outside_text()
    uses = [
        (top, _names_in(top))
        for path, tree in modules.items()
        if path.name != "__init__.py"
        for top in tree.body
    ]
    unused = []
    for path, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in REFERENCE_ORACLES:
                continue
            in_src = any(name in names for top, names in uses if top is not node)
            if not (in_src or re.search(rf"\b{re.escape(name)}\b", outside)):
                unused.append(f"{path.relative_to(PACKAGE)}:{name}")
    return unused


#: The dataclasses a command-line config file is read into.
CONFIG_CLASSES = (WorldConfig, ExperimentConfig, ArmConfig, DmlConfig, ContextFeatures)


def config_classes() -> list[type]:
    """`CONFIG_CLASSES` and every dataclass their field annotations name,
    nested in a tuple, mapping or union included."""
    found, todo = [], list(CONFIG_CLASSES)
    while todo:
        cls = todo.pop(0)
        if cls in found:
            continue
        found.append(cls)
        kinds = list(get_type_hints(cls).values())
        while kinds:
            kind = kinds.pop()
            kinds += get_args(kind)
            if is_dataclass(kind):
                todo.append(kind)
    return found


def unread_config_fields() -> list[str]:
    modules = _modules()
    unread = []
    for cls in config_classes():
        path = PACKAGE.joinpath(*cls.__module__.split(".")[1:]).with_suffix(".py")
        body = next(
            node
            for node in modules[path].body
            if isinstance(node, ast.ClassDef) and node.name == cls.__name__
        )
        own = {id(node) for node in ast.walk(body)}
        reads = {
            node.attr
            for tree in modules.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in own
        }
        unread += [f"{cls.__name__}.{f.name}" for f in fields(cls) if f.name not in reads]
    return unread


def layer_functions() -> tuple[str, ...]:
    """``LAYER_FUNCTIONS`` of the benchmark's tracer, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYER_FUNCTIONS")


def test_every_public_name_has_a_caller_outside_tests():
    assert unreferenced_public_names() == []


def test_every_config_field_is_read_outside_its_class():
    assert unread_config_fields() == []


def test_reference_oracles_still_exist():
    defined = {
        node.name
        for tree in _modules().values()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert REFERENCE_ORACLES <= defined


def test_every_traced_layer_function_resolves():
    # the tracer resolves each one with a bare getattr; a missing name breaks --trace 1
    for qualname in layer_functions():
        if ":" in qualname:
            module_name, attrs = qualname.split(":")
        else:
            module_name, attrs = qualname.rsplit(".", 1)
        target = importlib.import_module(module_name)
        for attr in attrs.split("."):
            target = getattr(target, attr)
        assert callable(target), qualname
