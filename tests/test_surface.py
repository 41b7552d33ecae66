"""Every public function and class in the package has a caller that ships,
every config field is read by the code it configures, the packages export
only the README's library entry points, one function builds page objects and
one kernel serves blocks of pages.

A public top-level ``def`` or ``class`` of ``src/wpxlab`` counts as used when
one of these refers to it:

- another top-level statement of a module in ``src/wpxlab`` other than a
  package ``__init__`` (a re-export is not a use);
- the benchmark (``perfbench/**/*.py``) or ``pyproject.toml``, where any
  mention of the name as a word counts.

A public method or property of a public class counts as used by the same
rule, where only an attribute read of its name counts in ``src/wpxlab`` and
the class's own body is not another statement.

Tests do not count: a name that only tests call is dead weight in the package.

Pages travel as arrays of item indices over per-template slot tables; only
``sim/session.build_layout``, the one-page boundary, calls the `Item`, `Slot`
or `PageLayout` constructor. Blocks of pages are served by
``sim/session.serve_pages`` alone: besides it only the one-page
``simulate_session`` and ``realize_long_term`` call the click model or the
welfare function. No statement calls the ``ContextFeatures`` constructor:
requests are rows of the request table, and a context object is built only
where ``config_from_json`` reads a ``rank`` context file. Every random
generator is keyed through ``rng.stream``: only it calls
``np.random.Philox``, ``np.random.Generator`` or ``np.random.default_rng``.

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

import pytest

from wpxlab.dml.pipeline import DmlConfig
from wpxlab.domain import ContextFeatures
from wpxlab.harness.experiment import ArmConfig, ExperimentConfig
from wpxlab.sim.world import WorldConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wpxlab"


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


def _attributes_read(node: ast.AST) -> set[str]:
    return {
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }


def _unused(reader, found) -> list[str]:
    """``found(tree)`` yields the (owner statement, name, label) of each public
    name to check; a name is used when ``reader`` finds it in a top-level
    statement of ``src/wpxlab`` other than its owner and other than a package
    ``__init__``, or it is a word of the benchmark or ``pyproject.toml``."""
    modules = _modules()
    outside = _outside_text()
    uses = [
        (top, reader(top))
        for path, tree in modules.items()
        if path.name != "__init__.py"
        for top in tree.body
    ]
    unused = []
    for path, tree in modules.items():
        for owner, name, label in found(tree):
            if name.startswith("_"):
                continue
            in_src = any(name in names for top, names in uses if top is not owner)
            if not (in_src or re.search(rf"\b{re.escape(name)}\b", outside)):
                unused.append(f"{path.relative_to(PACKAGE)}:{label}")
    return unused


def callers_of(names: set[str]) -> set[str]:
    """Each top-level statement of ``src/wpxlab`` that calls one of ``names``,
    as ``path:name``."""
    callers = set()
    for path, tree in _modules().items():
        for top in tree.body:
            called = {
                node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
            }
            if called & names:
                name = getattr(top, "name", type(top).__name__)
                callers.add(f"{path.relative_to(PACKAGE).as_posix()}:{name}")
    return callers


def unreferenced_public_names() -> list[str]:
    def found(tree: ast.Module):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node, node.name, node.name

    return _unused(_names_in, found)


def unreferenced_public_members() -> list[str]:
    """Public methods and properties of public classes that nothing reads."""

    def found(tree: ast.Module):
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef):
                        yield cls, node.name, f"{cls.name}.{node.name}"

    return _unused(_attributes_read, found)


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


def readme_entry_points() -> tuple[str, dict[str, set[str]]]:
    """The README's "Library entry points" code block, and the names it
    imports by package."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Library entry points\n\n```python\n(.*?)```", text, re.S).group(1)
    imports: dict[str, set[str]] = {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.ImportFrom):
            imports.setdefault(node.module, set()).update(a.name for a in node.names)
    return block, imports


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


def test_every_public_method_and_property_has_a_reader_outside_tests():
    assert unreferenced_public_members() == []


def test_only_build_layout_builds_page_objects():
    assert callers_of({"Item", "Slot", "PageLayout"}) == {"sim/session.py:build_layout"}


def test_one_kernel_serves_pages():
    # the one-page functions stay for the benchmark's tracer
    assert callers_of({"click_model", "welfare"}) == {
        "sim/session.py:serve_pages",
        "sim/session.py:simulate_session",
        "sim/session.py:realize_long_term",
    }


def test_no_statement_builds_a_context_object():
    # requests are rows of the world-array request table; a context object
    # exists only where `rank` reads one from its context file
    assert callers_of({"ContextFeatures"}) == set()


def test_only_stream_builds_generators():
    # whole-run purposes draw from a stream, per-id ones through block_rows
    assert callers_of({"Philox", "Generator", "default_rng"}) == {"rng.py:stream"}


def test_one_json_writer_and_one_json_reader():
    # every artifact is written by json_text, every file read by _load_json
    assert callers_of({"dumps"}) == {"harness/experiment.py:json_text"}
    assert callers_of({"loads"}) == {"harness/cli.py:_load_json"}


def test_every_config_field_is_read_outside_its_class():
    assert unread_config_fields() == []


def test_package_inits_import_only_the_readme_entry_points():
    _, entry_points = readme_entry_points()
    inits = {
        ".".join(("wpxlab", *path.parent.relative_to(PACKAGE).parts)): path
        for path in PACKAGE.rglob("__init__.py")
    }
    assert set(entry_points) <= set(inits)
    for package, path in inits.items():
        expected = entry_points.get(package, set())
        imported = {
            alias.asname or alias.name
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert imported == expected, package
        assert set(getattr(importlib.import_module(package), "__all__", ())) == expected, package


def test_readme_entry_points_run_verbatim():
    block, _ = readme_entry_points()
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert sum(namespace["weights"].as_tuple()) == pytest.approx(1.0)
    assert namespace["report"].lifts


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
