"""Names the benchmark harness in perfbench/ looks up in the package,
validation that does not rest on `assert` (stripped under `python -O`),
numpy and fractions imported only inside the functions that use them,
dataclasses not imported at all, and type hints that resolve without them.

The harness files are only read here, never imported or changed.
"""

import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import pytest

import ncdist

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "ncdist"


def _traced_names() -> list[str]:
    """'module.name' entries of the TRACED table in perfbench/tracing.py."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            table = ast.literal_eval(node.value)
            return sorted(f"{module}.{name}" for module, names in table.items() for name in names)
    raise LookupError("perfbench/tracing.py defines no TRACED table")


def _dotted(node) -> str | None:
    """'ncdist.a.b' for an attribute chain rooted at the name `ncdist`."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "ncdist" and parts:
        return ".".join(["ncdist", *reversed(parts)])
    return None


def _harness_names() -> list[str]:
    """Every `ncdist.X` attribute and `from ncdist... import X` name used
    by a perfbench module."""
    found = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ncdist"):
                found.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif (name := _dotted(node)) is not None:
                found.add(name)
    return sorted(found)


def _resolve(dotted: str):
    """Look a dotted name up as perfbench does: attributes of the package,
    importing a submodule where the attribute is one."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def test_harness_uses_the_package():
    assert len(_traced_names()) >= 20
    assert "ncdist.distance_general" in _harness_names()


@pytest.mark.parametrize("dotted", sorted(set(_traced_names()) | set(_harness_names())))
def test_benchmark_name_exists(dotted):
    _resolve(dotted)


def test_package_has_no_assert_statements():
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _import_time_nodes(tree: ast.Module):
    """Nodes of a module that run when it is imported: all but the bodies
    of functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


#: modules the short `nc` commands must not load: numpy for the array code,
#: fractions for the rational oracle
_LAZY_MODULES = {"numpy", "fractions"}


def _imports_any(node, modules: set[str]) -> bool:
    """Whether an import statement imports one of `modules` or a submodule."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in modules for alias in node.names)
    return (
        isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] in modules
    )


def test_package_imports_numpy_only_inside_functions():
    """Neither numpy nor fractions is imported at module level."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in _import_time_nodes(ast.parse(path.read_text()))
        if _imports_any(node, _LAZY_MODULES)
    ]
    assert found == []


def test_package_does_not_import_dataclasses():
    """dataclasses imports inspect, which costs the short `nc` commands more
    start-up time than the rest of the package; the value types build on
    `core.Frozen` instead."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _imports_any(node, {"dataclasses"})
    ]
    assert found == []


def _package_callables():
    """(label, object) for every function and class a package module
    defines, and for the methods and properties of those classes."""
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"ncdist.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = member.fget if isinstance(member, property) else member
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_type_hints_resolve():
    """typing.get_type_hints evaluates annotations in the module's globals,
    where numpy is not bound."""
    checked = {}
    failed = []
    for label, obj in _package_callables():
        checked[label.rsplit(".", 1)[-1]] = obj
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            failed.append(f"{label}: {exc}")
    assert failed == []
    exported = [name for name in ncdist.__all__ if callable(getattr(ncdist, name))]
    assert [name for name in exported if name not in checked] == []
