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
import sys
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


#: value classes that perfbench's traced run rebinds to plain functions in
#: every package module that holds them as globals
_REBOUND_CLASSES = ("Spectrum", "KernelSpectrum", "QutritChart")


def _entry_point_runs(tmp_path, capsys) -> dict:
    """Results of the package's entry points on fixed inputs: the projector
    on a mixed and a pure state per kernel (the first call cold, the
    second warm), `nc indicator` at n = 3 and 5, and the closed form at a
    band and a beyond-band chart point."""
    from ncdist.cli import main

    runs = {}
    for n, mixed in ((3, (0.9, 0.1, 0.0)), (5, (0.6, 0.2, 0.1, 0.1, 0.0))):
        kernel = ncdist.random_kernel(n, 4)
        for label, values in (("mixed", mixed), ("pure", (1.0,) + (0.0,) * (n - 1))):
            res = ncdist.distance_general(ncdist.Spectrum(values), kernel)
            runs[f"general {n} {label}"] = (res.nearest.values, res.distance_paper, res.region)
        path = tmp_path / f"state{n}.json"
        path.write_text(f'{{"n": {n}, "spectrum": {list(mixed)}}}')
        source = ["--zeta", "0.3"] if n == 3 else ["--seed", "4"]
        code = main(["indicator", "--state", str(path), *source])
        runs[f"indicator {n}"] = (code, *capsys.readouterr())
    for xi3, xi8 in ((0.2, 0.45), (0.8, 0.5)):
        res = ncdist.qutrit_distance(ncdist.QutritChart(xi3, xi8), 0.3)
        runs[f"qutrit {xi3}"] = (res.nearest.values, res.distance_paper, res.region)
    return runs


def test_value_classes_rebound_to_functions(tmp_path, capsys, monkeypatch):
    """perfbench's traced run (tracing.py, read, not imported) wraps
    Spectrum, KernelSpectrum and QutritChart in plain functions and rebinds
    them in every package module, so a class attribute or an isinstance
    test reached through such a module global works untraced and fails
    traced. The entry points must give the same results both ways."""
    import ncdist.cli  # noqa: F401 - a module to rebind in

    plain = _entry_point_runs(tmp_path, capsys)
    assert plain["indicator 3"][0] == plain["indicator 5"][0] == 0
    assert all(plain[f"general {n} {label}"][1] > 0.0 for n in (3, 5) for label in ("mixed", "pure"))
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "ncdist"]
    rebound = 0
    for name in _REBOUND_CLASSES:
        cls = getattr(ncdist, name)
        wrapper = lambda *args, cls=cls, **kwargs: cls(*args, **kwargs)  # noqa: E731
        for module in modules:
            if vars(module).get(name) is cls:
                monkeypatch.setattr(module, name, wrapper)
                rebound += 1
    assert rebound >= 6
    assert _entry_point_runs(tmp_path, capsys) == plain
