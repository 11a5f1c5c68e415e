import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_declared_console_scripts_import():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def stromlab_imports(path: Path) -> set:
    """The stromlab modules a source file imports, absolutely or relatively."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = f"stromlab.{node.module or ''}" if node.level == 1 else node.module or ""
            dotted = [f"{module.rstrip('.')}.{a.name}" for a in node.names]
        else:
            continue
        found.update(d.split(".")[1] for d in dotted if d.startswith("stromlab."))
    return found


def test_every_module_has_a_caller_outside_the_tests():
    # perfbench/workloads.py is read, not imported: the benchmark's callers count
    src = sorted((ROOT / "src" / "stromlab").glob("*.py"))
    reached = stromlab_imports(ROOT / "perfbench" / "workloads.py")
    for path in src:
        reached |= stromlab_imports(path) - {path.stem}
    assert {path.stem for path in src} - reached == set()


def top_level_imports(path: Path) -> set:
    """The top-level modules a source file imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_tests_and_benchmark_import_only_declared_dependencies():
    # what `pip install .[test]` installs must be enough to collect them
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}
    files = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    local = {"stromlab", "perfbench"} | {path.stem for path in files}
    for path in files:
        unknown = top_level_imports(path) - set(sys.stdlib_module_names) - local - declared
        assert not unknown, f"{path.name} imports undeclared {sorted(unknown)}"


def python_files() -> dict:
    """Every source file of the package, the tests and the benchmark, by the module name its importers use."""
    files = {f"stromlab.{path.stem}": path for path in sorted((ROOT / "src" / "stromlab").glob("*.py"))}
    for folder in ("tests", "perfbench"):
        files.update({path.stem: path for path in sorted((ROOT / folder).glob("*.py"))})
    return files


def imported_names(module: str, tree: ast.Module):
    """(bound name, source module, imported name) for each name an import statement binds."""
    package = module.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], a.name, None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = f"{package}.{node.module or ''}".rstrip(".") if node.level else node.module
            for a in node.names:
                yield a.asname or a.name, source, a.name


def test_no_unused_imports():
    # a name no module references is unused, unless another file imports it from this one (a re-export)
    files = python_files()
    trees = {module: ast.parse(path.read_text()) for module, path in files.items()}
    reexported = {
        (source, name) for module, tree in trees.items() for _, source, name in imported_names(module, tree)
    }
    unused = []
    for module, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for bound, _, name in imported_names(module, tree):
            if bound not in used and (module, name) not in reexported:
                unused.append(f"{files[module].relative_to(ROOT)}: {bound}")
    assert not unused, f"imported and never used: {unused}"
