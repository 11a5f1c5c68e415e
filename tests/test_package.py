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
