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


def standard_context_builds(tree: ast.AST) -> set:
    """The ``TypeContext(standard_acs(...))`` calls under a node."""

    def calls(node, name):
        return isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name

    return {
        node for node in ast.walk(tree) if calls(node, "TypeContext") and node.args and calls(node.args[0], "standard_acs")
    }


def test_only_standard_context_builds_the_standard_type_context():
    # a chart's standard context is built once and shared; another build would fill its own tables at every call
    shared, stray = set(), []
    for path in sorted((ROOT / "src" / "stromlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.stem == "forms":
            (fn,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "standard_context")
            allowed = shared = standard_context_builds(fn)
        stray += [f"{path.name}:{node.lineno}" for node in standard_context_builds(tree) - allowed]
    assert len(shared) == 1
    assert not stray, f"TypeContext(standard_acs(...)) outside forms.standard_context: {stray}"


def module_level_dicts(tree: ast.Module):
    """The names a module binds at its top level to a dict display or ``dict(...)``."""
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(value, ast.Dict) or (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict"):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def frame_builds(tree: ast.AST) -> set:
    """The ``TwistorFrame(...)`` and ``CanonicalBundleFrame(...)`` calls under a node."""
    names = {"TwistorFrame", "CanonicalBundleFrame"}
    return {
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    }


def test_point_state_is_kept_in_the_one_memo():
    # what a point's operators share is kept by jets.kept alone: another
    # module-level dict would be a second memo with a rule of its own, and a
    # frame built outside the two frame functions would bypass the memo
    tables = {"jets._KEPT", "forms._BASIS_INV_CACHE", "hyperkahler._UNITS"}
    builders = {"twistor": "twistor_frame", "calabi": "_frame"}
    dicts, stray = [], []
    for path in sorted((ROOT / "src" / "stromlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        dicts += [f"{path.stem}.{name}" for name in module_level_dicts(tree)]
        allowed = set()
        if path.stem in builders:
            (fn,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == builders[path.stem])
            allowed = frame_builds(fn)
        stray += [f"{path.name}:{node.lineno}" for node in frame_builds(tree) - allowed]
    assert set(dicts) - tables == set(), "module-level dicts besides jets._KEPT"
    assert not stray, f"frames built outside twistor_frame and calabi._frame: {stray}"


def self_none_tests(tree: ast.Module):
    """``Class.method`` of each ``if self.<name> is None`` in a method."""
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
            for node in ast.walk(fn):
                test = node.test if isinstance(node, ast.If) else None
                if (
                    isinstance(test, ast.Compare)
                    and isinstance(test.left, ast.Attribute)
                    and getattr(test.left.value, "id", None) == "self"
                    and isinstance(test.ops[0], ast.Is)
                    and isinstance(test.comparators[0], ast.Constant)
                    and test.comparators[0].value is None
                ):
                    yield f"{cls.name}.{fn.name}"


def test_members_built_on_first_use_are_cached_properties():
    # "build on first use, then keep" is functools.cached_property; JetSpace.mul_table keeps its
    # hand-written slot because the benchmark's tracer reads _mul_table to tell a table build
    slots = []
    for path in sorted((ROOT / "src" / "stromlab").glob("*.py")):
        slots += [f"{path.stem}.{name}" for name in self_none_tests(ast.parse(path.read_text()))]
    assert set(slots) - {"jets.JetSpace.mul_table"} == set(), f"hand-written memo slots: {slots}"


def references(tree: ast.AST, skip: ast.AST | None = None, attributes_only: bool = False) -> set:
    """Every name, attribute and imported name under ``tree`` (only the attributes with ``attributes_only``), outside the node ``skip``.

    An attribute of a module bound by ``import`` (``np.abs``, ``cmath.sin``) is no reference, since
    it names no function of the package.  ``x.real`` and ``x.imag`` on a complex number still count
    as references of the methods ``Jet.real`` and ``Jet.imag``: the owner's type is not known here.
    """
    modules = {a.asname or a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in modules):
                found.add(node.attr)
        elif isinstance(node, ast.Name) and not attributes_only:
            found.add(node.id)
        elif isinstance(node, ast.alias) and not attributes_only:
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


# public names only the tests call; a program caller (such as a CLI) takes a name off this list
TEST_ONLY_PUBLIC_NAMES = {
    "calabi.flat_torus_chart",
    "calabi.omega0_d_residual",
    "calabi.profile_ode_residual",
    "forms.exterior_derivative",
    "forms.point",
    # the benchmark's tracer patches it (hyperkahler.kappa.s); frame_decompose no longer reads it,
    # since on the flat models it accepts every kappa_{i jbar kbar} is 0
    "hyperkahler.kappa_third_jets",
    "sampling.sample_points",
    "strominger.radial_h_residual",
    "twistor.c3_chart_map",
    "twistor.omega_norm",
    # the jet-valued type projection, the oracle of the tests for the reads at the point
    "forms.TypeContext.project",
    # the same route, which the benchmark's tracer patches (forms.decompose.*)
    "forms.TypeContext.decompose",
    # the closed constant profiles, which the tests pass as ansatz parameters
    "twistor.AnsatzParams.constants",
    "twistor.AnsatzParams.constant_norm_branch",
    # the h = c log rho profile of the radial dichotomy, which the tests pass to radial_h_residual
    "jets.Profile.log_slope",
    # jet primitives of automatic differentiation, which the jet tests compose
    "jets.Jet.sin",
    "jets.Jet.cos",
    "jets.Jet.abs",
}


def public_methods(tree: ast.Module):
    """(``Class.method``, node) of each public method of a public module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield f"{cls.name}.{fn.name}", fn


def test_public_names_without_a_program_caller_are_listed():
    # a public module-level function or class that no source module (outside its own body) and no
    # benchmark workload refers to is either listed here or has no reason to exist; so is a public
    # method whose name appears there as no attribute (``x.name``) outside its own body
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "stromlab").glob("*.py"))}
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    benchmark, benchmark_attributes = references(workloads), references(workloads, attributes_only=True)
    refs = {module: references(tree) for module, tree in trees.items()}
    attributes = {module: references(tree, attributes_only=True) for module, tree in trees.items()}
    uncalled = set()
    for module, tree in trees.items():
        others = benchmark.union(*(found for m, found in refs.items() if m != module))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if node.name not in others | references(tree, node):
                    uncalled.add(f"{module}.{node.name}")
        other_attributes = benchmark_attributes.union(*(found for m, found in attributes.items() if m != module))
        for qualified, fn in public_methods(tree):
            if fn.name not in other_attributes | references(tree, fn, attributes_only=True):
                uncalled.add(f"{module}.{qualified}")
    assert not uncalled - TEST_ONLY_PUBLIC_NAMES, f"no program caller: {sorted(uncalled - TEST_ONLY_PUBLIC_NAMES)}"
    assert not TEST_ONLY_PUBLIC_NAMES - uncalled, f"listed, but called or gone: {sorted(TEST_ONLY_PUBLIC_NAMES - uncalled)}"


def taylor_coefficient_reads(tree: ast.AST) -> list:
    """Line numbers of the reads of a jet's Taylor coefficients: ``x.c[...]``, ``first_order``, ``second_order``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute) and node.value.attr == "c")
        or (isinstance(node, ast.Attribute) and node.attr in {"first_order", "second_order"})
    )


def test_only_jets_and_forms_read_taylor_coefficients():
    # the monomial layout of a jet is known to jets.py, and to the reads at the point in forms.py
    # (forms._taylor_rows stacks it); every other module goes through them
    stray = []
    for path in sorted((ROOT / "src" / "stromlab").glob("*.py")):
        if path.stem not in {"jets", "forms"}:
            stray += [f"{path.name}:{line}" for line in taylor_coefficient_reads(ast.parse(path.read_text()))]
    assert not stray, f"Taylor coefficients read outside jets.py and forms.py: {stray}"
