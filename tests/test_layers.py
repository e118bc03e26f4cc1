"""Layer boundary: the oracle and the formula layer share only the data model.

The import scans read each module's source with ``ast``; nothing is
imported. The ``__all__`` check imports the package.
"""

import ast
import importlib
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stickygas"
FORMULA_MODULES = ("potentials", "euler_poisson", "drift", "relax")


def package_imports(module: str) -> set:
    """Names of the stickygas modules that ``module`` imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                if node.module:
                    names.add(node.module.split(".")[0])
                else:
                    names.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "stickygas":
                parts = node.module.split(".")
                names.update([parts[1]] if len(parts) > 1 else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "stickygas" and len(parts) > 1:
                    names.add(parts[1])
    return names


def absolute_import_roots() -> set:
    """Top-level names of every absolute import in the package's modules."""
    roots = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots.add(node.module.split(".")[0])
    return roots


def test_runtime_needs_numpy_only():
    # the README promises "runtime: numpy only"; scipy alone would add about
    # half a second and 49 MB to every import of the package
    roots = absolute_import_roots()
    assert {"numpy", "math"} <= roots
    assert roots - set(sys.stdlib_module_names) == {"numpy"}


def test_oracle_imports_only_the_data_model():
    assert package_imports("oracle") <= {"measure", "errors"}


def test_formula_layer_never_imports_the_oracle():
    for module in FORMULA_MODULES:
        assert "oracle" not in package_imports(module), module


def test_scan_sees_package_imports():
    # the scan must read the imports it checks: validate uses both layers
    assert {"oracle", "euler_poisson", "measure"} <= package_imports("validate")


def test_every_exported_name_resolves():
    modules = ["stickygas"] + [
        f"stickygas.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("__init__", "__main__")
    ]
    checked = 0
    for name in modules:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.{attr}"
            checked += 1
    assert checked > 0


def private_names_used(module: str) -> set:
    """Underscore-prefixed names that ``module`` imports from the package,
    or reads as attributes of a package module it imports."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level == 1 or (node.module or "").split(".")[0] == "stickygas"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.add(alias.name)
                if node.module is None or node.module == "stickygas":
                    aliases.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def test_front_ends_use_only_public_names():
    for module in ("cli", "validate"):
        assert private_names_used(module) == set(), module


def test_private_name_scan_sees_private_imports():
    # relax reads the formula layer's private frame helpers
    assert "_frame" in private_names_used("relax")


def leaf_errors() -> set:
    """Exception classes in errors.py that no other class there subclasses."""
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for cls in classes for base in cls.bases if isinstance(base, ast.Name)}
    return {cls.name for cls in classes} - bases


def raised_names() -> set:
    """Names raised anywhere in the package, as ``raise X(...)`` or ``raise m.X``."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_leaf_error_is_raised():
    # an error type left behind by the removal of its only raiser shows here
    assert leaf_errors() - raised_names() == set()


def test_error_scan_sees_leaves_and_raises():
    leaves = leaf_errors()
    assert "NonPositiveTime" in leaves and "NumericError" not in leaves
    assert {"NonPositiveTime", "ValueError"} <= raised_names()
