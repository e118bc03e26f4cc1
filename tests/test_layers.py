"""Layer boundary: the oracle and the formula layer share only the data model.

The scan reads each module's imports with ``ast``; nothing is imported.
"""

import ast
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


def test_oracle_imports_only_the_data_model():
    assert package_imports("oracle") <= {"measure", "errors"}


def test_formula_layer_never_imports_the_oracle():
    for module in FORMULA_MODULES:
        assert "oracle" not in package_imports(module), module


def test_scan_sees_package_imports():
    # the scan must read the imports it checks: validate uses both layers
    assert {"oracle", "euler_poisson", "measure"} <= package_imports("validate")
