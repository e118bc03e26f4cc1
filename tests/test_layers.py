"""Layer boundary: the oracle and the formula layer share only the data model.

The import scans read each module's source with ``ast``; nothing is
imported. The ``__all__`` check imports the package, and the check of
perfbench's traced names reads its sources with ``ast`` and imports only the
package. The last test counts the calls of two array kernels at run time.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

from stickygas import euler_poisson, validate
from stickygas.measure import InitialData
from stickygas.oracle import simulate_ep

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stickygas"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent
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
    # the scan must read the imports it checks: cli uses both layers
    assert {"oracle", "euler_poisson", "measure"} <= package_imports("cli")


def called_names(module: str) -> set:
    """Names that ``module`` calls, as ``f(...)`` or ``m.f(...)``."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


def check_parameters() -> dict:
    """Parameter names of every top-level ``check_*`` function in validate."""
    tree = ast.parse((PACKAGE / "validate.py").read_text())
    return {
        node.name: {a.arg for a in node.args.args + node.args.kwonlyargs}
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
    }


def test_validators_take_a_solution_and_never_simulate():
    # each check reads the solution it is given: no simulation of its own
    # and no switch between the layers
    assert not {"simulate_ep", "simulate_drift"} & called_names("validate")
    params = check_parameters()
    assert not [name for name, args in params.items() if "layer" in args]
    assert {"check_weak_form", "check_oleinik_states", "check_initial_continuity"} <= {
        name for name, args in params.items() if "solution" in args
    }


def test_call_scan_sees_calls():
    assert {"simulate_ep", "check_weak_form"} <= called_names("cli")
    assert "cluster_snapshot" in called_names("validate")


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
    # relax reads the formula layer's field routine and frame helper, and
    # nothing else of its private names
    assert private_names_used("relax") == {"_fields", "_frame"}


class _CallSites(ast.NodeVisitor):
    """Dotted scope (module, class, function) of every call of ``name`` in
    one module, as ``name(...)`` or ``<obj>.name(...)``; a call through
    ``np.`` (numpy's ``np.argmin``) is not the package's unless ``numpy``
    is set."""

    def __init__(self, module: str, name: str, numpy: bool = False):
        self.scope, self.name, self.numpy, self.found = [module], name, numpy, []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name):
            called = func.id == self.name
        else:
            called = (
                isinstance(func, ast.Attribute)
                and func.attr == self.name
                and (self.numpy or not (isinstance(func.value, ast.Name) and func.value.id == "np"))
            )
        if called:
            self.found.append(".".join(self.scope))
        self.generic_visit(node)


def call_sites(name: str, numpy: bool = False) -> list:
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _CallSites(path.stem, name, numpy)
        visitor.visit(ast.parse(path.read_text()))
        sites += visitor.found
    return sorted(sites)


def test_one_tie_rule_on_prefix_rows():
    # every field evaluation, and eval_nu_theta_omega, reads a hull lookup,
    # a scalar x as a one-point grid. The one tie rule scans one prefix row:
    # a frame's own, or a stack's row for a point in its tie window. A
    # frame's argmin scans short grids before its hull is built, and its
    # triple is the drift minimizer's. A stack holds arrays only: it builds
    # no frame and keeps no reference to one.
    assert call_sites("_argmin") == [
        "potentials.FrameStack.argmin_grid",
        "potentials.PrefixFrame.argmin",
    ]
    assert call_sites("argmin") == [
        "potentials.PrefixFrame.argmin_grid",
        "potentials.minimize_Fbar",
    ]
    assert "weakref" not in absolute_import_roots()
    built = call_sites("PrefixFrame")
    assert "potentials.minimize_Fbar" in built
    assert not [site for site in built if site.startswith("potentials.FrameStack.")]


def test_one_cluster_extraction_and_one_hull_lookup():
    # FrameStack alone turns hull vertices into clusters, answers the hull
    # lookup and builds the formula layer's ClusterStates; a PrefixFrame
    # reads all three from its one-row stack
    assert call_sites("_hull_vertices") == ["potentials.FrameStack._build_hull"]
    assert call_sites("_settled") == ["potentials.FrameStack.argmin_grid"]
    formula = [site for site in call_sites("ClusterState") if site.split(".")[0] in FORMULA_MODULES]
    assert formula == ["potentials.FrameStack.cluster_state"]


def test_one_frame_constructor():
    # FrameStack.__init__ alone turns (measure, velocities, coeffs) rows into
    # the free-flight columns and the prefix sums P, S and Q; a PrefixFrame is
    # the one row of the stack that its constructor builds, and no stack
    # skips its constructor through __new__
    def in_potentials(sites):
        return [site for site in sites if site.startswith("potentials.")]

    assert in_potentials(call_sites("atom_mtilde")) == ["potentials.FrameStack.__init__"]
    assert set(in_potentials(call_sites("cumsum", numpy=True))) == {"potentials.FrameStack.__init__"}
    assert call_sites("__new__") == []
    assert call_sites("FrameStack") == ["euler_poisson._stacked_block", "potentials.PrefixFrame.__init__"]


def test_one_stacked_reader():
    # relax reads its taus' scaled rows through the formula layer's stacked
    # reader, as compare reads its cases: the block rule and the stack build
    # live in euler_poisson alone
    def names(module):
        return {name.rsplit(".", 1)[-1] for name in imported_names(PACKAGE / f"{module}.py")}

    assert "eval_m_and_clusters_stacked" in names("relax")
    assert not {"FrameStack", "BLOCK_ELEMENTS"} & names("relax")
    assert {"FrameStack", "BLOCK_ELEMENTS"} <= names("euler_poisson")


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


def literal_assignment(path: Path, name: str):
    """The literal value of the top-level assignment ``name = ...`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{path.name} assigns no {name}")


def exercised_lists(path: Path) -> list:
    """The literal ``exercised=`` argument of every call in ``path``."""
    return [
        ast.literal_eval(kw.value)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "exercised"
    ]


def test_perfbench_traced_names_resolve():
    # the tracer names a function's span module.__name__ after the function's
    # own __module__, and wraps each METHODS entry from its class's __dict__:
    # a rename or an alias here would leave a traced name without calls
    methods = literal_assignment(PERFBENCH / "tracing.py", "METHODS")
    entry_points = literal_assignment(PERFBENCH / "tracing.py", "ENTRY_POINTS")
    exercised = exercised_lists(PERFBENCH / "workloads.py")
    for module, cls_name, method, _ in methods:
        cls = getattr(importlib.import_module(f"stickygas.{module}"), cls_name)
        assert method in vars(cls), f"{module}.{cls_name}.{method}"
    spans = {span for *_, span in methods}
    names = set(entry_points).union(*exercised) - spans
    for name in sorted(names):
        module, func = name.split(".")
        obj = getattr(importlib.import_module(f"stickygas.{module}"), func, None)
        assert inspect.isfunction(obj) and not func.startswith("_"), name
        assert (obj.__module__, obj.__name__) == (f"stickygas.{module}", func), name
    # the scan read both files: every workload lists names, and every span
    # of a method is an entry point too
    assert exercised and all(exercised) and spans <= set(entry_points) and len(names) > len(spans)


def imported_names(path: Path) -> set:
    """Dotted names of every module that ``path`` imports, and of every name
    it imports from one (``from tests import test_x`` gives ``tests.test_x``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_test_modules_import_no_other_test_module():
    # the helpers that test modules share live in conftest.py: a test module
    # that imports another one fails to collect whenever that one does
    modules = {path.stem for path in TESTS.glob("test_*.py")}
    for path in sorted(TESTS.glob("test_*.py")):
        crossing = [name for name in imported_names(path) if modules & set(name.split("."))]
        assert crossing == [], path.name
    # the scan reads the imports of the shared helpers
    assert "tests.conftest.baseline_instance" in imported_names(TESTS / "test_oracle.py")


def test_grid_calls_run_one_branch_pass_and_one_integrand_per_block(monkeypatch):
    # the velocity branch analysis is one array pass per grid call, a
    # scalar x included, and the weak form evaluates its integrands once
    # per block that the solution's states_at yields
    calls = {"_velocities": 0, "_integrands": 0, "blocks": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(euler_poisson, "_velocities")
    counted(validate, "_integrands")
    data = InitialData.from_atoms([-1.0, 0.0, 1.0], [0.5, 0.2, 0.5], [0.5, 0.0, -0.5], 1.0)
    grid = np.linspace(-3.0, 3.0, 41)
    for call in (
        lambda: euler_poisson.eval_u(data, grid, 0.7),
        lambda: euler_poisson.sample(data, grid, 0.7),
        lambda: euler_poisson.eval_u(data, 0.25, 0.7),
    ):
        calls["_velocities"] = 0
        call()
        assert calls["_velocities"] == 1

    class CountedBlocks:
        def __init__(self, traj):
            self.traj, self.event_times, self.layer = traj, traj.event_times, traj.layer

        def states_at(self, ts):
            for block in self.traj.states_at(ts):
                calls["blocks"] += 1
                yield block

    traj = simulate_ep(data, 3.0)
    validate.check_weak_form(data, CountedBlocks(traj), (0.5, 2.9), refinement_levels=3, n_base=16)
    assert calls["_integrands"] == calls["blocks"] > 0
