"""Quality gates on the public API surface: importability, docstrings,
and __all__ consistency."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    # __main__ exits on import by design (it runs the CLI)
    if name != "repro.__main__"
]


def test_every_module_imports():
    for name in MODULES:
        importlib.import_module(name)


def test_package_all_resolves():
    for symbol in repro.__all__:
        assert hasattr(repro, symbol), f"__all__ lists missing {symbol}"


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module_name} lacks a module docstring"
    )


@pytest.mark.parametrize("module_name", MODULES)
def test_public_callables_documented(module_name):
    """Every public function/class defined in the package carries a
    docstring (doc comments on every public item — deliverable (e))."""
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented at its home
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
    assert not undocumented, (
        f"{module_name}: undocumented public items {undocumented}"
    )


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_cli_is_a_leaf_layer():
    """Nothing in the package imports repro.cli except the CLI entry
    points themselves — the layering inversion (runner importing graph
    builders from the CLI) must not come back."""
    import pathlib
    import re

    package_root = pathlib.Path(repro.__file__).resolve().parent
    offenders = []
    for source in sorted(package_root.rglob("*.py")):
        if source.name in ("cli.py", "__main__.py"):
            continue
        if re.search(r"^\s*(from|import)\s+repro\.cli\b",
                     source.read_text(), re.MULTILINE):
            offenders.append(str(source.relative_to(package_root)))
    assert not offenders, f"modules importing repro.cli: {offenders}"


def test_registries_are_the_single_source_of_names():
    """The package exports the three scenario registries, and they are
    Registry instances (not the plain dicts they replaced)."""
    from repro.registry import Registry

    for name in ("GRAPH_FAMILIES", "PROBLEMS", "ALGORITHMS"):
        assert isinstance(getattr(repro, name), Registry), name


def test_numpy_stays_out_of_per_node_runs():
    """numpy loads only with the vectorized engine: importing the entry
    points and running a per-node solve must not pay its import time or
    memory."""
    import subprocess
    import sys

    probe = "\n".join([
        "import sys",
        "import repro, repro.api, repro.cli, repro.serve.service",
        "from repro.api import Scenario, run_scenario",
        "def solve(engine):",
        "    result = run_scenario(Scenario(family='gnp', n=64,",
        "        problem='mis', algorithm='theorem1', engine=engine))",
        "    assert result.ok, result.errors",
        "solve('simulator')",
        "assert 'numpy' not in sys.modules, 'per-node run imported numpy'",
        "solve('vectorized')",
        "assert 'numpy' in sys.modules, 'vectorized run did not load numpy'",
    ])
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_networkx_stays_out_of_direct_families():
    """The seeded families build adjacency directly: importing repro (with
    its plugins) and solving on gnp, tree or powerlaw never loads
    networkx; ``regular``, which still samples through networkx, loads
    it on first use."""
    import subprocess
    import sys

    probe = "\n".join([
        "import sys",
        "import repro",
        "from repro.registry import load_plugins",
        "load_plugins()",
        "assert 'networkx' not in sys.modules, 'import repro loaded networkx'",
        "from repro.api import Scenario, run_scenario",
        "for family in ('gnp', 'tree', 'powerlaw'):",
        "    result = run_scenario(Scenario(family=family, n=64,",
        "        problem='mis', algorithm='theorem1'))",
        "    assert result.ok, result.errors",
        "assert 'networkx' not in sys.modules, 'direct family loaded networkx'",
        "from repro.graphs import build_family_graph",
        "build_family_graph('regular', 64)",
        "assert 'networkx' in sys.modules, 'regular did not load networkx'",
    ])
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
