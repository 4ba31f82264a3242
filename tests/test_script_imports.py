"""Import gate for the scripts the test suite never runs.

``examples/*.py`` and ``benchmarks/*.py`` are run by hand (or by the
benchmark job), not by the tier-1 suite, so a deleted or renamed public
name would only fail there.  This gate compiles every such file and
resolves each ``import repro...`` / ``from repro... import name`` it
contains, at any nesting depth.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    path.relative_to(REPO_ROOT)
    for folder in ("examples", "benchmarks")
    for path in (REPO_ROOT / folder).glob("*.py")
)


def _repro_imports(tree: ast.AST):
    """``(module, name or None, line)`` for every repro import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module and node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name, node.lineno


def _resolves(module_name: str, name: str | None) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(module, name):
        return True
    try:  # ``from package import submodule``
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_scripts_are_found():
    assert any(path.parts[0] == "examples" for path in SCRIPTS)
    assert any(path.parts[0] == "benchmarks" for path in SCRIPTS)


@pytest.mark.parametrize("script", SCRIPTS, ids=str)
def test_script_compiles_and_its_repro_imports_resolve(script):
    source = (REPO_ROOT / script).read_text()
    compile(source, str(script), "exec")
    missing = [
        f"{script}:{line}: {module}" + (f".{name}" if name else "")
        for module, name, line in _repro_imports(ast.parse(source))
        if not _resolves(module, name)
    ]
    assert missing == []
