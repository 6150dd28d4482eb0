"""Layering guard: the manager core stays substrate-free.

The one autonomic manager runs on the DES and, through a wall-clock
ticker, on the live backends.  That only holds while the packages it is
built from — ``repro.core``, ``repro.rules``, ``repro.sim`` and
``repro.gcm`` — never reach for threads or for the live runtime: the
ticker brings the thread, the runtime brings the backend.  This test
walks their source and fails on any such import, relative ones included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GUARDED = ("core", "rules", "sim", "gcm")
FORBIDDEN = ("threading", "repro.runtime")


def _imports(path: Path):
    """Absolute module names imported by one source file."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _forbidden(module: str) -> bool:
    return any(module == bad or module.startswith(bad + ".") for bad in FORBIDDEN)


@pytest.mark.parametrize("package", GUARDED)
def test_manager_core_imports_no_threads_and_no_runtime(package):
    offences = [
        f"{path.relative_to(SRC)}:{line}: {module}"
        for path in sorted((SRC / "repro" / package).rglob("*.py"))
        for line, module in _imports(path)
        if _forbidden(module)
    ]
    assert not offences, "substrate imports in the manager core:\n" + "\n".join(offences)


def test_guard_resolves_relative_imports():
    """The resolver must see ``from ..runtime import x`` as repro.runtime."""
    tree = SRC / "repro" / "core" / "manager.py"
    modules = {module for _, module in _imports(tree)}
    assert "repro.gcm.abc_controller" in modules  # from ..gcm.abc_controller import …
    assert "repro.core.contracts" in modules  # from .contracts import …
