"""The package's public names: each module's ``__all__`` and what
``derivreg/__init__.py`` re-exports must agree with the code."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import derivreg

_MODULES = [m.name for m in pkgutil.iter_modules(derivreg.__path__)]


def _init_imports():
    """(module, name) for every ``from .module import name`` in __init__.py."""
    tree = ast.parse(Path(derivreg.__file__).read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", _MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"derivreg.{module}")
    names = mod.__all__
    assert len(set(names)) == len(names), "duplicate __all__ entries"
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"derivreg.{module}.__all__ names undefined {missing}"


def test_package_exports_are_in_their_modules_all():
    imports = _init_imports()
    assert {module for module, _ in imports} <= set(_MODULES)
    stray = [f"{module}.{name}" for module, name in imports if name not in importlib.import_module(f"derivreg.{module}").__all__]
    assert not stray, f"re-exported but not in the module's __all__: {stray}"


@pytest.mark.parametrize("module", _MODULES)
def test_no_private_names_imported_across_modules(module):
    # A rule that two modules share has a public owner.
    tree = ast.parse((Path(derivreg.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("derivreg"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert not private, f"derivreg.{module} imports private names {private}"
