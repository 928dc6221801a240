"""Every exported name resolves: ``clockcheck.__all__`` and each module's;
and every top-level definition of the package is used by the package."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import clockcheck

MODULES = ["clockcheck"] + [f"clockcheck.{m.name}"
                             for m in pkgutil.iter_modules(clockcheck.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from clockcheck import *", namespace)
    assert set(clockcheck.__all__) <= namespace.keys()


def _top_level_names(tree: ast.Module) -> list[str]:
    """The functions, classes and constants a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _imported_names(tree: ast.Module) -> list[str]:
    """The names a module's imports bind, ``__future__`` features aside."""
    return [(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names]


def _loaded_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_top_level_definition_is_used_by_the_package():
    # Code that only a test reaches, or that is only re-exported, goes: each
    # top-level function, class or constant of a module must be loaded by
    # some module of the package.  An import counts for nothing, so every
    # name a module imports must be loaded there too; the package's
    # __init__ re-exports the public surface, so its imports are exempt.
    source = Path(clockcheck.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(source.glob("*.py"))}
    loaded = {name: _loaded_names(tree) for name, tree in trees.items()}
    used = set().union(*loaded.values())
    unused = [f"{name}:{n}" for name, tree in trees.items()
              for n in _top_level_names(tree) if n not in used]
    assert unused == []
    dead_imports = [f"{name}:{n}" for name, tree in trees.items() if name != "__init__.py"
                    for n in _imported_names(tree) if n not in loaded[name]]
    assert dead_imports == []
