"""Every exported name resolves: ``clockcheck.__all__`` and each module's."""

import importlib
import pkgutil

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
