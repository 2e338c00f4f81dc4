"""Every name a dqm module lists in __all__ exists in it, so that a star
import of the module succeeds."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import dqm

MODULES = [
    name for name in ["dqm"] + [m.name for m in pkgutil.walk_packages(dqm.__path__, "dqm.")]
    if hasattr(importlib.import_module(name), "__all__")
]


def test_the_modules_with_all_are_found():
    assert {"dqm.operators", "dqm.quadrature", "dqm.families.base"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_the_module_has(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})
