"""Every name a dqm module lists in __all__ exists in it, so that a star
import of the module succeeds.  The package's __all__ lists every public
name, and each verifier name it loads on first access is the object its
submodule defines."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import dqm

MODULES = [
    name for name in ["dqm"] + [m.name for m in pkgutil.walk_packages(dqm.__path__, "dqm.")]
    if hasattr(importlib.import_module(name), "__all__")
]


def test_the_modules_with_all_are_found():
    assert {"dqm", "dqm.operators", "dqm.quadrature", "dqm.families.base"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_the_module_has(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})


def test_the_package_all_lists_every_public_name():
    public = {n for n, v in vars(dqm).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public <= set(dqm.__all__)


LAZY = {
    "OperatorContext": "operators",
    "lambda_shift_X": "operators",
    "sample_points": "operators",
    "orthogonality_matrix": "quadrature",
    "SUITES": "verify",
    "CheckResult": "verify",
    "VerifyConfig": "verify",
    "run_suite": "verify",
}


@pytest.mark.parametrize("name", LAZY)
def test_a_verifier_name_is_its_module_attribute(name):
    module = importlib.import_module(f"dqm.{LAZY[name]}")
    assert name in dqm.__all__
    assert getattr(dqm, name) is getattr(module, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dqm.no_such_name  # noqa: B018
    assert not hasattr(dqm, "no_such_name")
