"""Facts that hold on some families only are family methods, None where a
family lacks them.  dqm.verify and dqm.operators read those methods and
never pick a family by its name, its FamilyId or its class.

An OperatorContext is built where a parameter set enters the operator
layer, a verify suite or the quadrature, and at a parameter shift; every
other function takes its caller's context."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import dqm
import dqm.operators
import dqm.verify
from dqm.families import FAMILIES, Family, ValidationError, get_family
from dqm.families.base import QuadraticSpectrum
from dqm.families.linear import ContinuousHahn
from dqm.families.quadratic import Wilson

# every class a registered family is an instance of, bar the shared base
FAMILY_CLASSES = {
    cls.__name__
    for fam in FAMILIES.values()
    for cls in type(fam).__mro__
    if issubclass(cls, Family) and cls is not Family
}


def _names_a_family(text: str) -> bool:
    """Whether get_family resolves the text: a family name or alias."""
    try:
        get_family(text)
    except ValidationError:
        return False
    return True


def _family_tests(tree: ast.AST) -> list:
    """(line, what) for each family name, FamilyId or family class in tree."""
    banned = FAMILY_CLASSES | {"FamilyId"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value if _names_a_family(node.value) else None
        elif isinstance(node, ast.Name):
            name = node.id if node.id in banned else None
        elif isinstance(node, ast.Attribute):
            name = node.attr if node.attr in banned else None
        elif isinstance(node, ast.alias):
            name = node.name if node.name.rsplit(".", 1)[-1] in banned else None
        else:
            continue
        if name is not None:
            found.append((getattr(node, "lineno", None), name))
    return found


def test_the_rule_catches_each_kind_of_family_test():
    source = (
        "from .families.trig import AskeyWilson\n"
        "if fam.spec.name == 'meixner-pollaczek' or fam.spec.id is FamilyId.WILSON:\n"
        "    pass\n"
        "ok = fam.spec.name\n"
    )
    assert [what for _, what in _family_tests(ast.parse(source))] == [
        "AskeyWilson", "meixner-pollaczek", "FamilyId"]


@pytest.mark.parametrize("module", [dqm.verify, dqm.operators], ids=lambda m: m.__name__)
def test_the_module_picks_no_family_by_name_id_or_class(module):
    tree = ast.parse(Path(module.__file__).read_text())
    assert _family_tests(tree) == []


def _context_builders(tree: ast.AST) -> list:
    """The dotted name of the function around each OperatorContext(...) call
    in tree, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = getattr(callee, "id", None) or getattr(callee, "attr", None)
                if name == "OperatorContext":
                    found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_the_context_rule_finds_every_call():
    source = (
        "ctx = OperatorContext(fam, p)\n"
        "class A:\n"
        "    def f(self):\n"
        "        return g(lambda: operators.OperatorContext(fam, p))\n"
        "def h():\n"
        "    return OperatorContext.H_tilde\n"
    )
    assert _context_builders(ast.parse(source)) == ["", "A.f"]


def test_contexts_are_built_only_where_parameters_enter_or_shift():
    src = Path(dqm.__file__).parent
    allowed = {"operators:OperatorContext.shifted", "quadrature:_matrix"} | {
        f"verify:{runner.__name__}" for runner in dqm.verify._SUITE_RUNNERS.values()}
    found = set()
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).with_suffix("").as_posix().replace("/", ".")
        found |= {f"{module}:{scope}" for scope in _context_builders(ast.parse(path.read_text()))}
    assert found - allowed == set()
    assert {"operators:OperatorContext.shifted", "quadrature:_matrix"} <= found


@pytest.mark.parametrize("name", ["energy", "level_from_energy", "_terms"])
def test_wilson_and_continuous_hahn_share_their_spectrum_forms(name):
    # E_n = n(n + b1 - 1), its inversion and the recurrence terms are written
    # once, in QuadraticSpectrum
    assert getattr(Wilson, name) is getattr(ContinuousHahn, name)
    assert getattr(Wilson, name) is getattr(QuadraticSpectrum, name)
    assert name not in vars(Wilson) and name not in vars(ContinuousHahn)
