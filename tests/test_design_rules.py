"""Facts that hold on some families only are family methods, None where a
family lacks them.  dqm.verify and dqm.operators read those methods and
never pick a family by its name, its FamilyId or its class.

An OperatorContext is built where a parameter set enters the operator
layer, a verify suite or the quadrature, and at a parameter shift; every
other function takes its caller's context.

dqm.verify takes the worst of a check's residuals in one place, the `_fold`
of run_suite."""

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


def _scopes(tree: ast.AST, match) -> list:
    """The dotted name of the function around each node of tree that match
    accepts, "" at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if match(child):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def _context_builders(tree: ast.AST) -> list:
    """The scope of each OperatorContext(...) call in tree."""
    def is_context_call(node):
        callee = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        return (getattr(callee, "id", None) or getattr(callee, "attr", None)) == "OperatorContext"

    return _scopes(tree, is_context_call)


def _maxima(tree: ast.AST) -> list:
    """The scope of each max, amax or nanmax attribute in tree: np.max and
    the like, and an array's .max()."""
    return _scopes(tree, lambda node: isinstance(node, ast.Attribute)
                   and node.attr in ("max", "amax", "nanmax"))


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


def test_the_max_rule_finds_every_max():
    source = (
        "worst = np.max(r)\n"
        "def f(r):\n"
        "    return numpy.amax(r) + r.max() + np.maximum(r, 0)\n"
        "class A:\n"
        "    def g(self, r):\n"
        "        return np.nanmax(r, initial=0.0)\n"
    )
    assert _maxima(ast.parse(source)) == ["", "f", "f", "A.g"]


def test_residuals_are_folded_only_by_run_suite():
    # every suite returns its residual arrays; run_suite's _fold alone takes
    # their worst, so a check's levels and points reach run_suite intact
    tree = ast.parse(Path(dqm.verify.__file__).read_text())
    assert set(_maxima(tree)) == {"_fold"}


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


@pytest.mark.parametrize("name", [fid.value for fid in FAMILIES])
def test_norm_ratios_are_one_running_product_on_every_family(name):
    # h0/h_n is formed once, in Family; a family states its factors only
    fam = get_family(name)
    assert type(fam).h0_over_hn_levels is Family.h0_over_hn_levels
    assert type(fam)._norm_factors is not Family._norm_factors
