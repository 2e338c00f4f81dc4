"""Facts that hold on some families only are family methods, None where a
family lacks them.  dqm.verify and dqm.operators read those methods and
never pick a family by its name, its FamilyId or its class."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import dqm.operators
import dqm.verify
from dqm.families import FAMILIES, Family, ValidationError, get_family

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
