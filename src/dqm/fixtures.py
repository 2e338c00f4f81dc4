"""Named parameter fixtures, loaded from a versioned JSON file.

The bundled file ships with the package; setting DQM_FIXTURES to a path
overrides it.  Schema: {"version": int, "families": {<family>: {<name>:
{"a": [complex literals], "q"?: float, "phi"?: float}}}}.  Complex literals
use the CLI syntax "re+imi" (a plain "j" suffix is accepted too).
"""

from __future__ import annotations

import json
import os
from importlib import resources

from .families import ParamSet, ValidationError, get_family

__all__ = ["parse_complex", "load_fixtures", "fixture_params", "fixture_names"]


def parse_complex(text: str) -> complex:
    """Parse 're+imi' (or python's 're+imj') complex literals."""
    s = str(text).strip().replace(" ", "")
    if not s:
        raise ValidationError("empty complex literal")
    s = s.replace("I", "i").replace("J", "i")
    if s.endswith("i"):
        s = s[:-1] + "j"
    try:
        return complex(s)
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex literal {text!r}") from exc


def load_fixtures() -> dict:
    """Load the fixtures document: the file DQM_FIXTURES names, if set, or
    the bundled one."""
    override = os.environ.get("DQM_FIXTURES")
    if override:
        with open(override, "r", encoding="utf-8") as fh:
            return json.load(fh)
    with resources.files("dqm.data").joinpath("fixtures.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)


def fixture_names(family) -> list[str]:
    fam = get_family(family)
    return sorted(load_fixtures()["families"].get(fam.spec.name, {}))


def fixture_params(family, name: str = "default") -> ParamSet:
    """The named ParamSet for a family, validated before returning."""
    fam = get_family(family)
    table = load_fixtures()["families"].get(fam.spec.name, {})
    if name not in table:
        raise ValidationError(
            f"no fixture {name!r} for {fam.spec.name}; available: {sorted(table)}"
        )
    raw = table[name]
    p = ParamSet(
        a=tuple(parse_complex(v) for v in raw.get("a", [])),
        q=raw.get("q"),
        phi=raw.get("phi"),
    )
    fam.validate(p)
    return p
