"""No module of `src/aomega` imports another module's private name.

A name with a leading underscore belongs to the module that defines it;
a caller in another module means the name has moved to the wrong place or
should be public.
"""

import ast
from pathlib import Path

import aomega

SRC = Path(aomega.__file__).parent


def private_imports(source: str) -> list[str]:
    """`module.name` for every `from .module import _name` (or `from
    aomega.module import _name`) in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("aomega")):
            found += [f"{node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_check_sees_a_private_import():
    assert private_imports("from .torus import GradingBox, _mix_basis\nfrom aomega.suites import _jsonable\n") == [
        "torus._mix_basis",
        "aomega.suites._jsonable",
    ]
    assert private_imports("from __future__ import annotations\nfrom .torus import GradingBox\n") == []


def test_no_module_imports_a_private_name_of_another():
    found = {path.name: private_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}
