"""Closed-form tests of the reference computations:

    python3 -m pytest perfbench/test_reference.py
"""

import ast

import pytest

import reference

CHECKS = reference.closed_form_checks()


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_closed_form(name):
    assert CHECKS[name]


def test_reference_imports_only_numpy_and_stdlib():
    with open(reference.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported <= {"__future__", "math", "fractions", "itertools", "numpy"}
