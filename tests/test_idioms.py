"""Source idioms: sparse accumulation has one implementation."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "superdim")


def _drop_zero_sites(path):
    """Lines of ``d.pop(key, None)`` calls: the drop-zero step of a
    hand-written "accumulate and drop zeros" loop."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "pop"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Constant)
        and node.args[1].value is None
    ]


@pytest.mark.parametrize(
    "name",
    sorted(n for n in os.listdir(SRC) if n.endswith(".py") and n != "exactlin.py"),
)
def test_accumulation_goes_through_vec_add_scaled(name):
    sites = _drop_zero_sites(os.path.join(SRC, name))
    assert not sites, "%s: drop-zero idiom at lines %s; use exactlin.vec_add_scaled" % (
        name,
        sites,
    )


def test_the_idiom_is_detected_in_exactlin():
    assert _drop_zero_sites(os.path.join(SRC, "exactlin.py"))
