"""Source idioms: sparse accumulation has one implementation, and no scalar
division can make a float."""

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


def _float_division_sites(source):
    """Lines of a ``/`` or ``/=`` whose left operand is not an explicit
    ``Fraction(...)`` call, outside the FpElement class.  Over Q an integral
    scalar is an int, and int / int is a float; a division of field scalars
    goes through ``field.inv`` instead."""
    sites = []

    def visit(node, in_fp):
        if isinstance(node, ast.ClassDef) and node.name == "FpElement":
            in_fp = True
        if not in_fp:
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                sites.append(node.lineno)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                left = node.left
                explicit = (
                    isinstance(left, ast.Call)
                    and isinstance(left.func, ast.Name)
                    and left.func.id == "Fraction"
                )
                if not explicit:
                    sites.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_fp)

    visit(ast.parse(source), False)
    return sorted(sites)


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SRC) if n.endswith(".py")))
def test_no_division_can_make_a_float(name):
    with open(os.path.join(SRC, name)) as fh:
        sites = _float_division_sites(fh.read())
    assert not sites, "%s: '/' at lines %s; divide through field.inv" % (name, sites)


def test_division_check_flags_a_bare_scalar_division():
    # Echelon.insert as it was when every Q scalar was a Fraction
    insert = "class Echelon:\n    def insert(self, v, piv):\n        inv = self.field.one / v[piv]\n"
    assert _float_division_sites(insert) == [3]
    assert _float_division_sites("x = a\nx /= b\n") == [2]
    assert _float_division_sites("lead = Fraction(w[0]) / fact\n") == []
    assert _float_division_sites("class FpElement:\n    def f(self, o):\n        return o / self\n") == []
