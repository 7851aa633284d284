"""Source idioms: sparse accumulation, the closure of a span under maps,
the search for odd parameter systems, the action of an algebra element
on a module and a module whose actions are solved when read each have one
implementation, only exactlin handles an Echelon, reads a span's echelon,
writes its rows or calls kernel_of_constraints, no scalar division can
make a float, an F_p scalar is no FpElement, only cli.main writes output
or picks an exit code, and every public name has one home: the package
binds only ``__version__``, an ``__all__`` lists only its module's own
names, every import is used and no module imports another's private
name.  The odd chain is read off an algebra's compiled monomials only in
``algebra.odd_filtration``, and ``sdim_algebra`` does not take the chain
of the regular module."""

import ast
import importlib
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


def _worklist_closure_sites(source):
    """Lines of ``while`` loops that both ``.pop()`` and ``.insert(``: a
    hand-written "close a span under maps" worklist."""

    def calls(node, attr):
        return any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == attr
            for n in ast.walk(node)
        )

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.While) and calls(node, "pop") and calls(node, "insert")
    ]


@pytest.mark.parametrize(
    "name",
    sorted(n for n in os.listdir(SRC) if n.endswith(".py") and n != "exactlin.py"),
)
def test_closures_go_through_subspace_close(name):
    with open(os.path.join(SRC, name)) as fh:
        sites = _worklist_closure_sites(fh.read())
    assert not sites, "%s: worklist closure at lines %s; use exactlin.Subspace.close" % (
        name,
        sites,
    )


def test_closure_check_flags_hand_written_worklists():
    with open(os.path.join(SRC, "exactlin.py")) as fh:
        assert _worklist_closure_sites(fh.read())
    # module_span as it was before Subspace.close
    module_span = (
        "def module_span(M, seeds):\n"
        "    span = Subspace(M.parities, M.field)\n"
        "    queue = []\n"
        "    for v in seeds:\n"
        "        if v and span.insert(v):\n"
        "            queue.append(dict(v))\n"
        "    gen_mats = [M.actions[i] for i in range(len(M.actions))]\n"
        "    while queue:\n"
        "        v = queue.pop()\n"
        "        for mat in gen_mats:\n"
        "            w = mat.apply(v)\n"
        "            if w and span.insert(w):\n"
        "                queue.append(w)\n"
        "    return span\n"
    )
    assert _worklist_closure_sites(module_span) == [8]
    assert _worklist_closure_sites("while queue:\n    queue.pop()\n") == []


def _combinations_sites(source):
    """Lines of ``combinations(...)`` calls, by bare or dotted name."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "combinations"
    )


def test_one_subset_search_in_sdim():
    """Every search for odd parameter systems goes through one enumerator."""
    with open(os.path.join(SRC, "sdim.py")) as fh:
        sites = _combinations_sites(fh.read())
    assert len(sites) <= 1, "sdim.py: combinations( at lines %s; use _acting_systems" % (sites,)


def test_subset_search_check_flags_hand_written_searches():
    # the four loops of sdim.py before _acting_systems, condensed
    loops = (
        "def odd_parameter_systems(M, size):\n"
        "    for combo in combinations(range(len(pool)), size):\n"
        "        pass\n"
        "def sdim_odd_by_subset_search(M):\n"
        "    for size in range(len(pool), -1, -1):\n"
        "        for combo in combinations(range(len(pool)), size):\n"
        "            pass\n"
        "def subset_chain_agreement(M):\n"
        "    has_system = any(\n"
        "        system_acts_nonzero(M, [pool[i][1] for i in combo])\n"
        "        for combo in combinations(range(len(pool)), l)\n"
        "    )\n"
        "def verify_factoring(M, ys):\n"
        "    for combo in itertools.combinations(range(len(pool)), total.odd - t):\n"
        "        pass\n"
    )
    assert _combinations_sites(loops) == [2, 6, 11, 14]
    assert _combinations_sites("from itertools import combinations\n") == []


def _kernel_of_constraints_sites(source):
    """Lines of ``kernel_of_constraints(...)`` calls, by bare or dotted name."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "kernel_of_constraints"
    )


@pytest.mark.parametrize(
    "name",
    sorted(n for n in os.listdir(SRC) if n.endswith(".py") and n != "exactlin.py"),
)
def test_only_exactlin_calls_kernel_of_constraints(name):
    """Outside exactlin no constraint system is solved densely: the conditions
    of C^n have a closed form, and other systems go through solve_sparse or
    row_rank."""
    with open(os.path.join(SRC, name)) as fh:
        sites = _kernel_of_constraints_sites(fh.read())
    assert not sites, "%s: kernel_of_constraints( at lines %s" % (name, sites)


def test_kernel_of_constraints_check_flags_a_call():
    # hochschild._odd_diagonal_kernel before the closed form, condensed
    solve = (
        "from .exactlin import Matrix, kernel_of_constraints, row_rank\n"
        "def _odd_diagonal_kernel(A, M, n, orbits):\n"
        "    constraints = list(_constraints(A, M, n, orbits))\n"
        "    for w in kernel_of_constraints(len(orbits), constraints, A.field):\n"
        "        yield w\n"
        "basis = exactlin.kernel_of_constraints(3, [], F)\n"
    )
    assert _kernel_of_constraints_sites(solve) == [4, 6]
    assert _kernel_of_constraints_sites("kernel = row_rank(rows, field)\n") == []


def _echelon_import_sites(source):
    """Lines of an import that names ``Echelon``: outside ``exactlin`` a
    span goes through Subspace, row_rank or representatives."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.split(".")[-1] == "Echelon" for alias in node.names)
    ]


@pytest.mark.parametrize(
    "name",
    sorted(n for n in os.listdir(SRC) if n.endswith(".py") and n != "exactlin.py"),
)
def test_only_exactlin_uses_echelon(name):
    with open(os.path.join(SRC, name)) as fh:
        sites = _echelon_import_sites(fh.read())
    assert not sites, "%s: imports Echelon at lines %s; use the exactlin span API" % (name, sites)


def test_echelon_import_check_flags_an_import():
    assert _echelon_import_sites("from .exactlin import Echelon, Matrix, Subspace\n") == [1]
    assert _echelon_import_sites("import os\nfrom superdim.exactlin import Echelon as E\n") == [2]
    assert _echelon_import_sites("from .exactlin import Matrix, representatives\n") == []


def _echelon_read_sites(source):
    """Lines that read ``<x>.echelon``, ``<x>.even.<y>`` or ``<x>.odd.<y>``:
    outside ``exactlin`` a span is read through the Subspace API (``basis``,
    ``basis_with_parity``, ``dims``), never through its echelon."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and (
                node.attr == "echelon"
                or isinstance(node.value, ast.Attribute) and node.value.attr in ("even", "odd")
            )
        }
    )


@pytest.mark.parametrize(
    "name",
    sorted(n for n in os.listdir(SRC) if n.endswith(".py") and n != "exactlin.py"),
)
def test_only_exactlin_reads_a_span_echelon(name):
    with open(os.path.join(SRC, name)) as fh:
        sites = _echelon_read_sites(fh.read())
    assert not sites, "%s: reads a span's echelon at lines %s; use the Subspace API" % (
        name,
        sites,
    )


def test_echelon_read_check_flags_a_read():
    with open(os.path.join(SRC, "exactlin.py")) as fh:
        assert _echelon_read_sites(fh.read())
    # graded._lattice_multipliers as it was with one echelon per parity
    reads = (
        "return ideal.even.basis_rows(), ideal.odd.basis_rows()\n"
        "ech = S.echelon\n"
        "n = len(below[0].odd.rows)\n"
    )
    assert _echelon_read_sites(reads) == [1, 2, 3]
    # a SuperDimension's parts are no echelon
    assert _echelon_read_sites("ok = msd.even == gsd.even and sd.odd >= t\n") == []


_MUTATORS = {"pop", "popitem", "update", "clear", "setdefault", "__setitem__", "__delitem__"}


def _rows_write_sites(source):
    """Lines that assign, subscript-store, delete, pop or update ``<x>.rows``
    or an entry of it.  Only exactlin may: an Echelon keeps a column index
    of its rows, and a write from outside would leave it stale."""

    def on_rows(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr == "rows"

    def targets(node):
        if isinstance(node, (ast.Tuple, ast.List)):
            return [t for elt in node.elts for t in targets(elt)]
        return [node.value] if isinstance(node, ast.Starred) else [node]

    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.Delete)):
            stores = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            stores = [node.target]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            stores = [node.func.value]
        else:
            continue
        if any(on_rows(t) for store in stores for t in targets(store)):
            sites.append(node.lineno)
    return sorted(sites)


@pytest.mark.parametrize(
    "name",
    sorted(n for n in os.listdir(SRC) if n.endswith(".py") and n != "exactlin.py"),
)
def test_only_exactlin_writes_echelon_rows(name):
    with open(os.path.join(SRC, name)) as fh:
        sites = _rows_write_sites(fh.read())
    assert not sites, "%s: writes .rows at lines %s; the echelon index would go stale" % (
        name,
        sites,
    )


def test_rows_write_check_flags_a_hand_written_mutation():
    with open(os.path.join(SRC, "exactlin.py")) as fh:
        assert _rows_write_sites(fh.read())
    # representatives' seed as it was before the index, and further writes
    writes = (
        "ech.rows = {p: dict(r) for E in (S.even, S.odd) for p, r in E.rows.items()}\n"
        "ech.rows[p] = row\n"
        "ech.rows[p][c] += x\n"
        "del S.even.rows[p]\n"
        "ech.rows.pop(p)\n"
        "ech.rows[p].update(row)\n"
        "x, ech.rows = 1, {}\n"
    )
    assert _rows_write_sites(writes) == [1, 2, 3, 4, 5, 6, 7]
    reads = "row = ech.rows[p]\nq = ech.rows.get(p)\nfor p in S.odd.rows:\n    rows[p] = 1\n"
    assert _rows_write_sites(reads) == []


def _float_division_sites(source):
    """Lines of a ``/`` or ``/=`` whose left operand is not an explicit
    ``Fraction(...)`` call.  Every integral scalar is an int (over Q and
    over F_p), and int / int is a float; a division of field scalars goes
    through ``field.inv`` instead."""
    sites = []
    for node in ast.walk(ast.parse(source)):
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


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SRC) if n.endswith(".py")))
def test_no_module_names_fp_element(name):
    """An F_p scalar is an int in 0..p-1; the FpElement class lives on only
    as the reference in tests/oracles.py."""
    with open(os.path.join(SRC, name)) as fh:
        lines = [k for k, line in enumerate(fh, start=1) if "FpElement" in line]
    assert not lines, "%s: names FpElement at lines %s; an F_p scalar is an int" % (name, lines)


@pytest.mark.parametrize(
    "name", sorted(n[:-3] for n in os.listdir(SRC) if n.endswith(".py") and n != "__main__.py")
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module("superdim." + name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, "superdim.%s.__all__ names %s, which it does not define" % (name, missing)


def _int_literal(node):
    return isinstance(node, ast.Constant) and type(node.value) is int


def _output_sites(source):
    """Function name -> lines where it prints, names ``sys.stdout`` or
    ``sys.stderr``, or returns an int literal (``1 if failed else 0``
    included).  In cli.py only ``main`` may: it alone writes the output,
    prints the FAIL lines and sets the exit code."""
    sites = {}
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            prints = isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
            stream = (
                isinstance(node, ast.Attribute)
                and node.attr in ("stdout", "stderr")
                and getattr(node.value, "id", None) == "sys"
            )
            exit_code = isinstance(node, ast.Return) and (
                _int_literal(node.value)
                or isinstance(node.value, ast.IfExp)
                and (_int_literal(node.value.body) or _int_literal(node.value.orelse))
            )
            if prints or stream or exit_code:
                sites.setdefault(fn.name, set()).add(node.lineno)
    return {name: sorted(lines) for name, lines in sites.items()}


def test_only_cli_main_writes_output_and_exit_codes():
    with open(os.path.join(SRC, "cli.py")) as fh:
        sites = _output_sites(fh.read())
    assert list(sites) == ["main"], "cli.py: output or exit codes outside main: %s" % (sites,)


def test_output_check_flags_a_command_that_writes_its_own():
    # _cmd_regular as it was before main alone wrote the output
    regular = (
        "def _cmd_regular(args):\n"
        "    rep = verify_factoring(M, ys)\n"
        "    lines = _clause_lines(rep['clauses'])\n"
        "    _emit(args, *_seeded(args, report, lines))\n"
        "    if _fail_clauses(rep['clauses']):\n"
        "        return 1\n"
        "    return 0\n"
        "def _fail_clauses(clauses):\n"
        "    for cid in clauses:\n"
        "        print('FAIL %s' % cid, file=sys.stderr)\n"
        "def _emit(args, report, lines):\n"
        "    sys.stdout.write(emit_report(report))\n"
        "def _cmd_gr(args):\n"
        "    return 1 if failed else 0\n"
        "def _cmd_sdim(args):\n"
        "    return report, lines, []\n"
    )
    assert _output_sites(regular) == {
        "_cmd_regular": [6, 7], "_fail_clauses": [10], "_emit": [12], "_cmd_gr": [14]
    }


def _apply_element_sites(source):
    """Lines that define, import or name ``apply_element``, called or passed
    as a callable: an algebra element acts on a module only through its matrix,
    ``SuperModule.act_element``, and ``Matrix.apply``."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == "apply_element"
            or isinstance(node, ast.Attribute) and node.attr == "apply_element"
            or isinstance(node, ast.Name) and node.id == "apply_element"
            or isinstance(node, ast.alias) and node.name == "apply_element"
        }
    )


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SRC) if n.endswith(".py")))
def test_one_module_action(name):
    with open(os.path.join(SRC, name)) as fh:
        sites = _apply_element_sites(fh.read())
    assert not sites, "%s: apply_element at lines %s; act through M.act_element(a).apply" % (
        name,
        sites,
    )


def test_module_action_check_flags_apply_element():
    # the second action as smodule and graded had it, condensed
    second = (
        "class SuperModule:\n"
        "    def apply_element(self, vec, mvec):\n"
        "        return {}\n"
        "w = M.apply_element(s, M.basis_element(j))\n"
        "step = filtration_step(M, M.apply_element, mults)\n"
        "from .smodule import apply_element\n"
        "act = apply_element\n"
    )
    assert _apply_element_sites(second) == [2, 4, 5, 6, 7]
    assert _apply_element_sites("mat = M.act_element(a)\nw = mat.apply(v)\n") == []


def _package_bindings(source):
    """Lines of an ``__init__`` that import or bind a name other than
    ``__version__``: every public name is imported from the module that
    defines it, and the package exports nothing else."""
    definers = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, definers)
            or isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store)
            and node.id != "__version__"
        }
    )


def test_package_binds_only_its_version():
    with open(os.path.join(SRC, "__init__.py")) as fh:
        sites = _package_bindings(fh.read())
    assert not sites, "__init__.py: binds names at lines %s; import from the defining module" % (
        sites,
    )


def test_package_check_flags_a_re_export():
    # the re-export layer as __init__ had it, condensed
    layer = (
        '"""Docstring."""\n'
        "from .sdim import SuperDimension, sdim\n"
        "import superdim.corpus\n"
        "EMPTY = SuperDimension.make_empty()\n"
        "def report(case):\n"
        "    return case\n"
        '__version__ = "0.1.0"\n'
    )
    assert _package_bindings(layer) == [2, 3, 4, 5]
    assert _package_bindings('"""Docstring."""\n\n__version__ = "0.1.0"\n') == []


def _top_level_definitions(tree):
    """Names a module binds at its top level by a def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
    return names


def _foreign_exports(source):
    """Names in ``__all__`` that the module does not define itself: an
    ``__all__`` lists only the module's own names."""
    tree = ast.parse(source)
    exported = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = [elt.value for elt in node.value.elts]
    defined = _top_level_definitions(tree)
    return [name for name in exported if name not in defined]


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SRC) if n.endswith(".py")))
def test_all_lists_only_own_names(name):
    with open(os.path.join(SRC, name)) as fh:
        foreign = _foreign_exports(fh.read())
    assert not foreign, "%s: __all__ re-exports %s; export it from its own module" % (
        name,
        foreign,
    )


def test_export_check_flags_a_re_export():
    # superpoly's __all__ as it was, condensed
    superpoly = (
        "from .exactlin import QQ, vec_add_scaled\n"
        "EVEN, ODD = 0, 1\n"
        "SUPERCOMMUTATIVE: str = 'supercommutative'\n"
        "class GeneratorSpec:\n"
        "    pass\n"
        "def multiply(p, q):\n"
        "    return vec_add_scaled({}, p, 1, QQ)\n"
        "__all__ = ['EVEN', 'ODD', 'SUPERCOMMUTATIVE', 'GeneratorSpec', 'multiply', 'QQ']\n"
    )
    assert _foreign_exports(superpoly) == ["QQ"]
    assert _foreign_exports("__all__ = ['f']\ndef f():\n    g = 1\n") == []
    assert _foreign_exports("__all__ = ['g']\ndef f():\n    g = 1\n") == ["g"]


def _unused_imports(source):
    """Names a module imports (``__future__`` aside) but never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(bound)
    return unused


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SRC) if n.endswith(".py")))
def test_every_import_is_used(name):
    with open(os.path.join(SRC, name)) as fh:
        unused = _unused_imports(fh.read())
    assert not unused, "%s: imports %s and never uses them" % (name, unused)


def test_import_check_flags_an_unused_import():
    # algebra's imports as they were, condensed
    algebra = (
        "from __future__ import annotations\n"
        "import heapq\n"
        "from . import superpoly\n"
        "from .superpoly import ODD, GeneratorSpec, monomial_degree as degree\n"
        "def f(m, gens):\n"
        "    return heapq.nsmallest(1, [degree(m, gens, ODD)])\n"
    )
    assert _unused_imports(algebra) == ["superpoly", "GeneratorSpec"]
    assert _unused_imports("import os.path\nx = 1\n") == ["os"]
    assert _unused_imports("from .x import T\ndef f(a: T):\n    return a\n") == []


def _module_action_sites(source):
    """Lines of a class that defines ``_basis_action`` or an ``actions``
    property: a module whose actions are solved when read is an
    ``smodule.SuperModule`` given a solver, the one home of both."""
    lines = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            decorators = {
                d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)
                for d in node.decorator_list
            }
            if node.name == "_basis_action" or (
                node.name == "actions" and decorators & {"property", "cached_property"}
            ):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "name",
    sorted(n for n in os.listdir(SRC) if n.endswith(".py") and n != "smodule.py"),
)
def test_one_on_demand_module(name):
    with open(os.path.join(SRC, name)) as fh:
        sites = _module_action_sites(fh.read())
    assert not sites, "%s: module actions defined at lines %s; use smodule.SuperModule" % (
        name,
        sites,
    )


def test_on_demand_check_flags_a_second_module():
    with open(os.path.join(SRC, "smodule.py")) as fh:
        assert _module_action_sites(fh.read())
    # a graded module with its own lazy actions, condensed
    second = (
        "import functools\n"
        "class GradedModule(SuperModule):\n"
        "    def _basis_action(self, i):\n"
        "        return self.solve(i)\n"
        "    @functools.cached_property\n"
        "    def actions(self):\n"
        "        return []\n"
        "class Plain:\n"
        "    def __init__(self, actions):\n"
        "        self.actions = actions\n"
        "    @property\n"
        "    def dim(self):\n"
        "        return 0\n"
    )
    assert _module_action_sites(second) == [3, 6]


_TABLE_STATE = {"_fill", "_table", "_odd_steps"}
_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _table_write_sites(source):
    """Lines that assign an algebra's ``_fill``, ``_table`` or
    ``_odd_steps``, write into its table or mutate it: a derived algebra
    passes its filler and its odd steps to ``FiniteSuperAlgebra.from_table``
    and leaves the table to ``mul_basis``."""

    def is_state(node):
        return isinstance(node, ast.Attribute) and node.attr in _TABLE_STATE

    lines = []
    for node in ast.walk(ast.parse(source)):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = getattr(node, "targets", None) or [node.target]
        for t in targets:
            if is_state(t) or (isinstance(t, ast.Subscript) and is_state(t.value)):
                lines.append(node.lineno)
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in _MUTATORS and is_state(f.value):
                lines.append(node.lineno)
            if (
                isinstance(f, ast.Name)
                and f.id == "setattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in _TABLE_STATE
            ):
                lines.append(node.lineno)
    return sorted(set(lines))


@pytest.mark.parametrize(
    "name",
    sorted(n for n in os.listdir(SRC) if n.endswith(".py") and n != "algebra.py"),
)
def test_only_algebra_writes_a_product_table(name):
    with open(os.path.join(SRC, name)) as fh:
        sites = _table_write_sites(fh.read())
    assert not sites, (
        "%s: an algebra's _fill, _table or _odd_steps written at lines %s; pass "
        "fill= or odd_steps= to FiniteSuperAlgebra.from_table" % (name, sites)
    )


def test_table_write_check_flags_an_outside_write():
    with open(os.path.join(SRC, "algebra.py")) as fh:
        assert _table_write_sites(fh.read())
    # graded's filler as it was installed, and other writes, condensed
    planted = (
        "def algebra(A, fill):\n"
        "    G = FiniteSuperAlgebra.from_table([], [], A.field, {}, 0)\n"
        "    G._fill = fill\n"
        "    col = G._table.get((1, 0))\n"
        "    G._table[(0, 1)] = col\n"
        "    G._table.update({})\n"
        "    G._table = {}\n"
        "    setattr(G, '_fill', None)\n"
        "    del G._table[(0, 1)]\n"
        "    G._odd_steps = [c for c in fill(0, 1) if c]\n"
        "    return G._fill, len(G._table), G._odd_steps\n"
    )
    assert _table_write_sites(planted) == [3, 5, 6, 7, 8, 9, 10]


def _private_imports(source):
    """(line, name) of each underscore name a module imports from another
    module: a private helper that belongs behind a public one."""
    return [
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(SRC) if n.endswith(".py")))
def test_no_module_imports_a_private_name(name):
    with open(os.path.join(SRC, name)) as fh:
        sites = _private_imports(fh.read())
    assert not sites, "%s: imports private names %s" % (name, sites)


def test_private_import_check_flags_an_import():
    # smodule's imports before its cap window moved into algebra, condensed
    planted = (
        "from __future__ import annotations\n"
        "from .algebra import _enumerate_monomials\n"
        "from .exactlin import Matrix, _scaled as scaled\n"
        "from . import _private\n"
        "import superdim.algebra\n"
    )
    assert _private_imports(planted) == [
        (2, "_enumerate_monomials"), (3, "_scaled"), (4, "_private"),
    ]


_COMPILED_MONOMIALS = {"_mono_index", "_basis_monos", "_reduce_mono_vec"}


def _monomial_reading_sites(source):
    """(function, line) of each loop or comprehension over an algebra's
    compiled monomials (``_mono_index``) or its basis monomials
    (``_basis_monos``): a reading of the odd chain off the monomials."""
    sites = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.comprehension)) and any(
                isinstance(n, ast.Attribute) and n.attr in ("_mono_index", "_basis_monos")
                for n in ast.walk(node.iter)
            ):
                sites.append((fn.name, node.iter.lineno))
    return sites


def _compiled_monomial_reads(source):
    """Lines that read an algebra's compiled monomials or their projection."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in _COMPILED_MONOMIALS
        }
    )


def test_the_monomial_reading_has_one_implementation():
    sites = []
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        with open(os.path.join(SRC, name)) as fh:
            sites += [(name, fn) for fn, _line in _monomial_reading_sites(fh.read())]
    assert sites == [("algebra.py", "odd_filtration")], (
        "the compiled monomials are read at %s; use algebra.odd_filtration" % sites
    )


@pytest.mark.parametrize(
    "name",
    sorted(n for n in os.listdir(SRC) if n.endswith(".py") and n != "algebra.py"),
)
def test_only_algebra_reads_the_compiled_monomials(name):
    with open(os.path.join(SRC, name)) as fh:
        sites = _compiled_monomial_reads(fh.read())
    assert not sites, (
        "%s: an algebra's compiled monomials read at lines %s; use algebra.odd_filtration"
        % (name, sites)
    )


def test_monomial_reading_check_flags_a_second_reading():
    # a chain read off the basis monomials by their own odd counts, condensed
    planted = (
        "def odd_chain(A, odd):\n"
        "    stages = {}\n"
        "    for i, m in enumerate(A._basis_monos):\n"
        "        stages.setdefault(sum(m[j] for j in odd), []).append(i)\n"
        "    return [A._reduce_mono_vec({i: 1}) for i in A._mono_index.values()]\n"
    )
    assert _monomial_reading_sites(planted) == [("odd_chain", 3), ("odd_chain", 5)]
    assert _compiled_monomial_reads(planted) == [3, 5]


def _names_used(source, function):
    """Every name the top-level function ``function`` reads."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
            }
    raise AssertionError("no function %s" % function)


# sdim_algebra reads one chain of A; the module chain of its regular module
# would build a second one wherever a caller also asks for that.
_MODULE_CHAIN = {"odd_power_spans_of_module", "sdim", "regular_module", "RegularModule"}


def test_sdim_algebra_does_not_take_the_module_chain():
    with open(os.path.join(SRC, "sdim.py")) as fh:
        used = _names_used(fh.read(), "sdim_algebra")
    assert "odd_filtration" in used
    assert not used & _MODULE_CHAIN, sorted(used & _MODULE_CHAIN)


def test_module_chain_check_flags_a_reroute():
    planted = (
        "def sdim_algebra(A):\n"
        "    return sdim_of_chain(odd_power_spans_of_module(regular_module(A)))\n"
    )
    assert _names_used(planted, "sdim_algebra") & _MODULE_CHAIN == {
        "odd_power_spans_of_module",
        "regular_module",
    }
