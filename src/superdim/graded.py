"""Associated graded and bigraded structures along a nilpotent superideal.

For a two-sided superideal I of a finite-dimensional superalgebra A, the
graded object has components I^n / I^{n+1}; the bigraded one filters by
I_{k,l} = I_0^k I_1^l A (even and odd parts of I separately) and takes
components I_{k,l} / (I_{k+1,l} + I_{k,l+1}).  Both are realized as
table-kind algebras on chosen representatives: a representative basis is
extracted deterministically from the echelonized filtration, and products
of representatives are re-expressed in the next component by the stage's
tagged echelon.

All four constructions (``gr``, ``gr_module``, ``bgr``, ``bgr_module``)
share three private builders:

* the filtration: ``algebra.filtration_chain`` applies a step
  (``algebra.filtration_step``: multiply every stage row by a list of
  multipliers) until the stage vanishes, which gives the I^n and I^n M
  chains and, once per parity, the (k, l) lattice of ``_lattice``.  Every
  stage is A-stable, so over a presented supercommutative algebra the
  multipliers are generators: I^{n+1} = sum_j g_j I^n over the ideal's
  recorded generators (``_multipliers``), and the lattice steps by the
  generators of each parity plus the products g y_i with the odd
  generators y_i of A (``_lattice_multipliers``).  Otherwise they are the
  ideal's basis rows;
* the components: ``_Components`` walks the stage keys (n or (k, l)) in
  sorted order; per stage, one echelon seeded with the stage(s) below it
  (``exactlin.representatives``) picks the representatives, tagged by
  their global index, and ``_Components.coords`` reads classes off it;
* the assembly: ``_Components.product`` re-expresses act(a, rep) in the
  stage whose key is the sum of the two keys, which gives both the product
  table of the graded algebra (``_Components.algebra``) and the action
  columns of the graded module (``_Components.module``).  The table is
  solved on demand: the algebra starts with an empty table, and its
  filler solves a pair the first time ``mul_basis`` reads it; only the
  unit check is eager.  Over a presented supercommutative A only the pairs
  i <= j are solved: representatives are homogeneous, so
  r_j r_i = (-1)^(|r_i| |r_j|) r_i r_j, the key sum is symmetric, and the
  class of r_j r_i is that of r_i r_j, negated when both are odd.  Any
  other algebra has every ordered pair solved.  A graded module (a
  ``smodule.SuperModule`` with a solver) likewise solves the action of a
  representative, all of its columns, the first time it is read.

Conservation of total dimension holds for the graded object (the chain
telescopes).  It does not hold bigraded in general: one ambient vector can
represent classes in two incomparable lattice positions, so only the
componentwise surjection onto the graded object is checked there.

The modules I^n M / I^{n+1} M over the graded algebra are built the same
way, with the one module action of ``smodule``: each multiplier of a step
and each representative acting in ``_Components.module`` becomes its
matrix ``act_element`` once, which acts by ``Matrix.apply``.  The regular
module M = A is the exception: I^n A = I^n as subspaces with
canonical reduced echelon bases, so the representatives are gr's and action
column j of basis element i is gr's table entry (i, j).  ``gr_module`` of
it is gr(A, I)'s regular module with gr's keys, representatives and
filtration, and ``bgr_module`` of it likewise bgr(A, I)'s.  Passing to the
graded module can only drop the odd dimension, with equality when I is the
odd radical A A_1 (``verify_graded_comparison``).
"""

from __future__ import annotations

import operator
from collections import Counter

from .algebra import (
    AlgebraError,
    FiniteSuperAlgebra,
    filtration_chain,
    filtration_step,
    odd_multipliers,
    odd_radical,
    presented_supercommutative,
    require_two_sided,
)
from .exactlin import Matrix, representatives, row_rank
from .sdim import sdim
from .smodule import RegularModule, SuperModule, regular_module
from .superpoly import EVEN, ODD, SUPERCOMMUTATIVE

__all__ = [
    "GradedSuperAlgebra",
    "BigradedSuperAlgebra",
    "GradedSuperModule",
    "gr",
    "bgr",
    "gr_module",
    "bgr_module",
    "class_in_degree",
    "verify_graded_comparison",
    "graded_comparison",
    "bgr_to_gr_surjective",
    "ideal_powers",
]


def _multipliers(A, ideal):
    """Elements g_j with I S = sum_j g_j S for every A-stable S: the
    recorded generators of the ideal when A is presented supercommutative,
    otherwise the ideal's basis rows."""
    if ideal.generators is not None and presented_supercommutative(A):
        return ideal.generators
    return ideal.basis()


def _lattice_multipliers(A, ideal):
    """The multipliers of the I_0 step and of the I_1 step.

    With generators g_j and odd multipliers y_i of A, for A-stable S:
    I_0 S = sum_{g even} g S + sum_{g odd} g y_i S and
    I_1 S = sum_{g odd} g S + sum_{g even} g y_i S, since
    I_0 = sum_{g even} A_0 g + sum_{g odd} A_1 g and A_1 = sum_i A_0 y_i.
    Products g y equal up to a scalar span the same line, so one of each
    class is kept: along the odd radical, z_j z_i = -z_i z_j.
    """
    if ideal.generators is None or not presented_supercommutative(A):
        rows = ideal.basis_with_parity()
        return [r for p, r in rows if p == EVEN], [r for p, r in rows if p != EVEN]
    ys = odd_multipliers(A)
    field = A.field
    p = field.characteristic
    even, odd = [], []
    lines = set()
    for g in ideal.generators:
        same, other = (even, odd) if A.element_parity(g) == EVEN else (odd, even)
        same.append(g)
        for y in ys:
            gy = A.mul(g, y)
            if gy:
                inv = field.inv(gy[min(gy)])
                line = frozenset((c, x * inv % p if p else x * inv) for c, x in gy.items())
                if line not in lines:
                    lines.add(line)
                    other.append(gy)
    return even, odd


def _lattice(X, act, even_mults, odd_mults, what):
    """{(k, l): I_0^k I_1^l X} over the nonzero stages, stepped by the even
    and odd multipliers of ``_lattice_multipliers`` (on a module, their matrices)."""
    even = filtration_step(X, act, even_mults)
    odd = filtration_step(X, act, odd_mults)
    lattice = {}
    for l, column in enumerate(filtration_chain(X.full_subspace(), odd, X.dim + 1, what)):
        for k, stage in enumerate(filtration_chain(column, even, X.dim + 1, what)):
            lattice[(k, l)] = stage
    return lattice


def ideal_powers(A, ideal):
    """[A, I, I^2, ...] ending just before the zero power; I must be a
    nilpotent two-sided superideal.  I^{n+1} = sum_j g_j I^n over
    ``_multipliers``."""
    require_two_sided(A, ideal)
    step = filtration_step(A, A.mul, _multipliers(A, ideal))
    return [A.full_subspace()] + filtration_chain(ideal, step, A.dim, "ideal")


class _Components:
    """Stage by stage representatives of a filtration of X, in key order.

    ``stages`` maps a key to its stage; the stages below a key are those
    under the keys ``below(key)``.  ``reps`` are (parity, row) pairs and
    ``keys[i]`` is the stage key of ``reps[i]``.  Per key, one echelon
    (``exactlin.representatives``) both picks the stage's representatives
    and gives the class of a stage vector over them (``coords``).
    """

    def __init__(self, X, stages, below):
        self.ambient = X.dim
        self.reps, self.keys, self.echelons = [], [], {}
        for key in sorted(stages):
            under = [stages[b] for b in below(key) if b in stages]
            comp, self.echelons[key] = representatives(stages[key], under, len(self.reps))
            self.reps.extend(comp)
            self.keys.extend([key] * len(comp))

    @property
    def rows(self):
        return [r for _p, r in self.reps]

    def coords(self, key, vec):
        """The class of a vector of stage ``key``: {rep index: coefficient}."""
        ech, out = self.echelons[key], {}
        neg = ech.field.neg
        for c, x in ech.reduce(vec).items():
            if c < self.ambient:
                raise AlgebraError("vector does not lie in the expected stage")
            out[c - self.ambient] = neg(x)
        return out

    def product(self, act, add, lkey, a, j):
        """The class of act(a, rep j) in stage add(lkey, key of rep j), over
        the representatives, or {} when that stage is zero."""
        key = add(lkey, self.keys[j])
        vec = act(a, self.reps[j][1]) if key in self.echelons else None
        return self.coords(key, vec) if vec else {}

    def algebra(self, A, add, tag, name, odd_steps=None):
        """The table-kind algebra on the representatives of a filtration of A.

        Its table starts empty: its filler solves the product of
        representatives i and j the first time ``mul_basis`` reads it, and
        ``mul_basis`` caches it.
        Only the unit check is done here.  On a presented supercommutative
        A, r_j r_i = (-1)^(|r_i| |r_j|) r_i r_j for the homogeneous
        representatives, and ``add`` is symmetric, so both products lie in
        one stage and their classes differ by that sign: only the pairs
        i <= j are multiplied and solved, and column (j, i) is column
        (i, j), negated exactly when both are odd.  Column (j, i) reads
        (i, j) from the table when it is there; otherwise (i, j) is solved
        and not kept, so the table holds only the pairs that were read.
        """
        half = presented_supercommutative(A)
        neg = A.field.neg
        parities = [p for p, _r in self.reps]

        def solve(i, j):
            return self.product(A.mul, add, self.keys[i], self.reps[i][1], j)

        def fill(i, j):
            if not half or i <= j:
                return solve(i, j)
            col = algebra._table.get((j, i))
            col = solve(j, i) if col is None else col
            return {k: neg(x) for k, x in col.items()} if parities[i] and parities[j] else col

        unit = self.coords(min(self.echelons), A.unit_element())  # the key of the whole of A
        if list(unit.values()) != [A.field.one]:
            raise AlgebraError("unit class is not a single representative")
        algebra = FiniteSuperAlgebra.from_table(
            labels=["[%s]@%s" % (A.element_name(r), tag(k)) for k, r in zip(self.keys, self.rows)],
            parities=parities,
            field=A.field,
            table={},
            unit_index=next(iter(unit)),
            name=name,
            fill=fill,
            odd_steps=odd_steps,
        )
        return algebra

    def module(self, M, graded, add, name):
        """The module over ``graded`` on the representatives of a filtration
        of M.  The action of representative i of ``graded`` is solved the
        first time it is read: its matrix on M, then its ``product`` with
        every representative of M."""
        n = len(self.reps)

        def solve(i):
            mat = M.act_element(graded.reps[i])
            cols = [self.product(Matrix.apply, add, graded.keys[i], mat, j) for j in range(n)]
            return Matrix.from_cols_sparse(n, cols, M.field)

        return SuperModule(graded.algebra, [p for p, _r in self.reps], solve, name)


class _Graded:
    """A graded object; ``keys`` holds the stage key of each representative."""

    def __init__(self, keys, reps):
        self.keys = keys
        self.reps = reps

    @property
    def dim(self):
        return len(self.keys)

    def component_dims(self):
        return dict(Counter(self.keys))


class GradedSuperAlgebra(_Graded):
    """Table-kind algebra on component representatives, degrees in ``keys``."""

    def __init__(self, algebra, components, powers, source, ideal):
        super().__init__(components.keys, components.rows)
        self.components = components
        self.algebra = algebra
        self.powers = powers
        self.source = source
        self.ideal = ideal


class BigradedSuperAlgebra(_Graded):
    def __init__(self, algebra, components, lattice, source, ideal):
        super().__init__(components.keys, components.rows)
        self.components = components
        self.algebra = algebra
        self.lattice = lattice
        self.source = source
        self.ideal = ideal


class GradedSuperModule(_Graded):
    def __init__(self, module, keys, reps, powers):
        super().__init__(keys, reps)
        self.module = module
        self.powers = powers


def _add_pairs(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _below_n(n):
    return (n + 1,)


def _below_kl(kl):
    k, l = kl
    return ((k + 1, l), (k, l + 1))


def gr(A, ideal):
    """The graded algebra of the filtration by powers of a superideal; over
    a presented supercommutative A it records the odd steps that
    ``algebra.odd_multipliers`` describes, from the ideal's generators."""
    powers = ideal_powers(A, ideal)
    comps = _Components(A, dict(enumerate(powers)), _below_n)
    steps = None
    if ideal.generators is not None and presented_supercommutative(A):
        odd = [(0, y) for y in odd_multipliers(A)]
        odd += [(1, g) for g in ideal.generators if A.element_parity(g) == ODD]
        steps = [c for c in (comps.coords(n, v) for n, v in odd) if c]
    algebra = comps.algebra(A, operator.add, str, "gr " + A.name, steps)
    return GradedSuperAlgebra(algebra, comps, powers, A, ideal)


def _checked(M, ideal, graded, build):
    """``graded``, or build(A, I) when it is None; raises unless it was built
    from M's algebra and this ideal."""
    if graded is None:
        return build(M.algebra, ideal)
    if graded.source is not M.algebra or graded.ideal != ideal:
        raise AlgebraError("the graded algebra was built from another algebra or ideal")
    return graded


def gr_module(M, ideal, graded_algebra=None):
    """The module over gr(A, I) with components I^n M / I^{n+1} M."""
    G = _checked(M, ideal, graded_algebra, gr)
    name = "gr " + M.name
    if isinstance(M, RegularModule):  # gr's own regular module, see the module docstring
        return GradedSuperModule(regular_module(G.algebra, name), G.keys, G.reps, G.powers)
    mats = [M.act_element(u) for u in _multipliers(M.algebra, ideal)]
    step = filtration_step(M, Matrix.apply, mats)
    full = M.full_subspace()
    powers = [full] + filtration_chain(step(full), step, M.dim, "ideal action")
    comps = _Components(M, dict(enumerate(powers)), _below_n)
    module = comps.module(M, G, operator.add, name)
    return GradedSuperModule(module, comps.keys, comps.rows, powers)


def class_in_degree(G, vec, degree):
    """The class of an ambient vector from stage `degree`, as a gr element.

    The vector must lie in the degree-th power of the filtration ideal.
    """
    return G.components.coords(degree, vec)


def bgr(A, ideal):
    """The bigraded algebra of the I_{k,l} = I_0^k I_1^l A lattice.

    Supercommutative only: the lattice definition multiplies the even and
    odd parts of the ideal in a fixed order, which is only
    order-independent under the sign rule.
    """
    if A.kind == "monomial" and A.presentation.flavor != SUPERCOMMUTATIVE:
        raise AlgebraError("bigraded construction needs a supercommutative algebra")
    require_two_sided(A, ideal)
    lattice = _lattice(A, A.mul, *_lattice_multipliers(A, ideal), "ideal")
    comps = _Components(A, lattice, _below_kl)
    algebra = comps.algebra(A, _add_pairs, lambda kl: "(%d,%d)" % kl, "bgr " + A.name)
    return BigradedSuperAlgebra(algebra, comps, lattice, A, ideal)


def bgr_module(M, ideal, bigraded_algebra=None):
    """Module components S(k,l)M / (S(k+1,l)M + S(k,l+1)M) over bgr(A, I)."""
    B = _checked(M, ideal, bigraded_algebra, bgr)
    name = "bgr " + M.name
    if isinstance(M, RegularModule):  # bgr's own regular module
        return GradedSuperModule(regular_module(B.algebra, name), B.keys, B.reps, B.lattice)
    even, odd = ([M.act_element(u) for u in m] for m in _lattice_multipliers(M.algebra, ideal))
    lattice = _lattice(M, Matrix.apply, even, odd, "ideal action")
    comps = _Components(M, lattice, _below_kl)
    module = comps.module(M, B, _add_pairs, name)
    return GradedSuperModule(module, comps.keys, comps.rows, lattice)


def bgr_to_gr_surjective(B, G):
    """Componentwise: classes of all (k,l)-representatives with k+l = n span
    gr component n."""
    by_total = {}
    for kl, rep in zip(B.keys, B.reps):
        by_total.setdefault(kl[0] + kl[1], []).append(rep)
    field = G.algebra.field
    for n in range(len(G.powers)):
        coords = (G.components.coords(n, rep) for rep in by_total.get(n, []))
        if row_rank((c for c in coords if c), field) != G.keys.count(n):
            return False
    return True


def verify_graded_comparison(M, ideal):
    """Dimension comparison between M and its graded module.

    Clauses: conservation of total dimension, sdim_1(gr M) <= sdim_1(M),
    and equality when the ideal is the odd radical.
    """
    GM = gr_module(M, ideal)
    return graded_comparison(M, ideal, GM, sdim(M), sdim(GM.module))


def graded_comparison(M, ideal, GM, msd, gsd):
    """The report of ``verify_graded_comparison`` from objects already
    built: GM = gr_module(M, ideal), msd = sdim(M), gsd = sdim(GM.module)."""
    A = M.algebra
    clauses = [
        {
            "id": "dimension-conservation",
            "ok": sum(GM.component_dims().values()) == M.dim,
        },
        {
            "id": "even-parts-agree",
            "ok": (msd.empty and gsd.empty) or msd.even == gsd.even,
        },
        {
            "id": "graded-odd-not-larger",
            "ok": gsd.empty or (not msd.empty and gsd.odd <= msd.odd),
        },
    ]
    radical = odd_radical(A)
    if ideal == radical:
        clauses.append({"id": "equality-at-odd-radical", "ok": gsd == msd})
    return {
        "clauses": clauses,
        "ok": all(c["ok"] for c in clauses),
        "sdim": msd.as_json(),
        "sdim_graded": gsd.as_json(),
        "component_dims": {str(k): v for k, v in sorted(GM.component_dims().items())},
    }
