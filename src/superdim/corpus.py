"""Worked finite examples, rebuilt from scratch and machine-checked.

Two constructions anchor the suite, and two further cases study them:

* case ``c1``: the free odd parameter ring R = K[Z1,Z2,Z3,Y] (all four
  generators odd) acting on M = V + Pi V, where V carries three pairs of
  operators phi_i (odd) and psi_i (even) subject to

      phi_i psi_i - psi_i phi_i = 0,   phi_i phi_j = 0,
      psi_i phi_j - phi_i psi_j - phi_j psi_i + psi_j phi_i = 0  (i != j),

  realized inside an associative algebra B on six degree-one letters with
  those relations, truncated above degree 3.  Outcome: sdim(M) = 0|3 and
  Y is regular on M, yet Y lies in no longest system of odd parameters.

* case ``c2``: a square-zero extension R = A_pi glued from an odd cocycle
  pi built out of totally antisymmetric symbols t_ijk (1 <= i,j,k <= 4).
  Outcome: y = Pi 1 is regular, sdim_1(R) = 4, but sdim_1(R/Ry) = 2, so
  the drop after one regular element strictly exceeds 1.

* case ``gr``: the graded module of c1's M along I = RY loses odd
  dimension (2 < 3) while gr_I(R) stays isomorphic to R; grading along
  the odd radical restores equality.

* case ``flat``: c2 through the freeness lens: R is free over K[y] of
  rank dim(R)/2 (certified by the rank of multiplication by y), giving
  the strict inequality sdim_1(R) > sdim_1(K[y]) + sdim_1(R/Ry); plus the
  Grassmann quotient drop sdim_1(Lambda_s / (z1)) = s - 1 for s <= 3.

Every ``verify_*`` function returns a report dict with a fixed clause
list ({"id", "ok", ...}), a constants block and an overall "ok" flag.
Reports are reproducible bit for bit: every basis is an echelon basis
over an exact field and nothing is sampled.
"""

from itertools import combinations, product

from .algebra import (
    AlgebraError,
    Presentation,
    compile_presentation,
    is_algebra_map,
    odd_radical,
    quotient_algebra,
    superideal_span,
    table_is_associative,
    table_respects_unit,
)
from .exactlin import QQ, Matrix, Subspace, rank, vec_add_scaled
from .graded import class_in_degree, gr, gr_module
from .hochschild import (
    Cochain,
    adapted_equivalence,
    build_A_pi,
    is_cocycle_pi,
    is_in_C,
    is_super_skew,
    zero_cochain,
)
from .sdim import (
    SuperDimension,
    odd_parameter_systems,
    odd_power_spans_of_module,
    ordered_product,
    sdim,
    sdim_algebra,
    sdim_of_chain,
    subset_chain_agreement,
    system_acts_nonzero,
    verify_factoring,
)
from .smodule import (
    SuperModule,
    check_module,
    is_odd_regular,
    product_span,
    quotient,
    regular_module,
)
from .superpoly import (
    ASSOCIATIVE,
    EVEN,
    ODD,
    SUPERCOMMUTATIVE,
    GeneratorSpec,
    SuperPolynomial,
)

__all__ = [
    "EpsilonTensor",
    "CASES",
    "build_c1",
    "build_c2",
    "verify_c1",
    "verify_c2",
    "verify_gr_example",
    "verify_flat_example",
    "corpus_report",
    "corpus_all",
]

CASES = ("c1", "c2", "flat", "gr")

_CACHE = {}


def _compile(flavor, gens, relations, cap, field, name):
    return compile_presentation(
        Presentation(flavor, gens, relations, cap, field, name)
    )


def _combine(field, *pairs):
    """Exact linear combination sum(coeff * vec) of sparse vectors."""
    out = {}
    for coeff, vec in pairs:
        vec_add_scaled(out, vec, field.of(coeff), field)
    return out


class EpsilonTensor:
    """Totally antisymmetric symbols t_ijk on the indices 1..4.

    ``resolve(i, j, k)`` returns ``(sign, label)`` where the label names
    the canonical generator t_{i'j'k'} with i' < j' < k' and the sign is
    the parity of the sorting permutation; repeated indices give None.
    """

    def __init__(self):
        self._canonical = {
            trip: "t%d%d%d" % trip for trip in combinations(range(1, 5), 3)
        }

    def labels(self):
        return [self._canonical[t] for t in sorted(self._canonical)]

    def resolve(self, i, j, k):
        trip = (i, j, k)
        if len(set(trip)) != 3:
            return None
        inv = sum(
            1 for a in range(3) for b in range(a + 1, 3) if trip[a] > trip[b]
        )
        return (-1 if inv % 2 else 1), self._canonical[tuple(sorted(trip))]


# ---------------------------------------------------------------------------
# case c1: M = V + Pi V over the free odd parameter ring K[Z1,Z2,Z3,Y]
# ---------------------------------------------------------------------------


class CorpusC1:
    """The operator algebra B, the parameter ring R and the module M."""

    __slots__ = ("B", "R", "M")

    def __init__(self, B, R, M):
        self.B = B
        self.R = R
        self.M = M


def build_c1(field=QQ):
    """Compile B, R = K[Z1,Z2,Z3,Y] and the doubled module M = V + Pi V.

    V is B's regular module; phi_i and psi_i act on it by left
    multiplication with the generators of B, and

        Y(v) = Pi v,  Y(Pi v) = 0,
        Z_i(v) = phi_i(v) + Pi psi_i(v),  Z_i(Pi v) = -Pi phi_i(v).
    """
    key = ("c1", field.name)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit

    gens = tuple(
        [GeneratorSpec("phi%d" % i, ODD) for i in (1, 2, 3)]
        + [GeneratorSpec("psi%d" % i, EVEN) for i in (1, 2, 3)]
    )

    def gen(i):
        return SuperPolynomial.generator(i, ASSOCIATIVE, gens, field)

    phi = [gen(i) for i in range(3)]
    psi = [gen(3 + i) for i in range(3)]
    rels = []
    for i in range(3):
        rels.append(phi[i] * psi[i] - psi[i] * phi[i])
        for j in range(3):
            rels.append(phi[i] * phi[j])
    for i in range(3):
        for j in range(3):
            if i != j:
                rels.append(
                    psi[i] * phi[j]
                    - phi[i] * psi[j]
                    - phi[j] * psi[i]
                    + psi[j] * phi[i]
                )
    B = _compile(ASSOCIATIVE, gens, rels, 3, field, "B")

    rgens = tuple(GeneratorSpec(n, ODD) for n in ("Z1", "Z2", "Z3", "Y"))
    R = _compile(SUPERCOMMUTATIVE, rgens, [], 4, field, "R")

    nB = B.dim
    V = regular_module(B)
    # the cached matrices' own columns: read here, never written
    phis = [V.act_element(B.generator_element("phi%d" % i)).cols for i in (1, 2, 3)]
    psis = [V.act_element(B.generator_element("psi%d" % i)).cols for i in (1, 2, 3)]

    dim = 2 * nB
    actions = []
    for i in range(3):
        cols = []
        for j in range(nB):
            col = dict(phis[i][j])
            for r, c in psis[i][j].items():
                col[nB + r] = c
            cols.append(col)
        for j in range(nB):
            cols.append({nB + r: field.neg(c) for r, c in phis[i][j].items()})
        actions.append(Matrix.from_cols_sparse(dim, cols, field))
    one = field.one
    ycols = [{nB + j: one} for j in range(nB)] + [{} for _ in range(nB)]
    actions.append(Matrix.from_cols_sparse(dim, ycols, field))

    parities = list(B.parities) + [1 - p for p in B.parities]
    M = SuperModule(R, parities, actions, name="V + Pi V")

    out = CorpusC1(B, R, M)
    _CACHE[key] = out
    return out


def verify_c1(field=QQ):
    """Check every recorded property of case c1 and report the clauses."""
    data = build_c1(field)
    B, R, M = data.B, data.R, data.M
    clauses = []

    wit = B.mul(
        B.mul(B.generator_element("phi1"), B.generator_element("psi2")),
        B.generator_element("phi3"),
    )
    clauses.append({"id": "phi1-psi2-phi3-nonzero", "ok": bool(wit)})

    clauses.append({"id": "module-axioms", "ok": check_module(M) == []})

    y = R.generator_element("Y")
    zs = [R.generator_element("Z%d" % i) for i in (1, 2, 3)]

    clauses.append({"id": "y-regular", "ok": is_odd_regular(y, M)})

    ym = product_span(M, [y])
    zzs = (R.mul(za, zb) for za in zs for zb in zs)
    # the columns of zz's matrix are the images zz.e_t
    inside = all(ym.contains(w) for zz in zzs if zz for w in M.act_element(zz).cols if w)
    clauses.append({"id": "zizj-module-inside-ym", "ok": inside})

    clauses.append({"id": "z1z2z3-module-nonzero", "ok": system_acts_nonzero(M, zs)})

    spans = odd_power_spans_of_module(M)
    sd = sdim_of_chain(spans)
    clauses.append({"id": "sdim-0-3", "ok": sd == SuperDimension(0, 3)})

    fact = verify_factoring(M, [y], chain=spans)
    sdq = fact["sdim_quotient"]
    clauses.append(
        {"id": "quotient-by-y-sdim-at-most-1", "ok": "odd" in sdq and sdq["odd"] <= 1}
    )

    clauses.append({"id": "y-not-extendable", "ok": not fact["extendable"]})

    systems = odd_parameter_systems(M, 3)
    clauses.append(
        {"id": "z-triple-is-longest-system", "ok": ("Z1", "Z2", "Z3") in systems}
    )
    clauses.append(
        {"id": "no-longest-system-contains-y", "ok": all("Y" not in s for s in systems)}
    )

    clauses.append({"id": "factoring-identities", "ok": fact["ok"]})

    clauses.append(
        {"id": "subset-chain-agreement", "ok": subset_chain_agreement(M, chain=spans)}
    )

    return {
        "case": "c1",
        "field": field.name,
        "clauses": clauses,
        "constants": {
            "dim_B": B.dim,
            "dim_M": M.dim,
            "sdim": sd.as_json(),
            "sdim_quotient_by_y": sdq,
            "odd_chain_dims": [s.dim for s in spans],
            "longest_systems": [list(s) for s in systems],
        },
        "factoring": fact,
        "ok": all(c["ok"] for c in clauses),
    }


# ---------------------------------------------------------------------------
# case c2: the square-zero extension R = A_pi from antisymmetric symbols
# ---------------------------------------------------------------------------


class CorpusC2:
    """All stages of case c2, from A' down to R = A_pi."""

    __slots__ = (
        "eps",
        "Aprime",
        "ideal",
        "A",
        "pi",
        "pi_prime",
        "R",
        "y",
        "zvecs",
        "v4",
        "witness",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])


def build_c2(field=QQ):
    """Compile A', the ideal of the forcing relations, A, pi and R = A_pi.

    A' is the supercommutative ring on the four symbols t_ijk (even) and
    Y1..Y4 (odd) with all products of two symbols and all products of
    three Y's killed.  The forcing relations

        (x)   t_skj Y_i + t_ski Y_j = 0,
        (xx)  t_ski Y_i = 0,

    cut A out of A'.  The glue map pi' is defined on the symbol-module
    basis {1, Y_i, Y_i Y_j} of A' by

        pi'(1, -) = pi'(-, 1) = 0,
        pi'(Y_i, Y_j) = 0,
        pi'(Y_i Y_j, Y_k) = pi'(Y_k, Y_i Y_j) = t_ijk,
        pi'(Y_i Y_j, Y_s Y_k) = -t_skj Y_i,

    extended bilinearly over the symbols, with all values reduced in A.
    So pi' is zero on a pair of words when either word contains a symbol:
    every nonzero value above has a symbol factor, and every product of
    two symbols is a relation of A', and so of A.  It kills the forcing
    ideal (a verified clause), so it induces the cocycle pi on A used to
    glue R.
    """
    key = ("c2", field.name)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit

    eps = EpsilonTensor()
    tlabels = eps.labels()
    nt = len(tlabels)
    gens = tuple(
        [GeneratorSpec(lbl, EVEN, (1, 0)) for lbl in tlabels]
        + [GeneratorSpec("Y%d" % i, ODD, (0, 1)) for i in (1, 2, 3, 4)]
    )
    index = {g.name: i for i, g in enumerate(gens)}

    def mono(powers):
        exps = [0] * len(gens)
        for name, e in powers:
            exps[index[name]] += e
        return tuple(exps)

    def poly(terms):
        return SuperPolynomial(SUPERCOMMUTATIVE, gens, field, terms)

    def t_times_y(trip, yindex=None, sign=1):
        """sign * t_trip * Y_yindex (t_trip alone without yindex), resolving
        the antisymmetric symbol."""
        hit = eps.resolve(*trip)
        if hit is None:
            return poly({})
        s, lbl = hit
        ys = [("Y%d" % yindex, 1)] if yindex else []
        return poly({mono([(lbl, 1)] + ys): field.of(sign * s)})

    rels = []
    for a in range(nt):
        for b in range(a, nt):
            rels.append(poly({mono([(tlabels[a], 1), (tlabels[b], 1)]): field.one}))
    for trip in combinations((1, 2, 3, 4), 3):
        rels.append(poly({mono([("Y%d" % i, 1) for i in trip]): field.one}))

    Aprime = _compile(SUPERCOMMUTATIVE, gens, rels, 3, field, "A'")

    star = []
    for i, j, k, s in product((1, 2, 3, 4), repeat=4):
        p = t_times_y((s, k, j), i) + t_times_y((s, k, i), j)
        if not p.is_zero():
            star.append(p)
    starstar = []
    for s, k, i in product((1, 2, 3, 4), repeat=3):
        p = t_times_y((s, k, i), i)
        if not p.is_zero():
            starstar.append(p)

    ideal_vecs = [Aprime.reduce_poly(p) for p in star + starstar]
    ideal = superideal_span(Aprime, [v for v in ideal_vecs if v])

    A = _compile(SUPERCOMMUTATIVE, gens, rels + star + starstar, 3, field, "A")

    def pi_entry(w1, w2):
        """pi'(m1, m2) as a polynomial, for normal monomial words; None = 0."""
        if not w1 or not w2 or len(w1 + w2) == 2 or any(g < nt for g in w1 + w2):
            return None
        y1 = [g - nt + 1 for g in w1]
        y2 = [g - nt + 1 for g in w2]
        if len(y1) == 2 and len(y2) == 1:
            core = t_times_y((y1[0], y1[1], y2[0]))
        elif len(y1) == 1 and len(y2) == 2:
            core = t_times_y((y2[0], y2[1], y1[0]))
        else:
            (i, j), (s, k) = y1, y2
            core = t_times_y((s, k, j), i, sign=-1)
        return None if core.is_zero() else core

    def pi_table(source):
        """pi' on the basis pairs of source, with values reduced in A."""
        words = [source.basis_word(i) for i in range(source.dim)]
        table = {}
        for i, w1 in enumerate(words):
            for j, w2 in enumerate(words):
                p = pi_entry(w1, w2)
                vec = None if p is None else A.reduce_poly(p)
                if vec:
                    table[(i, j)] = vec
        return table

    pi_prime = pi_table(Aprime)
    pi = Cochain(1, ODD, pi_table(A))

    R = build_A_pi(A, pi, name="R")
    y = {A.dim + A.unit_index: field.one}

    zdefs = [
        ((1, 4, 3), 2, (1, 4, 2), 3),
        ((1, 3, 4), 2, (1, 3, 2), 4),
        ((1, 2, 4), 3, (1, 2, 3), 4),
        ((2, 3, 4), 1, (2, 3, 1), 4),
        ((2, 4, 3), 1, (2, 4, 1), 3),
        ((3, 4, 2), 1, (3, 4, 1), 2),
    ]
    zvecs = [
        Aprime.reduce_poly(t_times_y(t1, y1) + t_times_y(t2, y2))
        for t1, y1, t2, y2 in zdefs
    ]
    v4 = Aprime.reduce_poly(t_times_y((1, 2, 3), 4))
    witness = A.reduce_poly(t_times_y((1, 2, 3), 4))

    out = CorpusC2(
        eps=eps,
        Aprime=Aprime,
        ideal=ideal,
        A=A,
        pi=pi,
        pi_prime=pi_prime,
        R=R,
        y=y,
        zvecs=zvecs,
        v4=v4,
        witness=witness,
    )
    _CACHE[key] = out
    return out


def _bilinear_value(table, u, v, field):
    """The bilinear extension of a basis-pair table at (u, v)."""
    out = {}
    for i, a in u.items():
        for j, b in v.items():
            hit = table.get((i, j))
            if hit and a and b:
                vec_add_scaled(out, hit, a * b, field)
    return out


def verify_c2(field=QQ):
    """Check every recorded property of case c2 and report the clauses."""
    data = build_c2(field)
    Ap, A, R, pi = data.Aprime, data.A, data.R, data.pi
    clauses = []

    clauses.append({"id": "aprime-dim-55", "ok": Ap.dim == 55})
    sdap = sdim_algebra(Ap)
    clauses.append({"id": "aprime-sdim-2", "ok": sdap == SuperDimension(0, 2)})

    z = data.zvecs
    zok = (
        z[0] == _combine(field, (-1, z[4]), (-1, z[5]))
        and z[1] == _combine(field, (-1, z[3]), (1, z[5]))
        and z[2] == _combine(field, (1, z[3]), (1, z[4]))
    )
    clauses.append({"id": "z-identities", "ok": zok})

    nspan = Subspace.span(Ap.parities, field, z)
    clauses.append({"id": "nprime-rank-3", "ok": nspan.dim == 3})

    tail = Subspace.span(Ap.parities, field, z[3:])
    clauses.append(
        {"id": "v4-outside-nprime", "ok": tail.dim == 3 and not tail.contains(data.v4)}
    )
    clauses.append({"id": "v4-outside-ideal", "ok": not data.ideal.contains(data.v4)})

    one = field.one
    kills = True
    for row in data.ideal.basis():
        for j in range(Ap.dim):
            ej = {j: one}
            if _bilinear_value(data.pi_prime, row, ej, field) or _bilinear_value(
                data.pi_prime, ej, row, field
            ):
                kills = False
    clauses.append({"id": "pi-prime-kills-ideal", "ok": kills})

    clauses.append({"id": "a-dim-16", "ok": A.dim == 16})
    clauses.append({"id": "pi-super-skew", "ok": is_super_skew(pi, A)})
    clauses.append({"id": "pi-cocycle", "ok": is_cocycle_pi(pi, A)})
    MA = regular_module(A)
    clauses.append({"id": "pi-in-c1-subcomplex", "ok": is_in_C(pi, A, MA)})

    clauses.append({"id": "r-dim-32", "ok": R.dim == 32})
    clauses.append(
        {
            "id": "r-table-algebra",
            "ok": table_is_associative(R) and table_respects_unit(R),
        }
    )

    MR = regular_module(R)
    clauses.append({"id": "y-regular", "ok": is_odd_regular(data.y, MR)})

    ys = [A.generator_element("Y%d" % i) for i in (1, 2, 3, 4)]
    prod = ordered_product(R, ys)
    expected = {A.dim + r: c for r, c in data.witness.items()}
    clauses.append(
        {"id": "top-product-witness", "ok": bool(prod) and prod == expected}
    )

    spans = odd_power_spans_of_module(MR)
    sdr = sdim_of_chain(spans)
    clauses.append({"id": "sdim-0-4", "ok": sdr == SuperDimension(0, 4)})

    fact = verify_factoring(MR, [data.y], chain=spans)
    sdq = fact["sdim_quotient"]
    clauses.append(
        {"id": "quotient-by-y-sdim-at-most-2", "ok": "odd" in sdq and sdq["odd"] <= 2}
    )
    clauses.append(
        {"id": "drop-strictly-exceeds-one", "ok": "odd" in sdq and sdq["odd"] < sdr.odd - 1}
    )

    clauses.append(
        {
            "id": "extension-non-split",
            "ok": adapted_equivalence(pi, zero_cochain(1, ODD), A) is None,
        }
    )

    systems = odd_parameter_systems(MR, 4)
    clauses.append(
        {
            "id": "y-quadruple-is-longest-system",
            "ok": ("Y1", "Y2", "Y3", "Y4") in systems,
        }
    )
    clauses.append(
        {
            "id": "no-longest-system-contains-y",
            "ok": all("Pi(1)" not in s for s in systems),
        }
    )

    clauses.append({"id": "factoring-identities", "ok": fact["ok"]})

    clauses.append(
        {"id": "subset-chain-agreement", "ok": subset_chain_agreement(MR, chain=spans)}
    )

    return {
        "case": "c2",
        "field": field.name,
        "clauses": clauses,
        "constants": {
            "dim_Aprime": Ap.dim,
            "dim_ideal": data.ideal.dim,
            "dim_A": A.dim,
            "dim_R": R.dim,
            "sdim_Aprime": sdap.as_json(),
            "sdim": sdr.as_json(),
            "sdim_quotient_by_y": sdq,
            "longest_systems": [list(s) for s in systems],
        },
        "factoring": fact,
        "ok": all(c["ok"] for c in clauses),
    }


# ---------------------------------------------------------------------------
# case gr: the graded module of c1 along I = RY, and along the odd radical
# ---------------------------------------------------------------------------


def _section_is_isomorphism(G):
    """Classes -> representatives is bijective and multiplicative."""
    A = G.source
    reps = Matrix.from_cols_sparse(A.dim, G.reps, A.field)
    return G.algebra.dim == A.dim and is_algebra_map(G.algebra, A, reps)


def verify_gr_example(field=QQ):
    """Grade c1's M along I = RY, then along the odd radical, and compare."""
    data = build_c1(field)
    R, M = data.R, data.M
    y = R.generator_element("Y")
    zs = [R.generator_element("Z%d" % i) for i in (1, 2, 3)]
    clauses = []

    I = superideal_span(R, [y])
    G = gr(R, I)
    GM = gr_module(M, I, graded_algebra=G)

    clauses.append(
        {"id": "gr-ring-isomorphic-to-source", "ok": _section_is_isomorphism(G)}
    )
    comp = GM.component_dims()
    clauses.append(
        {"id": "dimension-conservation", "ok": sum(comp.values()) == M.dim}
    )

    msd = sdim(M)
    gsd = sdim(GM.module)
    clauses.append({"id": "graded-sdim-0-2", "ok": gsd == SuperDimension(0, 2)})
    clauses.append(
        {
            "id": "graded-odd-drops",
            "ok": (not gsd.empty) and (not msd.empty) and gsd.odd < msd.odd,
        }
    )

    z1c = class_in_degree(G, zs[0], 0)
    yc = class_in_degree(G, y, 1)
    clauses.append(
        {
            "id": "z1-y-is-longest-system",
            "ok": gsd.odd == 2 and system_acts_nonzero(GM.module, [z1c, yc]),
        }
    )

    zcs = [class_in_degree(G, zv, 0) for zv in zs]
    trivially = not any(
        system_acts_nonzero(GM.module, [za, zb]) for za in zcs for zb in zcs
    )
    clauses.append({"id": "zizj-act-trivially", "ok": trivially})

    IR = odd_radical(R)
    G2 = gr(R, IR)
    GM2 = gr_module(M, IR, graded_algebra=G2)
    comp2 = GM2.component_dims()
    gsd2 = sdim(GM2.module)
    clauses.append(
        {"id": "radical-dimension-conservation", "ok": sum(comp2.values()) == M.dim}
    )
    clauses.append({"id": "odd-radical-restores-sdim", "ok": gsd2 == msd})

    return {
        "case": "gr",
        "field": field.name,
        "clauses": clauses,
        "constants": {
            "sdim": msd.as_json(),
            "sdim_graded": gsd.as_json(),
            "sdim_graded_radical": gsd2.as_json(),
            "component_dims": {str(k): v for k, v in sorted(comp.items())},
            "component_dims_radical": {str(k): v for k, v in sorted(comp2.items())},
        },
        "ok": all(c["ok"] for c in clauses),
    }


# ---------------------------------------------------------------------------
# case flat: freeness over K[y] and the Grassmann quotient drop
# ---------------------------------------------------------------------------


def _grassmann(field, s, name=None):
    gens = tuple(GeneratorSpec("z%d" % (i + 1), ODD) for i in range(s))
    return _compile(SUPERCOMMUTATIVE, gens, [], s, field, name or ("Lambda%d" % s))


def verify_flat_example(field=QQ):
    """Freeness of c2's R over K[y], the strict gap, and Grassmann drops."""
    data = build_c2(field)
    R, y = data.R, data.y
    MR = regular_module(R)
    clauses = []

    rank_y = rank(MR.act_element(y))
    clauses.append({"id": "y-multiplication-rank-half", "ok": 2 * rank_y == R.dim})

    line = _grassmann(field, 1, name="K[y]")
    sdline = sdim_algebra(line)
    clauses.append({"id": "line-sdim-1", "ok": sdline == SuperDimension(0, 1)})

    sdr = sdim(MR)
    Q = quotient(MR, product_span(MR, [y]), name="R/Ry")
    sdq = sdim(Q)
    clauses.append(
        {
            "id": "strict-inequality",
            "ok": (not sdq.empty) and sdr.odd > sdline.odd + sdq.odd,
        }
    )

    drops = []
    drop_ok = True
    for s in (1, 2, 3):
        lam = _grassmann(field, s)
        sds = sdim_algebra(lam)
        qa = quotient_algebra(
            lam,
            superideal_span(lam, [lam.generator_element("z1")]),
            name="Lambda%d/(z1)" % s,
        )
        sdqa = sdim_algebra(qa)
        drops.append({"s": s, "sdim": sds.as_json(), "after": sdqa.as_json()})
        if sds != SuperDimension(0, s) or sdqa != SuperDimension(0, s - 1):
            drop_ok = False
    clauses.append({"id": "grassmann-quotient-drop", "ok": drop_ok})

    return {
        "case": "flat",
        "field": field.name,
        "clauses": clauses,
        "constants": {
            "rank_y": rank_y,
            "dim_R": R.dim,
            "sdim": sdr.as_json(),
            "sdim_quotient_by_y": sdq.as_json(),
            "grassmann_drops": drops,
        },
        "ok": all(c["ok"] for c in clauses),
    }


def corpus_report(case, field=QQ):
    """The report of a single corpus case ('c1', 'c2', 'flat' or 'gr')."""
    if case == "c1":
        return verify_c1(field)
    if case == "c2":
        return verify_c2(field)
    if case == "flat":
        return verify_flat_example(field)
    if case == "gr":
        return verify_gr_example(field)
    raise AlgebraError("unknown corpus case %r" % (case,))


def corpus_all(field=QQ):
    """All corpus reports, keyed and ordered by case name."""
    return {case: corpus_report(case, field) for case in CASES}
