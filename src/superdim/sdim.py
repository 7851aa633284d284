"""Krull super-dimension over Artinian superalgebras.

Everything here is finite-dimensional, so the even dimension is 0 and the
odd dimension of a nonzero module M is the largest l with R_1^l M != 0,
equivalently the largest size of a system of odd parameters: elements
y_1, ..., y_l of a generating set of R_1 as an R_0-module whose ordered
product does not kill M.  Both routes are implemented; their agreement is
a theorem and is exercised by the test suite, never collapsed into one
code path.

The odd chain takes one of two routes.  A presented supercommutative
algebra A and its regular module read it off A's compiled monomials
(``algebra.odd_filtration``): R_1^l A is the span of the normal forms of
the monomials up to the cap with at least l odd letters, so no product
and no action matrix is built.  Every other module, and every other
algebra, steps by generators, not by bases: each R_1^l M is R-stable, so
over a presented supercommutative algebra R_1^{l+1} M = sum_i y_i R_1^l M
for the odd generators y_i.  Any other algebra steps by all of its odd
basis elements.  The subset search multiplies out the ordered products
themselves (``ordered_product``) and shares no code with the chain; every
search for odd parameter systems, the completion witness of
``verify_factoring`` included, goes through the one enumerator
``_acting_systems``.  M/IM for I the superideal of y_1, ..., y_t is the
last of the iterated quotients M/(y_1)M/(y_2)... that
``smodule.sequence_quotient`` builds while it checks regularity.

The zero module gets a distinguished empty value, not 0|0.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import (
    filtration_chain,
    filtration_step,
    odd_filtration,
    odd_multipliers,
    presented_supercommutative,
)
from .exactlin import Matrix
from .smodule import ModuleError, RegularModule, product_span, sequence_quotient, submodule


class SuperDimension:
    """A pair n|l, or the distinguished empty value for the zero module."""

    __slots__ = ("even", "odd", "empty")

    def __init__(self, even, odd, empty=False):
        self.even = even
        self.odd = odd
        self.empty = empty

    @classmethod
    def make_empty(cls):
        return cls(None, None, empty=True)

    def __eq__(self, other):
        if not isinstance(other, SuperDimension):
            return NotImplemented
        if self.empty or other.empty:
            return self.empty and other.empty
        return self.even == other.even and self.odd == other.odd

    def __hash__(self):
        return hash((self.even, self.odd, self.empty))

    def as_json(self):
        if self.empty:
            return {"empty": True}
        return {"even": self.even, "odd": self.odd}

    def __repr__(self):
        if self.empty:
            return "SuperDimension(empty)"
        return "%d|%d" % (self.even, self.odd)


EMPTY_SDIM = SuperDimension.make_empty()


def odd_power_spans_of_module(M):
    """[M, R_1 M, R_1^2 M, ...] down to (and excluding) the zero span.

    The regular module of a presented supercommutative algebra is read off
    its monomials by ``odd_filtration``.  Any other M steps: each stage is
    R-stable, so one step is R_1^{l+1} M = sum_i y_i R_1^l M over
    ``odd_multipliers``, the odd generators of a presented supercommutative
    algebra and all odd basis elements otherwise.
    """
    if isinstance(M, RegularModule) and presented_supercommutative(M.algebra):
        return odd_filtration(M.algebra)
    mats = [M.act_element(y) for y in odd_multipliers(M.algebra)]
    step = filtration_step(M, Matrix.apply, mats)
    return filtration_chain(
        M.full_subspace(), step, M.dim, "odd part action", ModuleError
    )


def sdim_of_chain(spans):
    """The super-dimension read off an odd chain: 0|(len - 1), or empty."""
    return SuperDimension(0, len(spans) - 1) if spans else EMPTY_SDIM


def sdim(M):
    """Krull super-dimension of a module over an Artinian superalgebra."""
    return sdim_of_chain(odd_power_spans_of_module(M))


def sdim_algebra(A):
    """Super-dimension of A over itself: the length of ``odd_filtration(A)``."""
    return sdim_of_chain(odd_filtration(A))


def ordered_product(A, elements):
    """y_1 ... y_l in A (the unit for l = 0), or {} from the first zero prefix."""
    prod = None
    for y in elements:
        prod = dict(y) if prod is None else A.mul(prod, y)
        if not prod:
            return {}
    return A.unit_element() if prod is None else prod


def system_acts_nonzero(M, elements):
    """The ordered product of the odd elements acts nontrivially on M.

    A product that is zero in the algebra acts as zero.  Otherwise the
    elements' own matrices (cached for a basis element) act on one basis
    vector at a time, last element first, up to the first nonzero image:
    no matrix is built for the product, and no subspace is spanned.
    """
    if not ordered_product(M.algebra, elements):
        return False
    mats = [M.act_element(y) for y in reversed(elements)]
    for j in range(M.dim):
        v = M.basis_element(j)
        for mat in mats:
            v = mat.apply(v)
            if not v:
                break
        else:
            return True
    return False


def _acting_systems(M, size, prefix=()):
    """Label tuples of the size-``size`` subsets of the odd generating set,
    in generating-set order, whose ordered product after the ``prefix``
    elements acts nontrivially on M; lazily, in ``combinations`` order."""
    pool = M.algebra.odd_module_generators()
    if size > len(pool):  # combinations would first allocate size indices
        return
    for combo in combinations(pool, size):
        if system_acts_nonzero(M, [*prefix, *(vec for _label, vec in combo)]):
            yield tuple(label for label, _vec in combo)


def _has_system(M, size, prefix=()):
    return next(_acting_systems(M, size, prefix), None) is not None


def odd_parameter_systems(M, size):
    """All systems of odd parameters of the given size from a generating set.

    Returns a list of label tuples, each listing a subset (in generating-set
    order) whose ordered product acts nontrivially on M.
    """
    return list(_acting_systems(M, size))


def sdim_odd_by_subset_search(M):
    """Largest size of an odd parameter system, by descending subset search."""
    if M.is_zero():
        return None
    top = len(M.algebra.odd_module_generators())
    return next((size for size in range(top, -1, -1) if _has_system(M, size)), None)


def subset_chain_agreement(M, chain=None):
    """For every l: a size-l system exists iff R_1^l M != 0.

    ``chain`` is the odd chain of M when the caller already holds it.
    """
    if M.is_zero():
        return True
    if chain is None:
        chain = odd_power_spans_of_module(M)
    chain_odd = len(chain) - 1
    top = len(M.algebra.odd_module_generators())
    return chain_odd <= top and all(
        _has_system(M, l) == (l <= chain_odd) for l in range(top + 1)
    )


def is_extendable_to_longest(ys, M):
    """Can the odd regular sequence ys be extended to a longest system?

    True iff sdim_1(M / (sum R y_i) M) == sdim_1(M) - len(ys).
    """
    if M.is_zero():
        raise ModuleError("zero module")
    regular, Q = sequence_quotient(ys, M)
    if not regular:
        raise ModuleError("not an odd regular sequence")
    return sdim(Q).odd == sdim(M).odd - len(ys)


def verify_factoring(M, ys, chain=None):
    """Check the dimension-factoring identities for a regular sequence.

    Returns a report dict with one entry per clause:
      * the sequence is regular,
      * sdim_1(M) >= t,
      * sdim_1(M/IM) == sdim_1(y_1...y_t M)  (I = superideal of the ys),
      * sdim_1(M/IM) <= sdim_1(M) - t,
      * a completion witness from the generating set, if one exists, forces
        equality above (the searchable direction of the extendability test).

    ``chain`` is the odd chain of M when the caller already holds it.
    """
    A = M.algebra
    t = len(ys)
    clauses = []

    regular, Q = sequence_quotient(ys, M)  # Q = M/IM, I the superideal of ys
    clauses.append({"id": "sequence-is-regular", "ok": regular})

    if chain is None:
        chain = odd_power_spans_of_module(M)
    total = sdim_of_chain(chain)
    clauses.append(
        {"id": "sdim-at-least-length", "ok": (not total.empty) and total.odd >= t}
    )

    quot_sd = sdim(Q)
    image = submodule(M, product_span(M, [ordered_product(A, ys)]), name="product image")
    image_sd = sdim(image)

    clauses.append(
        {
            "id": "quotient-matches-product-image",
            "ok": quot_sd == image_sd,
            "quotient": quot_sd.as_json(),
            "image": image_sd.as_json(),
        }
    )
    drop_ok = (
        (not quot_sd.empty)
        and (not total.empty)
        and quot_sd.odd <= total.odd - t
    )
    clauses.append({"id": "drop-at-least-length", "ok": drop_ok})

    extendable = (not quot_sd.empty) and quot_sd.odd == total.odd - t
    # One direction is independently checkable: a completion found among the
    # generating set is a genuine longest system, so it forces equality.
    witness = (
        regular
        and not total.empty
        and total.odd >= t
        and _has_system(M, total.odd - t, prefix=ys)
    )
    clauses.append(
        {
            "id": "extension-witness-implies-equality",
            "ok": (not witness) or extendable,
            "extendable": extendable,
            "witness_found": witness,
        }
    )

    return {
        "clauses": clauses,
        "ok": all(c["ok"] for c in clauses),
        "sdim": total.as_json(),
        "sdim_quotient": quot_sd.as_json(),
        "extendable": extendable,
    }
