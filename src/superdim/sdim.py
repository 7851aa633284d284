"""Krull super-dimension over Artinian superalgebras.

Everything here is finite-dimensional, so the even dimension is 0 and the
odd dimension of a nonzero module M is the largest l with R_1^l M != 0,
equivalently the largest size of a system of odd parameters: elements
y_1, ..., y_l of a generating set of R_1 as an R_0-module whose ordered
product does not kill M.  Both routes are implemented; their agreement is
a theorem and is exercised by the test suite, never collapsed into one
code path.

The chain steps by generators, not by bases: each R_1^l M is R-stable, so
over a presented supercommutative algebra R_1^{l+1} M = sum_i y_i R_1^l M
for the odd generators y_i.  Any other algebra steps by all of its odd
basis elements.  The subset search multiplies out the ordered products
themselves and shares no code with the chain.

The zero module gets a distinguished empty value, not 0|0.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import filtration_chain, filtration_step, odd_multipliers
from .exactlin import Matrix
from .smodule import (
    ModuleError,
    is_regular_sequence,
    product_span,
    quotient,
    submodule,
)


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

    Each stage is R-stable, so one step is R_1^{l+1} M = sum_i y_i R_1^l M
    over ``odd_multipliers``: the odd generators of a presented
    supercommutative algebra, all odd basis elements otherwise.
    """
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
    """Super-dimension of A over itself: the length of one odd chain of A,
    stepped as in ``odd_power_span``."""
    step = filtration_step(A, A.mul, odd_multipliers(A))
    chain = filtration_chain(A.full_subspace(), step, A.dim, "odd part", ModuleError)
    return sdim_of_chain(chain)


def system_acts_nonzero(M, elements):
    """The ordered product of the odd elements acts nontrivially on M."""
    A = M.algebra
    prod = None
    for y in elements:
        prod = dict(y) if prod is None else A.mul(prod, y)
        if not prod:
            return False
    if prod is None:  # empty system
        return not M.is_zero()
    for j in range(M.dim):
        if M.apply_element(prod, M.basis_element(j)):
            return True
    return False


def odd_parameter_systems(M, size):
    """All systems of odd parameters of the given size from a generating set.

    Returns a list of label tuples, each listing a subset (in generating-set
    order) whose ordered product acts nontrivially on M.
    """
    pool = M.algebra.odd_module_generators()
    out = []
    for combo in combinations(range(len(pool)), size):
        elements = [pool[i][1] for i in combo]
        if system_acts_nonzero(M, elements):
            out.append(tuple(pool[i][0] for i in combo))
    return out


def sdim_odd_by_subset_search(M):
    """Largest size of an odd parameter system, by descending subset search."""
    if M.is_zero():
        return None
    pool = M.algebra.odd_module_generators()
    for size in range(len(pool), -1, -1):
        for combo in combinations(range(len(pool)), size):
            if system_acts_nonzero(M, [pool[i][1] for i in combo]):
                return size
    return None


def subset_chain_agreement(M, chain=None):
    """For every l: a size-l system exists iff R_1^l M != 0.

    ``chain`` is the odd chain of M when the caller already holds it.
    """
    if M.is_zero():
        return True
    pool = M.algebra.odd_module_generators()
    if chain is None:
        chain = odd_power_spans_of_module(M)
    chain_odd = len(chain) - 1
    for l in range(len(pool) + 1):
        has_system = any(
            system_acts_nonzero(M, [pool[i][1] for i in combo])
            for combo in combinations(range(len(pool)), l)
        )
        if has_system != (l <= chain_odd):
            return False
    return chain_odd <= len(pool)


def ordered_product(A, elements):
    out = A.unit_element()
    for y in elements:
        out = A.mul(out, y)
    return out


def is_extendable_to_longest(ys, M):
    """Can the odd regular sequence ys be extended to a longest system?

    True iff sdim_1(M / (sum R y_i) M) == sdim_1(M) - len(ys).
    """
    if M.is_zero():
        raise ModuleError("zero module")
    if not is_regular_sequence(ys, M):
        raise ModuleError("not an odd regular sequence")
    t = len(ys)
    Q = quotient(M, product_span(M, ys))
    total = sdim(M)
    quot = sdim(Q)
    if quot.empty:
        # cannot happen for nonzero M (the ideal is nilpotent), but be safe
        return False
    return quot.odd == total.odd - t


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

    regular = is_regular_sequence(ys, M)
    clauses.append({"id": "sequence-is-regular", "ok": regular})

    if chain is None:
        chain = odd_power_spans_of_module(M)
    total = sdim_of_chain(chain)
    clauses.append(
        {"id": "sdim-at-least-length", "ok": (not total.empty) and total.odd >= t}
    )

    Q = quotient(M, product_span(M, ys))  # I M = A ys M, I the superideal of ys
    quot_sd = sdim(Q)

    prod = ordered_product(A, ys)
    image = submodule(M, product_span(M, [prod]), name="product image")
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
    witness = False
    if regular and not total.empty and total.odd - t >= 0:
        pool = M.algebra.odd_module_generators()
        for combo in combinations(range(len(pool)), total.odd - t):
            if system_acts_nonzero(M, list(ys) + [pool[i][1] for i in combo]):
                witness = True
                break
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
