"""Exact kernel for Krull super-dimensions of finite-dimensional
super-commutative algebras.

Everything is computed over Q or a prime field with no floating point:
presentations compile to multiplication tables, modules carry parity-
labelled action matrices, and the headline quantities (super-dimension,
odd parameter systems, associated graded structures, bigraded Hilbert
tables, square-zero extensions and their cohomology) all reduce to exact
rank computations.
"""

from .algebra import (
    AlgebraError,
    FiniteSuperAlgebra,
    Presentation,
    compile_presentation,
    odd_power_span,
    odd_radical,
    quotient_algebra,
    superideal_span,
)
from .exactlin import Matrix, PrimeField, QQ, RationalField, Subspace
from .graded import (
    bgr,
    bgr_module,
    bgr_to_gr_surjective,
    gr,
    gr_module,
    verify_graded_comparison,
)
from .hilbert import (
    BigradedTable,
    HilbertPolynomial,
    PolynomialFit,
    bigraded_dims,
    fit_polynomial,
    fit_rows,
    sdim_from_hilbert,
)
from .hochschild import (
    Cochain,
    adapted_equivalence,
    build_A_pi,
    coboundary,
    is_cocycle_pi,
    is_in_C,
    is_super_skew,
    sh_dim,
    zero_cochain,
)
from .sdim import (
    EMPTY_SDIM,
    SuperDimension,
    is_extendable_to_longest,
    odd_parameter_systems,
    odd_power_spans_of_module,
    sdim,
    sdim_algebra,
    sdim_odd_by_subset_search,
    subset_chain_agreement,
    verify_factoring,
)
from .smodule import (
    ModuleError,
    SuperModule,
    check_module,
    is_odd_regular,
    is_regular_sequence,
    parity_shift,
    product_span,
    quotient,
    regular_module,
    submodule,
)
from .superpoly import EVEN, ODD, GeneratorSpec, SuperPolynomial
from .textio import (
    ParseError,
    emit_report,
    format_module,
    format_presentation,
    parse_module,
    parse_presentation,
)
from .corpus import corpus_all, corpus_report

__version__ = "0.1.0"
