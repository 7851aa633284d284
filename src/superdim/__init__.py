"""Exact kernel for Krull super-dimensions of finite-dimensional
super-commutative algebras.

Everything is computed over Q or a prime field with no floating point:
presentations compile to multiplication tables, modules carry parity-
labelled action matrices, and the headline quantities (super-dimension,
odd parameter systems, associated graded structures, bigraded Hilbert
tables, square-zero extensions and their cohomology) all reduce to exact
rank computations.  Every public name is imported from the module that
defines it; the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
