"""Exact-arithmetic toolkit for symmetric invariants of nilpotent centralisers.

Everything here is computed over the rationals with no floating point:
partition combinatorics, matrix models of centralisers of nilpotent
elements in gl_n and sp_2n, initial components of adjoint invariants on
the slice through a nilpotent orbit, and machine certificates for the
structural identities these objects satisfy (degree tables, Poisson
centrality, index, regularity of linear functions, null-cone geometry).
"""

__version__ = "0.1.0"

from .partitions import Partition, ClassicalType  # noqa: F401
