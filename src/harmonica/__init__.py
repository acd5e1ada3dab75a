"""Exact models of diagonal coinvariant spaces and tautological operators.

Everything is computed over the rationals with exact sparse linear algebra:
graded quotient presentations of coinvariant spaces, harmonic subspaces,
sign and hook isotypic components, matrices of the operator families
F_k, E_k, their adjoints, odd differentials d_N, and the induced sl2 /
Hamiltonian structure, together with an independent Dyck-path oracle for
the q,t-Catalan series.
"""

__version__ = "0.1.0"

from .linalg import SparseMatrix, RrefAccumulator, rref, kernel_basis, membership
from .superpoly import (
    TriDegree,
    Monomial,
    Polynomial,
    DiffOperator,
    act,
    alt,
    sym,
    apply_op,
    pairing,
    vandermonde,
)
from .spaces import (
    GradedSubspace,
    QuotientSpace,
    HilbertSeries,
    coinvariants,
    harmonics,
    sign_component,
    hook_component,
    antisymmetric_ideal,
    hilbert,
)
from .dyck import DyckPath, enumerate_paths, catalan_number, catalan_qt

__all__ = [
    "SparseMatrix",
    "RrefAccumulator",
    "rref",
    "kernel_basis",
    "membership",
    "TriDegree",
    "Monomial",
    "Polynomial",
    "DiffOperator",
    "act",
    "alt",
    "sym",
    "apply_op",
    "pairing",
    "vandermonde",
    "GradedSubspace",
    "QuotientSpace",
    "HilbertSeries",
    "coinvariants",
    "harmonics",
    "sign_component",
    "hook_component",
    "antisymmetric_ideal",
    "hilbert",
    "DyckPath",
    "enumerate_paths",
    "catalan_number",
    "catalan_qt",
]
