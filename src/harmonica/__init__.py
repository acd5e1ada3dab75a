"""Exact models of diagonal coinvariant spaces and tautological operators.

Everything is computed over the rationals with exact sparse linear algebra:
graded quotient presentations of coinvariant spaces, harmonic subspaces,
sign and hook isotypic components, matrices of the operator families
F_k, E_k, their adjoints, odd differentials d_N, and the induced sl2 /
Hamiltonian structure, together with an independent Dyck-path oracle for
the q,t-Catalan series.
"""

__version__ = "0.1.0"
