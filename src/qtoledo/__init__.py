"""Exact signatures and Toledo invariants of SU2/SO3 quantum representations.

The package computes, in exact rational/cyclotomic arithmetic, the degree-0
part (signatures) and degree-2 part (Toledo invariants, first-order
R-matrix) of the cohomological field theories attached to the SU2/SO3
Hermitian modular functors, together with the moduli-space cohomology
identities and twisted Euler characteristics these computations live in.
"""

from .cyclotomic import (
    CycloNum,
    Embedding,
    conjugate,
    cyclotomic_polynomial,
    galois,
    quantum_int,
    sign_real,
)
from .eulerchi import ChiPoly, chi_bar, chi_twisted, harer_zagier
from .fusion import (
    FrobeniusAlgebra,
    gluing_checks,
    signature_table,
    so3_algebra,
    su2_algebra,
    unitary_partner,
)
from .hermitian import (
    HermMatrix,
    IsometryWithForm,
    Signature,
    eigen_split,
    g_function,
    meyer_cocycle,
    signature,
    toledo_triangle_meyer,
    toledo_triangle_pu11,
)
from .mgnclasses import (
    H2Class,
    canonical_class,
    elliptic_pullback,
    intersect,
    reduce_class,
    uniformization_check,
)
from .qrep import (
    FourPointData,
    PuncturedTorusRep,
    four_point_data,
    four_point_toledo,
    punctured_torus_rep,
    tau_11,
)
from .rmatrix import (
    R1Matrix,
    appendixB_crosscheck,
    degree2_class,
    solve_level,
    solve_r1,
    tau_from_r1_04,
    tau_from_r1_11,
)

__version__ = "0.1.0"
