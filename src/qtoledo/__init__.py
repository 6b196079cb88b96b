"""Exact signatures and Toledo invariants of SU2/SO3 quantum representations.

The package computes, in exact rational/cyclotomic arithmetic, the degree-0
part (signatures) and degree-2 part (Toledo invariants, first-order
R-matrix) of the cohomological field theories attached to the SU2/SO3
Hermitian modular functors, together with the moduli-space cohomology
identities and twisted Euler characteristics these computations live in.

``import qtoledo`` loads no layer.  Each public name below is looked up in
its layer module when it is read (PEP 562), so a caller pays only for the
layers it uses and always gets the layer's own object.
"""

from importlib import import_module

_EXPORTS = {
    "cyclotomic": ("CycloNum", "conjugate", "cyclotomic_polynomial", "galois", "quantum_int",
                   "sign_real"),
    "embedding": ("Embedding",),
    "eulerchi": ("ChiPoly", "chi_bar", "chi_twisted", "harer_zagier"),
    "fusion": ("FrobeniusAlgebra", "gluing_checks", "signature_table", "so3_algebra",
               "su2_algebra", "unitary_partner"),
    "hermitian": ("Signature", "eigen_split", "g_function", "meyer_cocycle", "signature",
                  "toledo_triangle_meyer"),
    "linalg": ("HermMatrix", "IsometryWithForm"),
    "mgnclasses": ("H2Class", "canonical_class", "elliptic_pullback", "intersect", "reduce_class",
                   "uniformization_check"),
    "qrep": ("four_point_toledo", "tau_11", "toledo_triangle_pu11"),
    "rmatrix": ("R1Matrix", "appendixB_crosscheck", "degree2_class", "solve_level", "solve_r1",
                "tau_from_r1_04", "tau_from_r1_11"),
    "torus": ("PuncturedTorusRep", "punctured_torus_rep"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is not None:
        return getattr(import_module(f"{__name__}.{layer}"), name)
    if name in _EXPORTS:  # a layer module not imported yet
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
