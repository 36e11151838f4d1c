"""weylscope: numerical checks for Weyl M-functions of adjoint operator pairs."""

from .numerics import ContourSpec, contour_integral, orthonormal_basis, principal_angles
from .triples import Extension, FiniteTriple, adjoint_extension, direct_sum_hidden, green_residual, hilbert_identity_residual, krein_residual, m_function, m_via_resolvent, make_triple, random_extension, random_triple

__version__ = "0.1.0"

__all__ = [
    "ContourSpec",
    "Extension",
    "FiniteTriple",
    "adjoint_extension",
    "contour_integral",
    "direct_sum_hidden",
    "green_residual",
    "hilbert_identity_residual",
    "krein_residual",
    "m_function",
    "m_via_resolvent",
    "make_triple",
    "orthonormal_basis",
    "principal_angles",
    "random_extension",
    "random_triple",
]
