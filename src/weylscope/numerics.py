"""Dense complex linear algebra and contour quadrature kernels.

Everything here is pure: no shared mutable state, safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import WeylScopeError

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class ContourSpec:
    """Circular contour for trapezoid contour integration.

    The node count must be even; trapezoid sums on circles converge
    geometrically for integrands analytic in a neighbourhood of the circle.
    """

    center: complex
    radius: float
    nodes: int = 64

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("contour radius must be positive")
        if self.nodes < 8 or self.nodes % 2 != 0:
            raise ValueError("node count must be even and at least 8")

    def points(self) -> np.ndarray:
        ang = 2.0 * np.pi * np.arange(self.nodes) / self.nodes
        return self.center + self.radius * np.exp(1j * ang)


def orthonormal_basis(columns) -> np.ndarray:
    """Orthonormal basis of the column span of a 2-D array at relative cutoff DEFAULT_RANK_TOL.

    Empty input yields an n x 0 matrix.  The singular-value cutoff is
    relative to the largest singular value, which keeps detected dimensions
    stable under sampling noise.
    """
    cols = np.asarray(columns, dtype=complex)
    if cols.shape[1] == 0 or cols.shape[0] == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    return u[:, :_rank(s)]


def numerical_rank(columns) -> int:
    """Column count of orthonormal_basis(columns), from the singular values alone.

    These can differ from the full SVD's in the last bits, and so can a count at the cutoff.
    """
    cols = np.asarray(columns, dtype=complex)
    return _rank(np.linalg.svd(cols, compute_uv=False)) if cols.size else 0


def _rank(s) -> int:
    """Number of the descending singular values s above DEFAULT_RANK_TOL of the first."""
    return int(np.sum(s > DEFAULT_RANK_TOL * s[0]))


def principal_angles(u, v) -> np.ndarray:
    """Principal angles in [0, pi/2] between the spans of two orthonormal families.

    Uses cosines from svd(u* v) for large angles and the sine-based formula
    for small ones, so angles near zero are resolved to machine precision
    instead of the sqrt(eps) limit of arccos alone.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim != 2 or v.ndim != 2 or u.shape[0] != v.shape[0]:
        raise WeylScopeError(f"bases must share ambient dimension, got {u.shape} and {v.shape}")
    p = min(u.shape[1], v.shape[1])
    if p == 0:
        return np.zeros(0)
    cross = u.conj().T @ v
    cosines = np.clip(np.linalg.svd(cross, compute_uv=False)[:p], 0.0, 1.0)
    angles = np.arccos(cosines)
    # sine-based refinement: svd of the part of the narrower family
    # orthogonal to the span of the wider one
    wide, narrow = (u, v) if u.shape[1] >= v.shape[1] else (v, u)
    resid = narrow - wide @ (wide.conj().T @ narrow)
    sines = np.clip(np.sort(np.linalg.svd(resid, compute_uv=False)[:p]), 0.0, 1.0)
    refined = np.sort(np.arcsin(sines))
    mask = angles < np.pi / 4
    angles[mask] = refined[mask]
    return np.sort(angles)


def contour_integral(f, contour: ContourSpec):
    """Trapezoid approximation of the closed contour integral of f.

    f maps a complex point to a scalar or ndarray; any exception it raises
    propagates unchanged.  For f analytic inside the contour the result
    decays geometrically in the node count.
    """
    pts = contour.points()
    total = None
    for z in pts:
        val = np.asarray(f(z), dtype=complex)
        term = val * (1j * (z - contour.center))
        total = term if total is None else total + term
    return total * (2.0 * np.pi / contour.nodes)


def matrix_norm2(a) -> float:
    """Spectral norm: the largest singular value, 0.0 for an empty matrix."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])
