"""Dense complex linear algebra, contour and whole-line quadrature kernels.

Everything here is pure: no shared mutable state, safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DimensionMismatchError, SlowDecayError

DEFAULT_RANK_TOL = 1e-10
DEFAULT_LINE_NODES = 400


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


def orthonormal_basis(columns, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical column span at relative cutoff tol.

    Empty input yields an n x 0 matrix.  The singular-value cutoff is
    relative to the largest singular value, which keeps detected dimensions
    stable under sampling noise.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cols = np.asarray(columns, dtype=complex)
    if cols.ndim == 1:
        cols = cols[:, None]
    if cols.shape[1] == 0 or cols.shape[0] == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    rank = int(np.sum(s > tol * s[0]))
    return u[:, :rank]


def principal_angles(u, v) -> np.ndarray:
    """Principal angles in [0, pi/2] between the spans of two orthonormal families.

    Uses cosines from svd(u* v) for large angles and the sine-based formula
    for small ones, so angles near zero are resolved to machine precision
    instead of the sqrt(eps) limit of arccos alone.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim != 2 or v.ndim != 2 or u.shape[0] != v.shape[0]:
        raise DimensionMismatchError(
            f"bases must share ambient dimension, got {u.shape} and {v.shape}"
        )
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


def real_line_quadrature(f, decay_order: int, nodes: int = DEFAULT_LINE_NODES) -> complex:
    """Integral of f over the whole real line by tan-substitution Gauss-Legendre.

    f must decay like |x|^(-decay_order) with decay_order >= 2.  The line is
    split at 0 into two panels so integrands with a kink at the origin (the
    regularized boundary functionals) keep spectral accuracy.
    """
    if decay_order < 2:
        raise SlowDecayError(f"decay order {decay_order} < 2")
    half = max(nodes // 2, 8)
    base, weights = leggauss(half)
    total = 0.0 + 0.0j
    for lo, hi in ((-np.pi / 2, 0.0), (0.0, np.pi / 2)):
        theta = 0.5 * (hi - lo) * base + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * weights
        x = np.tan(theta)
        jac = 1.0 / np.cos(theta) ** 2
        try:
            vals = np.asarray(f(x), dtype=complex)
            if vals.shape != x.shape:
                raise TypeError
        except TypeError:
            vals = np.array([f(xi) for xi in x], dtype=complex)
        total += np.sum(vals * jac * w)
    return complex(total)


def matrix_norm2(a, iters: int = 60, seed: int = 7) -> float:
    """Spectral norm; exact SVD for small matrices, power iteration for large."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    if min(a.shape) <= 400:
        return float(np.linalg.svd(a, compute_uv=False)[0])
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = a.conj().T @ (a @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        new_est = np.sqrt(nrm)
        v = w / nrm
        if abs(new_est - est) <= 1e-12 * max(new_est, 1.0):
            est = new_est
            break
        est = new_est
    return float(est)
