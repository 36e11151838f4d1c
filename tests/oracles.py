"""Reference implementations that tests compare the package against; no command runs them."""

import numpy as np
from numpy.polynomial.legendre import leggauss

from weylscope.errors import WeylScopeError
from weylscope.hainlust import discretize
from weylscope.triples import extension_operator

DEFAULT_LINE_NODES = 400


def real_line_quadrature(f, decay_order: int) -> complex:
    """Integral of f over the whole real line by tan-substitution Gauss-Legendre.

    f must decay like |x|^(-decay_order) with decay_order >= 2.  The line is
    split at 0 into two panels of DEFAULT_LINE_NODES / 2 nodes each, so
    integrands with a kink at the origin (the regularized boundary
    functionals) keep spectral accuracy.  f is called once per panel on the
    node array and must return an array of its shape (ValueError otherwise);
    exceptions raised by f propagate unchanged.
    """
    if decay_order < 2:
        raise WeylScopeError(f"decay order {decay_order} < 2")
    base, weights = leggauss(DEFAULT_LINE_NODES // 2)
    total = 0.0 + 0.0j
    for lo, hi in ((-np.pi / 2, 0.0), (0.0, np.pi / 2)):
        theta = 0.5 * (hi - lo) * base + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * weights
        x = np.tan(theta)
        jac = 1.0 / np.cos(theta) ** 2
        vals = np.asarray(f(x), dtype=complex)
        if vals.shape != x.shape:
            raise ValueError(f"integrand returned shape {vals.shape} for nodes {x.shape}")
        total += np.sum(vals * jac * w)
    return complex(total)


def spectral_projection(ext, contour) -> np.ndarray:
    """Oracle projection onto the eigenspaces enclosed by the contour.

    Built from the dense eigendecomposition of the restriction, independent
    of any contour quadrature.
    """
    op = extension_operator(ext)
    vals, vecs = np.linalg.eig(op)
    inside = np.abs(vals - contour.center) < contour.radius
    if not np.any(inside):
        return np.zeros_like(op)
    v_in = vecs[:, inside]
    wl = np.linalg.inv(vecs)[inside, :]
    return v_in @ wl


def schroedinger_block_resolvent(model, lam: complex, n: int) -> np.ndarray:
    """Resolvent of the scalar Schroedinger block alone (oracle for w = 0)."""
    mat, meta = discretize(model, n)
    npts = meta["nodes"].size
    return np.linalg.solve(mat[:npts, :npts] - lam * np.eye(npts), np.eye(npts, dtype=complex))
