"""First-order model on the half line: i d/dx with a one-sided boundary value.

The M-function of this model is identically zero while the spectrum of the
restriction fills the closed upper half plane, and the detection spaces are
dense in the whole state space.  The operations here make those three facts
machine-checkable: an explicit resolvent, a least-squares density residual
against decaying exponentials, and a norm scan along paths approaching the
real axis where the resolvent blows up although the M-function stays zero.

The resolvent is a trapezoid recursion along the grid.  Its local terms
are computed in float64 array arithmetic, a block of nodes at a time; only
the carry from node to node is a scalar loop.  Both follow the operation order
of the plain complex recursion, so the resolvent and the scan norms are the
same to the last bit as stepping the recursion one complex scalar at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadMuError, UpperHalfPlaneError

# resolvent: grid nodes per block of local terms; bounds the temporary arrays
# and the list of Python complex numbers that the scalar carry runs over
_BLOCK = 4096


@dataclass(frozen=True)
class HalfLineGrid:
    """Uniform trapezoid grid on [0, L]."""

    length: float
    n: int

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("length must be positive")
        if self.n < 16:
            raise ValueError("need at least 16 nodes")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n)

    @property
    def weights(self) -> np.ndarray:
        h = self.length / (self.n - 1)
        w = np.full(self.n, h)
        w[0] = w[-1] = h / 2.0
        return w

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.real(np.sum(self.weights * np.abs(f) ** 2))))


@dataclass(frozen=True)
class FOModel:
    """Half-line derivative model with adjoint-side boundary parameter."""

    bparam: complex
    grid: HalfLineGrid


def m_value(model: FOModel, lam: complex, adjoint: bool = False) -> complex:
    """M-function value: identically 0; the adjoint side returns -1/bparam."""
    if adjoint:
        return -1.0 / model.bparam
    return 0.0 + 0.0j


def resolvent(model: FOModel, lam: complex, g: np.ndarray) -> np.ndarray:
    """Solve i f' - lam f = g with f(0) = 0 on the grid, for Im(lam) < 0.

    Uses the one-step recursion f_{j+1} = e^{-i lam h} f_j + c_j with the
    local trapezoid terms c_j = -(i h / 2) (e^{-i lam h} g_j + g_{j+1}); the
    propagation factor has modulus < 1 in the lower half plane, so the
    recursion is stable for arbitrarily long grids.

    The c_j are computed a block of nodes at a time in float64 real and
    imaginary array arithmetic, written out in the operation order of a
    scalar complex product (numpy's complex array product may round
    differently).  Only the carry f_{j+1} = e^{-i lam h} f_j + c_j runs as a
    scalar loop, on Python complex numbers, so the result is bit-identical
    to stepping the whole recursion on complex scalars.
    """
    if lam.imag >= 0:
        raise UpperHalfPlaneError(f"resolvent undefined for Im(lam) = {lam.imag} >= 0")
    g = np.asarray(g, dtype=complex)
    n = model.grid.n
    if g.shape != (n,):
        raise ValueError(f"g must be sampled on the {n}-point grid")
    h = model.grid.length / (n - 1)
    prop = complex(np.exp(-1j * lam * h))
    half = -1j * h / 2.0
    f = np.zeros(n, dtype=complex)
    carry = 0j
    for lo in range(0, n - 1, _BLOCK):
        hi = min(lo + _BLOCK, n - 1)
        left, right = g[lo:hi], g[lo + 1:hi + 1]
        # s_j = prop g_j + g_{j+1}, then c_j = half s_j
        sr = (prop.real * left.real - prop.imag * left.imag) + right.real
        si = (prop.real * left.imag + prop.imag * left.real) + right.imag
        terms = np.empty(hi - lo, dtype=complex)
        terms.real = half.real * sr - half.imag * si
        terms.imag = half.real * si + half.imag * sr
        f[lo + 1:hi + 1] = [(carry := prop * carry + c) for c in terms.tolist()]
    return f


def density_residual(model: FOModel, f: np.ndarray, mus) -> float:
    """Weighted least-squares distance of f from span{exp(-i mu_j x)}.

    All mu_j must lie in the open lower half plane so the exponentials decay.
    """
    for mu in mus:
        if complex(mu).imag >= 0:
            raise BadMuError(f"sample {mu} not in the open lower half plane")
    x = model.grid.nodes
    sqw = np.sqrt(model.grid.weights)
    cols = np.array([np.exp(-1j * complex(mu) * x) for mu in mus]).T
    a = sqw[:, None] * cols
    b = sqw * np.asarray(f, dtype=complex)
    coeff = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(np.linalg.norm(b - a @ coeff))


def blowup_scan(model: FOModel, path, g: np.ndarray):
    """Resolvent norms along a path of spectral parameters in the lower half plane."""
    return [model.grid.norm(resolvent(model, complex(lam), g)) for lam in path]


SCAN_HEADER = ("re_lambda", "im_lambda", "resolvent_norm", "m_value_re", "m_value_im")


def scan_rows(model: FOModel, lams, g: np.ndarray):
    """Rows (re, im, resolvent norm, M re, M im) for CSV emission, as in SCAN_HEADER."""
    lams = [complex(lam) for lam in lams]
    out = []
    for lam, nrm in zip(lams, blowup_scan(model, lams, g)):
        mv = m_value(model, lam)
        out.append((lam.real, lam.imag, nrm, mv.real, mv.imag))
    return out

