"""Rank-one perturbed multiplication operator on the line, rational calculus.

The model acts as (A f)(x) = x f(x) + <f, phi> psi(x) on functions whose
whole-line integral vanishes; its closure data involve the coefficient
c_f = lim x f(x), two boundary functionals and a scalar M-function

    M_B(lam) = [ sign(Im lam) pi i + I_psi(lam) I_phi(lam) / D(lam) - B ]^{-1},

with D(lam) = 1 + integral of psi conj(phi)/(x - lam).  Everything here is
computed exactly by residue calculus on one type, PoleSum: psi, phi (built
by PoleSum.from_poles) and every function derived from them are kept in
pole form f = sum c_{k,j} / (x - a_k)^j, and quadrature only cross-checks.
The Cauchy integrals D, I_psi, I_phi close in the half plane away from lam:

    integral of f(x)/(x - lam) = 2 pi i f_-(lam)   (Im lam > 0),
                               = -2 pi i f_+(lam)  (Im lam < 0),

f_- (f_+) the terms of f with poles below (above) the axis.  One elementwise
array formula serves a single point and a whole scan grid alike.

Convention: a rational function belongs to the Hardy class of the upper
half plane exactly when all of its poles lie in the lower half plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .errors import (
    BracketZeroError,
    ConstructionFailedError,
    DZeroError,
    RealLambdaError,
    SlowDecayError,
)
from .numerics import ContourSpec, contour_integral

_MERGE_TOL = 1e-13
_REAL_AXIS_TOL = 1e-12


# ------------------------------------------------------------ pole-form sums


class PoleSum:
    """Finite sum of c / (x - a)^j terms with exact rational arithmetic."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = {}

    def _add_term(self, pole, order, coeff):
        if coeff == 0:
            return
        for (p, o) in self.terms:
            if o == order and abs(p - pole) <= _MERGE_TOL * max(1.0, abs(p)):
                pole = p
                break
        key = (pole, order)
        new = self.terms.get(key, 0.0 + 0.0j) + coeff
        if abs(new) < 1e-250:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @classmethod
    def from_poles(cls, poles, residues, orders=None):
        """sum of r / (x - p)^o over nonreal poles p; absent orders (None) are all ones.

        The one constructor of a nonzero PoleSum.  Terms enter in input order,
        the order of every later summation: repeated (pole, order) pairs sum
        and near-equal poles merge.
        """
        poles = [complex(p) for p in poles]
        residues = [complex(r) for r in residues]
        orders = [1] * len(poles) if orders is None else [int(o) for o in orders]
        if len(poles) != len(residues) or len(poles) != len(orders):
            raise ValueError("poles, residues and orders must have equal length")
        if any(abs(p.imag) <= _REAL_AXIS_TOL for p in poles):
            raise ValueError("poles must be nonreal")
        if any(o < 1 for o in orders):
            raise ValueError("orders must be positive")
        out = cls()
        for p, r, o in zip(poles, residues, orders):
            out._add_term(p, o, r)
        return out

    def __add__(self, other):
        out = PoleSum()
        for (p, o), c in self.terms.items():
            out._add_term(p, o, c)
        for (p, o), c in other.terms.items():
            out._add_term(p, o, c)
        return out

    def scaled(self, factor):
        out = PoleSum()
        for (p, o), c in self.terms.items():
            out._add_term(p, o, c * complex(factor))
        return out

    def __sub__(self, other):
        return self + other.scaled(-1.0)

    def conjugate(self):
        out = PoleSum()
        for (p, o), c in self.terms.items():
            out._add_term(np.conj(p), o, np.conj(c))
        return out

    def __mul__(self, other):
        out = PoleSum()
        for (a, p), c1 in self.terms.items():
            for (b, q), c2 in other.terms.items():
                c = c1 * c2
                if abs(a - b) <= _MERGE_TOL * max(1.0, abs(a), abs(b)):
                    out._add_term(a, p + q, c)
                    continue
                for i in range(1, p + 1):
                    coef = c * (-1) ** (p - i) * comb(p + q - i - 1, p - i) / (a - b) ** (p + q - i)
                    out._add_term(a, i, coef)
                for j in range(1, q + 1):
                    coef = c * (-1) ** (q - j) * comb(p + q - j - 1, q - j) / (b - a) ** (p + q - j)
                    out._add_term(b, j, coef)
        return out

    def tail_coefficient(self) -> complex:
        """Coefficient of 1/x at infinity: the sum of first-order coefficients."""
        return sum((c for (_, o), c in self.terms.items() if o == 1), 0.0 + 0.0j)

    def scale(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def line_integral(self) -> complex:
        """Whole-line integral by residue closure; requires decay >= 2."""
        tail = self.tail_coefficient()
        if abs(tail) > 1e-10 * max(self.scale(), 1.0):
            raise SlowDecayError(f"nonzero 1/x tail coefficient {tail}")
        upper = sum(
            (c for (p, o), c in self.terms.items() if o == 1 and p.imag > 0),
            0.0 + 0.0j,
        )
        return 2j * np.pi * upper

    def symmetric_integral(self) -> complex:
        """Symmetric principal-value integral, valid for decay >= 1.

        Order-one terms contribute +/- i pi per half plane; higher orders
        have vanishing whole-line antiderivative differences.
        """
        up = sum((c for (p, o), c in self.terms.items() if o == 1 and p.imag > 0), 0j)
        low = sum((c for (p, o), c in self.terms.items() if o == 1 and p.imag < 0), 0j)
        return 1j * np.pi * (up - low)

    def shift_multiply(self) -> "PoleSum":
        """x * f minus its 1/x tail constant, as a pole sum (exact)."""
        out = PoleSum()
        for (p, o), c in self.terms.items():
            # x/(x-a)^o = (x-a)^{1-o} + a (x-a)^{-o}; the o = 1 constant
            # pieces sum to the tail coefficient and are dropped here
            if o > 1:
                out._add_term(p, o - 1, c)
            out._add_term(p, o, c * p)
        return out

    def __call__(self, x):
        xs = np.asarray(x, dtype=complex)
        out = np.zeros_like(xs)
        for (p, o), c in self.terms.items():
            out = out + c / (xs - p) ** o
        return out if np.ndim(x) else complex(out)


def inner_product(f: PoleSum, g: PoleSum) -> complex:
    """L2 pairing <f, g> = integral of f conj(g), by residues."""
    return (f * g.conjugate()).line_integral()


# ---------------------------------------------------------------------- model


@dataclass(frozen=True)
class FriedrichsModel:
    phi: PoleSum
    psi: PoleSum
    bparam: complex = 0.0

    @cached_property
    def _sums(self):
        """(psi, conj(phi), psi conj(phi)), built once: the fields are frozen."""
        conj_phi = self.phi.conjugate()
        return self.psi, conj_phi, self.psi * conj_phi


def model_from_dict(data: dict) -> FriedrichsModel:
    def dec(obj):
        return PoleSum.from_poles([complex(re, im) for re, im in obj["poles"]],
                                  [complex(re, im) for re, im in obj["residues"]],
                                  obj.get("orders"))

    b = data.get("B", [0.0, 0.0])
    return FriedrichsModel(phi=dec(data["phi"]), psi=dec(data["psi"]),
                           bparam=complex(b[0], b[1]))


# ----------------------------------------------------------------- operations


def _check_lambda(lams):
    """Raise at the first point of the array lams that lies on the real axis."""
    on_axis = np.abs(lams.imag) <= _REAL_AXIS_TOL
    if on_axis.any():
        raise RealLambdaError(f"lambda={complex(lams[np.argmax(on_axis)])} lies on the real axis")


def _cauchy(ps: PoleSum, lam, upper: bool):
    """Integral of ps(x) / (x - lam) over the line, elementwise on an array lam in one half plane.

    Closing the contour in the other half plane leaves the residues there:
    2 pi i ps_-(lam) above the axis and -2 pi i ps_+(lam) below it, with ps_-
    (ps_+) the terms of ps whose poles lie below (above) the axis.  Terms with
    poles on lam's side do not enter, so nothing cancels next to them.  A term
    whose (lam - a)^order leaves the double range counts as 0, its limit as
    |lam| grows.
    """
    total = np.zeros_like(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        for (a, order), c in ps.terms.items():
            if (a.imag < 0) == upper:
                den = (lam - a) ** order
                total = total + np.where(np.isfinite(den), c / den, 0.0)
    return (2j * np.pi if upper else -2j * np.pi) * total


def _cauchy_at(ps: PoleSum, lam) -> complex:
    """Integral of ps(x) / (x - lam) over the line at one nonreal point lam."""
    lams = np.array([lam], dtype=complex)
    _check_lambda(lams)
    return complex(_cauchy(ps, lams, lams.imag[0] > 0)[0])


def cauchy_transform(f: PoleSum, lam: complex) -> complex:
    """<(x-lam)^{-1}, f> = integral of conj(f(x)) / (x - lam) dx, by residues."""
    return _cauchy_at(f.conjugate(), lam)


def perturbation_determinant(model: FriedrichsModel, lam: complex) -> complex:
    """D(lam) = 1 + integral of psi(x) conj(phi(x)) / (x - lam) dx."""
    return 1.0 + _cauchy_at(model._sums[2], lam)


def _det_and_bracket(model: FriedrichsModel, lams):
    """(D, bracket) at an array of points, M = 1 / bracket; bracket is NaN where |D| < 1e-12.

    bracket = sign(Im lam) pi i + I_psi I_phi / D - B.  Raises at the first
    point in array order that lies on the real axis.  Each point gets the bits
    of a call with that point alone: the arithmetic is elementwise.
    """
    _check_lambda(lams)
    psi, conj_phi, psi_conj_phi = model._sums
    det = np.empty_like(lams)
    bracket = np.empty_like(lams)
    for upper in (True, False):
        side = (lams.imag > 0) == upper
        if not side.any():
            continue
        lam = lams[side]
        d = 1.0 + _cauchy(psi_conj_phi, lam, upper)
        keep = ~(np.abs(d) < 1e-12)
        quot = _cauchy(psi, lam, upper) * _cauchy(conj_phi, lam, upper) / np.where(keep, d, 1.0)
        det[side] = d
        bracket[side] = np.where(keep, (1j if upper else -1j) * np.pi + quot
                                 - complex(model.bparam), np.nan)
    return det, bracket


def m_value(model: FriedrichsModel, lam: complex) -> complex:
    """Scalar M-function value at a nonreal point.

    Raises DZeroError when the determinant vanishes and BracketZeroError
    when lam is a pole of M (m_scan records both as NaN rows instead).
    """
    lam = complex(lam)
    det, bracket = _det_and_bracket(model, np.array([lam]))
    if np.abs(det)[0] < 1e-12:  # the test that leaves bracket NaN
        raise DZeroError(f"determinant vanishes at lam={lam}")
    if abs(bracket[0]) < 1e-12:
        raise BracketZeroError(f"M-function pole at lam={lam}")
    return (1.0 / bracket)[0]


def boundary_values(f: PoleSum):
    """The pair (regularized whole-line integral, tail coefficient).

    The first functional subtracts c_f sign(x)/sqrt(x^2+1) before
    integrating; that regularizer is odd, so the value equals the symmetric
    principal-value integral of f, computed here in closed form.
    """
    return f.symmetric_integral(), f.tail_coefficient()


def _pole_action(f: PoleSum, probe: PoleSum, direction: PoleSum):
    """(x f - c_f 1 + <f, probe> direction, <f, probe>), the action exact by residues."""
    ip = inner_product(f, probe)
    return f.shift_multiply() + direction.scaled(ip), ip


def _norm(f: PoleSum) -> float:
    """L2 norm of a pole sum, by residues."""
    return float(np.sqrt(abs(inner_product(f, f))))


def _eigen_residual(f: PoleSum, probe: PoleSum, direction: PoleSum, lam0):
    """(<f, probe>, ||A f - lam0 f||), A the action of _pole_action; the L2 norm by residues."""
    action, ip = _pole_action(f, probe, direction)
    return ip, _norm(action - f.scaled(lam0))


def maximal_action(model: FriedrichsModel, f: PoleSum, swapped: bool = False) -> PoleSum:
    """x f - c_f 1 + <f, phi> psi as an exact pole sum.

    swapped = True applies the companion operator with phi and psi
    exchanged (inner product against psi, direction phi).
    """
    probe, direction = (model.psi, model.phi) if swapped else (model.phi, model.psi)
    return _pole_action(f, probe, direction)[0]


def green_pair_residual(model: FriedrichsModel, f: PoleSum, g: PoleSum) -> float:
    """Residual of the two-operator pairing identity for the model.

    <A' f, g> - <f, A'' g> = G1 f conj(G2 g) - G2 f conj(G1 g), where A' is
    the swapped action and A'' the plain one; all terms exact by residues.
    """
    left = inner_product(maximal_action(model, f, swapped=True), g) - inner_product(
        f, maximal_action(model, g, swapped=False)
    )
    g1f, g2f = boundary_values(f)
    g1g, g2g = boundary_values(g)
    right = g1f * np.conj(g2g) - g2f * np.conj(g1g)
    return abs(left - right)


# ------------------------------------------------------------------- examples


def hardy_m_reference(bparam: complex, lam: complex) -> complex:
    """Closed form (sign(Im lam) pi i - B)^{-1} valid for one-sided pole data."""
    return 1.0 / (np.sign(complex(lam).imag) * 1j * np.pi - complex(bparam))


def example_eigenvalue_not_pole(lam0: complex):
    """Construct the model whose restriction has an eigenvalue the M-function misses.

    Scales phi = c psi, psi = 1/(x + i), so the determinant vanishes at lam0;
    the function psi/(x - lam0) is then an eigenvector of the maximal action
    restricted by vanishing tail coefficient, while M_0 stays analytic at
    lam0.  For lam0 in the lower half plane the eigenvector lies in the
    minimal domain; in the upper half plane the resolvent equation is
    obstructed.  There A_0 - lam0 (A_0 the restriction by a vanishing first
    boundary functional) is Fredholm, so its range is closed with orthogonal
    complement ker(A_0* - conj lam0), spanned by w = phi/(x - conj lam0):
    psi lies at the relative distance |<psi, w>| / (|w| |psi|) from that
    range.  Every reported number is exact by residues on PoleSum.
    """
    lam0 = complex(lam0)
    if abs(lam0.imag) <= _REAL_AXIS_TOL:
        raise RealLambdaError("lam0 must be nonreal")
    psi = PoleSum.from_poles((-1j,), (1.0,))

    base = _cauchy_at(psi * psi.conjugate(), lam0)
    if abs(base) < 1e-14:
        raise ConstructionFailedError("determinant cannot be zeroed by scaling")
    scale = np.conj(-1.0 / base)
    phi = psi.scaled(scale)
    model = FriedrichsModel(phi=phi, psi=psi, bparam=0.0)

    det0 = perturbation_determinant(model, lam0)
    eigfun = psi * PoleSum.from_poles((lam0,), (1.0,))
    gamma1, gamma2 = boundary_values(eigfun)
    ip, eig_resid = _eigen_residual(eigfun, phi, psi, lam0)

    # M_0 pole check: contour integral of M on a small circle around lam0
    circle = ContourSpec(lam0, min(0.25 * abs(lam0.imag), 0.5), 32)
    m_contour = complex(contour_integral(lambda z: m_value(model, z), circle))

    report = {
        "lam0": [lam0.real, lam0.imag],
        "phi_scale": [complex(scale).real, complex(scale).imag],
        "det_at_lam0": abs(det0),
        "inner_product_with_phi": [ip.real, ip.imag],
        "inner_product_error": abs(ip + 1.0),
        "gamma2_abs": abs(gamma2),
        "eigen_residual": eig_resid,
        "m_pole_residual": abs(m_contour),
        "case": "lower" if lam0.imag < 0 else "upper",
    }
    if lam0.imag < 0:
        report["gamma1_abs"] = abs(gamma1)
    else:
        obstruction = _cauchy_at(model._sums[2], lam0)  # <psi, w>
        w = phi * PoleSum.from_poles((np.conj(lam0),), (1.0,))
        report["obstruction"] = [obstruction.real, obstruction.imag]
        report["solvability_residual_rel"] = abs(obstruction) / _norm(w) / _norm(psi)
    return report


def example_embedded_eigenvalue(bparam: float = 0.0):
    """Construct the real eigenvalue 0 embedded in the continuum and invisible to M.

    With phi = psi = s x g, g = 1/(x + 1 + i)^2, and real s normalizing
    integral |psi|^2/x = -1, the restriction gains the real eigenvalue 0
    with eigenvector s g, while M keeps its one-sided closed form on both
    half planes.  g, psi and phi are PoleSums, exact by residues.
    """
    if abs(complex(bparam).imag) > _REAL_AXIS_TOL:
        raise ValueError("bparam must be real")
    lam0 = 0.0
    g = PoleSum.from_poles((-1.0 - 1j,), (1.0,), (2,))
    xg = g.shift_multiply()  # x g, exactly
    s = float(np.sqrt(-1.0 / inner_product(g, xg).real))
    psi = xg.scaled(s)
    model = FriedrichsModel(phi=psi, psi=psi, bparam=float(bparam))

    eigfun = g.scaled(s)
    ip, eig_resid = _eigen_residual(eigfun, psi, psi, lam0)

    eps = 1e-3
    m_plus = m_value(model, lam0 + 1j * eps)
    m_minus = m_value(model, lam0 - 1j * eps)
    jump = m_plus - m_minus
    jump_ref = hardy_m_reference(bparam, 1j) - hardy_m_reference(bparam, -1j)

    return {
        "lam0": lam0,
        "scaling": s,
        "psi_at_lam0": abs(complex(psi(lam0))),
        "normalization": [ip.real, ip.imag],
        "normalization_error": abs(ip + 1.0),
        "eigen_residual": eig_resid,
        "m_jump": [jump.real, jump.imag],
        "m_jump_error": abs(jump - jump_ref),
    }


# ----------------------------------------------------------------------- scan


SCAN_HEADER = ("re_lambda", "im_lambda", "re_M", "im_M", "abs_D", "bracket_abs")


def m_scan(model: FriedrichsModel, re_points, eps_values):
    """Rows (re, im, Re M, Im M, |D|, |bracket|) over a grid straddling the axis.

    Pole points of M are recorded with NaN values rather than raised.  The
    whole grid goes through _det_and_bracket at once, so errors surface at
    the first offending point in grid order.
    """
    lams = np.array([lam for x0 in re_points for eps in eps_values
                     for lam in (complex(x0, eps), complex(x0, -eps))], dtype=complex)
    det, bracket = _det_and_bracket(model, lams)
    # per-entry abs() (hypot) keeps the scan's CSV bytes; np.abs can differ in the last bit
    abs_det = [abs(d) for d in det.tolist()]
    abs_bracket = np.array([abs(b) for b in bracket.tolist()])
    m = np.divide(1.0, bracket, out=np.full_like(bracket, complex(np.nan, np.nan)),
                  where=abs_bracket >= 1e-12)
    return list(zip(lams.real.tolist(), lams.imag.tolist(), m.real.tolist(), m.imag.tolist(),
                    abs_det, abs_bracket.tolist()))
