"""Rank-one perturbed multiplication operator on the line, rational calculus.

The model acts as (A f)(x) = x f(x) + <f, phi> psi(x) on functions whose
whole-line integral vanishes; its closure data involve the coefficient
c_f = lim x f(x), two boundary functionals and a scalar M-function

    M_B(lam) = [ sign(Im lam) pi i + I_psi(lam) I_phi(lam) / D(lam) - B ]^{-1},

with D(lam) = 1 + integral of psi conj(phi)/(x - lam).  Everything here is
computed exactly by residue calculus on functions kept in pole-coefficient
form f = sum c_{k,j} / (x - a_k)^j, so the package-level quadrature serves
as an independent cross-check rather than the primary route.

Convention: a rational function belongs to the Hardy class of the upper
half plane exactly when all of its poles lie in the lower half plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .errors import (
    BracketZeroError,
    ConstructionFailedError,
    DZeroError,
    PoleCollisionError,
    RealLambdaError,
    SlowDecayError,
)
from .numerics import ContourSpec, contour_integral

_MERGE_TOL = 1e-13
_REAL_AXIS_TOL = 1e-12
GRID_HALF_WIDTH = 50.0
GRID_NODES = 2001


# ------------------------------------------------------------ pole-form sums


class PoleSum:
    """Finite sum of c / (x - a)^j terms with exact rational arithmetic."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for (pole, order), coeff in terms.items():
                self._add_term(complex(pole), int(order), complex(coeff))

    def _add_term(self, pole, order, coeff):
        if coeff == 0:
            return
        for (p, o) in self.terms:
            if o == order and abs(p - pole) <= _MERGE_TOL * max(1.0, abs(p)):
                pole = p
                break
        key = (pole, order)
        new = self.terms.get(key, 0.0 + 0.0j) + coeff
        if new == 0 or abs(new) < 1e-250:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    @classmethod
    def single(cls, pole, order=1, coeff=1.0):
        out = cls()
        out._add_term(complex(pole), order, complex(coeff))
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

    def poles(self):
        return sorted({p for (p, _) in self.terms}, key=lambda z: (z.real, z.imag))


def inner_product(f: PoleSum, g: PoleSum) -> complex:
    """L2 pairing <f, g> = integral of f conj(g), by residues."""
    return (f * g.conjugate()).line_integral()


# --------------------------------------------------------------- public types


@dataclass(frozen=True)
class RationalH2:
    """Square-integrable rational function in pole/coefficient form.

    poles must be nonreal; orders default to all ones.  hardy_plus is true
    exactly when every pole lies in the lower half plane (boundary values
    of a function analytic in the upper half plane).
    """

    poles: tuple
    residues: tuple
    orders: tuple = field(default=())

    def __post_init__(self):
        poles = tuple(complex(p) for p in self.poles)
        residues = tuple(complex(r) for r in self.residues)
        orders = tuple(int(o) for o in self.orders) if self.orders else (1,) * len(poles)
        if len(poles) != len(residues) or len(poles) != len(orders):
            raise ValueError("poles, residues and orders must have equal length")
        if any(abs(p.imag) <= _REAL_AXIS_TOL for p in poles):
            raise ValueError("poles must be nonreal")
        if any(o < 1 for o in orders):
            raise ValueError("orders must be positive")
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "orders", orders)

    @property
    def hardy_plus(self) -> bool:
        return all(p.imag < 0 for p in self.poles)

    def as_polesum(self) -> PoleSum:
        out = PoleSum()
        for p, r, o in zip(self.poles, self.residues, self.orders):
            out._add_term(p, o, r)
        return out

    def __call__(self, x):
        return self.as_polesum()(x)


def rational_from_polesum(ps: PoleSum) -> RationalH2:
    poles, residues, orders = [], [], []
    for (p, o), c in sorted(ps.terms.items(), key=lambda kv: (kv[0][0].real, kv[0][0].imag, kv[0][1])):
        poles.append(p)
        residues.append(c)
        orders.append(o)
    return RationalH2(poles=tuple(poles), residues=tuple(residues), orders=tuple(orders))


@dataclass(frozen=True)
class FriedrichsModel:
    phi: RationalH2
    psi: RationalH2
    bparam: complex = 0.0

    @cached_property
    def _sums(self):
        """(psi, conj(phi), psi conj(phi), their poles), built once: the fields are frozen."""
        psi = self.psi.as_polesum()
        conj_phi = self.phi.as_polesum().conjugate()
        return psi, conj_phi, psi * conj_phi, psi.poles() + conj_phi.poles()


def model_from_dict(data: dict) -> FriedrichsModel:
    def dec(obj):
        return RationalH2(
            poles=tuple(complex(re, im) for re, im in obj["poles"]),
            residues=tuple(complex(re, im) for re, im in obj["residues"]),
            orders=tuple(obj.get("orders", ())),
        )

    b = data.get("B", [0.0, 0.0])
    return FriedrichsModel(phi=dec(data["phi"]), psi=dec(data["psi"]),
                           bparam=complex(b[0], b[1]))


# ------------------------------------------------------------- evaluation grid


def evaluation_grid():
    """GRID_NODES Chebyshev-mapped nodes on [-GRID_HALF_WIDTH, GRID_HALF_WIDTH] and weights."""
    n = GRID_NODES
    nodes = GRID_HALF_WIDTH * np.cos(np.pi * np.arange(n) / (n - 1))[::-1]
    weights = np.zeros(n)
    weights[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    weights[0] = 0.5 * (nodes[1] - nodes[0])
    weights[-1] = 0.5 * (nodes[-1] - nodes[-2])
    return nodes, weights


# ----------------------------------------------------------------- operations


def _check_lambda(lam: complex, f_conj_poles=()):
    if abs(lam.imag) <= _REAL_AXIS_TOL:
        raise RealLambdaError(f"lambda={lam} lies on the real axis")
    for p in f_conj_poles:
        if abs(lam - p) <= 1e-10 * max(1.0, abs(p)):
            raise PoleCollisionError(f"lambda={lam} collides with pole {p}")


def _cauchy(ps: PoleSum, lam: complex) -> complex:
    """Integral of ps(x) / (x - lam) over the line, by residues (no lam check)."""
    return (ps * PoleSum.single(lam)).line_integral()


def cauchy_transform(f: RationalH2, lam: complex) -> complex:
    """<(x-lam)^{-1}, f> = integral of conj(f(x)) / (x - lam) dx, by residues."""
    lam = complex(lam)
    conj_f = f.as_polesum().conjugate()
    _check_lambda(lam, conj_f.poles())
    return _cauchy(conj_f, lam)


def _determinant(model: FriedrichsModel, lam: complex) -> complex:
    """D(lam) from the model's pole sums; checks only that lam is nonreal."""
    _check_lambda(lam)
    return 1.0 + _cauchy(model._sums[2], lam)


def perturbation_determinant(model: FriedrichsModel, lam: complex) -> complex:
    """D(lam) = 1 + integral of psi(x) conj(phi(x)) / (x - lam) dx."""
    return _determinant(model, complex(lam))


def _det_and_bracket(model: FriedrichsModel, lam: complex):
    """(D, bracket) with M = 1 / bracket; bracket is None when |D| < 1e-12.

    bracket = sign(Im lam) pi i + I_psi I_phi / D - B; the pole checks follow the test on D.
    """
    det = _determinant(model, lam)
    if abs(det) < 1e-12:
        return det, None
    psi, conj_phi, _, poles = model._sums
    _check_lambda(lam, poles)
    i_psi, i_phi = _cauchy(psi, lam), _cauchy(conj_phi, lam)
    return det, np.sign(lam.imag) * 1j * np.pi + i_psi * i_phi / det - complex(model.bparam)


def m_value(model: FriedrichsModel, lam: complex) -> complex:
    """Scalar M-function value at a nonreal point.

    Raises DZeroError when the determinant vanishes and BracketZeroError
    when lam is a pole of M (m_scan records both as NaN rows instead).
    """
    lam = complex(lam)
    det, bracket = _det_and_bracket(model, lam)
    if bracket is None:
        raise DZeroError(f"determinant vanishes at lam={lam}")
    if abs(bracket) < 1e-12:
        raise BracketZeroError(f"M-function pole at lam={lam}")
    return 1.0 / bracket


def tail_coefficient(f: RationalH2) -> complex:
    """lim x f(x): the sum of first-order residues."""
    return f.as_polesum().tail_coefficient()


def boundary_values(f: RationalH2):
    """The pair (regularized whole-line integral, tail coefficient).

    The first functional subtracts c_f sign(x)/sqrt(x^2+1) before
    integrating; that regularizer is odd, so the value equals the symmetric
    principal-value integral of f, computed here in closed form.
    """
    ps = f.as_polesum()
    return ps.symmetric_integral(), ps.tail_coefficient()


def _pole_action(f: PoleSum, probe: PoleSum, direction: PoleSum):
    """(x f - c_f 1 + <f, probe> direction, <f, probe>), the action exact by residues."""
    ip = inner_product(f, probe)
    return f.shift_multiply() + direction.scaled(ip), ip


def _eigen_residual(f: PoleSum, probe: PoleSum, direction: PoleSum, lam0, nodes):
    """(<f, probe>, max over the nodes of |A f - lam0 f|), A the action of _pole_action."""
    action, ip = _pole_action(f, probe, direction)
    return ip, float(np.max(np.abs(action(nodes) - lam0 * f(nodes))))


def maximal_action(model: FriedrichsModel, f: PoleSum, swapped: bool = False) -> PoleSum:
    """x f - c_f 1 + <f, phi> psi as an exact pole sum.

    swapped = True applies the companion operator with phi and psi
    exchanged (inner product against psi, direction phi).
    """
    probe = model.psi if swapped else model.phi
    direction = model.phi if swapped else model.psi
    return _pole_action(f, probe.as_polesum(), direction.as_polesum())[0]


def green_pair_residual(model: FriedrichsModel, f: RationalH2, g: RationalH2) -> float:
    """Residual of the two-operator pairing identity for the model.

    <A' f, g> - <f, A'' g> = G1 f conj(G2 g) - G2 f conj(G1 g), where A' is
    the swapped action and A'' the plain one; all terms exact by residues.
    """
    fp, gp = f.as_polesum(), g.as_polesum()
    left = inner_product(maximal_action(model, fp, swapped=True), gp) - inner_product(
        fp, maximal_action(model, gp, swapped=False)
    )
    g1f, g2f = boundary_values(f)
    g1g, g2g = boundary_values(g)
    right = g1f * np.conj(g2g) - g2f * np.conj(g1g)
    return abs(left - right)


# ------------------------------------------------------------------- examples


def hardy_m_reference(bparam: complex, lam: complex) -> complex:
    """Closed form (sign(Im lam) pi i - B)^{-1} valid for one-sided pole data."""
    return 1.0 / (np.sign(complex(lam).imag) * 1j * np.pi - complex(bparam))


def example_eigenvalue_not_pole(psi: RationalH2 = None, lam0: complex = -1j):
    """Construct the model whose restriction has an eigenvalue the M-function misses.

    Scales phi = c psi so the determinant vanishes at lam0; the function
    psi/(x - lam0) is then an eigenvector of the maximal action restricted
    by vanishing tail coefficient, while M_0 stays analytic at lam0.  For
    lam0 in the lower half plane the eigenvector lies in the minimal
    domain; in the upper half plane the resolvent equation is obstructed,
    which a discretized least-squares probe exhibits.
    """
    if psi is None:
        psi = RationalH2(poles=(-1j,), residues=(1.0,))
    if not psi.hardy_plus:
        raise ConstructionFailedError("base function must have lower-half-plane poles")
    lam0 = complex(lam0)
    if abs(lam0.imag) <= _REAL_AXIS_TOL:
        raise RealLambdaError("lam0 must be nonreal")

    psi_ps = psi.as_polesum()
    base = (psi_ps * psi_ps.conjugate() * PoleSum.single(lam0)).line_integral()
    if abs(base) < 1e-14:
        raise ConstructionFailedError("determinant cannot be zeroed by scaling")
    scale = np.conj(-1.0 / base)
    phi = rational_from_polesum(psi_ps.scaled(scale))
    model = FriedrichsModel(phi=phi, psi=psi, bparam=0.0)

    det0 = perturbation_determinant(model, lam0)
    eigfun = psi_ps * PoleSum.single(lam0)
    gamma1, gamma2 = eigfun.symmetric_integral(), eigfun.tail_coefficient()
    nodes, weights = evaluation_grid()
    ip, eig_resid = _eigen_residual(eigfun, phi.as_polesum(), psi_ps, lam0, nodes)

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
        report.update(_solvability_probe(model, lam0, nodes, weights))
    return report


def _solvability_probe(model: FriedrichsModel, lam0: complex, nodes, weights):
    """Least-squares probe of the obstructed resolvent equation (upper case).

    Tries to solve (x - lam0) u - c_u + <u, phi> psi = f over a rational
    trial space with f = psi, whose obstruction functional equals -1; the
    relative residual is bounded below by 1/(|f| |phi/(x - conj lam0)|).
    """
    phi_ps = model.phi.as_polesum()
    psi_ps = model.psi.as_polesum()
    f_vec = psi_ps(nodes)
    obstruction = (psi_ps * PoleSum.single(lam0) * phi_ps.conjugate()).line_integral()

    trial = []
    offsets = (-3.0, -1.0, 0.0, 1.0, 3.0)
    heights = (0.7, 1.6, 2.9, -0.7, -1.6, -2.9)
    for re in offsets:
        for im in heights:
            pole = complex(re, im)
            if abs(pole - lam0) < 0.3:
                continue
            trial.append(PoleSum.single(pole))
    sqw = np.sqrt(weights)
    cols, penalty = [], []
    for b in trial:
        image = _pole_action(b, phi_ps, psi_ps)[0] - b.scaled(lam0)
        cols.append(sqw * image(nodes))
        penalty.append(10.0 * b.symmetric_integral())
    a = np.vstack([np.array(cols).T, np.array(penalty)[None, :]])
    rhs = np.concatenate([sqw * f_vec, [0.0]])
    coeff = np.linalg.lstsq(a, rhs, rcond=None)[0]
    resid = float(np.linalg.norm(rhs - a @ coeff))
    f_norm = float(np.sqrt(abs(inner_product(psi_ps, psi_ps))))
    dual = phi_ps * PoleSum.single(np.conj(lam0))
    bound = abs(obstruction) / float(np.sqrt(abs(inner_product(dual, dual)))) / f_norm
    return {
        "obstruction": [obstruction.real, obstruction.imag],
        "solvability_residual_rel": resid / f_norm,
        "solvability_lower_bound": bound,
    }


def example_embedded_eigenvalue(g: RationalH2 = None, lam0: float = 0.0,
                                bparam: float = 0.0):
    """Construct a real eigenvalue embedded in the continuum and invisible to M.

    With phi = psi = s (x - lam0) g and real s normalizing
    integral |psi|^2/(x - lam0) = -1, the restriction gains the real
    eigenvalue lam0 with eigenvector s g, while M keeps its one-sided
    closed form on both half planes.  Raises ConstructionFailedError when
    the normalization integral is nonnegative (or vanishes), since no real
    scaling can then reach -1.
    """
    if g is None:
        g = RationalH2(poles=(-1.0 - 1j,), residues=(1.0,), orders=(2,))
    if not g.hardy_plus:
        raise ConstructionFailedError("base function must have lower-half-plane poles")
    if abs(complex(lam0).imag) > _REAL_AXIS_TOL:
        raise ValueError("lam0 must be real")
    if abs(complex(bparam).imag) > _REAL_AXIS_TOL:
        raise ValueError("bparam must be real")
    lam0 = float(np.real(lam0))

    g_ps = g.as_polesum()
    if abs(g_ps.tail_coefficient()) > 1e-12 * max(g_ps.scale(), 1.0):
        raise ConstructionFailedError("base function must decay faster than 1/x")
    base = g_ps.shift_multiply() - g_ps.scaled(lam0)  # (x - lam0) g, exactly
    norm_integral = (g_ps * base.conjugate()).line_integral()
    if abs(norm_integral.imag) > 1e-10 * max(1.0, abs(norm_integral)):
        raise ConstructionFailedError("normalization integral is not real")
    value = norm_integral.real
    if value >= -1e-12:
        raise ConstructionFailedError(
            f"normalization integral {value:.3e} is not negative; "
            "no real scaling reaches -1"
        )
    s = float(np.sqrt(-1.0 / value))
    psi_ps = base.scaled(s)
    psi = rational_from_polesum(psi_ps)
    model = FriedrichsModel(phi=psi, psi=psi, bparam=float(bparam))

    eigfun = g_ps.scaled(s)
    ip, eig_resid = _eigen_residual(eigfun, psi_ps, psi_ps, lam0, evaluation_grid()[0])

    eps = 1e-3
    m_plus = m_value(model, lam0 + 1j * eps)
    m_minus = m_value(model, lam0 - 1j * eps)
    jump = m_plus - m_minus
    jump_ref = hardy_m_reference(bparam, 1j) - hardy_m_reference(bparam, -1j)

    return {
        "lam0": lam0,
        "scaling": s,
        "psi_at_lam0": abs(complex(psi_ps(lam0))),
        "normalization": [ip.real, ip.imag],
        "normalization_error": abs(ip + 1.0),
        "eigen_residual": eig_resid,
        "m_jump": [jump.real, jump.imag],
        "m_jump_error": abs(jump - jump_ref),
    }


# ------------------------------------------------------------ whole-grid scan
#
# m_scan forms D, I_psi, I_phi and the bracket at every grid point at once,
# on float64 (real, imag) array pairs, replaying the operations of the
# pointwise route in their order.  Each operation follows the formula that
# its scalar operands' types select: Python complex division is CPython's
# _Py_c_quot, a division with an np.complex128 operand is numpy's (a product
# with the reciprocal of the denominator), and a power of an np.complex128
# returns exponents 1 to 3 unrolled.  PoleSum.conjugate makes conj(phi), psi
# conj(phi) and whatever they enter numpy scalars.


def _c_mul(a, b):
    """Product of (re, im) pairs in the operation order of CPython's and numpy's."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _c_pow(x, n, numpy):
    """x ** n for an int n >= 1: CPython's binary exponentiation, or numpy's power."""
    if numpy and n == 1:
        return x
    if numpy and n <= 3:  # numpy unrolls x * x and x * (x * x)
        return _c_mul(x, x) if n == 2 else _c_mul(x, _c_mul(x, x))
    out = (1.0, 0.0)
    while True:
        if n & 1:
            out = _c_mul(out, x)
        n >>= 1
        if not n:
            return out
        x = _c_mul(x, x)


def _c_quot(a, b, numpy):
    """a / b as CPython's _Py_c_quot or, when numpy, as numpy's complex division."""
    (ar, ai), (br, bi) = a, b
    wide = np.abs(br) >= np.abs(bi)
    ratio = np.where(wide, bi / br, br / bi)
    denom = np.where(wide, br + bi * ratio, br * ratio + bi)
    re = np.where(wide, ar + ai * ratio, ar * ratio + ai)
    im = np.where(wide, ai - ar * ratio, ai * ratio - ar)
    if numpy:
        scale = 1.0 / denom
        return re * scale, im * scale
    return re / denom, im / denom


def _finite(*pairs):
    return np.logical_and.reduce([np.isfinite(part) for pair in pairs for part in pair])


def _cauchy_plan(ps: PoleSum):
    """The lam-independent part of _cauchy(ps, lam) as PoleSum.__mul__ and _add_term take it.

    Returns (keys, steps).  keys lists the (pole, order) keys of the product
    in insertion order, pole None standing for lam.  Each step adds
    num / (a - lam)^e (flip false) or num / (lam - a)^e (flip true) to a key;
    num is the scalar numerator, so its type is the scalar route's.
    """
    keys, steps = [], []

    def key_index(pole, order):
        for k, (p, o) in enumerate(keys):  # the merge loop of _add_term
            if p is not None and o == order and abs(p - pole) <= _MERGE_TOL * max(1.0, abs(p)):
                return k
        keys.append((pole, order))
        return len(keys) - 1

    for (a, p), c1 in ps.terms.items():
        c = c1 * (1.0 + 0.0j)  # times the coefficient of PoleSum.single(lam)
        for i in range(1, p + 1):
            steps.append((key_index(a, i), c * (-1) ** (p - i) * comb(p - i, p - i), a, p + 1 - i,
                          False))
        if (None, 1) not in keys:
            keys.append((None, 1))
        steps.append((keys.index((None, 1)), c * (-1) ** 0 * comb(p - 1, 0), a, p, True))
    return keys, steps


def _cauchy_grid(ps: PoleSum, lam, upper: bool):
    """_cauchy(ps, lam) over a pair of arrays lam in one half plane.

    Returns (value, numpy, usable): the (re, im) arrays, whether the scalar
    route returns an np.complex128 there, and where it takes the branches
    replayed here: no coefficient is 0, no key is removed, the tail check
    passes and every value is finite (a complex power that overflows raises).
    """
    keys, steps = _cauchy_plan(ps)
    zero = (np.zeros_like(lam[0]), np.zeros_like(lam[0]))  # the 0j that sums start from
    vals, kinds = [zero] * len(keys), [False] * len(keys)
    usable = np.ones(lam[0].shape, dtype=bool)
    for k, num, a, e, flip in steps:
        base = (lam[0] - a.real, lam[1] - a.imag) if flip else (a.real - lam[0], a.imag - lam[1])
        numpy_pow = isinstance(a, np.generic)
        power = _c_pow(base, e, numpy_pow)
        numpy = numpy_pow or isinstance(num, np.generic)
        coef = _c_quot((num.real, num.imag), power, numpy)
        vals[k] = (vals[k][0] + coef[0], vals[k][1] + coef[1])
        kinds[k] = kinds[k] or numpy
        usable &= _finite(power, coef) & ((coef[0] != 0) | (coef[1] != 0))
        usable &= np.hypot(*vals[k]) >= 2e-250  # margin on the removal test at 1e-250
    tail, total, kind, scale = zero, zero, False, 0.0
    for (pole, order), v, numpy in zip(keys, vals, kinds):
        scale = np.maximum(scale, np.hypot(*v))
        if order != 1:
            continue
        tail = (tail[0] + v[0], tail[1] + v[1])
        if (upper if pole is None else pole.imag > 0):
            total, kind = (total[0] + v[0], total[1] + v[1]), kind or numpy
    usable &= np.hypot(*tail) <= 0.5e-10 * np.maximum(scale, 1.0)  # margin on the tail check
    two_pi_i = 2j * np.pi
    return _c_mul((two_pi_i.real, two_pi_i.imag), total), kind, usable


def _grid_det_and_bracket(model: FriedrichsModel, lams, upper: bool):
    """(D, bracket) lists over points lams in one half plane, D None where not served.

    Values are those of _det_and_bracket, types included, wherever lam is
    off the real axis and clear of every pole and the replayed branches hold.
    """
    lam = (np.array([z.real for z in lams]), np.array([z.imag for z in lams]))
    psi, conj_phi, psi_conj_phi, poles = model._sums
    usable = np.abs(lam[1]) > _REAL_AXIS_TOL
    size = np.hypot(*lam)
    for p in poles:  # 2x the pole-check and merge tolerances, so ulps cannot decide
        reach = max(1.0, abs(p))
        tol = np.maximum(1e-10 * reach, _MERGE_TOL * np.maximum(reach, size))
        usable &= np.hypot(lam[0] - p.real, lam[1] - p.imag) > 2.0 * tol
    i_d, det_numpy, ok_d = _cauchy_grid(psi_conj_phi, lam, upper)
    i_psi, psi_numpy, ok_psi = _cauchy_grid(psi, lam, upper)
    i_phi, phi_numpy, ok_phi = _cauchy_grid(conj_phi, lam, upper)
    det = (1.0 + i_d[0], 0.0 + i_d[1])
    quot = _c_quot(_c_mul(i_psi, i_phi), det, det_numpy or psi_numpy or phi_numpy)
    sign_term = np.sign(1.0 if upper else -1.0) * 1j * np.pi
    b = complex(model.bparam)
    bracket = ((sign_term.real + quot[0]) - b.real, (sign_term.imag + quot[1]) - b.imag)
    usable &= ok_d & ok_psi & ok_phi & _finite(det, bracket)
    det_arr, bracket_arr = np.empty(len(lams), complex), np.empty(len(lams), complex)
    det_arr.real, det_arr.imag = det
    bracket_arr.real, bracket_arr.imag = bracket
    dets = list(det_arr) if det_numpy else det_arr.tolist()
    return [d if ok else None for d, ok in zip(dets, usable)], list(bracket_arr)


def m_scan(model: FriedrichsModel, re_points, eps_values):
    """Rows (re, im, Re M, Im M, |D|, |bracket|) over a grid straddling the axis.

    Pole points of M are recorded with NaN values rather than raised.  The
    whole grid is evaluated at once, bit-identical to _det_and_bracket at
    every point; points where that route branches (near a pole or the real
    axis, |D| or |bracket| below 1e-12, a pole-sum term dropped or removed,
    a tail check near failing, a value not finite) take _det_and_bracket
    itself, in grid order, so errors surface at the same first point.
    """
    lams = [lam for x0 in re_points for eps in eps_values
            for lam in (complex(x0, eps), complex(x0, -eps))]
    dets, brackets = [None] * len(lams), [None] * len(lams)
    with np.errstate(all="ignore"):  # points that fall back may overflow or divide by 0
        for upper in (True, False):
            idx = [k for k, lam in enumerate(lams) if (lam.imag > 0) == upper]
            got = _grid_det_and_bracket(model, [lams[k] for k in idx], upper)
            for k, det, bracket in zip(idx, *got):
                dets[k], brackets[k] = det, bracket
    rows = []
    for lam, det, bracket in zip(lams, dets, brackets):
        if det is None or abs(det) < 1e-12 or abs(bracket) < 1e-12:
            det, bracket = _det_and_bracket(model, lam)
        if bracket is None:
            rows.append((lam.real, lam.imag, np.nan, np.nan, abs(det), np.nan))
            continue
        if abs(bracket) < 1e-12:
            rows.append((lam.real, lam.imag, np.nan, np.nan, abs(det), abs(bracket)))
            continue
        m = 1.0 / bracket
        rows.append((lam.real, lam.imag, m.real, m.imag, abs(det), abs(bracket)))
    return rows
