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

_MERGE_TOL = 1e-13
_REAL_AXIS_TOL = 1e-12


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


def model_to_dict(model: FriedrichsModel) -> dict:
    def enc(f: RationalH2):
        return {
            "poles": [[p.real, p.imag] for p in f.poles],
            "residues": [[r.real, r.imag] for r in f.residues],
            "orders": list(f.orders),
        }

    return {
        "type": "friedrichs",
        "phi": enc(model.phi),
        "psi": enc(model.psi),
        "B": [complex(model.bparam).real, complex(model.bparam).imag],
    }


def model_from_dict(data: dict) -> FriedrichsModel:
    def dec(obj):
        return RationalH2(
            poles=tuple(complex(re, im) for re, im in obj["poles"]),
            residues=tuple(complex(re, im) for re, im in obj["residues"]),
            orders=tuple(obj.get("orders", ())) or (1,) * len(obj["poles"]),
        )

    b = data.get("B", [0.0, 0.0])
    return FriedrichsModel(phi=dec(data["phi"]), psi=dec(data["psi"]),
                           bparam=complex(b[0], b[1]))


# ------------------------------------------------------------- evaluation grid


def evaluation_grid(n: int = 2001, half_width: float = 50.0):
    """Chebyshev-mapped nodes on [-half_width, half_width] with trapezoid weights."""
    nodes = half_width * np.cos(np.pi * np.arange(n) / (n - 1))[::-1]
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


def cauchy_transform(f: RationalH2, lam: complex) -> complex:
    """<(x-lam)^{-1}, f> = integral of conj(f(x)) / (x - lam) dx, by residues."""
    lam = complex(lam)
    conj_f = f.as_polesum().conjugate()
    _check_lambda(lam, conj_f.poles())
    return (conj_f * PoleSum.single(lam)).line_integral()


def transform_pair(model: FriedrichsModel, lam: complex):
    """(I_psi, I_phi): integral of psi/(x-lam) and of conj(phi)/(x-lam)."""
    lam = complex(lam)
    kernel = PoleSum.single(lam)
    psi_ps = model.psi.as_polesum()
    phi_conj = model.phi.as_polesum().conjugate()
    _check_lambda(lam, psi_ps.poles())
    _check_lambda(lam, phi_conj.poles())
    return (psi_ps * kernel).line_integral(), (phi_conj * kernel).line_integral()


def perturbation_determinant(model: FriedrichsModel, lam: complex) -> complex:
    """D(lam) = 1 + integral of psi(x) conj(phi(x)) / (x - lam) dx."""
    lam = complex(lam)
    _check_lambda(lam)
    prod = model.psi.as_polesum() * model.phi.as_polesum().conjugate()
    return 1.0 + (prod * PoleSum.single(lam)).line_integral()


def _det_and_bracket(model: FriedrichsModel, lam: complex):
    """(D, bracket) with M = 1 / bracket; bracket is None when |D| < 1e-12.

    bracket = sign(Im lam) pi i + I_psi I_phi / D - B.
    """
    det = perturbation_determinant(model, lam)
    if abs(det) < 1e-12:
        return det, None
    i_psi, i_phi = transform_pair(model, lam)
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


def maximal_action(model: FriedrichsModel, f: PoleSum, swapped: bool = False) -> PoleSum:
    """x f - c_f 1 + <f, phi> psi as an exact pole sum.

    swapped = True applies the companion operator with phi and psi
    exchanged (inner product against psi, direction phi).
    """
    probe = model.psi if swapped else model.phi
    direction = model.phi if swapped else model.psi
    ip = inner_product(f, probe.as_polesum())
    return f.shift_multiply() + direction.as_polesum().scaled(ip)


def adjoint_apply(model: FriedrichsModel, f: RationalH2, swapped: bool = False,
                  n: int = 2001, half_width: float = 50.0):
    """Grid evaluation of the maximal action (nodes, values)."""
    nodes, _ = evaluation_grid(n, half_width)
    out = maximal_action(model, f.as_polesum(), swapped=swapped)
    return nodes, out(nodes)


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


def example_eigenvalue_not_pole(psi: RationalH2 = None, lam0: complex = -1j,
                                grid_n: int = 2001):
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
    ip = inner_product(eigfun, phi.as_polesum())
    gamma1, gamma2 = eigfun.symmetric_integral(), eigfun.tail_coefficient()

    nodes, weights = evaluation_grid(grid_n)
    action = eigfun.shift_multiply() + psi_ps.scaled(ip)  # uses the computed <u, phi>
    eig_resid = float(np.max(np.abs(action(nodes) - lam0 * eigfun(nodes))))

    # M_0 pole check: contour integral of M on a small circle around lam0
    radius = min(0.25 * abs(lam0.imag), 0.5)
    ang = 2 * np.pi * np.arange(32) / 32
    circle = lam0 + radius * np.exp(1j * ang)
    m_contour = sum(
        m_value(model, z) * 1j * (z - lam0) for z in circle
    ) * (2 * np.pi / 32)

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
        image = b.shift_multiply() - b.scaled(lam0) + psi_ps.scaled(
            inner_product(b, phi_ps)
        )
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
                                bparam: float = 0.0, grid_n: int = 2001):
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
    ip = inner_product(eigfun, psi_ps)
    nodes, _ = evaluation_grid(grid_n)
    action = eigfun.shift_multiply() + psi_ps.scaled(ip)
    eig_resid = float(np.max(np.abs(action(nodes) - lam0 * eigfun(nodes))))

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


def m_scan(model: FriedrichsModel, re_points, eps_values):
    """Rows (re, im, Re M, Im M, |D|, |bracket|) over a grid straddling the axis.

    Pole points of M are recorded with NaN values rather than raised.
    """
    rows = []
    for x0 in re_points:
        for eps in eps_values:
            for lam in (complex(x0, eps), complex(x0, -eps)):
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
