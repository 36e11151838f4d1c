"""Block operator on [0,1] coupling a Schroedinger part to a multiplier.

The operator acts on pairs (y, z) as

    ( -y'' + q y + w z ,  w y + u z )

with Robin-type boundary conditions at both ends parametrized by angles
alpha, beta.  Its 2x2 M-matrix is computed by shooting on the scalar
reduction -y'' + (q - lam) y + w^2/(lam - u) y = 0; eigenvalues are zeros
of the boundary-condition denominator, located by the argument principle
and polished by Newton; a second-order finite-difference discretization
serves as an independent oracle for spectra and resolvents.  scan_rows, the
one grid scan, reports the M-matrix and the full and bordered two-sided
resolvent jumps of that discretization, in the trapezoid-weighted inner
product in which it is self-adjoint for real coefficients: one eigvalsh per
discretization then gives every jump, and each is bounded by 2/|eps|.

Coefficients are piecewise polynomials with explicit breakpoints, which
makes essential ranges exact and lets the shooting restart cleanly at the
kinks.  On a piece where q, u and w are all constant the reduced equation
has a constant coefficient, and shooting applies its exact transfer matrix.
A piece with a non-constant polynomial is crossed in adaptive fourth-order
Magnus steps, each the product of two such exact transfers, so the ODE
tolerance applies to those pieces alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import WeylScopeError
from .numerics import matrix_norm2

DEFAULT_ODE_TOL = 1e-10
MIN_FD_N = 32
# scan points closer than this to the singular set get no jump norms
SCAN_SINGULAR_GUARD = 1e-3 - 1e-15
# _winding: boundary samples per rectangle side, bisection cap per boundary
WINDING_PER_SIDE = 32
WINDING_MAX_REFINE = 4000
# root location: ODE tolerance, subdivision depth cap, Newton iteration cap
ROOT_ODE_TOL = 1e-11
ROOT_MAX_DEPTH = 40
NEWTON_MAX_ITER = 60
# a horizontal cut lies this irrational fraction of the way up: it misses the
# real axis of a region symmetric about it, where real coefficients put the eigenvalues
HORIZONTAL_CUT = 0.5236067977499790
# above this Re(s h) a constant piece's transfer is carried scaled by e^(-Re(s h))
RESCALE_EXPONENT = 700.0


# ----------------------------------------------------------- piecewise pieces


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial on [0, 1]: breakpoints and global-variable coefficients.

    coeffs[j] holds the coefficients (constant term first) of the polynomial
    valid on [breaks[j], breaks[j+1]].  The breakpoints run from 0 to 1 and
    every piece has at least one coefficient.
    """

    breaks: tuple
    coeffs: tuple

    def __post_init__(self):
        br = tuple(float(b) for b in self.breaks)
        if len(br) < 2 or any(a >= b for a, b in zip(br, br[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if br[0] != 0.0 or br[-1] != 1.0:
            raise ValueError(f"breakpoints must run from 0 to 1, got {br[0]} to {br[-1]}")
        if len(self.coeffs) != len(br) - 1 or not all(self.coeffs):
            raise ValueError("need one non-empty coefficient list per piece")
        object.__setattr__(self, "breaks", br)
        object.__setattr__(
            self, "coeffs", tuple(tuple(complex(c) for c in cs) for cs in self.coeffs)
        )

    @classmethod
    def constant(cls, value) -> "PiecewisePoly":
        return cls(breaks=(0.0, 1.0), coeffs=((value,),))

    def piece_index(self, x: float) -> int:
        idx = int(np.searchsorted(self.breaks, x, side="right")) - 1
        return min(max(idx, 0), len(self.coeffs) - 1)

    def __call__(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(xs.shape, dtype=complex)
        for i, xi in enumerate(xs):
            out[i] = _horner(self.coeffs[self.piece_index(xi)], xi)
        return out if np.ndim(x) else complex(out[0])

    def is_real(self) -> bool:
        return all(abs(c.imag) < 1e-14 for cs in self.coeffs for c in cs)

    def support(self):
        """Pieces where the polynomial is not identically zero, as merged intervals."""
        raw = [
            (self.breaks[j], self.breaks[j + 1])
            for j, cs in enumerate(self.coeffs)
            if any(abs(c) > 0 for c in cs)
        ]
        return _merge_intervals(raw)


def _horner(cs, x) -> complex:
    """The polynomial with coefficients cs (constant term first) at x, in complex arithmetic."""
    acc = 0.0j
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _merge_intervals(raw):
    if not raw:
        return []
    raw = sorted(raw)
    merged = [list(raw[0])]
    for lo, hi in raw[1:]:
        if lo <= merged[-1][1] + 1e-15:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def _poly_range_on(cs, lo, hi):
    """Exact range [min, max] of a real polynomial on [lo, hi]."""
    vals = []
    coeffs = np.array([c.real for c in cs], dtype=float)
    der = np.polynomial.polynomial.polyder(coeffs) if len(coeffs) > 1 else np.zeros(0)
    crit = [lo, hi]
    if der.size and np.any(der != 0):
        roots = np.polynomial.polynomial.polyroots(der)
        crit += [r.real for r in roots if abs(r.imag) < 1e-12 and lo <= r.real <= hi]
    for x in crit:
        vals.append(float(np.polynomial.polynomial.polyval(x, coeffs)))
    return min(vals), max(vals)


def essential_range(poly: PiecewisePoly, restrict_to=((0.0, 1.0),)):
    """Essential range of a real piecewise polynomial as merged closed intervals.

    restrict_to is a list of intervals (e.g. the coupling support), all of
    [0, 1] by default.  Single points come out as degenerate intervals.
    """
    if not poly.is_real():
        raise ValueError("essential range supported for real coefficients only")
    pieces = []
    for j, cs in enumerate(poly.coeffs):
        lo, hi = poly.breaks[j], poly.breaks[j + 1]
        for rlo, rhi in restrict_to:
            a, b = max(lo, rlo), min(hi, rhi)
            if a < b:
                pieces.append(_poly_range_on(cs, a, b))
    return _merge_intervals(pieces)


def _rect_distance(re_lo, re_hi, im_lo, im_hi, intervals) -> float:
    """Distance from a closed rectangle to a union of real closed intervals (inf for none)."""
    dy = max(im_lo, -im_hi, 0.0)
    return min((float(np.hypot(max(lo - re_hi, re_lo - hi, 0.0), dy)) for lo, hi in intervals),
               default=np.inf)


def interval_set_distance(lam: complex, intervals) -> float:
    """Distance from a complex point to a union of real closed intervals (inf for none)."""
    return _rect_distance(lam.real, lam.real, lam.imag, lam.imag, intervals)


# -------------------------------------------------------------------- model


@dataclass(frozen=True)
class HLModel:
    """Coefficients and boundary angles of the block operator."""

    q: PiecewisePoly
    u: PiecewisePoly
    w: PiecewisePoly
    alpha: float
    beta: float

    def __post_init__(self):
        for name, ang in (("alpha", self.alpha), ("beta", self.beta)):
            if not (0.0 < ang < np.pi) or abs(np.sin(ang)) < 1e-12:
                raise ValueError(f"{name} must lie in (0, pi) with nonzero sine")

    @property
    def coupling_support(self):
        return self.w.support()

    def essran(self):
        return essential_range(self.u)

    def essran_on_support(self):
        return essential_range(self.u, restrict_to=self.coupling_support)

    def breakpoints(self):
        return sorted(set(self.q.breaks) | set(self.u.breaks) | set(self.w.breaks))


def model_from_dict(data: dict) -> HLModel:
    def dec(obj):
        return PiecewisePoly(
            breaks=tuple(obj["breaks"]),
            coeffs=tuple(tuple(complex(re, im) for re, im in cs) for cs in obj["coeffs"]),
        )

    u = dec(data["u"])
    if not u.is_real():  # essential_range, the singular set, is real intervals
        raise ValueError("u must have real coefficients")
    return HLModel(q=dec(data["q"]), u=u, w=dec(data["w"]), alpha=float(data["alpha"]),
                   beta=float(data["beta"]))


# ------------------------------------------------------------------ shooting

@dataclass(frozen=True)
class ShootingResult:
    """End values at x = 1 of the two canonical initial-value solutions.

    The solutions' values are e^log_scale times those stored; log_scale is 0
    unless a transfer was rescaled (see _constant_transfer).
    """

    y1_at_1: complex
    dy1_at_1: complex
    y2_at_1: complex
    dy2_at_1: complex
    log_scale: float = 0.0

    def wronskian(self) -> complex:
        """Wronskian of the stored values: e^(-2 log_scale) times the solutions' (1)."""
        return self.y1_at_1 * self.dy2_at_1 - self.dy1_at_1 * self.y2_at_1


def _constant_transfer(c, h, y):
    """Exact propagation of y'' = c y over width h for two solutions at once.

    The transfer matrix [[cosh(s h), sinh(s h)/s], [c sinh(s h)/s, cosh(s h)]]
    with s^2 = c is even in s, so any square root serves; a short series
    replaces it when |s h| is tiny (exactly 1, h, 0 at c = 0).

    Returns (values, shift) with the end values e^shift times values.  shift
    is 0 unless Re(s h) > RESCALE_EXPONENT for the principal root s, where
    cosh and sinh approach the edge of double range: the matrix is then
    scaled by e^(-Re(s h)), a positive factor that leaves every ratio of the
    values unchanged.  Raises WeylScopeError when the values leave double
    range.
    """
    t = c * h * h
    shift = 0.0
    try:
        if abs(t) < 1e-6:
            ch = 1.0 + t / 2.0 + t * t / 24.0
            sh = h * (1.0 + t / 6.0 + t * t / 120.0)
        else:
            s = cmath.sqrt(c)
            x = s * h
            if x.real > RESCALE_EXPONENT:
                # e^(-Re x) cosh x and e^(-Re x) sinh x are e^(i Im x) / 2 up to e^(-2 Re x)
                shift = x.real
                ch = cmath.exp(1j * x.imag) / 2.0
                sh = ch / s
            else:
                ch = cmath.cosh(x)
                sh = cmath.sinh(x) / s
    except OverflowError as exc:
        raise WeylScopeError(f"transfer over width {h} overflows at c={c}") from exc
    a, b, p, d = y
    out = (ch * a + sh * b, c * sh * a + ch * b, ch * p + sh * d, c * sh * p + ch * d)
    if not all(cmath.isfinite(v) for v in out):
        raise WeylScopeError(f"solutions leave double range at c={c}")
    return out, shift


# commutator-free fourth-order Magnus step: Gauss-node offset and weights
_GAUSS_OFFSET = 3.0**0.5 / 6.0
_MAGNUS_A = 0.25 + _GAUSS_OFFSET
_MAGNUS_B = 0.25 - _GAUSS_OFFSET


def _magnus_step(coeff, x, h, y):
    """One fourth-order step of width h from x: two exact transfers of width h/2.

    The coefficients of the two transfers mix coeff at the Gauss nodes of
    [x, x + h] (Blanes & Moan 2006), so each step is unimodular.  The error
    control compares values across steps, so a rescaled transfer raises
    WeylScopeError here.
    """
    c1 = coeff(x + (0.5 - _GAUSS_OFFSET) * h)
    c2 = coeff(x + (0.5 + _GAUSS_OFFSET) * h)
    for c in (2.0 * (_MAGNUS_A * c1 + _MAGNUS_B * c2), 2.0 * (_MAGNUS_B * c1 + _MAGNUS_A * c2)):
        y, shift = _constant_transfer(c, 0.5 * h, y)
        if shift:
            raise WeylScopeError(f"transfer over width {0.5 * h} overflows at c={c}")
    return y


def _magnus_piece(coeff, x0, x1, y, tol):
    """Adaptive Magnus stepping of y'' = coeff(x) y for two solutions at once.

    One step of h against two of h/2 gives the error estimate, controlled
    per unit step so the accumulated error across [0,1] stays near tol; an
    accepted step carries their Richardson extrapolation.
    """
    x = x0
    span = x1 - x0
    h = span / 8.0
    hmin = span * 1e-14
    while x < x1 - 1e-15 * max(1.0, abs(x1)):
        h = min(h, x1 - x)
        big = _magnus_step(coeff, x, h, y)
        half = _magnus_step(coeff, x + 0.5 * h, 0.5 * h, _magnus_step(coeff, x, 0.5 * h, y))
        err = max(abs(p - q) for p, q in zip(half, big)) / 15.0
        scale = tol * max(1.0, *(abs(v) for v in half)) * (h / span + 1e-3)
        if err <= scale:
            x += h
            y = tuple(p + (p - q) / 15.0 for p, q in zip(half, big))
            h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
        else:
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)
            if h < hmin:
                raise WeylScopeError("step size underflow in adaptive integrator")
    return y


def shoot(model: HLModel, lam: complex, tol: float = DEFAULT_ODE_TOL) -> ShootingResult:
    """Integrate the scalar reduction across [0,1] for both canonical starts.

    Initial values are (cos a, sin a) and (-sin a, cos a); the reduced
    coefficient is q - lam + w^2/(lam - u), which is singular only on the
    essential range of u over the coupling support, kept at distance 1e-8.
    A piece on which q, u and w are all constant is propagated by its exact
    transfer matrix; a piece with a non-constant polynomial takes adaptive
    Magnus steps, each a product of two exact transfers, and tol applies to
    those pieces alone.  An exact transfer past double range is carried
    scaled, its exponent summed into log_scale.  Raises WeylScopeError
    when the solutions leave double range or the steps cannot meet tol.
    """
    lam = complex(lam)
    sing = model.essran_on_support()
    if interval_set_distance(lam, sing) <= 1e-8:
        raise WeylScopeError(f"lambda={lam} within 1e-8 of the singular set {sing}")

    ca, sa = np.cos(model.alpha), np.sin(model.alpha)
    y = (complex(ca), complex(sa), complex(-sa), complex(ca))
    log_scale = 0.0
    pts = model.breakpoints()
    for a, b in zip(pts, pts[1:]):
        mid = 0.5 * (a + b)
        qc = model.q.coeffs[model.q.piece_index(mid)]
        uc = model.u.coeffs[model.u.piece_index(mid)]
        wc = model.w.coeffs[model.w.piece_index(mid)]
        coupled = any(abs(cf) > 0 for cf in wc)
        if not any(cf for cs in (qc, uc, wc) for cf in cs[1:]):
            c = qc[0] - lam
            if coupled:
                c += wc[0] * wc[0] / (lam - uc[0])
            y, shift = _constant_transfer(c, b - a, y)
            log_scale += shift
            continue

        def coeff(x, qc=qc, uc=uc, wc=wc, coupled=coupled):
            val = _horner(qc, x) - lam
            if coupled:
                wx = _horner(wc, x)
                val += wx * wx / (lam - _horner(uc, x))
            return val

        y = _magnus_piece(coeff, a, b, y, tol)
    return ShootingResult(y1_at_1=y[0], dy1_at_1=y[1], y2_at_1=y[2], dy2_at_1=y[3],
                          log_scale=log_scale)


def _robin_at_1(model: HLModel, y: complex, dy: complex) -> complex:
    """y'(1) + cot(beta) y(1): the right boundary form of one solution."""
    return dy + (1.0 / np.tan(model.beta)) * y


def bc_denominator(model: HLModel, lam: complex) -> complex:
    """The boundary-condition denominator whose zeros are the eigenvalues, shot at ROOT_ODE_TOL.

    Where the shoot rescaled, it is e^(-log_scale) times the denominator:
    the zeros and the argument that _winding follows are unchanged.
    """
    res = shoot(model, lam, ROOT_ODE_TOL)
    return _robin_at_1(model, res.y2_at_1, res.dy2_at_1)


def _shoot_m(model: HLModel, lam: complex):
    """Shoot once at lam; return the 2x2 M-matrix and |boundary denominator|.

    Where the shoot rescaled, m11 and m22 are ratios of values at one scale,
    m12 = sin(alpha) / den takes the factor e^(-log_scale) and may underflow,
    and |den| is reported as inf: it lies beyond e^RESCALE_EXPONENT times the
    stored one.
    """
    res = shoot(model, lam)
    den = _robin_at_1(model, res.y2_at_1, res.dy2_at_1)
    if abs(den) < 1e-12 * math.exp(-res.log_scale):
        raise WeylScopeError(f"boundary denominator vanishes at lam={lam}")
    sa, ca = np.sin(model.alpha), np.cos(model.alpha)
    m11 = -res.y2_at_1 / den
    m12 = sa / den
    m22 = sa * ca + sa * sa * _robin_at_1(model, res.y1_at_1, res.dy1_at_1) / den
    if res.log_scale:
        m12 = m12 * math.exp(-res.log_scale)
    den_abs = np.inf if res.log_scale else abs(den)
    return np.array([[m11, m12], [m12, m22]], dtype=complex), den_abs


def m_matrix(model: HLModel, lam: complex) -> np.ndarray:
    """The symmetric 2x2 M-matrix at lam.

    Raises WeylScopeError when the shared denominator vanishes, i.e.
    exactly when lam is an eigenvalue of the restriction.
    """
    return _shoot_m(model, lam)[0]


# -------------------------------------------------------- eigenvalue location


def _boundary_path(re_lo, re_hi, im_lo, im_hi):
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    ]
    pts = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        for t in np.linspace(0.0, 1.0, WINDING_PER_SIDE, endpoint=False):
            pts.append(a + t * (b - a))
    pts.append(corners[0])
    return pts


def _winding(model, rect):
    """Winding number of the denominator along the rectangle boundary.

    Phase increments above pi/2 trigger bisection of the offending segment,
    so the count is reliable once the samples resolve the argument.  Raises
    WeylScopeError when a jump is still unresolved after
    WINDING_MAX_REFINE bisections.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    pts = _boundary_path(re_lo, re_hi, im_lo, im_hi)
    vals = [bc_denominator(model, z) for z in pts]
    total = 0.0
    i = 0
    refinements = 0
    while i < len(pts) - 1:
        a, b = vals[i], vals[i + 1]
        if a == 0 or b == 0:
            raise WeylScopeError("denominator vanishes on the search boundary")
        dphi = np.angle(b / a)
        if abs(dphi) > np.pi / 2:
            if refinements >= WINDING_MAX_REFINE:
                raise WeylScopeError(
                    f"winding refinement cap {WINDING_MAX_REFINE} reached on {rect}"
                )
            mid = 0.5 * (pts[i] + pts[i + 1])
            pts.insert(i + 1, mid)
            vals.insert(i + 1, bc_denominator(model, mid))
            refinements += 1
            continue
        total += dphi
        i += 1
    count = total / (2.0 * np.pi)
    if abs(count - round(count)) > 0.2:
        raise WeylScopeError(f"winding number did not settle: {count}")
    return int(round(count))


def _newton_polish(model, lam):
    """Newton on the denominator with a central-difference derivative.

    Returns None when the derivative vanishes or the step has not dropped
    below 1e-11 relative within NEWTON_MAX_ITER iterations.
    """
    step_scale = 1e-6
    for _ in range(NEWTON_MAX_ITER):
        f0 = bc_denominator(model, lam)
        h = step_scale * max(1.0, abs(lam))
        fp = (bc_denominator(model, lam + h) - bc_denominator(model, lam - h)) / (2 * h)
        if fp == 0:
            return None
        delta = f0 / fp
        lam = lam - delta
        if abs(delta) < 1e-11 * max(1.0, abs(lam)):
            return lam
    return None


def _check_region(re_lo, re_hi, im_lo, im_hi):
    """Raise ValueError unless re_lo < re_hi and im_lo < im_hi."""
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ValueError(f"region bounds must increase, got {[re_lo, re_hi, im_lo, im_hi]}")


def eigenvalues_in(model: HLModel, re_lo, re_hi, im_lo, im_hi):
    """All denominator zeros in the rectangle, by subdivision plus Newton.

    The closed rectangle must keep a distance of 1e-3 from the singular set
    (the essential range of u over the coupling support), where the winding
    number of the denominator is no zero count, and its boundary the same
    distance from the whole essential range of u; otherwise it raises
    WeylScopeError.  Located zeros are polished to 1e-10 and the
    final count is checked against the winding number of the whole region.
    A Newton run that does not converge counts as a miss: the rectangle is
    subdivided, down to ROOT_MAX_DEPTH levels, across its longer edge, at
    the midpoint of a horizontal edge or HORIZONTAL_CUT of the way up a
    vertical one.  Raises ValueError unless
    re_lo < re_hi and im_lo < im_hi.
    """
    _check_region(re_lo, re_hi, im_lo, im_hi)
    if _rect_distance(re_lo, re_hi, im_lo, im_hi, model.essran_on_support()) <= 1e-3:
        raise WeylScopeError("search region within 1e-3 of the singular set")
    edges = [(re_lo, re_hi, im_lo, im_lo), (re_lo, re_hi, im_hi, im_hi),
             (re_lo, re_lo, im_lo, im_hi), (re_hi, re_hi, im_lo, im_hi)]
    if min(_rect_distance(*edge, model.essran()) for edge in edges) <= 1e-3:
        raise WeylScopeError("search-region boundary within 1e-3 of the essential range")

    total = _winding(model, (re_lo, re_hi, im_lo, im_hi))
    roots: list[complex] = []
    stack = [((re_lo, re_hi, im_lo, im_hi), total, 0)]
    while stack:
        rect, count, depth = stack.pop()
        if count == 0:
            continue
        rlo, rhi, ilo, ihi = rect
        diag = np.hypot(rhi - rlo, ihi - ilo)
        if count == 1 or diag < 1e-3:
            seed = complex(0.5 * (rlo + rhi), 0.5 * (ilo + ihi))
            root = _newton_polish(model, seed)
            ok = root is not None and (
                rlo - 1e-6 <= root.real <= rhi + 1e-6
                and ilo - 1e-6 <= root.imag <= ihi + 1e-6
                and abs(bc_denominator(model, root)) < 1e-9
            )
            if ok and count == 1:
                roots.append(root)
                continue
            if depth >= ROOT_MAX_DEPTH:
                raise WeylScopeError(f"could not isolate zero in {rect}")
        # split along the longer edge
        if (rhi - rlo) >= (ihi - ilo):
            cut = 0.5 * (rlo + rhi)
            subs = [(rlo, cut, ilo, ihi), (cut, rhi, ilo, ihi)]
        else:
            cut = ilo + HORIZONTAL_CUT * (ihi - ilo)
            subs = [(rlo, rhi, ilo, cut), (rlo, rhi, cut, ihi)]
        for sub in subs:
            c = _winding(model, sub)
            if c:
                stack.append((sub, c, depth + 1))

    roots = _dedupe(roots)
    if len(roots) != total:
        raise WeylScopeError(f"found {len(roots)} zeros but boundary winding is {total}")
    return sorted(roots, key=lambda z: (z.real, z.imag))


def _dedupe(roots):
    out: list[complex] = []
    for r in roots:
        if all(abs(r - s) > 1e-7 * max(1.0, abs(r)) for s in out):
            out.append(r)
    return out


# ----------------------------------------------------------- discretization


def discretize(model: HLModel, n: int):
    """Second-order finite-difference matrix of the full block operator.

    Returns (matrix, meta): the 2(n+1) square matrix on values at nodes
    i/n with Robin rows from ghost-point elimination, real when q, u and w
    are real and complex otherwise, and meta holding the
    nodes, the trapezoid weights and the coupling-support node mask.
    """
    if n < MIN_FD_N:
        raise ValueError(f"need n >= {MIN_FD_N}")
    h = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)
    npts = n + 1
    q, w, u = (c if c.imag.any() else c.real for c in (model.q(x), model.w(x), model.u(x)))
    # filled in place: the blocks are views, so no block copy is ever made
    mat = np.zeros((2 * npts, 2 * npts), dtype=np.result_type(q, w, u))
    lap = mat[:npts, :npts]
    for i in range(1, n):
        lap[i, i - 1] = lap[i, i + 1] = -1.0 / h**2
        lap[i, i] = 2.0 / h**2
    cot_a = 1.0 / np.tan(model.alpha)
    cot_b = 1.0 / np.tan(model.beta)
    # ghost elimination of y'(0) + cot(alpha) y(0) = 0 and y'(1) + cot(beta) y(1) = 0
    lap[0, 0] = (2.0 - 2.0 * h * cot_a) / h**2
    lap[0, 1] = -2.0 / h**2
    lap[n, n] = (2.0 + 2.0 * h * cot_b) / h**2
    lap[n, n - 1] = -2.0 / h**2
    diag = np.arange(npts)
    lap[diag, diag] += q
    mat[diag, npts + diag] = mat[npts + diag, diag] = w
    mat[npts + diag, npts + diag] = u
    weights = np.full(npts, h)
    weights[0] = weights[-1] = h / 2.0
    mask = np.abs(w) > 0
    meta = {"nodes": x, "weights": weights, "support_mask": mask}
    return mat, meta


def _projector_diag(meta) -> np.ndarray:
    npts = meta["nodes"].size
    return np.concatenate([np.ones(npts), meta["support_mask"].astype(float)])


def _resolvent_dense(mat, lam):
    a = mat - lam * np.eye(mat.shape[0])
    try:
        return np.linalg.solve(a, np.eye(mat.shape[0], dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise WeylScopeError(str(exc)) from exc


def _jump_norms(model: HLModel, n: int):
    """The map lam -> (full, bordered) of two-sided resolvent jump norms.

    The map returns None for lam within SCAN_SINGULAR_GUARD of the singular
    set, the essential range of u over the coupling support.

    Both are norms of R(lam) - R(conj lam) for the n-point discretization,
    taken in the trapezoid-weighted inner product, in which the
    discretization of real coefficients is self-adjoint: ||D^1/2 J D^-1/2||_2
    with D the weights on both components.  A second-component node off the
    coupling support decouples (its row and column hold only u there), so
    ran P is reducing: the bordered jump is the jump of the restriction to
    the kept nodes, and the full jump is the larger of it and the scalar
    jumps at the decoupled nodes.  For real coefficients one eigvalsh of the
    weighted, symmetric restriction gives every point in O(n), at most
    2/|Im lam|; complex coefficients solve on the restriction at lam and
    conj lam.
    """
    sing = model.essran_on_support()
    mat, meta = discretize(model, n)
    keep = _projector_diag(meta) > 0
    root = np.sqrt(np.tile(meta["weights"], 2)[keep])
    u_off = mat.diagonal()[~keep]
    sub = mat[np.ix_(keep, keep)]
    del mat  # only the restriction is used from here on; free the full matrix
    if not np.iscomplexobj(sub):
        sub *= root[:, None]
        sub /= root[None, :]
        sub += sub.T
        sub *= 0.5
        mu = np.linalg.eigvalsh(sub)

        def bordered(lam):
            eps = abs(lam.imag)
            return float(np.max(2.0 * eps / ((mu - lam.real) ** 2 + eps**2)))
    else:
        def bordered(lam):
            jump = _resolvent_dense(sub, lam) - _resolvent_dense(sub, np.conj(lam))
            return matrix_norm2(root[:, None] * jump / root[None, :])

    def norms(lam):
        if interval_set_distance(lam, sing) <= SCAN_SINGULAR_GUARD:
            return None
        inner = bordered(lam)
        off = np.abs(1.0 / (u_off - lam) - 1.0 / (u_off - np.conj(lam)))
        return max(inner, float(off.max(initial=0.0))), inner

    return norms


SCAN_HEADER = ("re_lambda", "im_lambda", "m11_re", "m11_im", "m12_re", "m12_im", "m21_re",
               "m21_im", "m22_re", "m22_im", "denom_abs", "full_jump", "bordered_jump")


def scan_rows(model: HLModel, re_points, eps_values, n: int):
    """Rows of M-matrix entries, |denominator| and jump norms over a grid.

    One row per (re, eps), in grid order, with the columns of SCAN_HEADER: re,
    eps, the real and imaginary parts of m11, m12, m21, m22, |denominator|,
    and the full and bordered norms of R(x + i|eps|) - R(x - i|eps|) (see
    _jump_norms) on the n-point discretization.  M entries and |denominator|
    are NaN where shooting fails, and |denominator| is inf where the shoot
    rescaled (see _shoot_m); jumps are NaN within 1e-3 of the singular set.
    The jumps are trapezoid-weighted norms, from one eigvalsh per scan for
    real coefficients and then bounded by 2/|eps|.
    """
    jump_norms = _jump_norms(model, n)
    nan = complex(np.nan, np.nan)
    rows = []
    for x0 in re_points:
        for eps in eps_values:
            jumps = jump_norms(complex(x0, abs(eps))) or (np.nan, np.nan)
            try:
                m, den_abs = _shoot_m(model, complex(x0, eps))
                mvals = m.ravel()
            except WeylScopeError:
                mvals, den_abs = (nan,) * 4, np.nan
            row = [x0, eps]
            for v in mvals:
                row.extend([v.real, v.imag])
            row.extend([den_abs, *jumps])
            rows.append(row)
    return rows


def reducing_residual(model: HLModel, lam: complex, n: int, mask_override=None) -> float:
    """Defect of the coupling-support subspace being reducing for the resolvent.

    |(I-P) R P| + |P R (I-P)| on the discretization, in the trapezoid-weighted
    norm of the jumps; exactly zero in exact arithmetic because the
    off-support second component decouples.  mask_override substitutes a
    (wrong) support mask, as a negative control.
    """
    mat, meta = discretize(model, n)
    if mask_override is not None:
        meta = dict(meta)
        meta["support_mask"] = np.asarray(mask_override, dtype=bool)
    p = _projector_diag(meta)
    root = np.sqrt(np.tile(meta["weights"], 2))
    r = root[:, None] * _resolvent_dense(mat, lam) / root[None, :]
    off = (1.0 - p)[:, None] * r * p[None, :]
    off2 = p[:, None] * r * (1.0 - p)[None, :]
    return float(matrix_norm2(off) + matrix_norm2(off2))
