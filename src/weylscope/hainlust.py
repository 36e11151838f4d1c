"""Block operator on [0,1] coupling a Schroedinger part to a multiplier.

The operator acts on pairs (y, z) as

    ( -y'' + q y + w z ,  w y + u z )

with Robin-type boundary conditions at both ends parametrized by angles
alpha, beta.  Its 2x2 M-matrix is computed by shooting on the scalar
reduction -y'' + (q - lam) y + w^2/(lam - u) y = 0; eigenvalues are zeros
of the boundary-condition denominator, located by the argument principle
and polished by Newton; a second-order finite-difference discretization
serves as an independent oracle for spectra, resolvents and the bordered
resolvent scans.

Coefficients are piecewise polynomials with explicit breakpoints, which
makes essential ranges exact and lets the integrator restart cleanly at
the kinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AtEigenvalueError,
    CoefficientSingularError,
    ContourHitsEssranError,
    GridHitsEssranWError,
    LambdaInSpectrumError,
    NoConvergenceError,
    ToleranceNotMetError,
    WeylScopeError,
)
from .numerics import matrix_norm2

DEFAULT_ODE_TOL = 1e-10
MIN_FD_N = 32
# _winding: boundary samples per rectangle side, bisection cap per boundary
WINDING_PER_SIDE = 32
WINDING_MAX_REFINE = 4000


# ----------------------------------------------------------- piecewise pieces


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial on [0, 1]: breakpoints and global-variable coefficients.

    coeffs[j] holds the coefficients (constant term first) of the polynomial
    valid on [breaks[j], breaks[j+1]].
    """

    breaks: tuple
    coeffs: tuple

    def __post_init__(self):
        br = tuple(float(b) for b in self.breaks)
        if len(br) < 2 or any(a >= b for a, b in zip(br, br[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if len(self.coeffs) != len(br) - 1:
            raise ValueError("need one coefficient list per piece")
        object.__setattr__(self, "breaks", br)
        object.__setattr__(
            self, "coeffs", tuple(tuple(complex(c) for c in cs) for cs in self.coeffs)
        )

    @classmethod
    def constant(cls, value, lo: float = 0.0, hi: float = 1.0) -> "PiecewisePoly":
        return cls(breaks=(lo, hi), coeffs=((value,),))

    def piece_index(self, x: float) -> int:
        idx = int(np.searchsorted(self.breaks, x, side="right")) - 1
        return min(max(idx, 0), len(self.coeffs) - 1)

    def __call__(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(xs.shape, dtype=complex)
        for i, xi in enumerate(xs):
            cs = self.coeffs[self.piece_index(xi)]
            acc = 0.0 + 0.0j
            for c in reversed(cs):
                acc = acc * xi + c
            out[i] = acc
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


def essential_range(poly: PiecewisePoly, restrict_to=None):
    """Essential range of a real piecewise polynomial as merged closed intervals.

    restrict_to is an optional list of intervals (e.g. the coupling support);
    full range over [0,1] when omitted.  Single points come out as degenerate
    intervals.
    """
    if not poly.is_real():
        raise ValueError("essential range supported for real coefficients only")
    pieces = []
    for j, cs in enumerate(poly.coeffs):
        lo, hi = poly.breaks[j], poly.breaks[j + 1]
        if restrict_to is not None:
            for rlo, rhi in restrict_to:
                a, b = max(lo, rlo), min(hi, rhi)
                if a < b:
                    pieces.append(_poly_range_on(cs, a, b))
        else:
            pieces.append(_poly_range_on(cs, lo, hi))
    return _merge_intervals(pieces)


def interval_set_distance(lam: complex, intervals) -> float:
    """Distance from a complex point to a union of real closed intervals."""
    if not intervals:
        return np.inf
    best = np.inf
    for lo, hi in intervals:
        dx = 0.0 if lo <= lam.real <= hi else min(abs(lam.real - lo), abs(lam.real - hi))
        best = min(best, float(np.hypot(dx, lam.imag)))
    return best


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
        pts = sorted(set(self.q.breaks) | set(self.u.breaks) | set(self.w.breaks))
        return [p for p in pts if 0.0 <= p <= 1.0]


def model_to_dict(model: HLModel) -> dict:
    def enc(p: PiecewisePoly):
        return {
            "breaks": list(p.breaks),
            "coeffs": [[[c.real, c.imag] for c in cs] for cs in p.coeffs],
        }

    return {
        "type": "hainlust",
        "q": enc(model.q),
        "u": enc(model.u),
        "w": enc(model.w),
        "alpha": model.alpha,
        "beta": model.beta,
    }


def model_from_dict(data: dict) -> HLModel:
    def dec(obj):
        return PiecewisePoly(
            breaks=tuple(obj["breaks"]),
            coeffs=tuple(tuple(complex(re, im) for re, im in cs) for cs in obj["coeffs"]),
        )

    return HLModel(
        q=dec(data["q"]),
        u=dec(data["u"]),
        w=dec(data["w"]),
        alpha=float(data["alpha"]),
        beta=float(data["beta"]),
    )


# ------------------------------------------------------------------ shooting

# Dormand-Prince 5(4) tableau
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _rk45_piece(coeff, x0, x1, y, tol):
    """Adaptive embedded stepping of y'' = coeff(x) y for two solutions at once.

    y = (y1, y1', y2, y2') as plain complex scalars; error controlled per
    unit step so the accumulated error across [0,1] stays near tol.
    """
    a, b, c, d = y
    x = x0
    span = x1 - x0
    h = span / 8.0
    hmin = span * 1e-14

    def stage(cx, sa, sb, sc, sd):
        return sb, cx * sa, sd, cx * sc

    while x < x1 - 1e-15 * max(1.0, abs(x1)):
        h = min(h, x1 - x)
        ks = []
        for i in range(7):
            sa, sb, sc, sd = a, b, c, d
            row = _DP_A[i]
            for j in range(len(row)):
                aij = row[j]
                if aij:
                    kj = ks[j]
                    w = h * aij
                    sa += w * kj[0]
                    sb += w * kj[1]
                    sc += w * kj[2]
                    sd += w * kj[3]
            ks.append(stage(coeff(x + _DP_C[i] * h), sa, sb, sc, sd))
        na, nb, nc, nd = a, b, c, d
        ea = eb = ec = ed = 0.0j
        for w5, w4, k in zip(_DP_B5, _DP_B4, ks):
            if w5:
                na += h * w5 * k[0]
                nb += h * w5 * k[1]
                nc += h * w5 * k[2]
                nd += h * w5 * k[3]
            dw = w5 - w4
            if dw:
                ea += h * dw * k[0]
                eb += h * dw * k[1]
                ec += h * dw * k[2]
                ed += h * dw * k[3]
        err = max(abs(ea), abs(eb), abs(ec), abs(ed))
        mag = max(abs(na), abs(nb), abs(nc), abs(nd), 1.0)
        scale = tol * mag * (h / span + 1e-3)
        if err <= scale:
            x += h
            a, b, c, d = na, nb, nc, nd
            h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
        else:
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)
            if h < hmin:
                raise ToleranceNotMetError("step size underflow in adaptive integrator")
    return a, b, c, d


@dataclass(frozen=True)
class ShootingResult:
    """End values at x = 1 of the two canonical initial-value solutions."""

    y1_at_1: complex
    dy1_at_1: complex
    y2_at_1: complex
    dy2_at_1: complex
    lam: complex
    ode_tol: float

    def wronskian(self) -> complex:
        return self.y1_at_1 * self.dy2_at_1 - self.dy1_at_1 * self.y2_at_1


def shoot(model: HLModel, lam: complex, tol: float = DEFAULT_ODE_TOL) -> ShootingResult:
    """Integrate the scalar reduction across [0,1] for both canonical starts.

    Initial values are (cos a, sin a) and (-sin a, cos a); the reduced
    coefficient is q - lam + w^2/(lam - u), which is singular only on the
    essential range of u over the coupling support, kept at distance 1e-8.
    """
    lam = complex(lam)
    sing = model.essran_on_support()
    if interval_set_distance(lam, sing) <= 1e-8:
        raise CoefficientSingularError(
            f"lambda={lam} within 1e-8 of the singular set {sing}"
        )

    ca, sa = np.cos(model.alpha), np.sin(model.alpha)
    y = (complex(ca), complex(sa), complex(-sa), complex(ca))
    pts = model.breakpoints()
    if pts[0] > 0.0:
        pts = [0.0] + pts
    if pts[-1] < 1.0:
        pts = pts + [1.0]
    for a, b in zip(pts, pts[1:]):
        mid = 0.5 * (a + b)
        qc = model.q.coeffs[model.q.piece_index(mid)]
        uc = model.u.coeffs[model.u.piece_index(mid)]
        wc = model.w.coeffs[model.w.piece_index(mid)]
        coupled = any(abs(cf) > 0 for cf in wc)

        def coeff(x, qc=qc, uc=uc, wc=wc, coupled=coupled):
            qx = 0.0j
            for cf in reversed(qc):
                qx = qx * x + cf
            val = qx - lam
            if coupled:
                wx = 0.0j
                for cf in reversed(wc):
                    wx = wx * x + cf
                ux = 0.0j
                for cf in reversed(uc):
                    ux = ux * x + cf
                val += wx * wx / (lam - ux)
            return val

        y = _rk45_piece(coeff, a, b, y, tol)
    return ShootingResult(
        y1_at_1=y[0], dy1_at_1=y[1], y2_at_1=y[2], dy2_at_1=y[3], lam=lam, ode_tol=tol
    )


def bc_denominator(model: HLModel, lam: complex, tol: float = DEFAULT_ODE_TOL) -> complex:
    """The boundary-condition denominator whose zeros are the eigenvalues."""
    res = shoot(model, lam, tol)
    return res.dy2_at_1 + res.y2_at_1 / np.tan(model.beta)


def _shoot_m(model: HLModel, lam: complex, tol: float):
    """Shoot once at lam; return the 2x2 M-matrix and the boundary denominator."""
    res = shoot(model, lam, tol)
    cot_b = 1.0 / np.tan(model.beta)
    den = res.dy2_at_1 + cot_b * res.y2_at_1
    if abs(den) < 1e-12:
        raise AtEigenvalueError(f"boundary denominator vanishes at lam={lam}")
    sa, ca = np.sin(model.alpha), np.cos(model.alpha)
    m11 = -res.y2_at_1 / den
    m12 = sa / den
    m22 = sa * ca + sa * sa * (res.dy1_at_1 + cot_b * res.y1_at_1) / den
    return np.array([[m11, m12], [m12, m22]], dtype=complex), den


def m_matrix(model: HLModel, lam: complex, tol: float = DEFAULT_ODE_TOL) -> np.ndarray:
    """The symmetric 2x2 M-matrix at lam.

    Raises AtEigenvalueError when the shared denominator vanishes, i.e.
    exactly when lam is an eigenvalue of the restriction.
    """
    return _shoot_m(model, lam, tol)[0]


# -------------------------------------------------------- eigenvalue location


def _boundary_path(re_lo, re_hi, im_lo, im_hi, per_side):
    corners = [
        complex(re_lo, im_lo),
        complex(re_hi, im_lo),
        complex(re_hi, im_hi),
        complex(re_lo, im_hi),
    ]
    pts = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        for t in np.linspace(0.0, 1.0, per_side, endpoint=False):
            pts.append(a + t * (b - a))
    pts.append(corners[0])
    return pts


def _winding(model, rect, tol):
    """Winding number of the denominator along the rectangle boundary.

    Phase increments above pi/2 trigger bisection of the offending segment,
    so the count is reliable once the samples resolve the argument.  Raises
    NoConvergenceError when a jump is still unresolved after
    WINDING_MAX_REFINE bisections.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    pts = _boundary_path(re_lo, re_hi, im_lo, im_hi, WINDING_PER_SIDE)
    vals = [bc_denominator(model, z, tol) for z in pts]
    total = 0.0
    i = 0
    pts = list(pts)
    refinements = 0
    while i < len(pts) - 1:
        a, b = vals[i], vals[i + 1]
        if a == 0 or b == 0:
            raise NoConvergenceError("denominator vanishes on the search boundary")
        dphi = np.angle(b / a)
        if abs(dphi) > np.pi / 2:
            if refinements >= WINDING_MAX_REFINE:
                raise NoConvergenceError(
                    f"winding refinement cap {WINDING_MAX_REFINE} reached on {rect}"
                )
            mid = 0.5 * (pts[i] + pts[i + 1])
            pts.insert(i + 1, mid)
            vals.insert(i + 1, bc_denominator(model, mid, tol))
            refinements += 1
            continue
        total += dphi
        i += 1
    count = total / (2.0 * np.pi)
    if abs(count - round(count)) > 0.2:
        raise NoConvergenceError(f"winding number did not settle: {count}")
    return int(round(count))


def _newton_polish(model, lam, tol, maxit=60):
    step_scale = 1e-6
    for _ in range(maxit):
        f0 = bc_denominator(model, lam, tol)
        h = step_scale * max(1.0, abs(lam))
        fp = (bc_denominator(model, lam + h, tol) - bc_denominator(model, lam - h, tol)) / (2 * h)
        if fp == 0:
            break
        delta = f0 / fp
        lam = lam - delta
        if abs(delta) < 1e-11 * max(1.0, abs(lam)):
            return lam
    return lam


def eigenvalues_in(model: HLModel, re_lo, re_hi, im_lo, im_hi,
                   tol: float = 1e-11, max_depth: int = 40):
    """All denominator zeros in the rectangle, by subdivision plus Newton.

    The rectangle boundary must keep a distance of 1e-3 from the essential
    range of the multiplier; located zeros are polished to 1e-10 and the
    final count is checked against the winding number of the whole region.
    """
    essran_full = model.essran()
    for z in _boundary_path(re_lo, re_hi, im_lo, im_hi, 16):
        if interval_set_distance(z, essran_full) <= 1e-3:
            raise ContourHitsEssranError(
                "search-region boundary within 1e-3 of the essential range"
            )
    sing = model.essran_on_support()

    total = _winding(model, (re_lo, re_hi, im_lo, im_hi), tol)
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
            root = _newton_polish(model, seed, tol)
            ok = (
                rlo - 1e-6 <= root.real <= rhi + 1e-6
                and ilo - 1e-6 <= root.imag <= ihi + 1e-6
                and abs(bc_denominator(model, root, tol)) < 1e-9
            )
            if ok and count == 1:
                roots.append(root)
                continue
            if depth >= max_depth:
                raise NoConvergenceError(f"could not isolate zero in {rect}")
        # split along the longer edge, nudging off the singular set
        if (rhi - rlo) >= (ihi - ilo):
            cut = _nudge_cut(0.5 * (rlo + rhi), rhi - rlo, sing)
            subs = [(rlo, cut, ilo, ihi), (cut, rhi, ilo, ihi)]
        else:
            cut = 0.5 * (ilo + ihi)
            subs = [(rlo, rhi, ilo, cut), (rlo, rhi, cut, ihi)]
        for sub in subs:
            c = _winding(model, sub, tol)
            if c:
                stack.append((sub, c, depth + 1))

    roots = _dedupe(roots)
    if len(roots) != total:
        raise NoConvergenceError(
            f"found {len(roots)} zeros but boundary winding is {total}"
        )
    return sorted(roots, key=lambda z: (z.real, z.imag))


def _nudge_cut(cut, width, intervals):
    for _ in range(20):
        if interval_set_distance(complex(cut, 0.0), intervals) > 1e-4:
            return cut
        cut += 0.013 * width
    return cut


def _dedupe(roots, tol=1e-7):
    out: list[complex] = []
    for r in roots:
        if all(abs(r - s) > tol * max(1.0, abs(r)) for s in out):
            out.append(r)
    return out


def real_axis_zero(model: HLModel, x0: float, tol: float = 1e-11,
                   agreement: float = 1e-6) -> float:
    """Polish a real-axis denominator zero approached from both half planes.

    Newton runs separately from x0 + i eps and x0 - i eps; the zero is
    reported only when the two limits agree to the given tolerance, which
    is the guard needed before calling a real point (possibly inside the
    essential range of the multiplier) an eigenvalue.
    """
    eps = 1e-4
    upper = _newton_polish(model, complex(x0, eps), tol)
    lower = _newton_polish(model, complex(x0, -eps), tol)
    if abs(upper - lower) > agreement:
        raise NoConvergenceError(
            f"two-sided limits disagree: {upper} vs {lower}"
        )
    root = 0.5 * (upper + lower)
    if abs(root.imag) > agreement:
        raise NoConvergenceError(f"polished zero {root} is not real")
    return float(root.real)


# ----------------------------------------------------------- discretization


def discretize(model: HLModel, n: int):
    """Second-order finite-difference matrix of the full block operator.

    Returns (matrix, meta): the 2(n+1) square matrix on values at nodes
    i/n with Robin rows from ghost-point elimination, and meta holding the
    nodes, the trapezoid weights and the coupling-support node mask.
    """
    if n < MIN_FD_N:
        raise ValueError(f"need n >= {MIN_FD_N}")
    h = 1.0 / n
    x = np.linspace(0.0, 1.0, n + 1)
    npts = n + 1
    lap = np.zeros((npts, npts), dtype=complex)
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
    qd = np.diag(model.q(x))
    wd = np.diag(model.w(x))
    ud = np.diag(model.u(x))
    top = np.hstack([lap + qd, wd])
    bot = np.hstack([wd, ud])
    mat = np.vstack([top, bot])
    weights = np.full(npts, h)
    weights[0] = weights[-1] = h / 2.0
    mask = np.abs(model.w(x)) > 0
    meta = {"nodes": x, "weights": weights, "support_mask": mask, "h": h}
    return mat, meta


def _projector_diag(meta) -> np.ndarray:
    npts = meta["nodes"].size
    return np.concatenate([np.ones(npts), meta["support_mask"].astype(float)])


def _resolvent_dense(mat, lam):
    a = mat - lam * np.eye(mat.shape[0])
    try:
        return np.linalg.solve(a, np.eye(mat.shape[0], dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise LambdaInSpectrumError(str(exc)) from exc


def _jump_norms(mat, proj, lam):
    """Norms of R(lam) - R(conj lam), uncompressed and compressed by diag(proj)."""
    jump = _resolvent_dense(mat, lam) - _resolvent_dense(mat, np.conj(lam))
    return matrix_norm2(jump), matrix_norm2(proj[:, None] * jump * proj[None, :])


def bordered_scan(model: HLModel, re_points, eps_values, n: int = 400):
    """Two-sided resolvent jumps across the real axis at the given points.

    For each re point and eps the rows report the norm of R(x+i eps) -
    R(x-i eps) both uncompressed and compressed to the subspace pairing the
    full first component with the second component restricted to the
    coupling support.  Every scan point must keep a complex distance of
    1e-3 from the essential range over the coupling support.
    """
    sing = model.essran_on_support()
    mat, meta = discretize(model, n)
    p = _projector_diag(meta)
    rows = []
    for x0 in re_points:
        for eps in eps_values:
            lam = complex(x0, eps)
            if interval_set_distance(lam, sing) <= 1e-3 - 1e-15:
                raise GridHitsEssranWError(
                    f"scan point {lam} within 1e-3 of the singular set"
                )
            full, bordered = _jump_norms(mat, p, lam)
            rows.append(
                {
                    "re_lambda": float(x0),
                    "eps": float(eps),
                    "full_jump": full,
                    "bordered_jump": bordered,
                }
            )
    return rows


def scan_rows(model: HLModel, re_points, eps_values, n: int):
    """Rows of M-matrix entries, |denominator| and jump norms over a grid.

    One row per (re, eps), in grid order: re, eps, the real and imaginary
    parts of m11, m12, m21, m22, |denominator|, full jump, bordered jump.
    M entries and |denominator| are NaN where shooting fails; jumps are NaN
    within 1e-3 of the singular set.  The jumps use the n-point
    discretization, depend on |eps| only and are computed once per
    (re, |eps|).
    """
    sing = model.essran_on_support()
    mat, meta = discretize(model, n)
    p = _projector_diag(meta)
    nan = complex(np.nan, np.nan)
    rows = []
    for x0 in re_points:
        jumps = {}
        for eps in eps_values:
            height = abs(eps)
            if height not in jumps:
                lam = complex(x0, height)
                if interval_set_distance(lam, sing) <= 1e-3 - 1e-15:
                    jumps[height] = (np.nan, np.nan)
                else:
                    jumps[height] = _jump_norms(mat, p, lam)
            try:
                m, den = _shoot_m(model, complex(x0, eps), DEFAULT_ODE_TOL)
                mvals, den_abs = m.ravel(), abs(den)
            except WeylScopeError:
                mvals, den_abs = (nan,) * 4, np.nan
            row = [x0, eps]
            for v in mvals:
                row.extend([v.real, v.imag])
            row.extend([den_abs, *jumps[height]])
            rows.append(row)
    return rows


def reducing_residual(model: HLModel, lam: complex, n: int = 400,
                      mask_override=None) -> float:
    """Defect of the coupling-support subspace being reducing for the resolvent.

    |(I-P) R P| + |P R (I-P)| on the discretization; exactly zero in exact
    arithmetic because the off-support second component decouples.
    mask_override substitutes a (wrong) support mask, as a negative control.
    """
    mat, meta = discretize(model, n)
    if mask_override is not None:
        meta = dict(meta)
        meta["support_mask"] = np.asarray(mask_override, dtype=bool)
    p = _projector_diag(meta)
    r = _resolvent_dense(mat, lam)
    off = (1.0 - p)[:, None] * r * p[None, :]
    off2 = p[:, None] * r * (1.0 - p)[None, :]
    return float(matrix_norm2(off) + matrix_norm2(off2))


def schroedinger_block_resolvent(model: HLModel, lam: complex, n: int = 400) -> np.ndarray:
    """Resolvent of the scalar Schroedinger block alone (oracle for w = 0)."""
    mat, meta = discretize(model, n)
    npts = meta["nodes"].size
    block = mat[:npts, :npts]
    return np.linalg.solve(block - lam * np.eye(npts), np.eye(npts, dtype=complex))
