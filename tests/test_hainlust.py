import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylscope import hainlust
from weylscope.errors import WeylScopeError
from weylscope.hainlust import (
    HLModel,
    PiecewisePoly,
    SCAN_HEADER,
    bc_denominator,
    discretize,
    eigenvalues_in,
    essential_range,
    interval_set_distance,
    m_matrix,
    model_from_dict,
    reducing_residual,
    scan_rows,
    shoot,
)

from oracles import schroedinger_block_resolvent

HALF_PI = np.pi / 2.0


def free_model(u_value=0.0):
    zero = PiecewisePoly.constant(0.0)
    return HLModel(q=zero, u=PiecewisePoly.constant(u_value), w=zero,
                   alpha=HALF_PI, beta=HALF_PI)


def step_model(coupling=1.0):
    """u jumps from 2 to 3 at 1/2; coupling supported on [0, 1/2)."""
    zero = PiecewisePoly.constant(0.0)
    u = PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=((2.0,), (3.0,)))
    w = PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=((coupling,), (0.0,)))
    return HLModel(q=zero, u=u, w=w, alpha=HALF_PI, beta=HALF_PI)


def two_piece_constant_model():
    """q, u and w constant on [0, 0.4) and on [0.4, 1]; complex q, coupled second piece."""
    q = PiecewisePoly(breaks=(0.0, 0.4, 1.0), coeffs=((0.5 + 0.2j,), (-1.0, 0.0)))
    w = PiecewisePoly(breaks=(0.0, 0.4, 1.0), coeffs=((0.0,), (1.5,)))
    return HLModel(q=q, u=PiecewisePoly.constant(3.0), w=w, alpha=1.1, beta=2.0)


def generic_model():
    q = PiecewisePoly(breaks=(0.0, 1.0), coeffs=((0.3, 0.5),))
    u = PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=((2.0,), (3.0,)))
    w = PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=((0.8, 0.2), (0.0,)))
    return HLModel(q=q, u=u, w=w, alpha=1.1, beta=2.0)


# ------------------------------------------------------------ essential range


def test_essran_step_function():
    model = step_model()
    assert model.essran() == [(2.0, 2.0), (3.0, 3.0)]
    assert model.essran_on_support() == [(2.0, 2.0)]


def test_essran_linear_u():
    u = PiecewisePoly(breaks=(0.0, 1.0), coeffs=((0.0, 1.0),))
    assert essential_range(u) == [(0.0, 1.0)]


def test_essran_constant():
    assert essential_range(PiecewisePoly.constant(5.0)) == [(5.0, 5.0)]


def test_essran_joins_ranges_that_touch():
    # u = 2x on [0, 1/2] has range [0, 1], u = 1/2 + x on [1/2, 1] has [1, 3/2]
    u = PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=((0.0, 2.0), (0.5, 1.0)))
    assert essential_range(u) == [(0.0, 1.5)]


@pytest.mark.parametrize("breaks, coeffs", [
    ((0.0, 0.5), ((0.0, 1.0),)),
    ((0.25, 1.0), ((1.0,),)),
    ((0.0, 1.0), ((),)),
    ((0.0, 0.5, 1.0), ((1.0,), ())),
], ids=["ends-before-1", "starts-after-0", "empty-piece", "empty-second-piece"])
def test_piecewise_poly_covers_unit_interval_with_nonempty_pieces(breaks, coeffs):
    with pytest.raises(ValueError):
        PiecewisePoly(breaks=breaks, coeffs=coeffs)


def test_piece_index_is_right_continuous_and_clamped():
    poly = PiecewisePoly(breaks=(0.0, 0.25, 0.5, 1.0), coeffs=((0.0,), (1.0,), (2.0,)))
    points = [0.0, 0.25, 0.5, 1.0, -0.1, 1.1, np.nan, np.inf, -np.inf, np.float64(0.25),
              0.1, 0.3, 0.75]
    assert [poly.piece_index(x) for x in points] == [0, 1, 2, 2, 0, 2, 2, 2, 0, 1, 0, 1, 2]


def test_interval_distance():
    assert interval_set_distance(3.0 + 4.0j, [(0.0, 3.0)]) == pytest.approx(4.0)
    assert interval_set_distance(5.0 + 0.0j, [(0.0, 3.0)]) == pytest.approx(2.0)
    assert interval_set_distance(1.0, []) == np.inf


# ----------------------------------------------------------------- shooting


def test_shoot_closed_form_cosh():
    # free model, lam = -1: second solution is -cosh(x)
    res = shoot(free_model(), -1.0)
    assert abs(res.y2_at_1 + np.cosh(1.0)) < 1e-9
    assert abs(res.dy2_at_1 + np.sinh(1.0)) < 1e-9


def test_shoot_wronskian_conserved():
    res = shoot(generic_model(), 2.0 + 3.0j)
    assert abs(res.wronskian() - 1.0) < 1e-8


def test_shoot_decoupled_ignores_u():
    zero = PiecewisePoly.constant(0.0)
    a = HLModel(q=zero, u=PiecewisePoly.constant(5.0), w=zero, alpha=1.0, beta=1.0)
    b = HLModel(q=zero, u=PiecewisePoly.constant(-7.0), w=zero, alpha=1.0, beta=1.0)
    ra, rb = shoot(a, 1.5 + 0.5j), shoot(b, 1.5 + 0.5j)
    assert abs(ra.y2_at_1 - rb.y2_at_1) < 1e-12
    assert abs(ra.dy1_at_1 - rb.dy1_at_1) < 1e-12


def test_shoot_rejects_singular_coefficient():
    with pytest.raises(WeylScopeError, match=r"lambda=\(2\+0j\) within 1e-8 of the singular set"):
        shoot(step_model(), 2.0)


def test_shoot_allows_essran_without_coupling():
    # u = 5 everywhere but w = 0: the reduced coefficient is regular at 5
    res = shoot(free_model(u_value=5.0), 5.0)
    assert np.isfinite(res.y2_at_1.real)


def test_shoot_exact_transfer_matches_matrix_exponential():
    # reference: exp of each piece's generator [[0, h], [c h, 0]] by eigendecomposition
    model = two_piece_constant_model()
    lam = 4.0 + 2.5j
    ca, sa = np.cos(model.alpha), np.sin(model.alpha)
    fund = np.array([[ca, -sa], [sa, ca]], dtype=complex)
    pieces = [(0.0, 0.4, 0.5 + 0.2j - lam), (0.4, 1.0, -1.0 - lam + 1.5**2 / (lam - 3.0))]
    for a, b, c in pieces:
        h = b - a
        vals, vecs = np.linalg.eig(np.array([[0.0, h], [c * h, 0.0]], dtype=complex))
        fund = vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs) @ fund
    res = shoot(model, lam)
    got = (res.y1_at_1, res.dy1_at_1, res.y2_at_1, res.dy2_at_1)
    for g, ref in zip(got, fund.T.ravel()):
        assert abs(g - ref) <= 1e-13 * abs(ref)


def _one_piece_model(q, u, w):
    def poly(cs):
        return PiecewisePoly(breaks=(0.0, 1.0), coeffs=(cs,))

    return HLModel(q=poly(q), u=poly(u), w=poly(w), alpha=1.1, beta=2.0)


def _taylor_end_values(model, lam, terms=400):
    """(y1, y1', y2, y2') at 1 from the power series of y'' = (c0 + c1 x + c2 x^2) y.

    The coefficient q - lam + w^2/(lam - u) is quadratic for linear q and w
    and constant u; a_{n+2} = sum_k c_k a_{n-k} / ((n+2)(n+1)).
    """
    (q0, q1), (u0,), (w0, w1) = model.q.coeffs[0], model.u.coeffs[0], model.w.coeffs[0]
    d = lam - u0
    c = (q0 - lam + w0 * w0 / d, q1 + 2.0 * w0 * w1 / d, w1 * w1 / d)
    ca, sa = np.cos(model.alpha), np.sin(model.alpha)
    out = []
    for y0, dy0 in ((ca, sa), (-sa, ca)):
        a = [complex(y0), complex(dy0)]
        for n in range(terms - 2):
            a.append(sum(c[k] * a[n - k] for k in range(min(n, 2) + 1)) / ((n + 2) * (n + 1)))
        out += [sum(a), sum(n * an for n, an in enumerate(a))]
    return out


@pytest.mark.parametrize("lam", [2.0 + 3.0j, 10.0 + 1.0j, 50.0 + 0.5j, -20.0 + 0.3j])
@pytest.mark.parametrize("coeffs", [
    ((0.3, 1.5), (2.0,), (0.0, 0.0)),    # linear q, no coupling
    ((0.0, 0.0), (3.0,), (0.8, 0.6)),    # linear w, constant u
    ((-0.4, 2.0), (2.5,), (1.0, -0.5)),  # both
])
def test_shoot_polynomial_piece_matches_taylor_series(coeffs, lam):
    model = _one_piece_model(*coeffs)
    res = shoot(model, lam)
    got = (res.y1_at_1, res.dy1_at_1, res.y2_at_1, res.dy2_at_1)
    for g, ref in zip(got, _taylor_end_values(model, lam)):
        assert abs(g - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("lam", [2.0 + 3.0j, 1.0 + 1.0j, 1.5 + 0.5j, 1.0 + 2.0j, 5.0 + 1.0j,
                                 20.0 + 1.0j])
def test_shoot_wronskian_conserved_to_rounding(lam):
    # every step is a product of unimodular transfers
    assert abs(shoot(generic_model(), lam).wronskian() - 1.0) <= 1e-13


def test_shoot_zero_coefficient_gives_linear_solutions():
    # lam = q = 0 on both uncoupled pieces: y'' = 0, so y = y(0) + y'(0) x
    zero2 = PiecewisePoly(breaks=(0.0, 0.3, 1.0), coeffs=((0.0,), (0.0,)))
    model = HLModel(q=zero2, u=PiecewisePoly.constant(5.0), w=zero2, alpha=1.1, beta=2.0)
    res = shoot(model, 0.0)
    ca, sa = np.cos(model.alpha), np.sin(model.alpha)
    assert abs(res.y1_at_1 - (ca + sa)) < 1e-15 and res.dy1_at_1 == sa
    assert abs(res.y2_at_1 - (ca - sa)) < 1e-15 and res.dy2_at_1 == ca


@pytest.mark.parametrize("c", [3e-7 - 4e-7j, 3e-6 + 4e-6j, -2e-5])
def test_constant_transfer_series_matches_closed_form(c):
    # |c h^2| below 1e-6 takes the series, above it the cosh/sinh form
    h = 0.7
    s = np.sqrt(complex(c))
    ch, sh = np.cosh(s * h), np.sinh(s * h) / s
    ref = (ch, c * sh, sh, ch)
    got, shift = hainlust._constant_transfer(c, h, (1.0, 0.0, 0.0, 1.0))
    assert shift == 0.0
    for g, r in zip(got, ref):
        assert abs(g - r) <= 1e-15 * max(abs(r), 1e-300)


@pytest.mark.parametrize("c", [1.0e6, 2.0e6 + 3.0e5j])
def test_constant_transfer_rescales_past_double_range(c):
    # Re(s h) > 700: the transfer comes scaled by e^(-Re(s h)), so the ratios
    # sinh/cosh = tanh(s h)/s and c sinh/cosh = s tanh(s h) keep their values
    h = 0.9
    s = np.sqrt(complex(c))
    (ch, csh, sh, ch2), shift = hainlust._constant_transfer(c, h, (1.0, 0.0, 0.0, 1.0))
    assert shift == (s * h).real > hainlust.RESCALE_EXPONENT
    assert ch == ch2 and abs(abs(ch) - 0.5) <= 1e-15
    assert abs(sh / ch - 1.0 / s) <= 1e-15 / abs(s)
    assert abs(csh / ch - s) <= 1e-15 * abs(s)


def test_constant_pieces_never_call_the_integrator(monkeypatch):
    def refuse(*args):
        raise RuntimeError("adaptive integrator called")

    monkeypatch.setattr(hainlust, "_magnus_piece", refuse)
    complex_q = HLModel(q=PiecewisePoly.constant(0.4 + 1.2j), u=PiecewisePoly.constant(50.0),
                        w=PiecewisePoly.constant(0.0), alpha=HALF_PI, beta=HALF_PI)
    for model in (free_model(), free_model(5.0), step_model(), two_piece_constant_model(),
                  complex_q):
        assert np.isfinite(shoot(model, 1.5 + 0.5j).y2_at_1)
    with pytest.raises(RuntimeError, match="integrator"):
        shoot(generic_model(), 1.5 + 0.5j)


def test_shoot_past_double_range_keeps_m11():
    # m11 = -1/(s tanh s) with s = sqrt(-lam); at lam = -4e5 the transfer stays
    # inside double range, at -1e6 (s = 1000 > 700) it is carried at scale e^-1000
    model = free_model(u_value=5.0)
    for lam, log_scale in ((-4e5, 0.0), (-1e6, 1000.0)):
        res = shoot(model, lam)
        assert res.log_scale == log_scale
        assert all(np.isfinite(v) for v in (res.y1_at_1, res.dy1_at_1, res.y2_at_1, res.dy2_at_1))
        s = np.sqrt(-lam)
        ref = -1.0 / (s * np.tanh(s))
        m = m_matrix(model, lam)
        assert abs(m[0, 0] - ref) <= 1e-12 * abs(ref)
    # m12 = sin(alpha) / den with |den| near e^1000 s / 2 underflows to 0
    assert m[0, 1] == m[1, 0] == 0.0
    rows = scan_rows(model, [-1e6], [1.0], 32)
    assert rows[0][2] == m_matrix(model, -1e6 + 1j)[0, 0].real and rows[0][10] == np.inf


# ---------------------------------------------------------------- M-matrix


def test_m11_closed_form():
    m = m_matrix(free_model(), -1.0)
    assert abs(m[0, 0] - (-1.0 / np.tanh(1.0))) < 1e-6


def test_m_symmetric_entries():
    m = m_matrix(generic_model(), 1.0 + 2.0j)
    assert m[0, 1] == m[1, 0]


def test_m_at_eigenvalue_raises():
    # Neumann-Neumann free model has an eigenvalue at pi^2
    with pytest.raises(WeylScopeError, match="boundary denominator vanishes at lam="):
        m_matrix(free_model(), np.pi**2)


def test_m_continuous_across_uncoupled_essran_point():
    # 3 lies in essran(u) but not in essran over the coupling support
    model = step_model()
    eps = 1e-7
    jump = np.max(np.abs(m_matrix(model, 3.0 + 1j * eps) - m_matrix(model, 3.0 - 1j * eps)))
    assert jump < 1e-6


def test_m_analytic_small_circle():
    # Cauchy integral of each entry on a circle avoiding spectra is tiny
    model = generic_model()
    center, radius = 1.0 + 1.5j, 0.3
    nodes = 32
    ang = 2 * np.pi * np.arange(nodes) / nodes
    total = np.zeros((2, 2), dtype=complex)
    for t in ang:
        z = center + radius * np.exp(1j * t)
        total += m_matrix(model, z) * 1j * (z - center)
    total *= 2 * np.pi / nodes
    assert np.max(np.abs(total)) < 1e-7


# ---------------------------------------------------------------- eigenvalues


def test_eigenvalues_neumann_free():
    model = free_model(u_value=5.0)
    found = eigenvalues_in(model, 0.5, 50.0, -1.0, 1.0)
    expect = [np.pi**2, 4 * np.pi**2]
    assert len(found) == 2
    for f, e in zip(found, expect):
        assert abs(f - e) < 1e-8


def test_eigenvalues_neumann_free_to_rounding():
    # exact transfer on the constant model leaves only rounding in the roots
    found = eigenvalues_in(free_model(u_value=5.0), 0.5, 50.0, -1.0, 1.0)
    assert len(found) == 2
    for j, f in enumerate(found, start=1):
        assert abs(f - (j * np.pi) ** 2) < 1e-12


def test_eigenvalues_empty_region():
    model = free_model(u_value=5.0)
    assert eigenvalues_in(model, 50.0, 80.0, -1.0, 1.0) == []


def test_eigenvalues_against_fd_oracle():
    model = free_model(u_value=5.0)
    found = eigenvalues_in(model, 0.5, 50.0, -1.0, 1.0)
    mat, _ = discretize(model, 512)
    eigs = np.linalg.eigvals(mat)
    for root in found:
        assert abs(bc_denominator(model, root)) < 1e-9
        assert np.min(np.abs(eigs - root)) < 5e-3


@pytest.mark.parametrize("region", [(50.0, 0.5, -1.0, 1.0), (0.5, 50.0, 0.0, 0.0),
                                    (0.5, 50.0, 1.0, -1.0), (0.5, 0.5, -1.0, 1.0)])
def test_eigenvalues_region_bounds_must_increase(region):
    with pytest.raises(ValueError, match="region bounds must increase"):
        eigenvalues_in(free_model(), *region)


def test_eigenvalues_region_boundary_near_essran_rejected():
    with pytest.raises(WeylScopeError, match="^search region within 1e-3 of the singular set$"):
        eigenvalues_in(step_model(), 2.0005, 10.0, -1.0, 1.0)


def test_winding_refinement_cap_raises(monkeypatch):
    # the boundary passes 0.01 from the root pi^2, so the 32-per-side samples
    # leave phase jumps that need bisection; with no bisections allowed the
    # search must fail instead of summing unresolved jumps
    monkeypatch.setattr(hainlust, "WINDING_MAX_REFINE", 0)
    with pytest.raises(WeylScopeError, match="winding refinement cap 0 reached"):
        eigenvalues_in(free_model(), 9.5, 10.5, -0.01, 0.01)


def test_winding_bisection_resolves_a_root_near_the_boundary():
    # the same rectangle as above: within the default cap, bisection resolves
    # the phase jumps and the winding number counts the one root pi^2
    found = eigenvalues_in(free_model(), 9.5, 10.5, -0.01, 0.01)
    assert len(found) == 1 and abs(found[0] - np.pi**2) < 1e-8


def test_eigenvalues_split_along_the_imaginary_axis():
    # a region taller than wide is cut across its height first
    found = eigenvalues_in(free_model(), 5.0, 45.0, -1.0, 60.0)
    assert len(found) == 2
    for j, f in enumerate(found, start=1):
        assert abs(f - (j * np.pi) ** 2) < 1e-8


def test_eigenvalues_in_gives_up_when_newton_stalls(monkeypatch):
    # a Newton run that stops at its iteration cap is a miss: the search
    # subdivides instead of reporting the unpolished point, down to the depth cap
    monkeypatch.setattr(hainlust, "NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(hainlust, "ROOT_MAX_DEPTH", 2)
    with pytest.raises(WeylScopeError, match="could not isolate zero"):
        eigenvalues_in(free_model(u_value=5.0), 9.5, 10.5, -0.5, 0.5)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.floats(2.01, 2.17), st.floats(2.19, 2.99), st.floats(0.05, 1.0))
def test_eigenvalues_in_regions_symmetric_about_the_axis(re_lo, re_hi, half):
    # a horizontal cut must not fall on Im = 0, where the eigenvalue lies
    (found,) = eigenvalues_in(step_model(), re_lo, re_hi, -half, half)
    assert abs(found - 2.178994560607486) < 1e-10


def test_eigenvalues_complex_coefficients():
    # complex q moves the spectrum off the real axis; the subdivision must
    # still isolate every zero, cross-checked against the dense oracle
    q = PiecewisePoly.constant(0.4 + 1.2j)
    model = HLModel(q=q, u=PiecewisePoly.constant(50.0), w=PiecewisePoly.constant(0.0),
                    alpha=HALF_PI, beta=HALF_PI)
    found = eigenvalues_in(model, -2.0, 30.0, -3.0, 3.0)
    # shifted Neumann spectrum: q + {0, pi^2, 4 pi^2, ...} intersected with the box
    expect = [0.4 + 1.2j, np.pi**2 + 0.4 + 1.2j]
    assert len(found) == len(expect)
    for f, e in zip(sorted(found, key=lambda z: z.real), expect):
        assert abs(f - e) < 1e-8
    mat, _ = discretize(model, 256)
    eigs = np.linalg.eigvals(mat)
    for f in found:
        assert np.min(np.abs(eigs - f)) < 1e-3


def test_shoot_tolerance_underflow():
    with pytest.raises(WeylScopeError, match="step size underflow in adaptive integrator"):
        shoot(generic_model(), 1.0 + 1.0j, tol=1e-30)


# -------------------------------------------------------------- discretization


def test_discretize_neumann_spectrum():
    model = free_model(u_value=5.0)
    mat, meta = discretize(model, 256)
    npts = meta["nodes"].size
    upper = np.linalg.eigvals(mat[:npts, :npts]).real
    upper.sort()
    for k, target in enumerate([0.0, np.pi**2, 4 * np.pi**2]):
        assert abs(upper[k] - target) < 3e-3 * max(1.0, target)
    lower = np.linalg.eigvals(mat[npts:, npts:])
    np.testing.assert_allclose(lower, 5.0)


def test_discretize_needs_min_fd_n_cells():
    with pytest.raises(ValueError, match="need n >= 32"):
        discretize(step_model(), 16)


def test_discretize_real_spectrum_for_real_data():
    mat, _ = discretize(step_model(), 128)
    eigs = np.linalg.eigvals(mat)
    assert np.max(np.abs(eigs.imag)) < 1e-8


def test_discretize_second_order_convergence():
    model = free_model(u_value=5.0)
    errs = []
    for n in (64, 128, 256):
        mat, meta = discretize(model, n)
        npts = meta["nodes"].size
        upper = np.sort(np.linalg.eigvals(mat[:npts, :npts]).real)
        errs.append(abs(upper[1] - np.pi**2))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_model_from_dict_reads_the_config_format():
    # complex coefficients are [re, im] pairs, constant term first
    model = model_from_dict({
        "type": "hainlust",
        "q": {"breaks": [0.0, 0.5, 1.0], "coeffs": [[[0.3, 0.0], [0.5, 0.0]], [[1.0, -0.25]]]},
        "u": {"breaks": [0.0, 1.0], "coeffs": [[[2.0, 0.0]]]},
        "w": {"breaks": [0.0, 0.5, 1.0], "coeffs": [[[0.8, 0.0], [0.2, 0.0]], [[0.0, 0.0]]]},
        "alpha": 1.1, "beta": 2.0,
    })
    assert model.q == PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=((0.3, 0.5), (1.0 - 0.25j,)))
    assert model.u == PiecewisePoly.constant(2.0)
    assert model.w == PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=((0.8, 0.2), (0.0,)))
    assert (model.alpha, model.beta) == (1.1, 2.0)


# ------------------------------------------------------------------ jump scan


def jump_rows(model, re_points, eps_values, n):
    """The (re, eps, full jump, bordered jump) columns of scan_rows, by name."""
    cols = [SCAN_HEADER.index(name) for name in
            ("re_lambda", "im_lambda", "full_jump", "bordered_jump")]
    return np.array(scan_rows(model, re_points, eps_values, n))[:, cols]


def test_scan_rows_jump_dichotomy():
    (_, _, full, bordered), = jump_rows(step_model(), [3.0], [1e-5], n=320)
    assert full > 1e-1
    assert bordered < 1e-4


def test_scan_rows_sees_coupled_essran():
    rows = jump_rows(step_model(), [2.0], [1e-2, 3e-3, 1e-3], n=320)
    assert rows[:, 3].max() > 1e-1


def test_scan_rows_match_m_matrix_and_jump_norms():
    model = step_model()
    eps_values = [0.1, -0.1, 0.05, 0.05, 5e-4]
    rows = np.array(scan_rows(model, [1.5, 2.0, 3.0], eps_values, n=64))
    assert rows.shape == (15, 13)
    singular = (rows[:, 0] == 2.0) & (rows[:, 1] == 5e-4)
    assert singular.sum() == 1
    assert np.isnan(rows[singular, 11:]).all()
    assert not np.isnan(rows[~singular, 11:]).any()
    assert not np.isnan(rows[:, :11]).any()
    np.testing.assert_array_equal(rows[:, 6:8], rows[:, 4:6])  # m21 == m12
    for row in rows:
        m = m_matrix(model, complex(row[0], row[1]))
        assert list(row[2:10]) == [v for z in m.ravel() for v in (z.real, z.imag)]
    jump_norms = hainlust._jump_norms(model, 64)
    for row in rows[~singular]:
        assert (row[11], row[12]) == jump_norms(complex(row[0], abs(row[1])))


def test_scan_rows_nan_row_where_shooting_fails():
    # x0 = 2.0 is the singular set of the step model: shooting raises within
    # 1e-8 of it, so the row holds NaN after (re, eps), jumps included
    rows = scan_rows(step_model(), [2.0], [1e-9, -1e-9], n=64)
    assert [row[:2] for row in rows] == [[2.0, 1e-9], [2.0, -1e-9]]
    for row in rows:
        assert len(row) == 13 and np.isnan(row[2:]).all()


@pytest.mark.parametrize("coupling, solves", [(1.0, 0), (1.0 + 0.5j, 2)])
def test_jump_norms_match_two_solve_reference(monkeypatch, coupling, solves):
    # reference: full two-sided solves, then the top singular value of the
    # trapezoid-weighted jump and of its compression; a real discretization
    # needs no solve at all, complex coupling two per point on the restriction
    model = step_model(coupling)
    mat, meta = discretize(model, 240)
    proj = hainlust._projector_diag(meta)
    root = np.sqrt(np.tile(meta["weights"], 2))
    eye = np.eye(mat.shape[0])
    kept = mat.shape[0] - int((~meta["support_mask"]).sum())
    shapes = []
    solve = hainlust._resolvent_dense
    monkeypatch.setattr(hainlust, "_resolvent_dense",
                        lambda m, lam: shapes.append(m.shape) or solve(m, lam))
    jump_norms = hainlust._jump_norms(model, 240)
    points = [2.0 + 1e-2j, 2.5 + 5e-4j, 3.0 + 5e-4j]
    for lam in points:
        full, bordered = jump_norms(lam)
        jump = (np.linalg.solve(mat - lam * eye, eye)
                - np.linalg.solve(mat - np.conj(lam) * eye, eye))
        weighted = root[:, None] * jump / root[None, :]
        ref_full = np.linalg.svd(weighted, compute_uv=False)[0]
        ref_bordered = np.linalg.svd(proj[:, None] * weighted * proj[None, :],
                                     compute_uv=False)[0]
        assert abs(full - ref_full) <= 1e-8 * ref_full
        assert abs(bordered - ref_bordered) <= 1e-8 * ref_bordered
    assert shapes == [(kept, kept)] * (solves * len(points))


def test_full_jump_within_self_adjoint_bound():
    # for real coefficients the discretization is self-adjoint in the weighted
    # inner product, so ||R(x+i eps) - R(x-i eps)|| <= 2/eps
    for _, eps, full, _ in jump_rows(step_model(), [2.0], [1e-2, 3e-3, 1e-3], n=320):
        assert full <= 2.0 / eps


def test_off_support_second_component_decouples():
    model = step_model()
    mat, meta = discretize(model, 64)
    npts = meta["nodes"].size
    off = npts + np.flatnonzero(~meta["support_mask"])
    assert off.size > 0
    for i in off:
        row, col = mat[i].copy(), mat[:, i].copy()
        assert row[i] == col[i] == model.u(meta["nodes"][i - npts])
        row[i] = col[i] = 0.0
        assert not row.any() and not col.any()


@pytest.mark.parametrize("coupling", [1.0, 1.0 + 0.5j])
def test_full_jump_is_bordered_or_off_support_jump(coupling):
    model = step_model(coupling)
    _, meta = discretize(model, 64)
    u_off = model.u(meta["nodes"][~meta["support_mask"]])
    for x0, eps, full, bordered in jump_rows(model, [1.5, 2.5, 3.0], [0.1, 5e-3, -5e-3], n=64):
        lam = complex(x0, eps)
        off = np.abs(1.0 / (u_off - lam) - 1.0 / (u_off - np.conj(lam))).max()
        assert full == max(bordered, off)


def test_bordered_reduces_to_schroedinger_block_when_uncoupled():
    zero = PiecewisePoly.constant(0.0)
    model = HLModel(q=PiecewisePoly.constant(1.0), u=PiecewisePoly.constant(5.0),
                    w=zero, alpha=HALF_PI, beta=HALF_PI)
    lam = 0.7 + 0.9j
    mat, meta = discretize(model, 64)
    npts = meta["nodes"].size
    full = np.linalg.solve(mat - lam * np.eye(mat.shape[0]), np.eye(mat.shape[0]))
    block = schroedinger_block_resolvent(model, lam, n=64)
    np.testing.assert_allclose(full[:npts, :npts], block, atol=1e-10)
    assert not meta["support_mask"].any()


# ------------------------------------------------------------ reducing check


def test_reducing_subspace_exact():
    assert reducing_residual(step_model(), 10.0 + 5.0j, n=128) < 1e-10


def test_reducing_whole_space_trivial():
    model = HLModel(q=PiecewisePoly.constant(0.0), u=PiecewisePoly.constant(2.0),
                    w=PiecewisePoly.constant(1.0), alpha=HALF_PI, beta=HALF_PI)
    assert reducing_residual(model, 10.0 + 5.0j, n=128) < 1e-10


def test_reducing_corrupted_projection_detected():
    model = step_model()
    mat, meta = discretize(model, 128)
    wrong = np.roll(meta["support_mask"], 13)
    assert reducing_residual(model, 10.0 + 5.0j, n=128, mask_override=wrong) > 1e-2
