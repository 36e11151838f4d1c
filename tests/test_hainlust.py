import numpy as np
import pytest

from weylscope import hainlust
from weylscope.errors import (
    AtEigenvalueError,
    CoefficientSingularError,
    ContourHitsEssranError,
    GridHitsEssranWError,
    NoConvergenceError,
)
from weylscope.hainlust import (
    HLModel,
    PiecewisePoly,
    bc_denominator,
    bordered_scan,
    discretize,
    eigenvalues_in,
    essential_range,
    interval_set_distance,
    m_matrix,
    model_from_dict,
    model_to_dict,
    reducing_residual,
    scan_rows,
    schroedinger_block_resolvent,
    shoot,
)

HALF_PI = np.pi / 2.0


def free_model(u_value=0.0):
    zero = PiecewisePoly.constant(0.0)
    return HLModel(q=zero, u=PiecewisePoly.constant(u_value), w=zero,
                   alpha=HALF_PI, beta=HALF_PI)


def step_model():
    """u jumps from 2 to 3 at 1/2; coupling supported on [0, 1/2)."""
    zero = PiecewisePoly.constant(0.0)
    u = PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=((2.0,), (3.0,)))
    w = PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=((1.0,), (0.0,)))
    return HLModel(q=zero, u=u, w=w, alpha=HALF_PI, beta=HALF_PI)


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
    with pytest.raises(CoefficientSingularError):
        shoot(step_model(), 2.0)


def test_shoot_allows_essran_without_coupling():
    # u = 5 everywhere but w = 0: the reduced coefficient is regular at 5
    res = shoot(free_model(u_value=5.0), 5.0)
    assert np.isfinite(res.y2_at_1.real)


# ---------------------------------------------------------------- M-matrix


def test_m11_closed_form():
    m = m_matrix(free_model(), -1.0)
    assert abs(m[0, 0] - (-1.0 / np.tanh(1.0))) < 1e-6


def test_m_symmetric_entries():
    m = m_matrix(generic_model(), 1.0 + 2.0j)
    assert m[0, 1] == m[1, 0]


def test_m_at_eigenvalue_raises():
    # Neumann-Neumann free model has an eigenvalue at pi^2
    with pytest.raises(AtEigenvalueError):
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


def test_eigenvalues_region_boundary_near_essran_rejected():
    with pytest.raises(ContourHitsEssranError):
        eigenvalues_in(step_model(), 2.0005, 10.0, -1.0, 1.0)


def test_winding_refinement_cap_raises(monkeypatch):
    # the boundary passes 0.01 from the root pi^2, so the 32-per-side samples
    # leave phase jumps that need bisection; with no bisections allowed the
    # search must fail instead of summing unresolved jumps
    monkeypatch.setattr(hainlust, "WINDING_MAX_REFINE", 0)
    with pytest.raises(NoConvergenceError, match="refinement cap"):
        eigenvalues_in(free_model(), 9.5, 10.5, -0.01, 0.01)


def test_real_axis_zero_two_sided_agreement():
    from weylscope.hainlust import real_axis_zero

    model = free_model(u_value=5.0)
    root = real_axis_zero(model, 9.5)
    assert abs(root - np.pi**2) < 1e-9


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
    from weylscope.errors import ToleranceNotMetError

    with pytest.raises(ToleranceNotMetError):
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


def test_model_json_roundtrip():
    model = generic_model()
    back = model_from_dict(model_to_dict(model))
    x = np.linspace(0, 1, 7)
    np.testing.assert_allclose(back.u(x), model.u(x))
    np.testing.assert_allclose(back.w(x), model.w(x))
    np.testing.assert_allclose(back.q(x), model.q(x))


# -------------------------------------------------------------- bordered scan


def test_bordered_scan_dichotomy():
    model = step_model()
    rows = bordered_scan(model, [3.0], [1e-5], n=320)
    assert rows[0]["full_jump"] > 1e-1
    assert rows[0]["bordered_jump"] < 1e-4


def test_bordered_scan_sees_coupled_essran():
    model = step_model()
    rows = bordered_scan(model, [2.0], [1e-2, 3e-3, 1e-3], n=320)
    assert max(r["bordered_jump"] for r in rows) > 1e-1


def test_bordered_scan_guards_distance():
    with pytest.raises(GridHitsEssranWError):
        bordered_scan(step_model(), [2.0], [1e-4], n=64)


def test_scan_rows_match_m_matrix_and_bordered_scan():
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
    for row in rows[~singular]:
        (ref,) = bordered_scan(model, [row[0]], [abs(row[1])], n=64)
        assert (row[11], row[12]) == (ref["full_jump"], ref["bordered_jump"])


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
