import dataclasses

import numpy as np
import pytest

from weylscope.errors import (
    BracketZeroError,
    ConstructionFailedError,
    DZeroError,
    PoleCollisionError,
    RealLambdaError,
)
from weylscope.friedrichs import (
    FriedrichsModel,
    PoleSum,
    RationalH2,
    _det_and_bracket,
    adjoint_apply,
    boundary_values,
    cauchy_transform,
    evaluation_grid,
    example_eigenvalue_not_pole,
    example_embedded_eigenvalue,
    green_pair_residual,
    hardy_m_reference,
    inner_product,
    m_scan,
    m_value,
    maximal_action,
    model_from_dict,
    model_to_dict,
    perturbation_determinant,
    rational_from_polesum,
    tail_coefficient,
)
from weylscope.numerics import real_line_quadrature


def simple(pole, residue=1.0, order=1):
    return RationalH2(poles=(pole,), residues=(residue,), orders=(order,))


def hardy_model(b=0.0):
    return FriedrichsModel(phi=simple(-1j), psi=simple(-2j, 0.7 + 0.3j), bparam=b)


# ------------------------------------------------------------- pole-form sums


def test_polesum_product_matches_pointwise():
    rng = np.random.default_rng(11)
    f = PoleSum({(-1j, 1): 1.0, (2 - 1j, 2): 0.5 + 0.2j})
    g = PoleSum({(1j, 1): -0.3, (2 - 1j, 1): 1.1j})
    x = rng.standard_normal(20) * 5
    np.testing.assert_allclose((f * g)(x), f(x) * g(x), atol=1e-12)


def test_polesum_repeated_pole_product():
    f = PoleSum.single(-1j, 1, 2.0)
    prod = f * f
    assert prod.terms == {(-1j, 2): 4.0 + 0.0j}


def test_polesum_shift_multiply():
    # x/(x-a) - 1 = a/(x-a), and the deficiency relation x u - 1 = +/- i u
    for sign in (1.0, -1.0):
        u = PoleSum.single(sign * 1j)
        shifted = u.shift_multiply()
        assert shifted.terms == {(sign * 1j, 1): sign * 1j}


def test_polesum_line_integral_vs_quadrature():
    f = PoleSum({(-1j, 1): 1.0, (1j, 1): -1.0})  # 1/(x+i) - 1/(x-i): decay 2
    exact = f.line_integral()
    quad = real_line_quadrature(lambda x: f(x), 2)
    assert abs(exact - quad) < 1e-8


def test_polesum_symmetric_integral_vs_quadrature():
    f = PoleSum.single(-1j)  # 1/(x+i): decay 1, symmetric value -i pi
    assert abs(f.symmetric_integral() + 1j * np.pi) < 1e-14
    # quadrature oracle on the regularized integrand (tail removed)
    c = f.tail_coefficient()
    quad = real_line_quadrature(
        lambda x: f(x) - c * np.sign(x) / np.sqrt(x**2 + 1.0), 2
    )
    assert abs(f.symmetric_integral() - quad) < 1e-8


def test_inner_product_vs_quadrature():
    f = PoleSum({(-1j, 1): 1.0})
    g = PoleSum({(-2j, 2): 1.0 - 0.5j})
    exact = inner_product(f, g)
    quad = real_line_quadrature(lambda x: f(x) * np.conj(g(x)), 3)
    assert abs(exact - quad) < 1e-8


def test_rational_roundtrip():
    f = simple(-1j - 2.0, 0.5 + 1j, 2)
    back = rational_from_polesum(f.as_polesum())
    x = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(back(x), f(x))


def test_rational_rejects_real_pole():
    with pytest.raises(ValueError):
        RationalH2(poles=(1.0,), residues=(1.0,))


def test_hardy_tag_convention():
    assert simple(-1j).hardy_plus
    assert not simple(1j).hardy_plus


# ------------------------------------------------------------ cauchy transform


def test_cauchy_hardy_vanishes_upper():
    assert cauchy_transform(simple(-1j), 2j) == 0.0


def test_cauchy_lower_residue_value():
    val = cauchy_transform(simple(-1j), -2j)
    assert abs(val - 2.0 * np.pi / 3.0) < 1e-13


def test_cauchy_conjugate_linearity():
    f = simple(-1j, 1.0)
    val1 = cauchy_transform(f, -2j)
    val2 = cauchy_transform(simple(-1j, 2.0), -2j)
    assert abs(val2 - 2.0 * np.conj(1.0) * val1) < 1e-13  # conjugate-linear in f


def test_cauchy_vs_quadrature():
    f = RationalH2(poles=(-1j, 1.5 + 2j), residues=(1.0, 0.3 - 0.2j))
    lam = 0.7 - 0.9j
    quad = real_line_quadrature(lambda x: np.conj(f(x)) / (x - lam), 2)
    assert abs(cauchy_transform(f, lam) - quad) < 1e-8


def test_cauchy_rejects_real_lambda():
    with pytest.raises(RealLambdaError):
        cauchy_transform(simple(-1j), 0.5)


def test_cauchy_rejects_pole_collision():
    with pytest.raises(PoleCollisionError):
        cauchy_transform(simple(-1j), 1j)  # conj pole sits at +i


def test_cauchy_analytic_in_half_plane():
    f = simple(-1j)
    center, radius, nodes = -1.0 - 2.0j, 0.5, 32
    ang = 2 * np.pi * np.arange(nodes) / nodes
    total = sum(
        cauchy_transform(f, center + radius * np.exp(1j * t))
        * 1j * radius * np.exp(1j * t)
        for t in ang
    ) * (2 * np.pi / nodes)
    assert abs(total) < 1e-9


# ---------------------------------------------------------------- determinant


def test_determinant_closed_form_lower():
    c = 0.8 - 0.4j
    model = FriedrichsModel(phi=simple(-1j, c), psi=simple(-1j), bparam=0.0)
    for lam in (-2j, 1.0 - 0.5j, -3.0 - 4.0j):
        expect = 1.0 + np.conj(c) * np.pi / (1j - lam)
        assert abs(perturbation_determinant(model, lam) - expect) < 1e-12


def test_determinant_zero_phi():
    model = FriedrichsModel(phi=simple(-1j, 0.0), psi=simple(-1j), bparam=0.0)
    assert perturbation_determinant(model, 1.0 + 1j) == 1.0


def test_determinant_vs_quadrature():
    model = hardy_model()
    lam = 1.0 - 1.0j
    quad = 1.0 + real_line_quadrature(
        lambda x: model.psi(x) * np.conj(model.phi(x)) / (x - lam), 3
    )
    assert abs(perturbation_determinant(model, lam) - quad) < 1e-8


# ------------------------------------------------------------------ M-function


def test_m_hardy_closed_form_both_sides():
    model = hardy_model(b=0.3 + 0.1j)
    rng = np.random.default_rng(5)
    for _ in range(25):
        lam = complex(rng.uniform(-5, 5), rng.uniform(0.05, 4) * rng.choice([-1, 1]))
        assert abs(m_value(model, lam) - hardy_m_reference(model.bparam, lam)) < 1e-9


def test_m_bracket_zero_filled_half_plane():
    model = hardy_model(b=np.pi * 1j)
    for lam in (0.3 + 1j, -2.0 + 0.4j, 5.0 + 3j):
        with pytest.raises(BracketZeroError):
            m_value(model, lam)


def test_m_scan_hardy_jump_constant():
    model = hardy_model(b=0.0)
    rows = m_scan(model, [-2.0, 0.0, 3.0], [1e-2, 1e-4])
    by_point = {}
    for re, im, mre, mim, _, _ in rows:
        by_point.setdefault((re, abs(im)), {})[np.sign(im)] = complex(mre, mim)
    for pair in by_point.values():
        jump = pair[1.0] - pair[-1.0]
        assert abs(abs(jump) - 2.0 / np.pi) < 1e-12


def test_m_scan_records_poles_as_nan():
    # B = pi i makes every upper-half-plane point a pole of M; the scan
    # must record those rows rather than raise
    model = hardy_model(b=np.pi * 1j)
    rows = m_scan(model, [0.0], [1e-2])
    upper = [r for r in rows if r[1] > 0][0]
    lower = [r for r in rows if r[1] < 0][0]
    assert np.isnan(upper[2]) and upper[5] == 0.0
    assert not np.isnan(lower[2])


def _determinant_zero_model(rng, lam0):
    """Seeded model with order-2 poles on both sides, phi scaled so that D(lam0) = 0."""

    def poles():
        return (complex(rng.uniform(-2, 2), -rng.uniform(0.5, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(0.5, 2)))

    def residues():
        return tuple(complex(*rng.uniform(-1, 1, 2)) for _ in range(2))

    psi = RationalH2(poles=poles(), residues=residues(), orders=(1, 2))
    phi0 = RationalH2(poles=poles(), residues=residues(), orders=(2, 1))
    d0 = perturbation_determinant(FriedrichsModel(phi=phi0, psi=psi), lam0) - 1.0
    scale = np.conj(-1.0 / d0)
    phi = RationalH2(poles=phi0.poles, residues=tuple(scale * r for r in phi0.residues),
                     orders=phi0.orders)
    return FriedrichsModel(phi=phi, psi=psi, bparam=complex(*rng.uniform(-0.5, 0.5, 2)))


def test_m_value_raises_where_the_determinant_vanishes():
    model = _determinant_zero_model(np.random.default_rng(7), -0.5j)
    with pytest.raises(DZeroError, match="determinant vanishes"):
        m_value(model, -0.5j)


def _pointwise_rows(model, re_points, eps_values):
    """m_scan's rows from one _det_and_bracket call per point, on a fresh copy of the
    model each time, so its pole sums are rebuilt and model keeps none cached."""
    rows = []
    for x0 in re_points:
        for eps in eps_values:
            for lam in (complex(x0, eps), complex(x0, -eps)):
                det, bracket = _det_and_bracket(dataclasses.replace(model), lam)
                if bracket is None:
                    rows.append((lam.real, lam.imag, np.nan, np.nan, abs(det), np.nan))
                elif abs(bracket) < 1e-12:
                    rows.append((lam.real, lam.imag, np.nan, np.nan, abs(det), abs(bracket)))
                else:
                    m = 1.0 / bracket
                    rows.append((lam.real, lam.imag, m.real, m.imag, abs(det), abs(bracket)))
    return rows


def test_m_scan_matches_pointwise_evaluation(polesum_mul_calls):
    # lam0 = -0.5i is a grid point: linspace(-1, 1, 5) holds 0.0 exactly
    re_points, eps_values = np.linspace(-1.0, 1.0, 5), [0.5, 0.1, 1e-3]
    model = _determinant_zero_model(np.random.default_rng(7), -0.5j)
    expected = _pointwise_rows(model, re_points, eps_values)
    del polesum_mul_calls[:]
    rows = m_scan(model, re_points, eps_values)
    assert repr(rows) == repr(expected)
    pole_rows = [r for r in rows if np.isnan(r[2])]
    assert len(pole_rows) == 1 and pole_rows[0][:2] == (0.0, -0.5)
    # psi conj(phi) is formed once per scan; a point costs the determinant's
    # product plus, off the zeros of D, one product per transform
    assert len(polesum_mul_calls) == 1 + 3 * (len(rows) - 1) + 1


def test_m_scan_raises_on_real_lambda():
    with pytest.raises(RealLambdaError):
        m_scan(hardy_model(), [0.0, 1.0], [0.1, 0.0])


def test_m_scan_raises_on_psi_pole():
    # the second point, -i, is the pole of psi; conj(phi) has its pole at 2i
    model = FriedrichsModel(phi=simple(-2j), psi=simple(-1j, 0.7 + 0.3j))
    with pytest.raises(PoleCollisionError, match=r"collides with pole \(-0-1j\)"):
        m_scan(model, [0.0], [1.0])


def test_m_scan_non_hardy_jump_converges():
    model = FriedrichsModel(
        phi=RationalH2(poles=(-1j, 2j), residues=(0.6, 0.4)),
        psi=RationalH2(poles=(-2j, 1j), residues=(1.0, -0.3)),
        bparam=0.2,
    )
    x0 = 0.7
    jumps = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        plus = m_value(model, complex(x0, eps))
        minus = m_value(model, complex(x0, -eps))
        jumps.append(plus - minus)
    assert abs(jumps[-1] - jumps[-2]) < abs(jumps[1] - jumps[0])
    assert abs(jumps[-1]) > 1e-3


# ------------------------------------------------- tails and boundary values


def test_tail_simple_pole():
    assert tail_coefficient(simple(-1j)) == 1.0


def test_tail_double_pole():
    assert tail_coefficient(simple(-1j, 1.0, 2)) == 0.0


def test_tail_residue_sum():
    f = RationalH2(poles=(3j, -1j), residues=(2.0, 1.0))
    assert tail_coefficient(f) == 3.0


def test_boundary_values_closed_form_and_oracle():
    f = simple(-1j)
    g1, g2 = boundary_values(f)
    assert g2 == 1.0
    assert abs(g1 + 1j * np.pi) < 1e-14
    quad = real_line_quadrature(
        lambda x: f(x) - np.sign(x) / np.sqrt(x**2 + 1.0), 2
    )
    assert abs(g1 - quad) < 1e-8


def test_boundary_values_zero_tail_residue_form():
    # c_f = 0: the first functional is the plain integral, residue-computed
    f = RationalH2(poles=(2j, -2j), residues=(1.0, -1.0))
    g1, g2 = boundary_values(f)
    assert g2 == 0.0
    assert abs(g1 - 2j * np.pi * 1.0) < 1e-13  # closes through the upper pole


def test_boundary_values_double_pole():
    g1, g2 = boundary_values(simple(-1j, 1.0, 2))
    assert g2 == 0.0
    assert abs(g1) < 1e-14


# ------------------------------------------------------------ maximal action


def test_action_pure_multiplication_when_orthogonal():
    # f with zero tail and <f, phi> = 0: the action is plain x f(x)
    model = FriedrichsModel(phi=simple(-1j), psi=simple(-2j), bparam=0.0)
    f = PoleSum.single(3j, 2)  # poles conjugate-separated from phi: inner product 0
    assert abs(inner_product(f, model.phi.as_polesum())) < 1e-14
    nodes, vals = adjoint_apply(model, rational_from_polesum(f))
    np.testing.assert_allclose(vals, nodes * np.asarray(f(nodes)), atol=1e-12)


def test_green_pair_identity_random_rationals():
    rng = np.random.default_rng(23)
    model = hardy_model(b=0.0)
    pole_pool = [-1j, -2j, 1j, 2j, 1.0 - 1.5j, -0.7 + 1.2j]
    for _ in range(50):
        fp = rng.choice(6, size=2, replace=False)
        f = RationalH2(
            poles=(pole_pool[fp[0]], pole_pool[fp[1]]),
            residues=tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
        )
        gp = rng.choice(6, size=2, replace=False)
        g = RationalH2(
            poles=(pole_pool[gp[0]], pole_pool[gp[1]]),
            residues=tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
        )
        assert green_pair_residual(model, f, g) < 1e-8


def test_kernel_element_formula():
    # the explicit kernel element with unit tail: action equals lam times it
    model = hardy_model(b=0.0)
    lam = 0.8 - 1.3j
    det = perturbation_determinant(model, lam)
    i_phi = (model.phi.as_polesum().conjugate() * PoleSum.single(lam)).line_integral()
    kernel = PoleSum.single(lam) - (
        model.psi.as_polesum() * PoleSum.single(lam)
    ).scaled(i_phi / det)
    assert abs(kernel.tail_coefficient() - 1.0) < 1e-13
    nodes, _ = evaluation_grid(501)
    out = maximal_action(model, kernel)
    np.testing.assert_allclose(out(nodes), lam * kernel(nodes), atol=1e-10)


# -------------------------------------------------------------------- examples


def test_example2_lower_case():
    rep = example_eigenvalue_not_pole(psi=simple(-1j), lam0=-1j)
    assert rep["case"] == "lower"
    # the scaling solving det(lam0) = 0 for this data is 2i/pi
    np.testing.assert_allclose(rep["phi_scale"], [0.0, 2.0 / np.pi], atol=1e-12)
    assert rep["det_at_lam0"] < 1e-12
    assert rep["inner_product_error"] < 1e-9
    assert rep["gamma2_abs"] < 1e-12
    assert rep["gamma1_abs"] < 1e-9
    assert rep["eigen_residual"] < 1e-7
    assert rep["m_pole_residual"] < 1e-10


def test_example2_upper_case_obstruction():
    rep = example_eigenvalue_not_pole(psi=simple(-1j), lam0=2j)
    assert rep["case"] == "upper"
    # upper case: lam0 = 2i joins the upper poles, so the closure gives
    # J = -2 pi i res_{-i} = pi i / 3 and the scaling is c = -3i/pi
    np.testing.assert_allclose(rep["phi_scale"], [0.0, -3.0 / np.pi], atol=1e-12)
    assert rep["det_at_lam0"] < 1e-12
    np.testing.assert_allclose(rep["obstruction"], [-1.0, 0.0], atol=1e-10)
    assert rep["solvability_residual_rel"] >= 1e-2
    assert rep["solvability_residual_rel"] >= 0.9 * rep["solvability_lower_bound"]
    assert rep["eigen_residual"] < 1e-7
    assert rep["m_pole_residual"] < 1e-10


def test_example3_default_construction():
    rep = example_embedded_eigenvalue()
    assert abs(rep["scaling"] - np.sqrt(2.0 / np.pi)) < 1e-12
    assert rep["psi_at_lam0"] < 1e-12
    assert rep["normalization_error"] < 1e-9
    assert rep["eigen_residual"] < 1e-7
    assert rep["m_jump_error"] < 1e-9
    np.testing.assert_allclose(rep["m_jump"], [0.0, -2.0 / np.pi], atol=1e-12)


def test_example3_sign_obstruction():
    # symmetric base: the normalization integral vanishes identically
    with pytest.raises(ConstructionFailedError):
        example_embedded_eigenvalue(g=simple(-1j, 1.0, 2), lam0=0.0)


def test_example3_selfadjoint_symmetry():
    rep = example_embedded_eigenvalue(bparam=0.7)
    g = RationalH2(poles=(-1.0 - 1j,), residues=(1.0,), orders=(2,))
    s = rep["scaling"]
    base = g.as_polesum().shift_multiply()
    psi = rational_from_polesum(base.scaled(s))
    model = FriedrichsModel(phi=psi, psi=psi, bparam=0.7)
    for lam in (0.5 + 1j, -1.0 + 0.3j, 2.0 + 2j):
        assert abs(np.conj(m_value(model, np.conj(lam))) - m_value(model, lam)) < 1e-10


def test_model_json_roundtrip():
    model = hardy_model(b=1.5 - 0.2j)
    back = model_from_dict(model_to_dict(model))
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(back.phi(x), model.phi(x))
    np.testing.assert_allclose(back.psi(x), model.psi(x))
    assert back.bparam == model.bparam
