import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylscope import friedrichs
from weylscope.errors import WeylScopeError
from weylscope.friedrichs import (
    FriedrichsModel,
    PoleSum,
    _det_and_bracket,
    _norm,
    boundary_values,
    cauchy_transform,
    example_eigenvalue_not_pole,
    example_embedded_eigenvalue,
    green_pair_residual,
    hardy_m_reference,
    inner_product,
    m_scan,
    m_value,
    maximal_action,
    model_from_dict,
    perturbation_determinant,
)

from oracles import real_line_quadrature


def simple(pole, residue=1.0, order=1):
    return PoleSum.from_poles((pole,), (residue,), (order,))


def hardy_model(b=0.0):
    return FriedrichsModel(phi=simple(-1j), psi=simple(-2j, 0.7 + 0.3j), bparam=b)


# ------------------------------------------------------------- pole-form sums


def test_polesum_product_matches_pointwise():
    rng = np.random.default_rng(11)
    f = PoleSum.from_poles((-1j, 2 - 1j), (1.0, 0.5 + 0.2j), (1, 2))
    g = PoleSum.from_poles((1j, 2 - 1j), (-0.3, 1.1j))
    x = rng.standard_normal(20) * 5
    np.testing.assert_allclose((f * g)(x), f(x) * g(x), atol=1e-12)


def test_polesum_repeated_pole_product():
    f = simple(-1j, 2.0)
    prod = f * f
    assert prod.terms == {(-1j, 2): 4.0 + 0.0j}


def test_polesum_shift_multiply():
    # x/(x-a) - 1 = a/(x-a), and the deficiency relation x u - 1 = +/- i u
    for sign in (1.0, -1.0):
        u = simple(sign * 1j)
        shifted = u.shift_multiply()
        assert shifted.terms == {(sign * 1j, 1): sign * 1j}


def test_polesum_line_integral_vs_quadrature():
    f = PoleSum.from_poles((-1j, 1j), (1.0, -1.0))  # 1/(x+i) - 1/(x-i): decay 2
    exact = f.line_integral()
    quad = real_line_quadrature(lambda x: f(x), 2)
    assert abs(exact - quad) < 1e-8


def test_polesum_line_integral_rejects_a_1_over_x_tail():
    with pytest.raises(WeylScopeError, match=r"^nonzero 1/x tail coefficient \(1\+0j\)$"):
        simple(-1j).line_integral()


def test_polesum_symmetric_integral_vs_quadrature():
    f = simple(-1j)  # 1/(x+i): decay 1, symmetric value -i pi
    assert abs(f.symmetric_integral() + 1j * np.pi) < 1e-14
    # quadrature oracle on the regularized integrand (tail removed)
    c = f.tail_coefficient()
    quad = real_line_quadrature(
        lambda x: f(x) - c * np.sign(x) / np.sqrt(x**2 + 1.0), 2
    )
    assert abs(f.symmetric_integral() - quad) < 1e-8


def test_inner_product_vs_quadrature():
    f = simple(-1j)
    g = simple(-2j, 1.0 - 0.5j, 2)
    exact = inner_product(f, g)
    quad = real_line_quadrature(lambda x: f(x) * np.conj(g(x)), 3)
    assert abs(exact - quad) < 1e-8


def test_rational_rejects_real_pole():
    with pytest.raises(ValueError, match="poles must be nonreal"):
        PoleSum.from_poles((1.0,), (1.0,))


@pytest.mark.parametrize("poles, residues, orders, message", [
    ((-1j, -2j), (1.0,), (), "equal length"),
    ((-1j,), (1.0,), (1, 2), "equal length"),
    ((-1j,), (1.0,), (0,), "orders must be positive"),
    ((-1j, -2j), (1.0, 1.0), (), "equal length"),  # an empty list is not "all ones"
])
def test_from_poles_rejects_malformed_data(poles, residues, orders, message):
    with pytest.raises(ValueError, match=message):
        PoleSum.from_poles(poles, residues, orders)


@st.composite
def pole_data(draw):
    """Entries (pole, residue, order) over at most three poles on a quarter grid,
    so that (pole, order) pairs repeat and distinct poles lie at least 0.25 apart."""
    grid = st.builds(lambda re, im: complex(re, im) / 4, st.integers(-12, 12),
                     st.integers(-12, 12).filter(bool))
    pool = draw(st.lists(grid, min_size=1, max_size=3))
    unit = st.floats(-2, 2)
    entries = st.tuples(st.sampled_from(pool), st.builds(complex, unit, unit), st.integers(1, 3))
    return draw(st.lists(entries, min_size=1, max_size=6))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(entries=pole_data(), x=st.lists(st.floats(-10, 10), min_size=1, max_size=4))
def test_from_poles_is_the_sum_of_its_entries(entries, x):
    poles, residues, orders = zip(*entries)
    f = PoleSum.from_poles(poles, residues, orders)
    xs = np.array(x)
    terms = [r / (xs - p) ** o for p, r, o in entries]
    scale = np.sum(np.abs(terms), axis=0)
    assert np.all(np.abs(f(xs) - np.sum(terms, axis=0)) <= 1e-12 * scale)
    # repeated (pole, order) entries sum into one term
    sums = {}
    for p, r, o in entries:
        sums[p, o] = sums.get((p, o), 0) + r
    size = max(abs(r) for r in residues)
    assert f.terms.keys() <= sums.keys()
    assert all(abs(f.terms.get(key, 0) - c) <= 1e-15 * size for key, c in sums.items())


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
    f = PoleSum.from_poles((-1j, 1.5 + 2j), (1.0, 0.3 - 0.2j))
    lam = 0.7 - 0.9j
    quad = real_line_quadrature(lambda x: np.conj(f(x)) / (x - lam), 2)
    assert abs(cauchy_transform(f, lam) - quad) < 1e-8


def test_cauchy_rejects_real_lambda():
    with pytest.raises(WeylScopeError, match=r"lambda=\(0.5\+0j\) lies on the real axis"):
        cauchy_transform(simple(-1j), 0.5)


def test_cauchy_on_and_next_to_the_pole_of_the_conjugate():
    # conj(f) = 1/(x - i) has its pole on lam's side, where the closed form leaves it out
    f = simple(-1j)
    assert cauchy_transform(f, 1j) == 0
    for delta in (1e-12, 1e-9):
        lam = 1j + delta * np.exp(0.7j)
        quad = real_line_quadrature(lambda x: np.conj(f(x)) / (x - lam), 2)
        assert abs(cauchy_transform(f, lam) - quad) <= 1e-12


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


NEAR_POLE = 0.3 + 0.5j
NEAR_PSI = PoleSum.from_poles((NEAR_POLE, -0.4 - 0.8j), (1.0, 0.6 - 0.2j), (2, 1))
NEAR_MODEL = FriedrichsModel(phi=PoleSum.from_poles((0.5 - 1j, -0.2 + 1.5j),
                                                    (0.8 + 0.1j, -0.3 + 0.4j)),
                             psi=NEAR_PSI, bparam=0.2 - 0.1j)
# lam = -i is the pole of psi; conj(phi) has its pole at 2i
PSI_POLE_MODEL = FriedrichsModel(phi=simple(-2j), psi=simple(-1j, 0.7 + 0.3j))


def _quadrature_i_psi_det_and_m(model, lam):
    """(I_psi, D, M) at lam from real_line_quadrature of the three Cauchy integrals."""
    psi, conj_phi = model.psi, lambda x: np.conj(model.phi(x))
    i_psi = real_line_quadrature(lambda x: psi(x) / (x - lam), 2)
    i_phi = real_line_quadrature(lambda x: conj_phi(x) / (x - lam), 2)
    det = 1.0 + real_line_quadrature(lambda x: psi(x) * conj_phi(x) / (x - lam), 2)
    bracket = np.sign(lam.imag) * 1j * np.pi + i_psi * i_phi / det - model.bparam
    return i_psi, det, 1.0 / bracket


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
def test_cauchy_and_m_value_next_to_a_pole_on_lambdas_side(delta):
    # lam lies delta from the order-2 pole of psi, on its side of the axis, where the
    # partial fractions of psi / (x - lam) cancel to about 1/delta^2 of their size
    lam = NEAR_POLE + delta * np.exp(0.7j)
    i_psi, det, m = _quadrature_i_psi_det_and_m(NEAR_MODEL, lam)
    assert abs(cauchy_transform(NEAR_PSI.conjugate(), lam) - i_psi) <= 1e-12 * abs(i_psi)
    assert abs(perturbation_determinant(NEAR_MODEL, lam) - det) <= 1e-12 * abs(det)
    assert abs(m_value(NEAR_MODEL, lam) - m) <= 1e-12 * abs(m)


@pytest.mark.parametrize("seed", range(3))
def test_cauchy_matches_the_pole_sum_product_away_from_poles(seed):
    # the product with 1/(x - lam) and its residue closure, the route the closed form
    # replaces, agree with it at least 0.2 from every pole
    model = _seeded_model(seed, phi_orders=(3, 1), psi_orders=(2, 3))
    rng = np.random.default_rng(seed)
    poles = [p for p, _ in model.psi.terms] + [np.conj(p) for p, _ in model.phi.terms]
    lams = [lam for lam in rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
            if min(abs(lam - p) for p in poles) >= 0.2 and abs(lam.imag) >= 0.2]
    for ps in model._sums[:3]:
        for lam in lams:
            expect = (ps * simple(lam)).line_integral()
            got = friedrichs._cauchy(ps, np.array([lam]), lam.imag > 0)[0]
            assert abs(got - expect) <= 1e-12 * max(1.0, abs(expect))


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
        with pytest.raises(WeylScopeError, match="M-function pole at lam="):
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

    psi = PoleSum.from_poles(poles(), residues(), (1, 2))
    phi0 = PoleSum.from_poles(poles(), residues(), (2, 1))
    d0 = perturbation_determinant(FriedrichsModel(phi=phi0, psi=psi), lam0) - 1.0
    phi = phi0.scaled(np.conj(-1.0 / d0))
    return FriedrichsModel(phi=phi, psi=psi, bparam=complex(*rng.uniform(-0.5, 0.5, 2)))


def _determinant_zero_at_psi_pole():
    """psi = 1/(x + i) and phi scaled so that D vanishes at the pole -i of psi."""
    psi = simple(-1j)
    d0 = perturbation_determinant(FriedrichsModel(phi=simple(-2j), psi=psi), -1j) - 1.0
    return FriedrichsModel(phi=simple(-2j, np.conj(-1.0 / d0)), psi=psi)


def test_m_value_raises_where_the_determinant_vanishes():
    model = _determinant_zero_model(np.random.default_rng(7), -0.5j)
    with pytest.raises(WeylScopeError, match="^determinant vanishes at lam="):
        m_value(model, -0.5j)


def test_m_value_raises_where_the_determinant_vanishes_on_a_pole_of_psi():
    with pytest.raises(WeylScopeError, match="^determinant vanishes at lam="):
        m_value(_determinant_zero_at_psi_pole(), -1j)


def _pointwise_rows(model, re_points, eps_values):
    """m_scan's rows from one _det_and_bracket call per point, on a fresh copy of the
    model each time, so its pole sums are rebuilt and model keeps none cached."""
    rows = []
    for x0 in re_points:
        for eps in eps_values:
            for lam in (complex(x0, eps), complex(x0, -eps)):
                det, bracket = _det_and_bracket(dataclasses.replace(model), np.array([lam]))
                d, b = abs(complex(det[0])), abs(complex(bracket[0]))
                if np.isnan(b) or b < 1e-12:
                    rows.append((lam.real, lam.imag, np.nan, np.nan, d, b))
                else:
                    m = (1.0 / bracket)[0]
                    rows.append((lam.real, lam.imag, float(m.real), float(m.imag), d, b))
    return rows


def _scan_matches_pointwise(model, re_points, eps_values):
    """m_scan's rows, after checking them repr-equal (types included) to _pointwise_rows."""
    expected = _pointwise_rows(model, re_points, eps_values)
    rows = m_scan(model, re_points, eps_values)
    assert repr(rows) == repr(expected)
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
    # psi conj(phi) is formed once per scan; the Cauchy integrals take no product
    assert len(polesum_mul_calls) == 1


def _seeded_model(seed, phi_orders=(2, 1), psi_orders=(1, 2)):
    """A model drawn like the benchmark's: one pole per half plane in phi and psi."""
    rng = np.random.default_rng(seed)

    def rational(orders):
        poles = tuple(complex(rng.uniform(-2, 2), sign * rng.uniform(0.5, 2)) for sign in (-1, 1))
        residues = tuple(complex(*rng.uniform(-1, 1, 2)) for _ in poles)
        return PoleSum.from_poles(poles, residues, orders)

    phi, psi = rational(phi_orders), rational(psi_orders)
    return FriedrichsModel(phi=phi, psi=psi, bparam=complex(*(0.5 * rng.uniform(-1, 1, 2))))


@pytest.mark.parametrize("seed", range(401, 431))
def test_m_scan_matches_pointwise_on_seeded_models(seed):
    # 21 real parts hold 0.0; eps as in the benchmark, down to 1e-3
    _scan_matches_pointwise(_seeded_model(seed), np.linspace(-3.0, 3.0, 21), [0.3, 0.1, 1e-3])


@pytest.mark.parametrize("seed", range(3))
def test_m_scan_matches_pointwise_with_order_three_poles(seed):
    model = _seeded_model(seed, phi_orders=(3, 1), psi_orders=(2, 3))
    _scan_matches_pointwise(model, np.linspace(-3.0, 3.0, 21), [0.5, 1e-2])


def test_m_scan_matches_pointwise_on_signed_zero_real_parts():
    # a pole with real part -0.0 against grid points 0.0 and -0.0, and real residues,
    # whose conjugates carry -0.0 imaginary parts
    phi = PoleSum.from_poles((complex(-0.0, -1.0),), (1.0,))
    psi = PoleSum.from_poles((complex(-0.0, -2.0), 0.5 + 1j), (0.5, -2.0), (3, 1))
    _scan_matches_pointwise(FriedrichsModel(phi=phi, psi=psi), [0.0, -0.0, 1.0], [1.5, -1.5, 0.5])


def test_m_scan_matches_pointwise_where_psi_poles_merge():
    # the order-2 pole of psi lies within the merge tolerance of its order-1 pole
    psi = PoleSum.from_poles((1j, 1j * (1 + 1e-15)), (1.0, 0.5), (1, 2))
    model = FriedrichsModel(phi=simple(-0.5 + 2j, 0.4), psi=psi)
    _scan_matches_pointwise(model, np.linspace(-1.0, 1.0, 7), [0.5, 0.1])


def test_m_scan_matches_pointwise_on_empty_pole_sums():
    for phi, psi in ((simple(-1j, 0.0), simple(-1j)), (simple(-1j), simple(-1j, 0.0))):
        _scan_matches_pointwise(FriedrichsModel(phi=phi, psi=psi, bparam=0.3), [0.0, 1.0],
                                [0.5, 0.1])


@pytest.mark.parametrize("model, re_points, eps_values, pole_rows", [
    # D vanishes at -0.5i, the fourth point
    (_determinant_zero_model(np.random.default_rng(7), -0.5j), [-0.5, 0.0], [0.5], [3]),
    # D vanishes at the pole -i of psi, the second point
    (_determinant_zero_at_psi_pole(), [0.0], [1.0], [1]),
    # B = pi i: the bracket vanishes at every point above the axis
    (hardy_model(b=np.pi * 1j), [0.0, 1.0], [1e-2], [0, 2]),
    # the second point, -i, is the pole of psi; the fourth and sixth lie 1.5e-10 and 3e-10 from it
    (PSI_POLE_MODEL, [0.0, 1.5e-10, 3e-10], [1.0], []),
    # lam = 1e60 +- i against a 1e-200 term of psi
    (FriedrichsModel(phi=simple(-0.5 + 1j, 0.4),
                     psi=PoleSum.from_poles((-1j, 2 - 1j), (1.0, 1e-200))),
     [0.5, 1e60], [1.0], []),
    # lam = 1e100 +- i against the order-3 term of psi conj(phi), which underflows to 0
    (FriedrichsModel(phi=simple(1j, 0.4), psi=simple(-1j, 1e-140, order=2)),
     [0.5, 1e100], [1.0], []),
], ids=["det-zero", "det-zero-at-psi-pole", "bracket-zero", "near-pole", "lambda-1e60", "lambda-1e100"])
def test_m_scan_matches_pointwise_at_edge_points(model, re_points, eps_values, pole_rows):
    rows = _scan_matches_pointwise(model, re_points, eps_values)
    assert [k for k, row in enumerate(rows) if np.isnan(row[2])] == pole_rows


def test_m_scan_raises_on_real_lambda():
    with pytest.raises(WeylScopeError, match="lambda=0j lies on the real axis") as pointwise:
        _pointwise_rows(hardy_model(), [0.0, 1.0], [0.1, 0.0])
    with pytest.raises(WeylScopeError, match="lambda=0j lies on the real axis") as scan:
        m_scan(hardy_model(), [0.0, 1.0], [0.1, 0.0])
    assert str(scan.value) == str(pointwise.value)


def test_m_scan_gives_values_on_psi_pole():
    # the second point, -i, is the pole of psi; conj(phi) has its pole at 2i
    rows = _scan_matches_pointwise(PSI_POLE_MODEL, [0.0, 1.0], [1.0])
    assert rows[1][:2] == (0.0, -1.0)
    assert np.isfinite(rows).all()


def test_m_on_the_pole_of_psi_matches_quadrature():
    # the closed form leaves out the poles on lam's own side, so lam on one is no special point
    _, det, m = _quadrature_i_psi_det_and_m(PSI_POLE_MODEL, -1j)
    assert abs(m_value(PSI_POLE_MODEL, -1j) - m) <= 1e-12 * abs(m)
    _, _, re_m, im_m, abs_det, _ = m_scan(PSI_POLE_MODEL, [0.0], [1.0])[1]
    assert abs(complex(re_m, im_m) - m) <= 1e-12 * abs(m)
    assert abs(abs_det - abs(det)) <= 1e-12 * abs(det)


def test_m_scan_is_finite_where_pole_terms_leave_the_double_range():
    # (lam - a)^3 overflows at |lam| = 1e200: those terms count as 0, so D = 1, I_psi = 0
    # and M takes the value of a model without perturbation
    psi = PoleSum.from_poles((-1j, 1 + 2j), (0.5 + 0.2j, -0.3), (3, 3))
    model = FriedrichsModel(phi=simple(-0.5 + 1j, 0.4), psi=psi, bparam=0.1)
    rows = m_scan(model, [-1e200, 0.0, 1e200], [1.0])
    assert np.isfinite(rows).all()
    for re, im, re_m, im_m, abs_det, _ in rows:
        if abs(re) == 1e200:
            expect = 1.0 / (np.sign(im) * 1j * np.pi - 0.1)
            assert abs_det == 1.0
            assert abs(complex(re_m, im_m) - expect) <= 1e-15 * abs(expect)


def test_m_scan_non_hardy_jump_converges():
    model = FriedrichsModel(
        phi=PoleSum.from_poles((-1j, 2j), (0.6, 0.4)),
        psi=PoleSum.from_poles((-2j, 1j), (1.0, -0.3)),
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
    assert simple(-1j).tail_coefficient() == 1.0


def test_tail_double_pole():
    assert simple(-1j, 1.0, 2).tail_coefficient() == 0.0


def test_tail_residue_sum():
    assert PoleSum.from_poles((3j, -1j), (2.0, 1.0)).tail_coefficient() == 3.0


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
    f = PoleSum.from_poles((2j, -2j), (1.0, -1.0))
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
    f = simple(3j, 1.0, 2)  # poles conjugate-separated from phi: inner product 0
    assert abs(inner_product(f, model.phi)) < 1e-14
    x_f = PoleSum.from_poles((3j, 3j), (1.0, 3j), (1, 2))  # x/(x - 3i)^2 in partial fractions
    assert _norm(maximal_action(model, f) - x_f) <= 1e-14 * _norm(x_f)


def test_green_pair_identity_random_rationals():
    rng = np.random.default_rng(23)
    model = hardy_model(b=0.0)
    pole_pool = [-1j, -2j, 1j, 2j, 1.0 - 1.5j, -0.7 + 1.2j]
    for _ in range(50):
        fp = rng.choice(6, size=2, replace=False)
        f = PoleSum.from_poles((pole_pool[fp[0]], pole_pool[fp[1]]),
                               rng.standard_normal(2) + 1j * rng.standard_normal(2))
        gp = rng.choice(6, size=2, replace=False)
        g = PoleSum.from_poles((pole_pool[gp[0]], pole_pool[gp[1]]),
                               rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert green_pair_residual(model, f, g) < 1e-8


# ROADMAP item 9's probe: two-sided data, on which I_psi I_phi does not vanish
PROBE_LAMS = (0.4 + 0.9j, -0.3 - 0.6j, 1.2 + 0.2j)


def probe_model():
    return FriedrichsModel(phi=PoleSum.from_poles((-2j, 1 + 1j), (0.7 + 0.1j, 0.3)),
                           psi=PoleSum.from_poles((-1j, 0.5 + 2j), (1.0, 0.4 - 0.2j)),
                           bparam=0.3 - 0.2j)


def kernel_element(model, lam):
    """u = r + t psi r, r = 1/(x - lam), t = -<r, phi> / D(lam): unit tail, in ker(A - lam)."""
    i_phi = (model.phi.conjugate() * simple(lam)).line_integral()
    return simple(lam) - (model.psi * simple(lam)).scaled(
        i_phi / perturbation_determinant(model, lam))


def test_kernel_element_formula():
    # the explicit kernel element with unit tail: action equals lam times it
    cases = [(hardy_model(b=0.0), 0.8 - 1.3j)] + [(probe_model(), lam) for lam in PROBE_LAMS]
    for model, lam in cases:
        kernel = kernel_element(model, lam)
        assert abs(kernel.tail_coefficient() - 1.0) < 1e-13
        lam_kernel = kernel.scaled(lam)
        assert _norm(maximal_action(model, kernel) - lam_kernel) <= 1e-14 * _norm(lam_kernel)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND, ROADMAP item 9: m_value adds I_psi I_phi / D where the "
                          "definition subtracts it")
def test_m_value_is_the_m_function_of_the_boundary_maps():
    # M_B (G1 - B G2) u = G2 u on the kernel element, G1 and G2 from boundary_values
    model = probe_model()
    for lam in PROBE_LAMS:
        g1, g2 = boundary_values(kernel_element(model, lam))
        assert abs(m_value(model, lam) - g2 / (g1 - model.bparam * g2)) <= 1e-12


# -------------------------------------------------------------------- examples


def test_example2_lower_case():
    rep = example_eigenvalue_not_pole(lam0=-1j)
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
    rep = example_eigenvalue_not_pole(lam0=2j)
    assert rep["case"] == "upper"
    # upper case: lam0 = 2i joins the upper poles, so the closure gives
    # J = -2 pi i res_{-i} = pi i / 3 and the scaling is c = -3i/pi
    np.testing.assert_allclose(rep["phi_scale"], [0.0, -3.0 / np.pi], atol=1e-12)
    assert rep["det_at_lam0"] < 1e-12
    np.testing.assert_allclose(rep["obstruction"], [-1.0, 0.0], atol=1e-10)
    assert rep["solvability_residual_rel"] >= 1e-2
    assert rep["eigen_residual"] < 1e-7
    assert rep["m_pole_residual"] < 1e-10


def upper_example(lam0):
    """The ex2 report at lam0 and its model (psi = 1/(x + i), phi scaled from the report)."""
    rep = example_eigenvalue_not_pole(lam0=lam0)
    assert rep["case"] == "upper"
    psi = simple(-1j)
    phi = simple(-1j, complex(*rep["phi_scale"]))
    return rep, FriedrichsModel(phi=phi, psi=psi, bparam=0.0)


@pytest.mark.parametrize("lam0", [2j, -0.2 + 1.3j])
def test_solvability_residual_is_the_distance_to_the_range(lam0):
    # psi against the closure of (A_0 - lam0) u over u = sum c_j / (x - p_j) with
    # G1 u = 0: an exact-Gram constrained least squares approaches the distance
    # from above, and the reported value is that distance
    rep, model = upper_example(lam0)
    psi = model.psi
    trial = [simple(complex(re, im)) for re in (-3.0, -1.0, 0.0, 1.0, 3.0, 9.0)
             for im in (0.4, 0.7, 1.1, 1.6, 2.9, 5.0, -0.4, -0.7, -1.1, -1.6, -2.9, -5.0)]
    assert len(trial) == 72
    images = [maximal_action(model, b) - b.scaled(lam0) for b in trial]
    gram = np.array([[inner_product(gj, gi) for gj in images] for gi in images])
    rhs = np.array([inner_product(psi, gi) for gi in images])
    g1 = np.array([[b.symmetric_integral() for b in trial]])
    null = np.linalg.svd(g1)[2][1:].conj().T  # coefficient vectors with G1 u = 0
    vals, vecs = np.linalg.eigh(null.conj().T @ gram @ null)
    kept = vals > 1e-15 * vals[-1]  # a Gram matrix is semidefinite: the rest is rounding
    basis = null @ vecs[:, kept]
    coeff = basis @ ((basis.conj().T @ rhs) / vals[kept])
    assert abs(g1 @ coeff)[0] < 1e-14
    resid = psi
    for c, g in zip(coeff, images):
        resid = resid - g.scaled(c)
    reached = _norm(resid) / _norm(psi)
    reported = rep["solvability_residual_rel"]
    assert reached >= reported - 1e-12
    assert reached - reported <= 1e-10 * reported


@pytest.mark.parametrize("lam0", [2j, -0.2 + 1.3j])
def test_dual_element_spans_the_cokernel(lam0):
    # w = phi/(x - conj lam0) solves the swapped eigen equation at conj lam0
    # with both boundary values 0, so it is orthogonal to ran(A_0 - lam0)
    rep, model = upper_example(lam0)
    w = model.phi * simple(np.conj(lam0))
    assert _norm(maximal_action(model, w, swapped=True) - w.scaled(np.conj(lam0))) \
        <= 1e-14 * _norm(w)
    assert boundary_values(w) == (0.0, 0.0)
    obstruction = inner_product(model.psi, w)
    np.testing.assert_allclose([obstruction.real, obstruction.imag], rep["obstruction"],
                               atol=1e-15)
    assert rep["solvability_residual_rel"] == pytest.approx(
        abs(obstruction) / (_norm(w) * _norm(model.psi)), rel=1e-15)


def test_example3_default_construction():
    rep = example_embedded_eigenvalue()
    assert abs(rep["scaling"] - np.sqrt(2.0 / np.pi)) < 1e-12
    assert rep["psi_at_lam0"] < 1e-12
    assert rep["normalization_error"] < 1e-9
    assert rep["eigen_residual"] < 1e-7
    assert rep["m_jump_error"] < 1e-9
    np.testing.assert_allclose(rep["m_jump"], [0.0, -2.0 / np.pi], atol=1e-12)


def test_example3_selfadjoint_symmetry():
    rep = example_embedded_eigenvalue(bparam=0.7)
    s = rep["scaling"]
    psi = simple(-1.0 - 1j, 1.0, 2).shift_multiply().scaled(s)
    model = FriedrichsModel(phi=psi, psi=psi, bparam=0.7)
    for lam in (0.5 + 1j, -1.0 + 0.3j, 2.0 + 2j):
        assert abs(np.conj(m_value(model, np.conj(lam))) - m_value(model, lam)) < 1e-10


def test_model_from_dict_without_orders_or_b():
    # a model in the config format: orders default to all ones, B to 0
    model = model_from_dict({
        "type": "friedrichs",
        "phi": {"poles": [[0.0, -1.0], [1.0, -2.0]], "residues": [[1.0, 0.0], [0.0, 0.5]]},
        "psi": {"poles": [[0.0, -2.0]], "residues": [[2.0, 0.0]]},
    })
    # PoleSum compares by identity: compare the terms, in their order
    assert list(model.phi.terms.items()) == [((-1j, 1), 1.0), ((1 - 2j, 1), 0.5j)]
    assert list(model.psi.terms.items()) == [((-2j, 1), 2.0)]
    assert model.bparam == 0
