import numpy as np
import pytest

from weylscope.errors import (
    DimensionMismatchError,
    SlowDecayError,
)
from weylscope.numerics import (
    ContourSpec,
    contour_integral,
    orthonormal_basis,
    principal_angles,
    real_line_quadrature,
)


def test_orthonormal_basis_rank_one():
    cols = np.array([[1.0, 2.0], [0.0, 0.0]])
    q = orthonormal_basis(cols, 1e-10)
    assert q.shape == (2, 1)
    assert abs(abs(q[0, 0]) - 1.0) < 1e-14


def test_orthonormal_basis_identity():
    q = orthonormal_basis(np.eye(4), 1e-10)
    assert q.shape == (4, 4)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(4), atol=1e-13)


def test_orthonormal_basis_recovers_rank():
    rng = np.random.default_rng(5)
    sub = rng.standard_normal((30, 5)) + 1j * rng.standard_normal((30, 5))
    mix = sub @ (rng.standard_normal((5, 50)) + 1j * rng.standard_normal((5, 50)))
    q = orthonormal_basis(mix, 1e-10)
    # independent rank oracle: svd of the raw column family
    s = np.linalg.svd(mix, compute_uv=False)
    assert q.shape[1] == int(np.sum(s > 1e-10 * s[0])) == 5


def test_orthonormal_basis_idempotent():
    rng = np.random.default_rng(6)
    cols = rng.standard_normal((15, 7)) + 1j * rng.standard_normal((15, 7))
    q1 = orthonormal_basis(cols, 1e-10)
    q2 = orthonormal_basis(q1, 1e-10)
    assert np.max(principal_angles(q1, q2)) < 1e-12


def test_orthonormal_basis_empty():
    q = orthonormal_basis(np.zeros((4, 0)), 1e-10)
    assert q.shape == (4, 0)


def test_principal_angles_equal_spans():
    rng = np.random.default_rng(7)
    q = orthonormal_basis(rng.standard_normal((10, 3)), 1e-10)
    assert np.max(principal_angles(q, q)) < 1e-14


def test_principal_angles_orthogonal_lines():
    u = np.array([[1.0], [0.0]])
    v = np.array([[0.0], [1.0]])
    np.testing.assert_allclose(principal_angles(u, v), [np.pi / 2], atol=1e-14)


def test_principal_angles_diagonal_line():
    u = np.array([[1.0], [0.0]])
    v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    np.testing.assert_allclose(principal_angles(u, v), [np.pi / 4], atol=1e-12)


def test_principal_angles_resolve_tiny():
    # arccos alone cannot see angles below sqrt(eps); the sine route must
    eps = 1e-9
    u = np.array([[1.0], [0.0]])
    v = np.array([[np.cos(eps)], [np.sin(eps)]])
    np.testing.assert_allclose(principal_angles(u, v), [eps], rtol=1e-6)


def test_principal_angles_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        principal_angles(np.eye(3), np.eye(4))


def test_contour_constant_integrand():
    c = ContourSpec(center=0.5j, radius=2.0, nodes=16)
    val = contour_integral(lambda z: np.array([[3.0 + 1j]]), c)
    assert np.linalg.norm(val) < 1e-13


def test_contour_polynomials_vanish():
    rng = np.random.default_rng(8)
    c = ContourSpec(center=1.0 - 0.5j, radius=1.7, nodes=32)
    for deg in range(6):
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        val = contour_integral(lambda z: np.polyval(coeffs, z), c)
        assert abs(val) < 1e-12


def test_contour_simple_pole():
    c = ContourSpec(center=2.0 + 1.0j, radius=0.7, nodes=64)
    val = contour_integral(lambda z: 1.0 / (z - c.center), c)
    assert abs(val - 2j * np.pi) < 1e-10


def test_contour_diagonal_resolvent_projection():
    a = np.diag([0.0, 5.0])
    c = ContourSpec(center=0.0, radius=1.0, nodes=64)
    val = contour_integral(lambda z: np.linalg.inv(a - z * np.eye(2)), c)
    expected = -2j * np.pi * np.diag([1.0, 0.0])
    assert np.linalg.norm(val - expected) < 1e-10


def test_contour_geometric_node_decay():
    # analytic integrand: doubling nodes must slash the error
    c_coarse = ContourSpec(center=0.0, radius=1.0, nodes=12)
    c_fine = ContourSpec(center=0.0, radius=1.0, nodes=24)
    f = lambda z: 1.0 / (z - 3.0)
    assert abs(contour_integral(f, c_fine)) < abs(contour_integral(f, c_coarse)) * 1e-3


def test_line_quadrature_arctan():
    val = real_line_quadrature(lambda x: 1.0 / (x**2 + 1.0), 2)
    assert abs(val - np.pi) < 1e-10


def test_line_quadrature_partial_fractions():
    val = real_line_quadrature(lambda x: 1.0 / ((x**2 + 1.0) * (x**2 + 4.0)), 4)
    assert abs(val - np.pi / 6.0) < 1e-10


def test_line_quadrature_odd_function():
    val = real_line_quadrature(lambda x: x / (x**2 + 1.0) ** 2, 3)
    assert abs(val) < 1e-12


def test_line_quadrature_slow_decay_raises():
    with pytest.raises(SlowDecayError):
        real_line_quadrature(lambda x: 1.0 / (abs(x) + 1.0), 1)


def test_contour_spec_validation():
    with pytest.raises(ValueError):
        ContourSpec(center=0.0, radius=-1.0)
    with pytest.raises(ValueError):
        ContourSpec(center=0.0, radius=1.0, nodes=7)
