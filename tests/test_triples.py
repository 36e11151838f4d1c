import dataclasses
import json
import warnings

import numpy as np
import pytest

from weylscope.errors import WeylScopeError
from weylscope.numerics import ContourSpec, contour_integral
from weylscope.triples import (
    Extension,
    FiniteTriple,
    adjoint_extension,
    direct_sum_hidden,
    extension_eigenvalues,
    extension_operator,
    green_residual,
    hilbert_identity_residual,
    krein_residual,
    m_function,
    m_via_resolvent,
    make_triple,
    random_extension,
    random_triple,
    resolvent_matrices,
    solution_basis,
    spectrum_distance,
    triple_from_dict,
    triple_to_dict,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1729)


@pytest.fixture
def triple(rng):
    return random_triple(rng, state_dim=6, h=2, k=2)


@pytest.fixture
def ext(rng, triple):
    return random_extension(rng, triple)


def _rand_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _safe_lambda(ext, rng, min_dist=0.3):
    eigs = extension_eigenvalues(ext)
    while True:
        lam = complex(*rng.uniform(-4, 4, size=2))
        if eigs.size == 0 or np.min(np.abs(eigs - lam)) > min_dist:
            return lam


# ---------------------------------------------------------------- make_triple


def test_no_boundary_selfadjoint_pair(rng):
    t = _rand_vec(rng, 4).reshape(2, 2)
    tr = make_triple(t, np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))
    np.testing.assert_allclose(tr.action_adj, t.conj().T)


def test_canonical_projections_exact_identity():
    # difference-operator action with coordinate-row boundary maps (h = k = 1);
    # the derived adjoint data closes the pairing identity exactly
    action = np.zeros((3, 4))
    for i in range(3):
        action[i, i] = -1.0
        action[i, i + 1] = 1.0
    bnd1 = np.eye(4)[3][None, :]
    bnd2 = np.eye(4)[0][None, :]
    adj_bnd1 = np.eye(4)[0][None, :]
    tr = make_triple(action, bnd1, bnd2, adj_bnd1)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = _rand_vec(rng, 4)
        v = _rand_vec(rng, 4)
        assert green_residual(tr, u, v) < 1e-14


def test_random_triple_green_residual(rng, triple):
    for _ in range(100):
        u = _rand_vec(rng, triple.dom_dim)
        v = _rand_vec(rng, triple.adj_dom_dim)
        assert green_residual(triple, u, v) < 1e-12


def test_green_zero_vectors(triple):
    assert green_residual(triple, np.zeros(triple.dom_dim), np.zeros(triple.adj_dom_dim)) == 0.0


def test_green_detects_corruption(rng, triple):
    bad = triple.bnd1.copy()
    bad[0, 0] += 1.0
    corrupted = triple.__class__(
        action=triple.action,
        action_adj=triple.action_adj,
        bnd1=bad,
        bnd2=triple.bnd2,
        adj_bnd1=triple.adj_bnd1,
        adj_bnd2=triple.adj_bnd2,
    )
    u = _rand_vec(rng, triple.dom_dim)
    v = _rand_vec(rng, triple.adj_dom_dim)
    assert green_residual(corrupted, u, v) > 1e-6


def test_rank_deficient_boundary_rejected(rng):
    action = rng.standard_normal((3, 5))
    bnd1 = np.vstack([np.eye(5)[3], np.eye(5)[3]])  # repeated row: rank 1, h = 2
    bnd2 = np.zeros((0, 5))
    with pytest.raises(WeylScopeError, match="stacked primary boundary maps not surjective"):
        make_triple(action, bnd1, bnd2, np.zeros((0, 3)))


def test_inconsistent_supplied_adjoint_map_rejected(rng, triple):
    bad = triple.adj_bnd2 + 0.1
    with pytest.raises(WeylScopeError, match="adj_bnd2 does not close the pairing identity"):
        make_triple(triple.action, triple.bnd1, triple.bnd2, triple.adj_bnd1, bad)


@pytest.mark.parametrize("action, bnd1, bnd2, adj_bnd1, message", [
    (np.ones(3), [], [], [], "action must be a matrix"),
    (np.ones((3, 2)), [], [], [], "action cannot have more rows than columns"),
    (np.ones((2, 3)), np.ones((2, 3)), [], [], r"bnd1 must have shape \(1, 3\), got \(2, 3\)"),
    (np.ones((2, 3)), np.ones((1, 3)), np.ones((1, 2)), [], "bnd2 must have 3 columns"),
    (np.ones((2, 3)), np.ones((1, 3)), np.ones((1, 3)), np.ones((1, 2)),
     r"adj_bnd1 must have shape \(1, 3\), got \(1, 2\)"),
], ids=["action-1d", "action-tall", "bnd1-rows", "bnd2-columns", "adj-bnd1-columns"])
def test_make_triple_rejects_misshaped_maps(action, bnd1, bnd2, adj_bnd1, message):
    with pytest.raises(ValueError, match=message):
        make_triple(action, bnd1, bnd2, adj_bnd1)


@pytest.mark.parametrize("action, bnd1, bnd2, adj_bnd1, message", [
    # m = 1, h = 0 and k = 2: two boundary rows on a one-dimensional domain
    (np.ones((1, 1)), [], np.ones((2, 1)), np.zeros((2, 3)),
     "primary boundary maps exceed domain dimension"),
    # surjective [bnd1; bnd2], but adj_bnd2 cannot be derived through bnd1[:, m:] = 0
    (np.ones((1, 2)), [[1.0, 0.0]], np.zeros((0, 2)), [],
     "bnd1 defect block is singular; supply adj_bnd2 explicitly"),
], ids=["k-above-m", "singular-defect-block"])
def test_make_triple_refuses_unusable_boundary_maps(action, bnd1, bnd2, adj_bnd1, message):
    with pytest.raises(WeylScopeError, match=message):
        make_triple(action, bnd1, bnd2, adj_bnd1)


def test_consistent_supplied_adjoint_map_accepted(triple):
    rebuilt = make_triple(triple.action, triple.bnd1, triple.bnd2,
                          triple.adj_bnd1, triple.adj_bnd2)
    np.testing.assert_allclose(rebuilt.action_adj, triple.action_adj, atol=1e-12)


def test_triple_payload_is_frozen(triple):
    with pytest.raises(ValueError):
        triple.action[0, 0] = 1.0


def test_serialization_roundtrip(triple):
    data = triple_to_dict(triple)
    assert data["schema"] == "triple-v1"
    back = triple_from_dict(data)
    for field in ("action", "action_adj", "bnd1", "bnd2", "adj_bnd1", "adj_bnd2"):
        np.testing.assert_allclose(getattr(back, field), getattr(triple, field))


def test_serialization_rejects_corruption(triple):
    data = triple_to_dict(triple)
    data["bnd1"][0][0] = [data["bnd1"][0][0][0] + 1.0, data["bnd1"][0][0][1]]
    with pytest.raises(ValueError):
        triple_from_dict(data)


def _entrywise_to_dict(tr):
    """triple_to_dict written one entry at a time: the reference for its array writer."""

    def enc(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]

    fields = ("action", "action_adj", "bnd1", "bnd2", "adj_bnd1", "adj_bnd2")
    return {"schema": "triple-v1", "state_dim": tr.state_dim, "h": tr.h, "k": tr.k,
            **{name: enc(getattr(tr, name)) for name in fields}}


@pytest.mark.parametrize("state_dim, real", [(0, False), (20, False), (40, True), (120, False)])
def test_triple_to_dict_matches_the_entrywise_writer(state_dim, real):
    bnd = min(2, state_dim)
    tr = random_triple(np.random.default_rng(state_dim), state_dim, h=bnd, k=bnd, real=real)
    # signed zeros in both parts of every entry
    signed = dataclasses.replace(tr, action=-(tr.action * 0.0), bnd1=tr.bnd1 * 0.0)
    for case in (tr, signed):
        assert json.dumps(triple_to_dict(case), sort_keys=True) \
            == json.dumps(_entrywise_to_dict(case), sort_keys=True)


@pytest.mark.parametrize("seed", range(8))
def test_pairing_gate_is_relative_to_both_sides(seed):
    # |action_adj|_F is 187-721 against |action|_F of about 58: scaled by |action|
    # alone, the gate rejected the 1e-10 defect at seed 2 and accepted it elsewhere
    data = triple_to_dict(random_triple(np.random.default_rng(seed), 40, 2, 2))

    def with_defect(rel):
        return {**data, "action_adj": (np.array(data["action_adj"]) * (1 + rel)).tolist()}

    triple_from_dict(with_defect(1e-10))
    with pytest.raises(ValueError, match="pairing identity"):
        triple_from_dict(with_defect(1e-6))


# ------------------------------------------------------------ extension basics


class _NoDraws:
    def standard_normal(self, size):
        raise AssertionError("drew from the generator")


@pytest.mark.parametrize("shape", [(1, 2, 0), (1, 1, 2)])
def test_random_triple_rejects_boundary_rows_beyond_state_dim(shape):
    # one side's stacked boundary maps would have more rows than columns, so
    # no draw could succeed: the call raises before drawing
    with pytest.raises(ValueError, match="h, k <= state_dim"):
        random_triple(_NoDraws(), *shape)


def _domain_basis(ext):
    """Null-space oracle: orthonormal columns spanning ker(bnd1 - B bnd2), by svd."""
    _, s, vh = np.linalg.svd(ext.constraint)
    return vh[np.sum(s > 1e-12):].conj().T


def test_extension_domain_no_bnd2(rng):
    # k = 0: the boundary condition reduces to ker(bnd1)
    tr = random_triple(rng, state_dim=4, h=1, k=0)
    ext = Extension(tr, np.zeros((1, 0)))
    null = _domain_basis(ext)
    assert null.shape == (5, 4)
    assert np.linalg.norm(tr.bnd1 @ null) < 1e-12
    op = extension_operator(ext)
    assert np.linalg.norm(op @ null[:4] - tr.action @ null) < 1e-10


def test_extension_domain_vacuous_constraint(rng):
    # h = 0: no constraint rows, so the domain is the whole space and the
    # restriction is the square action itself
    tr0 = random_triple(rng, state_dim=4, h=0, k=1)
    ext0 = Extension(tr0, np.zeros((0, 1)))
    assert ext0.constraint.shape == (0, 4)
    np.testing.assert_allclose(extension_operator(ext0), tr0.action, atol=1e-12)


def test_extension_domain_dimension_oracle(rng, ext):
    # the operator maps the state values of every domain vector to its action
    tr = ext.triple
    null = _domain_basis(ext)
    assert null.shape == (tr.dom_dim, tr.dom_dim - tr.h)
    op = extension_operator(ext)
    assert op.shape == (tr.state_dim, tr.state_dim)
    assert np.linalg.norm(op @ null[: tr.state_dim] - tr.action @ null) < 1e-10


def test_resolvent_zero_rhs(ext):
    lam = 0.123 + 0.456j
    x = resolvent_matrices(ext, lam)[0] @ np.zeros(ext.triple.state_dim)
    assert np.linalg.norm(x) == 0.0


def test_resolvent_diagonal_no_boundary():
    tr = make_triple(np.diag([1.0, 2.0]), np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))
    ext = Extension(tr, np.zeros((0, 0)))
    x = resolvent_matrices(ext, 0.0)[0] @ np.array([1.0, 1.0])
    np.testing.assert_allclose(x, [1.0, 0.5])


def test_resolvent_defining_equation(rng, ext):
    tr = ext.triple
    lam = _safe_lambda(ext, rng)
    rhs = _rand_vec(rng, tr.state_dim)
    x = resolvent_matrices(ext, lam)[0] @ rhs
    assert np.linalg.norm(tr.action @ x - lam * x[: tr.state_dim] - rhs) < 1e-10
    assert np.linalg.norm(ext.constraint @ x) < 1e-10


def test_resolvent_rejects_spectrum(rng, ext):
    lam = extension_eigenvalues(ext)[0]
    with pytest.raises(WeylScopeError, match="is in the spectrum of the restriction"):
        resolvent_matrices(ext, complex(lam))[0] @ np.ones(ext.triple.state_dim)


def test_resolvent_rejects_an_exactly_singular_system(monkeypatch):
    # at an eigenvalue of a diagonal action the stacked system has a zero pivot,
    # so the solve itself fails
    empty = np.zeros((0, 3))
    ext = Extension(make_triple(np.diag([1.0, 2.0, 3.0]), empty, empty, empty), np.zeros((0, 0)))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(ext.triple.action - 2.0 * np.eye(3), np.eye(3))
    with pytest.raises(WeylScopeError, match="is in the spectrum of the restriction"):
        resolvent_matrices(ext, 2.0)
    # an inverse that is not finite fails the condition gate, without a warning
    for bad in (np.nan, np.inf):
        monkeypatch.setattr(np.linalg, "inv", lambda mat, bad=bad: np.full(mat.shape, bad + 0j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WeylScopeError, match="is in the spectrum of the restriction"):
                resolvent_matrices(ext, 5.0)


def _jordan_extension():
    # 3 x 3 Jordan block at 2, similarity-transformed: its computed eigenvalues
    # lie ~1e-5 from 2, so a distance-to-spectrum gate would pass lam = 2
    sim = np.random.default_rng(11).standard_normal((3, 3))
    jordan = 2.0 * np.eye(3) + np.eye(3, k=1)
    action = sim @ jordan @ np.linalg.inv(sim)
    empty = np.zeros((0, 3))
    return Extension(make_triple(action, empty, empty, empty), np.zeros((0, 0)))


@pytest.mark.parametrize("lam", [2.0, 2.0 + 1e-9, 2.0 + 1e-6])
def test_resolvent_rejects_jordan_block_eigenvalue(lam):
    with pytest.raises(WeylScopeError, match="is in the spectrum of the restriction"):
        resolvent_matrices(_jordan_extension(), lam)


def test_gate_rejects_every_point_the_svd_test_rejects():
    # wherever sigma_min <= 1e-10 sigma_max for the stacked system, the solve
    # must raise; a weaker gate would let near-singular points through
    rng = np.random.default_rng(2401)
    rejected = 0
    for _ in range(60):
        m, h, k = int(rng.integers(2, 30)), int(rng.integers(0, 3)), int(rng.integers(0, 3))
        ext = random_extension(rng, random_triple(rng, m, h, k))
        eig = complex(rng.choice(extension_eigenvalues(ext)))
        for dist in (0.0, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6):
            lam = eig + dist * np.exp(2j * np.pi * rng.uniform())
            mat = np.vstack([ext.triple.action - lam * np.eye(m, m + h), ext.constraint])
            sv = np.linalg.svd(mat, compute_uv=False)
            if sv[-1] <= 1e-10 * sv[0]:
                rejected += 1
                with pytest.raises(WeylScopeError, match="is in the spectrum of the restriction"):
                    resolvent_matrices(ext, lam)
    assert rejected >= 60


def test_krein_and_hilbert_take_one_solve_per_point(rng, triple, solve_calls):
    ext_b = random_extension(rng, triple)
    ext_c = random_extension(rng, triple)
    lam, lam0 = _safe_lambda(ext_b, rng), _safe_lambda(ext_b, rng)
    f = _rand_vec(rng, triple.h)
    solve_calls.clear()  # drop the spectrum's solve
    krein_residual(ext_b, ext_c, lam)
    assert len(solve_calls) == 2
    hilbert_identity_residual(ext_b, lam, lam0, f)
    assert len(solve_calls) == 4


def test_solution_basis_owns_its_data(rng, ext):
    # a view into the n x n stacked inverse would keep all of it alive
    basis = solution_basis(ext, _safe_lambda(ext, rng))
    assert basis.flags.owndata
    assert basis.shape == (ext.triple.dom_dim, ext.triple.h)


def test_resolvent_matches_operator_inverse(rng, ext):
    lam = _safe_lambda(ext, rng)
    op = extension_operator(ext)
    _, rv = resolvent_matrices(ext, lam)
    direct = np.linalg.inv(op - lam * np.eye(ext.triple.state_dim))
    np.testing.assert_allclose(rv, direct, atol=1e-9)


# --------------------------------------------------------- solution operators


def test_solution_zero_data(rng, ext):
    lam = _safe_lambda(ext, rng)
    y = solution_basis(ext, lam) @ np.zeros(ext.triple.h)
    assert np.linalg.norm(y) < 1e-14


def test_solution_defining_equations(rng, ext):
    tr = ext.triple
    for _ in range(5):
        lam = _safe_lambda(ext, rng)
        f = _rand_vec(rng, tr.h)
        y = solution_basis(ext, lam) @ f
        assert np.linalg.norm(tr.action @ y - lam * y[: tr.state_dim]) < 1e-10
        assert np.linalg.norm(ext.constraint @ y - f) < 1e-10


def test_solution_lift_independence(rng, ext):
    # the kernel solution is unique, so it equals the lift construction for
    # any lift w with constraint(w) = f
    tr = ext.triple
    lam = _safe_lambda(ext, rng)
    f = _rand_vec(rng, tr.h)
    y = solution_basis(ext, lam) @ f
    for _ in range(2):
        w = np.linalg.lstsq(ext.constraint, f, rcond=None)[0]
        w = w + _domain_basis(ext) @ _rand_vec(rng, tr.dom_dim - tr.h)
        resid = tr.action @ w - lam * w[: tr.state_dim]
        corr = resolvent_matrices(ext, lam)[0] @ resid
        lifted = w - corr
        assert np.linalg.norm(lifted - y) < 1e-9


def test_hilbert_identity(rng, ext):
    for _ in range(5):
        lam = _safe_lambda(ext, rng)
        lam0 = _safe_lambda(ext, rng)
        f = _rand_vec(rng, ext.triple.h)
        assert hilbert_identity_residual(ext, lam, lam0, f) < 1e-9


def test_hilbert_identity_coincident_points(rng, ext):
    lam = _safe_lambda(ext, rng)
    f = _rand_vec(rng, ext.triple.h)
    assert hilbert_identity_residual(ext, lam, lam, f) < 1e-12


def test_hilbert_identity_near_spectrum(rng, ext):
    eigs = extension_eigenvalues(ext)
    lam = complex(eigs[0]) + 1e-3
    lam0 = _safe_lambda(ext, rng)
    f = _rand_vec(rng, ext.triple.h)
    assert hilbert_identity_residual(ext, lam, lam0, f) < 1e-6


def test_solution_operator_analytic(rng, ext):
    # closed-contour integral of lam -> solution vanishes off the spectrum
    eigs = extension_eigenvalues(ext)
    center = 0.0
    radius = 0.25 * min(abs(e - center) for e in eigs)
    f = _rand_vec(rng, ext.triple.h)
    spec = ContourSpec(center=center, radius=radius, nodes=32)
    val = contour_integral(lambda z: solution_basis(ext, z) @ f, spec)
    assert np.linalg.norm(val) < 1e-8


# ------------------------------------------------------------------ M-function


def test_m_function_no_bnd2_rows(rng):
    tr = random_triple(rng, state_dim=4, h=1, k=0)
    ext = Extension(tr, np.zeros((1, 0)))
    m = m_function(ext, 0.3 + 0.1j)
    assert m.shape == (0, 1)


def test_m_function_definition(rng, ext):
    tr = ext.triple
    lam = _safe_lambda(ext, rng)
    m = m_function(ext, lam)
    for _ in range(20):
        f = _rand_vec(rng, tr.h)
        u = solution_basis(ext, lam) @ f  # kernel element with data f
        assert np.linalg.norm(m @ (ext.constraint @ u) - tr.bnd2 @ u) < 1e-9


def test_m_real_triple_conjugate_symmetry(rng):
    tr = random_triple(rng, state_dim=5, h=1, k=1, real=True)
    ext = random_extension(rng, tr, real=True)
    lam = _safe_lambda(ext, rng)
    np.testing.assert_allclose(
        m_function(ext, np.conj(lam)), np.conj(m_function(ext, lam)), atol=1e-12
    )


def test_m_via_resolvent_matches(rng, ext):
    for _ in range(10):
        lam = _safe_lambda(ext, rng)
        lam0 = _safe_lambda(ext, rng)
        gap = np.max(np.abs(m_function(ext, lam) - m_via_resolvent(ext, lam, lam0)))
        assert gap < 1e-9


def test_m_via_resolvent_coincident(rng, ext):
    lam0 = _safe_lambda(ext, rng)
    np.testing.assert_allclose(
        m_via_resolvent(ext, lam0, lam0), m_function(ext, lam0), atol=1e-12
    )


# ---------------------------------------------------------------- adjoint side


def test_extension_operator_rejects_zero_state_domain_vector():
    # bparam cancels the constraint's defect column, so the domain holds the
    # pure defect coordinate, whose state value is zero: no state-space matrix
    tr = random_triple(np.random.default_rng(3), 3, 1, 1)
    ext = Extension(tr, np.array([[tr.bnd1[0, 3] / tr.bnd2[0, 3]]]))
    with pytest.raises(WeylScopeError, match="restriction domain holds a vector with zero state value"):
        extension_operator(ext)
    with pytest.raises(WeylScopeError, match="restriction domain holds a vector with zero state value"):
        extension_eigenvalues(ext)


def test_extension_operator_rejects_a_domain_larger_than_the_state_space():
    # built directly, bypassing make_triple: a zero bnd1 row constrains nothing,
    # so the domain is all of C^(m + h)
    action = np.hstack([np.eye(2), np.zeros((2, 1))])
    tr = FiniteTriple(action=action, action_adj=np.eye(2), bnd1=np.zeros((1, 3)),
                      bnd2=np.zeros((0, 3)), adj_bnd1=np.zeros((0, 2)), adj_bnd2=np.zeros((1, 2)))
    with pytest.raises(WeylScopeError, match="restriction domain does not match the state dimension"):
        extension_operator(Extension(tr, np.zeros((1, 0))))


def test_adjoint_extension_is_matrix_adjoint(rng, ext):
    op = extension_operator(ext)
    op_adj = extension_operator(adjoint_extension(ext))
    np.testing.assert_allclose(op_adj, op.conj().T, atol=1e-9)


def test_adjoint_eigenvalues_conjugate(rng, ext):
    left = np.sort_complex(extension_eigenvalues(ext))
    right = np.sort_complex(np.conj(extension_eigenvalues(adjoint_extension(ext))))
    np.testing.assert_allclose(left, right, atol=1e-8)


def test_spectrum_distance(rng, ext):
    eigs = extension_eigenvalues(ext)
    for _ in range(5):
        z = 3.0 * _rand_vec(rng, 1)[0]
        assert spectrum_distance(ext, z) == np.min(np.abs(eigs - z))
    empty = np.zeros((0, 0))
    bare = Extension(make_triple(empty, empty, empty, empty), empty)
    assert spectrum_distance(bare, 1j) == np.inf


def test_adjoint_m_function_conjugate_transpose(rng, ext):
    # pairing identity + kernel definitions force the adjoint-side M at the
    # conjugate point to be the conjugate transpose of the primary M
    adj = adjoint_extension(ext)
    for _ in range(5):
        lam = _safe_lambda(ext, rng)
        left = m_function(adj, np.conj(lam))
        right = m_function(ext, lam).conj().T
        np.testing.assert_allclose(left, right, atol=1e-10)


# -------------------------------------------------------------- Krein formula


def test_krein_equal_parameters(rng, triple):
    ext = random_extension(rng, triple)
    lam = _safe_lambda(ext, rng)
    assert krein_residual(ext, ext, lam) < 1e-12


def test_krein_owner_triple_compared_by_value(rng, triple):
    ext_b = random_extension(rng, triple)
    ext_c = random_extension(rng, triple)
    lam = _safe_lambda(ext_b, rng)
    while np.min(np.abs(extension_eigenvalues(ext_c) - lam)) < 0.3:
        lam = _safe_lambda(ext_b, rng)
    # an equal copy of the triple is the same owner
    copy = Extension(dataclasses.replace(triple), ext_c.bparam)
    assert copy.triple is not triple
    assert krein_residual(ext_b, copy, lam) == krein_residual(ext_b, ext_c, lam)
    other = Extension(random_triple(rng, state_dim=6, h=2, k=2), ext_c.bparam)
    with pytest.raises(ValueError, match="share the owner triple"):
        krein_residual(ext_b, other, lam)


def test_krein_random_pairs(rng, triple):
    for _ in range(10):
        ext_b = random_extension(rng, triple)
        ext_c = random_extension(rng, triple)
        lam = _safe_lambda(ext_b, rng)
        if np.min(np.abs(extension_eigenvalues(ext_c) - lam)) < 0.3:
            continue
        assert krein_residual(ext_b, ext_c, lam) < 1e-9


def test_krein_constraint_route_equivalence(rng, triple):
    # the two factorizations of the boundary data of the C-resolvent agree:
    # (bnd1 - B bnd2) R_C = (C - B) bnd2 R_C, since (bnd1 - C bnd2) R_C = 0
    ext_b = random_extension(rng, triple)
    ext_c = random_extension(rng, triple)
    lam = _safe_lambda(ext_c, rng)
    coords_c, _ = resolvent_matrices(ext_c, lam)
    left = ext_b.constraint @ coords_c
    right = (ext_c.bparam - ext_b.bparam) @ (triple.bnd2 @ coords_c)
    assert np.max(np.abs(left - right)) < 1e-10
    assert np.max(np.abs(ext_c.constraint @ coords_c)) < 1e-10


def test_krein_rank_one_difference(rng, triple):
    ext_c = random_extension(rng, triple)
    u = _rand_vec(rng, triple.h)[:, None]
    v = _rand_vec(rng, triple.k)[None, :]
    ext_b = Extension(triple, ext_c.bparam + u @ v)
    lam = _safe_lambda(ext_b, rng)
    if np.min(np.abs(extension_eigenvalues(ext_c) - lam)) < 0.2:
        lam = _safe_lambda(ext_c, rng)
    # R_C - R_B is the correction term of the two-parameter resolvent formula
    _, rb = resolvent_matrices(ext_b, lam)
    _, rc = resolvent_matrices(ext_c, lam)
    s = np.linalg.svd(rc - rb, compute_uv=False)
    assert s[1] < 1e-9 * max(s[0], 1.0)  # rank <= rank(B - C) = 1 <= h


# ---------------------------------------------------------------- hidden block


def test_hidden_block_spectrum_union(rng, triple):
    ext = random_extension(rng, triple)
    base = np.sort_complex(extension_eigenvalues(ext))
    widened = direct_sum_hidden(triple, np.array([[5.0]]))
    ext2 = Extension(widened, ext.bparam)
    grown = np.sort_complex(extension_eigenvalues(ext2))
    combined = np.sort_complex(np.concatenate([base, [5.0]]))
    np.testing.assert_allclose(grown, combined, atol=1e-8)


def test_hidden_block_m_unchanged(rng, triple):
    ext = random_extension(rng, triple)
    widened = direct_sum_hidden(triple, np.array([[5.0, 1.0], [0.0, 5.5]]))
    ext2 = Extension(widened, ext.bparam)
    for _ in range(10):
        lam = _safe_lambda(ext2, rng)
        gap = np.max(np.abs(m_function(ext, lam) - m_function(ext2, lam)))
        assert gap < 1e-10


def test_hidden_block_empty_is_identity(triple):
    assert direct_sum_hidden(triple, np.zeros((0, 0))) is triple


def test_hidden_block_green_still_exact(rng, triple):
    widened = direct_sum_hidden(triple, np.array([[2.0 + 1j]]))
    for _ in range(20):
        u = _rand_vec(rng, widened.dom_dim)
        v = _rand_vec(rng, widened.adj_dom_dim)
        assert green_residual(widened, u, v) < 1e-12


def test_hidden_block_solution_avoids_hidden(rng, triple):
    widened = direct_sum_hidden(triple, np.array([[5.0]]))
    ext2 = Extension(widened, random_extension(rng, triple).bparam)
    lam = _safe_lambda(ext2, rng)
    y = solution_basis(ext2, lam)
    # hidden coordinate sits right after the original state block
    assert np.max(np.abs(y[triple.state_dim])) < 1e-12
