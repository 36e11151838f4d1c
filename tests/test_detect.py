import dataclasses
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylscope import triples
from weylscope.detect import (
    SATURATION_MAX_POINTS,
    SATURATION_STABLE_RUNS,
    SATURATION_START,
    SpaceSamplingSpec,
    _sample_stream,
    build_adjoint_spaces,
    build_resolvent_space,
    build_solution_space,
    detection_record,
    full_contour_integral,
    invariance_residual,
    krylov_spaces,
    saturated_sampling,
    saturated_spaces,
)
from weylscope.errors import WeylScopeError
from weylscope.numerics import ContourSpec, matrix_norm2, orthonormal_basis, principal_angles
from weylscope.triples import (
    Extension,
    direct_sum_hidden,
    extension_eigenvalues,
    extension_operator,
    random_extension,
    random_triple,
    resolvent_matrices,
    solution_basis,
)

from oracles import spectral_projection


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def ext(rng):
    tr = random_triple(rng, state_dim=5, h=1, k=1)
    return random_extension(rng, tr)


@pytest.fixture
def hidden_ext(rng):
    tr = random_triple(rng, state_dim=4, h=1, k=1)
    base = random_extension(rng, tr)
    # hidden eigenvalue placed far from the base spectrum
    widened = direct_sum_hidden(tr, np.array([[25.0 + 0.0j]]))
    return Extension(widened, base.bparam)


def test_single_sample_space_dimension(ext):
    # one sample spans h dimensions of T; the Krylov S does not read the samples
    spec = saturated_sampling(ext)
    one = SpaceSamplingSpec(anchor=spec.anchor, solution_samples=spec.solution_samples[:1])
    t_basis = build_solution_space(ext, one)
    s_basis = build_resolvent_space(ext, one)
    assert t_basis.shape[1] == ext.triple.h
    assert np.array_equal(s_basis, build_resolvent_space(ext, spec))
    assert np.max(principal_angles(s_basis, t_basis)) < 1e-8


def test_sample_in_spectrum_rejected(ext):
    lam = complex(extension_eigenvalues(ext)[0])
    spec = SpaceSamplingSpec(anchor=10j, solution_samples=(lam,))
    with pytest.raises(WeylScopeError, match="^solution sample point .* is within 1e-6 of the spectrum$"):
        build_solution_space(ext, spec)


def test_solution_space_ignores_anchor_on_spectrum(ext):
    # the solution span never uses the anchor; the resolvent space does
    spec = SpaceSamplingSpec(anchor=complex(extension_eigenvalues(ext)[0]),
                             solution_samples=(10j,))
    assert build_solution_space(ext, spec).shape[1] == ext.triple.h
    with pytest.raises(WeylScopeError, match="^anchor point .* is within 1e-6 of the spectrum$"):
        build_resolvent_space(ext, spec)


def test_empty_sample_list(ext):
    spec = SpaceSamplingSpec(anchor=10j)
    assert build_solution_space(ext, spec).shape == (ext.triple.state_dim, 0)
    # S needs the anchor alone: here the state space, which a generic triple controls
    assert build_resolvent_space(ext, spec).shape[1] == ext.triple.state_dim


def test_rank_saturation(ext):
    spec = saturated_sampling(ext)
    t_basis = build_solution_space(ext, spec)
    # adding further points must not raise the rank
    bigger = SpaceSamplingSpec(
        anchor=spec.anchor,
        solution_samples=spec.solution_samples + (7.5j, -6.0 + 2.0j, 4.0 - 5.0j),
    )
    assert build_solution_space(ext, bigger).shape[1] == t_basis.shape[1]


def test_saturated_sampling_plan(ext):
    spec = saturated_sampling(ext)
    n = len(spec.solution_samples)
    assert 12 < n <= 200
    assert saturated_sampling(ext) == spec
    # golden-angle points alternating between two circles about the spectrum's mean
    eigs = extension_eigenvalues(ext)
    center = complex(np.mean(eigs))
    radius = float(np.max(np.abs(eigs - center))) + 1.0
    dist = np.abs(np.array(spec.solution_samples) - center)
    np.testing.assert_allclose(dist[0::2], radius)
    np.testing.assert_allclose(dist[1::2], 2.0 * radius)
    assert spec.anchor == center + 1.37j * (2.0 * radius)


def _seeded_extension(state_dim, hidden=None):
    """A seeded random restriction (h = k = 2), widened by a hidden block when given."""
    rng = np.random.default_rng(state_dim)
    tr = random_triple(rng, state_dim=state_dim, h=2, k=2)
    ext = random_extension(rng, tr)
    if hidden is None:
        return ext
    return Extension(direct_sum_hidden(tr, np.array([[hidden]])), ext.bparam)


@pytest.mark.parametrize("state_dim, hidden", [(6, None), (14, None), (40, None), (4, 25.0)],
                         ids=["random-6", "random-14", "random-40", "hidden-25"])
def test_sample_stream_keeps_distance_one_from_the_spectrum(state_dim, hidden):
    # the circles have radius >= spread + 1 about the spectrum's mean, the anchor lies
    # beyond the outer one and sigma 1.1 times the inner radius above the mean, so no
    # point ever needs moving away from an eigenvalue
    ext = _seeded_extension(state_dim, hidden)
    anchor, sigma, stream = _sample_stream(ext)
    points = np.array([anchor, *itertools.islice(stream, 200)])
    eigs = extension_eigenvalues(ext)
    assert np.min(np.abs(points[:, None] - eigs)) >= 1.0
    assert np.min(np.abs(sigma - eigs)) >= 1.1


def test_spectrum_computed_once_per_extension(monkeypatch, hidden_ext):
    built = []

    def counting_operator(e):
        built.append(e)
        return extension_operator(e)

    monkeypatch.setattr(triples, "extension_operator", counting_operator)
    spec = saturated_sampling(hidden_ext)
    build_resolvent_space(hidden_ext, spec)
    build_solution_space(hidden_ext, spec)
    build_adjoint_spaces(hidden_ext, spec)
    full_contour_integral(hidden_ext, ContourSpec(center=25.0, radius=1.0, nodes=32))
    counts = Counter(id(e) for e in built)
    assert counts[id(hidden_ext)] == 1
    assert set(counts.values()) == {1}
    eigs = extension_eigenvalues(hidden_ext)
    assert not eigs.flags.writeable
    with pytest.raises(ValueError):
        eigs[0] = 0.0


def test_solution_equals_resolvent_space(ext):
    spec = saturated_sampling(ext)
    t_basis = build_solution_space(ext, spec)
    s_basis = build_resolvent_space(ext, spec)
    assert s_basis.shape[1] == t_basis.shape[1]
    assert np.max(principal_angles(s_basis, t_basis)) < 1e-8


def test_resolvent_space_anchor_independence(ext):
    spec = saturated_sampling(ext)
    for shift in (3.1j, -2.7j, 5.9):
        other = SpaceSamplingSpec(anchor=spec.anchor + shift,
                                  solution_samples=spec.solution_samples)
        a = build_resolvent_space(ext, spec)
        b = build_resolvent_space(ext, other)
        assert a.shape[1] == b.shape[1]
        assert np.max(principal_angles(a, b)) < 1e-8


def test_growth_hypothesis_bounded(ext):
    # |z (A - z)^{-1}| stays bounded along z = i t
    op_norms = []
    for t in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6):
        _, rv = resolvent_matrices(ext, 1j * t)
        op_norms.append(abs(1j * t) * np.linalg.norm(rv, 2))
    assert max(op_norms) < 10.0


def test_adjoint_spaces_real_model(rng):
    tr = random_triple(rng, state_dim=5, h=1, k=1, real=True)
    ext = random_extension(rng, tr, real=True)
    spec = saturated_sampling(ext)
    s_basis = build_resolvent_space(ext, spec)
    s_adj, t_adj = build_adjoint_spaces(ext, spec)
    # real data: the adjoint-side spaces coincide with the primary ones
    assert np.max(principal_angles(s_adj, s_basis)) < 1e-8
    assert np.max(principal_angles(t_adj, s_basis)) < 1e-8


def test_hidden_block_spaces_avoid_hidden(hidden_ext):
    spec = saturated_sampling(hidden_ext)
    t_basis = build_solution_space(hidden_ext, spec)
    s_adj, t_adj = build_adjoint_spaces(hidden_ext, spec)
    m_old = hidden_ext.triple.state_dim - 1  # hidden coordinate is the last one
    for basis in (t_basis, s_adj, t_adj):
        assert np.max(np.abs(basis[m_old, :])) < 1e-10


def test_invariance_residual_saturated(ext, rng):
    spec = saturated_sampling(ext)
    s_basis = build_resolvent_space(ext, spec)
    for _ in range(3):
        mu = complex(*rng.uniform(-4, 4, size=2)) + 6j
        assert invariance_residual(s_basis, ext, mu) < 1e-8


def test_invariance_full_space(ext):
    full = np.eye(ext.triple.state_dim, dtype=complex)
    assert invariance_residual(full, ext, 11.3j) < 1e-12


def test_invariance_unsaturated_space(hidden_ext):
    spec = saturated_sampling(hidden_ext)
    one = SpaceSamplingSpec(anchor=spec.anchor, solution_samples=spec.solution_samples[:1])
    basis = build_solution_space(hidden_ext, one)
    # probe at moderate distance: far-field resolvents are nearly scalar and
    # would mask the saturation defect
    eigs = extension_eigenvalues(hidden_ext)
    mu = complex(np.mean(eigs)) + (np.max(np.abs(eigs - np.mean(eigs))) + 1.0) * np.exp(0.7j)
    assert invariance_residual(basis, hidden_ext, mu) > 1e-3


def test_bordered_rank_zero(ext):
    spec = SpaceSamplingSpec(anchor=10j)
    empty = build_solution_space(ext, spec)
    assert (empty.conj().T @ resolvent_matrices(ext, 9j)[1] @ empty).shape == (0, 0)


def test_bordered_bounded_near_hidden_eigenvalue(hidden_ext):
    spec = saturated_sampling(hidden_ext)
    s_basis = build_resolvent_space(hidden_ext, spec)
    s_adj, _ = build_adjoint_spaces(hidden_ext, spec)
    for eps in (1e-2, 1e-4, 1e-6):
        lam = 25.0 + eps
        _, rv = resolvent_matrices(hidden_ext, lam)
        full_norm = np.linalg.norm(rv, 2)
        bordered_norm = np.linalg.norm(s_adj.conj().T @ rv @ s_basis, 2)
        assert full_norm > 0.5 / eps
        assert bordered_norm < 10.0


def test_morera_empty_contour_region(ext):
    eigs = extension_eigenvalues(ext)
    center = complex(np.mean(eigs)) + 40.0
    contour = ContourSpec(center=center, radius=1.0, nodes=32)
    spec = saturated_sampling(ext)
    t_basis = build_solution_space(ext, spec)
    _, t_adj = build_adjoint_spaces(ext, spec)
    assert matrix_norm2(t_adj.conj().T @ full_contour_integral(ext, contour) @ t_basis) < 1e-8


def test_morera_contour_clearance_enforced(ext):
    lam = complex(extension_eigenvalues(ext)[0])
    contour = ContourSpec(center=lam + 1e-6, radius=2e-6, nodes=8)
    with pytest.raises(WeylScopeError, match="^contour node .* within 0.0001 of the spectrum$"):
        full_contour_integral(ext, contour)


def test_morera_dichotomy_hidden_eigenvalue(hidden_ext):
    spec = saturated_sampling(hidden_ext)
    s_basis = build_resolvent_space(hidden_ext, spec)
    s_adj, _ = build_adjoint_spaces(hidden_ext, spec)
    contour = ContourSpec(center=25.0, radius=1.0, nodes=64)
    full = full_contour_integral(hidden_ext, contour)
    assert matrix_norm2(s_adj.conj().T @ full @ s_basis) < 1e-8
    assert matrix_norm2(full) > 0.1
    # oracle: the full integral equals -2 pi i times the spectral projection
    proj = spectral_projection(hidden_ext, contour)
    assert np.linalg.norm(full + 2j * np.pi * proj, 2) < 1e-6


def test_spectral_projection_is_zero_with_no_eigenvalue_inside():
    empty = np.zeros((0, 3))
    ext = Extension(triples.make_triple(np.diag([1.0, 2.0, 3.0]), empty, empty, empty),
                    np.zeros((0, 0)))
    proj = spectral_projection(ext, ContourSpec(center=10.0, radius=1.0, nodes=16))
    assert proj.shape == (3, 3) and not proj.any()


def test_morera_visible_eigenvalue_nonzero(ext):
    eigs = extension_eigenvalues(ext)
    lam = min(eigs, key=lambda z: min(abs(z - w) for w in eigs if abs(z - w) > 1e-9))
    gap = min(abs(lam - w) for w in eigs if abs(lam - w) > 1e-9)
    contour = ContourSpec(center=complex(lam), radius=min(0.45 * gap, 1.0), nodes=64)
    spec = saturated_sampling(ext)
    s_basis = build_resolvent_space(ext, spec)
    s_adj, _ = build_adjoint_spaces(ext, spec)
    full = full_contour_integral(ext, contour)
    assert matrix_norm2(s_adj.conj().T @ full @ s_basis) > 1e-3
    assert matrix_norm2(full) > 1e-3


def test_saturated_space_independent_of_bparam_observation(rng):
    # observation, not a theorem-backed invariant: for seeded generic
    # restriction parameters the saturated spans coincide
    tr = random_triple(rng, state_dim=5, h=1, k=1)
    ext_a = random_extension(rng, tr)
    ext_b = random_extension(rng, tr)
    space_a = build_solution_space(ext_a, saturated_sampling(ext_a))
    space_b = build_solution_space(ext_b, saturated_sampling(ext_b))
    assert space_a.shape[1] == space_b.shape[1]
    assert np.max(principal_angles(space_a, space_b)) < 1e-8


def test_detection_record_fields(hidden_ext):
    contour = ContourSpec(center=25.0, radius=1.0, nodes=32)
    rec = detection_record(hidden_ext, contour, "demo")
    assert rec["triple_id"] == "demo"
    assert rec["contour"] == {"center": [25.0, 0.0], "radius": 1.0, "nodes": 32}
    assert rec["residual_bordered"] < 1e-6
    assert rec["residual_full"] > 0.1


def test_detection_report_one_solve_per_node(hidden_ext, solve_calls):
    # the spaces do not depend on the contour, so doubling the nodes adds
    # exactly one solve per added node: the bordered and the full residual
    # share the one resolvent taken at each node (the spectrum is cached
    # first, so its one-off solve falls in neither count)
    extension_eigenvalues(hidden_ext)
    solve_calls.clear()
    detection_record(hidden_ext, ContourSpec(center=25.0, radius=1.0, nodes=32), "demo")
    coarse = len(solve_calls)
    solve_calls.clear()
    detection_record(hidden_ext, ContourSpec(center=25.0, radius=1.0, nodes=64), "demo")
    assert len(solve_calls) - coarse == 32
    solve_calls.clear()
    full_contour_integral(hidden_ext, ContourSpec(center=25.0, radius=1.0, nodes=64))
    assert len(solve_calls) == 64


def test_detection_record_builds_only_s_and_s_adjoint(hidden_ext, solve_calls):
    # S and S~ share one stacked inverse at the shift sigma, S takes one more at its
    # anchor and the residuals one per node: 2 + nodes factorizations in all, and no
    # adjoint restriction is factorized
    extension_eigenvalues(hidden_ext)
    solve_calls.clear()
    contour = ContourSpec(center=25.0, radius=1.0, nodes=64)
    rec = detection_record(hidden_ext, contour, "demo")
    n = hidden_ext.triple.dom_dim
    assert hidden_ext.triple.adj_dom_dim == n
    assert solve_calls == [(n, n)] * (2 + 64)
    spec = saturated_sampling(hidden_ext)
    s_basis = build_resolvent_space(hidden_ext, spec)
    s_adj, _ = build_adjoint_spaces(hidden_ext, spec)
    full = full_contour_integral(hidden_ext, contour)
    assert rec["residual_bordered"] == matrix_norm2(s_adj.conj().T @ full @ s_basis)
    assert rec["residual_full"] == matrix_norm2(full)
    # the visible state space on both sides; T and Tadj, the sampled spans, are not built
    assert rec["dims"] == {"S": 4, "T": None, "Sadj": 4, "Tadj": None}


@pytest.mark.parametrize("state_dim, hidden", [(6, None), (30, None), (4, 25.0)],
                         ids=["random-6", "random-30", "hidden-25"])
def test_saturated_spaces_equal_the_builders_bit_for_bit(state_dim, hidden, solve_calls):
    # the saturation pass yields the plan and T, the same bits as the builders, from one
    # factorization per point; S at two anchors takes one more per anchor and one at sigma
    ext = _seeded_extension(state_dim, hidden)
    extension_eigenvalues(ext)
    solve_calls.clear()
    spec, t_space = saturated_spaces(ext)
    assert len(solve_calls) == len(spec.solution_samples)
    assert spec == saturated_sampling(ext)
    assert np.array_equal(t_space, build_solution_space(ext, spec))
    solve_calls.clear()
    s_space, shifted = krylov_spaces(ext, (spec.anchor, spec.anchor + 2.3j), False)
    assert len(solve_calls) == 1 + 2
    assert np.array_equal(s_space, build_resolvent_space(ext, spec))
    moved = dataclasses.replace(spec, anchor=spec.anchor + 2.3j)
    assert np.array_equal(shifted, build_resolvent_space(ext, moved))
    visible = ext.triple.state_dim - (hidden is not None)
    assert s_space.shape[1] == shifted.shape[1] == visible


def _clustered_extension(coupling, size=20, width=1e-4, hidden=25.0):
    """B = 0 restriction of an upper bidiagonal chain whose eigenvalues lie within width of 2.

    The boundary data enter at the chain's last coordinate and are read at its
    first, so every eigenvalue is visible from both sides; a hidden block widens it.
    """
    diag = 2.0 + width * np.arange(size) / size
    chain = np.diag(diag) + coupling * np.diag(np.ones(size - 1), 1)
    action = np.hstack([chain, np.eye(size)[:, -1:]])
    bnd1 = np.eye(size + 1)[-1:]
    bnd2 = np.eye(size + 1)[:1]
    tr = triples.make_triple(action, bnd1, bnd2, np.eye(size + 1)[-1:])
    return Extension(direct_sum_hidden(tr, np.array([[hidden]])), np.zeros((1, 1))), diag


@pytest.mark.parametrize("coupling", [1.0, 1e-7])
def test_krylov_space_resolves_a_clustered_spectrum(coupling):
    # the sampled spans lose rank on such a cluster; the Krylov S and S~ keep every
    # visible dimension and none of the hidden one.  At coupling 1e-7 each Krylov
    # step adds a residual near 1e-8 of |start|, which a cut far above 1e-10 drops
    ext, diag = _clustered_extension(coupling)
    assert np.ptp(diag) < 1e-4
    s_space, s_adj = krylov_spaces(ext, (_sample_stream(ext)[0],), True)
    assert s_space.shape[1] == s_adj.shape[1] == diag.size
    for q in (s_space, s_adj):
        assert np.max(np.abs(q[diag.size])) < 1e-10
        for mu in (5.0 + 3.0j, -1.0 - 2.0j, 24.0 + 0.5j):
            assert invariance_residual(q, ext, mu) <= 1e-8


def _one_sided_extension(side):
    """A hidden eigenvalue 25 that the boundary data reach but do not observe, or the reverse.

    "reach" couples the visible state into the hidden one, "observe" the hidden state
    into the visible ones; make_triple derives the adjoint side.
    """
    rng = np.random.default_rng(11)
    tr = random_triple(rng, state_dim=12, h=2, k=2)
    bparam = random_extension(rng, tr).bparam
    wide = direct_sum_hidden(tr, np.array([[25.0]]))
    action = np.array(wide.action)
    coupling = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    if side == "reach":
        action[12, :12] = coupling
    else:
        action[:12, 12] = coupling
    return Extension(triples.make_triple(action, wide.bnd1, wide.bnd2, wide.adj_bnd1), bparam)


@pytest.mark.parametrize("side, dims", [("reach", (13, 12)), ("observe", (12, 13))],
                         ids=["reach", "observe"])
def test_one_sided_hidden_eigenvalue_is_in_one_space_only(side, dims):
    # S holds what the boundary data reach, S~ what they observe; the bordered
    # resolvent is analytic at the hidden eigenvalue either way
    ext = _one_sided_extension(side)
    rec = detection_record(ext, ContourSpec(center=25.0, radius=1.0, nodes=64), side)
    assert (rec["dims"]["S"], rec["dims"]["Sadj"]) == dims
    assert rec["residual_bordered"] <= 1e-8
    assert rec["residual_full"] > 0.1
    # the sampled spans agree at this size: T with S, the adjoint solution span with S~
    spec = saturated_sampling(ext)
    s_adj, t_adj = build_adjoint_spaces(ext, spec)
    for krylov, sampled in ((build_resolvent_space(ext, spec), build_solution_space(ext, spec)),
                            (s_adj, t_adj)):
        assert krylov.shape == sampled.shape
        assert np.max(principal_angles(krylov, sampled)) < 1e-8


@pytest.mark.parametrize("h, k", [(0, 2), (2, 0)], ids=["h0", "k0"])
def test_no_boundary_data_on_a_side_gives_an_empty_space(h, k):
    rng = np.random.default_rng(5)
    tr = random_triple(rng, state_dim=6, h=h, k=k)
    ext = Extension(direct_sum_hidden(tr, np.array([[25.0]])), random_extension(rng, tr).bparam)
    rec = detection_record(ext, ContourSpec(center=25.0, radius=1.0, nodes=32), "empty")
    assert rec["dims"]["S"] == (0 if h == 0 else 6)
    assert rec["dims"]["Sadj"] == (0 if k == 0 else 6)
    assert rec["residual_bordered"] == 0.0
    assert rec["residual_full"] > 0.1


def _reference_plan(ext):
    """saturated_sampling with the rank taken as orthonormal_basis(cols).shape[1]."""
    anchor, _, stream = _sample_stream(ext)

    def columns(points):
        return [solution_basis(ext, mu)[: ext.triple.state_dim] for mu in points]

    pts = list(itertools.islice(stream, SATURATION_START))
    cols = np.hstack(columns(pts))
    rank = orthonormal_basis(cols).shape[1]
    stable = 0
    while stable < SATURATION_STABLE_RUNS and len(pts) < SATURATION_MAX_POINTS:
        pts.append(next(stream))
        cols = np.hstack([cols, *columns(pts[-1:])])
        new_rank = orthonormal_basis(cols).shape[1]
        stable = stable + 1 if new_rank == rank else 0
        rank = new_rank
    return SpaceSamplingSpec(anchor=anchor, solution_samples=tuple(pts))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(state_dim=st.integers(3, 24), h=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_values_only_rank_gives_the_reference_plan(state_dim, h, seed):
    # singular values alone can differ from the full SVD's in the last bits;
    # the plan they give must still be the one the full-SVD rank gives
    rng = np.random.default_rng(seed)
    ext = random_extension(rng, random_triple(rng, state_dim=state_dim, h=h, k=h))
    assert saturated_sampling(ext) == _reference_plan(ext)
