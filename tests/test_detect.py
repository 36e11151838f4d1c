from collections import Counter

import numpy as np
import pytest

from weylscope import triples
from weylscope.detect import (
    SpaceSamplingSpec,
    SubspaceBasis,
    build_adjoint_spaces,
    build_resolvent_space,
    build_solution_space,
    bordered_resolvent,
    default_sampling,
    detection_report,
    full_contour_integral,
    invariance_residual,
    morera_residual,
    saturated_sampling,
    spectral_projection,
)
from weylscope.errors import ContourHitsSpectrumError, SampleInSpectrumError
from weylscope.numerics import ContourSpec, matrix_norm2, principal_angles
from weylscope.triples import (
    Extension,
    direct_sum_hidden,
    extension_eigenvalues,
    extension_operator,
    random_extension,
    random_triple,
    resolvent_matrices,
)


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
    spec = default_sampling(ext)
    one = SpaceSamplingSpec(
        anchor=spec.anchor,
        resolvent_samples=spec.resolvent_samples[:1],
        solution_samples=spec.solution_samples[:1],
    )
    t_basis = build_solution_space(ext, one)
    s_basis = build_resolvent_space(ext, one)
    assert t_basis.dim == ext.triple.h
    assert s_basis.dim == ext.triple.h


def test_sample_in_spectrum_rejected(ext):
    lam = complex(extension_eigenvalues(ext)[0])
    spec = SpaceSamplingSpec(anchor=10j, solution_samples=(lam,), resolvent_samples=(lam,))
    with pytest.raises(SampleInSpectrumError):
        build_solution_space(ext, spec)


def test_empty_sample_list(ext):
    spec = SpaceSamplingSpec(anchor=10j)
    assert build_solution_space(ext, spec).dim == 0
    assert build_resolvent_space(ext, spec).dim == 0


def test_rank_saturation(ext):
    spec = saturated_sampling(ext)
    t_basis = build_solution_space(ext, spec)
    # adding further points must not raise the rank
    grown = default_sampling(ext, count=33)
    bigger = SpaceSamplingSpec(
        anchor=spec.anchor,
        resolvent_samples=spec.resolvent_samples,
        solution_samples=spec.solution_samples + grown.solution_samples[-3:],
    )
    assert build_solution_space(ext, bigger).dim == t_basis.dim


def test_saturated_sampling_continues_default_stream(ext):
    spec = saturated_sampling(ext)
    n = len(spec.solution_samples)
    assert n > 12
    plain = default_sampling(ext, count=n)
    assert spec.solution_samples == plain.solution_samples
    assert spec.resolvent_samples == spec.solution_samples
    assert spec.anchor == plain.anchor
    assert default_sampling(ext, count=n + 5).solution_samples[:n] == plain.solution_samples


def test_spectrum_computed_once_per_extension(monkeypatch, hidden_ext):
    built = []

    def counting_operator(e):
        built.append(e)
        return extension_operator(e)

    monkeypatch.setattr(triples, "extension_operator", counting_operator)
    spec = saturated_sampling(hidden_ext)
    s_basis = build_resolvent_space(hidden_ext, spec)
    build_solution_space(hidden_ext, spec)
    s_adj, _ = build_adjoint_spaces(hidden_ext, spec)
    contour = ContourSpec(center=25.0, radius=1.0, nodes=32)
    morera_residual(hidden_ext, contour, s_adj, s_basis)
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
    assert s_basis.dim == t_basis.dim
    assert np.max(principal_angles(s_basis.basis, t_basis.basis)) < 1e-8


def test_resolvent_space_anchor_independence(ext):
    spec = saturated_sampling(ext)
    for shift in (3.1j, -2.7j, 5.9):
        other = SpaceSamplingSpec(
            anchor=spec.anchor + shift,
            resolvent_samples=spec.resolvent_samples,
            solution_samples=spec.solution_samples,
        )
        a = build_resolvent_space(ext, spec)
        b = build_resolvent_space(ext, other)
        assert a.dim == b.dim
        assert np.max(principal_angles(a.basis, b.basis)) < 1e-8


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
    assert np.max(principal_angles(s_adj.basis, s_basis.basis)) < 1e-8
    assert np.max(principal_angles(t_adj.basis, s_basis.basis)) < 1e-8


def test_hidden_block_spaces_avoid_hidden(hidden_ext):
    spec = saturated_sampling(hidden_ext)
    t_basis = build_solution_space(hidden_ext, spec)
    s_adj, t_adj = build_adjoint_spaces(hidden_ext, spec)
    m_old = hidden_ext.triple.state_dim - 1  # hidden coordinate is the last one
    for basis in (t_basis.basis, s_adj.basis, t_adj.basis):
        assert np.max(np.abs(basis[m_old, :])) < 1e-10


def test_invariance_residual_saturated(ext, rng):
    spec = saturated_sampling(ext)
    s_basis = build_resolvent_space(ext, spec)
    for _ in range(3):
        mu = complex(*rng.uniform(-4, 4, size=2)) + 6j
        assert invariance_residual(s_basis, ext, mu) < 1e-8


def test_invariance_full_space(ext):
    full = SubspaceBasis(basis=np.eye(ext.triple.state_dim, dtype=complex), side="solution")
    assert invariance_residual(full, ext, 11.3j) < 1e-12


def test_invariance_unsaturated_space(hidden_ext):
    spec = default_sampling(hidden_ext)
    one = SpaceSamplingSpec(
        anchor=spec.anchor,
        resolvent_samples=spec.resolvent_samples[:1],
        solution_samples=spec.solution_samples[:1],
    )
    basis = build_solution_space(hidden_ext, one)
    # probe at moderate distance: far-field resolvents are nearly scalar and
    # would mask the saturation defect
    eigs = extension_eigenvalues(hidden_ext)
    mu = complex(np.mean(eigs)) + (np.max(np.abs(eigs - np.mean(eigs))) + 1.0) * np.exp(0.7j)
    assert invariance_residual(basis, hidden_ext, mu) > 1e-3


def test_bordered_full_space_is_resolvent(ext):
    eye_basis = SubspaceBasis(basis=np.eye(ext.triple.state_dim, dtype=complex),
                              side="solution")
    lam = 9.0 + 9.0j
    _, rv = resolvent_matrices(ext, lam)
    np.testing.assert_allclose(bordered_resolvent(ext, lam, eye_basis, eye_basis), rv)


def test_bordered_rank_zero(ext):
    spec = SpaceSamplingSpec(anchor=10j)
    empty = build_solution_space(ext, spec)
    assert bordered_resolvent(ext, 9j, empty, empty).shape == (0, 0)


def test_bordered_bounded_near_hidden_eigenvalue(hidden_ext):
    spec = saturated_sampling(hidden_ext)
    s_basis = build_resolvent_space(hidden_ext, spec)
    s_adj, _ = build_adjoint_spaces(hidden_ext, spec)
    for eps in (1e-2, 1e-4, 1e-6):
        lam = 25.0 + eps
        _, rv = resolvent_matrices(hidden_ext, lam)
        full_norm = np.linalg.norm(rv, 2)
        bordered_norm = np.linalg.norm(
            bordered_resolvent(hidden_ext, lam, s_adj, s_basis), 2
        )
        assert full_norm > 0.5 / eps
        assert bordered_norm < 10.0


def test_morera_empty_contour_region(ext):
    eigs = extension_eigenvalues(ext)
    center = complex(np.mean(eigs)) + 40.0
    contour = ContourSpec(center=center, radius=1.0, nodes=32)
    spec = saturated_sampling(ext)
    t_basis = build_solution_space(ext, spec)
    s_adj, t_adj = build_adjoint_spaces(ext, spec)
    assert morera_residual(ext, contour, t_adj, t_basis) < 1e-8


def test_morera_contour_clearance_enforced(ext):
    lam = complex(extension_eigenvalues(ext)[0])
    contour = ContourSpec(center=lam + 1e-6, radius=2e-6, nodes=8)
    spec = default_sampling(ext)
    t_basis = build_solution_space(ext, spec)
    with pytest.raises(ContourHitsSpectrumError):
        morera_residual(ext, contour, t_basis, t_basis)


def test_morera_dichotomy_hidden_eigenvalue(hidden_ext):
    spec = saturated_sampling(hidden_ext)
    s_basis = build_resolvent_space(hidden_ext, spec)
    s_adj, _ = build_adjoint_spaces(hidden_ext, spec)
    contour = ContourSpec(center=25.0, radius=1.0, nodes=64)
    assert morera_residual(hidden_ext, contour, s_adj, s_basis) < 1e-8
    full = full_contour_integral(hidden_ext, contour)
    assert matrix_norm2(full) > 0.1
    # oracle: the full integral equals -2 pi i times the spectral projection
    proj = spectral_projection(hidden_ext, contour)
    assert np.linalg.norm(full + 2j * np.pi * proj, 2) < 1e-6


def test_morera_visible_eigenvalue_nonzero(ext):
    eigs = extension_eigenvalues(ext)
    lam = min(eigs, key=lambda z: min(abs(z - w) for w in eigs if abs(z - w) > 1e-9))
    gap = min(abs(lam - w) for w in eigs if abs(lam - w) > 1e-9)
    contour = ContourSpec(center=complex(lam), radius=min(0.45 * gap, 1.0), nodes=64)
    spec = saturated_sampling(ext)
    s_basis = build_resolvent_space(ext, spec)
    s_adj, _ = build_adjoint_spaces(ext, spec)
    assert morera_residual(ext, contour, s_adj, s_basis) > 1e-3
    assert matrix_norm2(full_contour_integral(ext, contour)) > 1e-3


def test_saturated_space_independent_of_bparam_observation(rng):
    # observation, not a theorem-backed invariant: for seeded generic
    # restriction parameters the saturated spans coincide
    tr = random_triple(rng, state_dim=5, h=1, k=1)
    ext_a = random_extension(rng, tr)
    ext_b = random_extension(rng, tr)
    space_a = build_solution_space(ext_a, saturated_sampling(ext_a))
    space_b = build_solution_space(ext_b, saturated_sampling(ext_b))
    assert space_a.dim == space_b.dim
    assert np.max(principal_angles(space_a.basis, space_b.basis)) < 1e-8


def test_detection_report_fields(hidden_ext):
    spec = saturated_sampling(hidden_ext)
    s_basis = build_resolvent_space(hidden_ext, spec)
    s_adj, _ = build_adjoint_spaces(hidden_ext, spec)
    contour = ContourSpec(center=25.0, radius=1.0, nodes=32)
    rec = detection_report(hidden_ext, contour, s_adj, s_basis, triple_id="demo")
    assert rec["triple_id"] == "demo"
    assert rec["residual_bordered"] < 1e-6
    assert rec["residual_full"] > 0.1
    assert rec["dims"]["S"] == s_basis.dim
    assert rec["dims"]["Sadj"] == s_adj.dim
