"""Property tests: the pairing, Krein and M-route identities on random triples.

Each test draws the shape (state dimension m, boundary dimensions h and k),
whether the triple and its boundary parameters are real, and a seed for the
matrices.  Pinned examples cover h != k, h = 0 and real triples on every run.
Tolerances are relative to the sizes of the terms and at least 4000 times
the worst residual measured on 400 seeded cases.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from weylscope import triples
from weylscope.numerics import matrix_norm2

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                             database=None)
# lambda is drawn from [-4, 4]^2 and kept this far from both spectra
CLEARANCE = 0.3


@st.composite
def shapes(draw):
    m = draw(st.integers(2, 6))
    # surjective stacked boundary maps need h <= m and k <= m
    return m, draw(st.integers(0, min(3, m))), draw(st.integers(0, min(3, m)))


def _triple(shape, real, seed):
    rng = np.random.default_rng(seed)
    m, h, k = shape
    return triples.random_triple(rng, m, h, k, real=real), rng


def _vector(rng, n, real):
    v = rng.standard_normal(n)
    return v if real else v + 1j * rng.standard_normal(n)


points = st.tuples(st.floats(-4, 4), st.floats(-4, 4))
seeds = st.integers(0, 2**32 - 1)


@PROPERTY_SETTINGS
@given(shape=shapes(), real=st.booleans(), seed=seeds)
@example(shape=(4, 1, 3), real=False, seed=1)
@example(shape=(3, 0, 2), real=False, seed=2)
@example(shape=(5, 2, 1), real=True, seed=3)
def test_pairing_identity(shape, real, seed):
    tr, rng = _triple(shape, real, seed)
    u = _vector(rng, tr.dom_dim, real)
    v = _vector(rng, tr.adj_dom_dim, real)
    size = max(matrix_norm2(a) for a in (tr.action, tr.action_adj, tr.bnd1, tr.bnd2,
                                         tr.adj_bnd1, tr.adj_bnd2))
    scale = size * np.linalg.norm(u) * np.linalg.norm(v)
    assert triples.green_residual(tr, u, v) <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(shape=shapes(), real=st.booleans(), seed=seeds, lam=points)
@example(shape=(4, 1, 3), real=False, seed=1, lam=(0.5, 3.5))
@example(shape=(3, 0, 2), real=False, seed=2, lam=(0.5, 3.5))
@example(shape=(5, 2, 1), real=True, seed=3, lam=(0.5, 3.5))
def test_krein_formula(shape, real, seed, lam):
    tr, rng = _triple(shape, real, seed)
    ext_b = triples.random_extension(rng, tr, real=real)
    ext_c = triples.random_extension(rng, tr, real=real)
    lam = complex(*lam)
    assume(min(triples.spectrum_distance(ext_b, lam),
               triples.spectrum_distance(ext_c, lam)) > CLEARANCE)
    scale = 1.0 + matrix_norm2(triples.resolvent_matrices(ext_b, lam)[1]) + matrix_norm2(
        triples.resolvent_matrices(ext_c, lam)[1])
    assert triples.krein_residual(ext_b, ext_c, lam) <= 1e-10 * scale


@PROPERTY_SETTINGS
@given(shape=shapes(), real=st.booleans(), seed=seeds, lam=points, lam0=points)
@example(shape=(4, 1, 3), real=False, seed=1, lam=(0.5, 3.5), lam0=(-1.0, -3.5))
@example(shape=(3, 0, 2), real=False, seed=2, lam=(0.5, 3.5), lam0=(-1.0, -3.5))
@example(shape=(5, 2, 1), real=True, seed=3, lam=(0.5, 3.5), lam0=(-1.0, -3.5))
def test_m_function_routes_agree(shape, real, seed, lam, lam0):
    tr, rng = _triple(shape, real, seed)
    ext = triples.random_extension(rng, tr, real=real)
    lam, lam0 = complex(*lam), complex(*lam0)
    assume(min(triples.spectrum_distance(ext, lam),
               triples.spectrum_distance(ext, lam0)) > CLEARANCE)
    direct = triples.m_function(ext, lam)
    assert direct.shape == (tr.k, tr.h)
    scale = 1.0 + matrix_norm2(direct) + matrix_norm2(triples.resolvent_matrices(ext, lam)[1])
    gap = direct - triples.m_via_resolvent(ext, lam, lam0)
    assert matrix_norm2(gap) <= 1e-10 * scale
