"""Detection subspaces, bordered resolvents and contour analyticity tests.

The M-function of a restriction sees two subspaces of the state space.  S
is the controllable subspace of (A_B, S(anchor)): the smallest
R_B-invariant subspace that contains the solution values at an anchor,
which is the closed span of every solution range.  S~ is the observable
subspace of (A_B, Gamma_2): the smallest R_B^H-invariant subspace that
contains ran (Gamma_2 R_B)^H.  Since the adjoint side's solution values at
conj(mu) are -(Gamma_2 R_B(mu))^H, S~ is the span of the adjoint solution
ranges, built without the adjoint restriction.  The resolvent compressed
between them, S~^H R S, is the minimal part of the restriction (Kalman): it
keeps the spectrum M sees and drops the rest, which is what the contour
(Morera-style) residuals check.  A space is the array of its orthonormal
state-space columns (as orthonormal_basis returns them).

Both spaces are block Krylov spaces of one shifted resolvent R_B(sigma), so
one stacked inverse gives both (krylov_spaces).  The solution span T,
sampled at points on two circles until its rank is stable, is the
independent second route: check tests that T lies in S.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import WeylScopeError
from .numerics import (
    DEFAULT_RANK_TOL,
    ContourSpec,
    contour_integral,
    matrix_norm2,
    numerical_rank,
    orthonormal_basis,
)
from .triples import (
    Extension,
    adjoint_extension,
    extension_eigenvalues,
    resolvent_matrices,
    solution_basis,
    spectrum_distance,
)

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
SPECTRUM_CLEARANCE = 1e-6
CONTOUR_CLEARANCE = 1e-4
# saturated_spaces: initial points, rank-stable additions to accept, point cap
SATURATION_START = 12
SATURATION_STABLE_RUNS = 8
SATURATION_MAX_POINTS = 200


@dataclass(frozen=True)
class SpaceSamplingSpec:
    """Sampling plan for the detection subspaces.

    anchor is the point whose solution values the Krylov space S starts
    from; solution_samples are the points of the sampled solution span T.
    All points must keep clear of the spectrum.
    """

    anchor: complex
    solution_samples: tuple = field(default_factory=tuple)


def _check_samples(ext: Extension, points, what: str):
    for z in points:
        if spectrum_distance(ext, z) <= SPECTRUM_CLEARANCE:
            raise WeylScopeError(f"{what} point {z} is within 1e-6 of the spectrum")


def _sample_stream(ext: Extension):
    """(anchor, Krylov shift sigma, endless iterator of sample points) for the restriction.

    Points alternate between two circles about the mean of the spectrum at
    golden-angle steps, which keeps added points from aliasing.  The radii
    are spread + 1 and twice that, spread the largest distance of an
    eigenvalue from the mean; the anchor lies 1.37 times the outer radius
    above the mean, and sigma 1.1 times the inner one.  The anchor and
    every point keep distance at least 1 from the spectrum, sigma at least
    1.1.
    """
    eigs = extension_eigenvalues(ext)
    if eigs.size:
        center = complex(np.mean(eigs))
        spread = float(np.max(np.abs(eigs - center)))
    else:
        center, spread = 0.0, 0.0
    radii = (spread + 1.0, 2.0 * (spread + 1.0))
    anchor = complex(center + 1.37j * radii[1])

    def points():
        for j in itertools.count():
            ang = GOLDEN_ANGLE * j
            yield complex(center + radii[j % 2] * np.exp(1j * ang))

    return anchor, center + 1.1j * radii[0], points()


def _krylov_space(op: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the smallest op-invariant subspace that contains ran start.

    Each block is op applied to the columns the block before added (the
    first is start), orthogonalized column by column twice by classical
    Gram-Schmidt against every kept column; a column whose residual is at
    most DEFAULT_RANK_TOL |start|_2 is dropped.  The loop stops at an empty block
    or once the basis fills the space.
    """
    m = start.shape[0]
    cut = DEFAULT_RANK_TOL * matrix_norm2(start)
    q = np.empty((m, m), dtype=complex, order="F")
    kept, block = 0, start
    while block.shape[1] and kept < m:
        first = kept
        for col in block.T:
            for _ in range(2):
                col = col - q[:, :kept] @ (q[:, :kept].conj().T @ col)
            norm = np.linalg.norm(col)
            if kept < m and norm > cut:
                q[:, kept] = col / norm
                kept += 1
        block = op @ q[:, first:kept]
    return q[:, :kept].copy()


def krylov_spaces(ext: Extension, anchors, adjoint: bool) -> list:
    """S at each anchor, then S~ when adjoint, all from one stacked inverse at sigma.

    S is the Krylov space of R_B(sigma) on the solution values at the
    anchor, S~ that of R_B(sigma)^H on (Gamma_2 R_B(sigma))^H, Gamma_2 the
    map bnd2 on domain coordinates; sigma is the sample stream's.
    """
    _check_samples(ext, anchors, "anchor")
    coords, rv = resolvent_matrices(ext, _sample_stream(ext)[1])
    spaces = [_krylov_space(rv, solution_basis(ext, z)[: ext.triple.state_dim]) for z in anchors]
    if adjoint:
        spaces.append(_krylov_space(rv.conj().T, (ext.triple.bnd2 @ coords).conj().T))
    return spaces


def build_solution_space(ext: Extension, spec: SpaceSamplingSpec) -> np.ndarray:
    """Orthonormal columns spanning the solution ranges at the samples; the anchor is unused."""
    _check_samples(ext, spec.solution_samples, "solution sample")
    m = ext.triple.state_dim
    cols = [solution_basis(ext, mu)[:m] for mu in spec.solution_samples]
    return orthonormal_basis(np.hstack(cols) if cols else np.zeros((m, 0), dtype=complex))


def build_resolvent_space(ext: Extension, spec: SpaceSamplingSpec) -> np.ndarray:
    """S: the Krylov space of R_B(sigma) on the anchor's solution values; samples are unused."""
    return krylov_spaces(ext, (spec.anchor,), False)[0]


def build_adjoint_spaces(ext: Extension, spec: SpaceSamplingSpec):
    """(S~, T~): the observable space, and the adjoint solution span at the conjugated samples."""
    conj_spec = SpaceSamplingSpec(np.conj(spec.anchor), tuple(np.conj(spec.solution_samples)))
    return krylov_spaces(ext, (), True)[0], build_solution_space(adjoint_extension(ext), conj_spec)


def saturated_spaces(ext: Extension):
    """(plan, T): the saturated sampling plan and its solution span, one stacked inverse a point.

    Points are taken one at a time from the sample stream, starting from
    SATURATION_START of them; the plan is accepted once the solution-span
    rank has not moved for SATURATION_STABLE_RUNS consecutive additions, or
    at SATURATION_MAX_POINTS points.  T is build_solution_space(ext, plan).
    """
    anchor, _, stream = _sample_stream(ext)
    pts, cols = [], []
    rank, stable = None, 0
    while stable < SATURATION_STABLE_RUNS and len(pts) < SATURATION_MAX_POINTS:
        for mu in itertools.islice(stream, 1 if pts else SATURATION_START):
            pts.append(mu)
            cols.append(solution_basis(ext, mu)[: ext.triple.state_dim])
        block = np.hstack(cols)
        new_rank = numerical_rank(block)
        stable = stable + 1 if new_rank == rank else 0
        rank = new_rank
    return SpaceSamplingSpec(anchor=anchor, solution_samples=tuple(pts)), orthonormal_basis(block)


def saturated_sampling(ext: Extension) -> SpaceSamplingSpec:
    """The sampling plan alone, grown until the solution-span rank is stable (saturated_spaces)."""
    return saturated_spaces(ext)[0]


def invariance_residual(q: np.ndarray, ext: Extension, mu: complex) -> float:
    """Defect of resolvent invariance: |(I - P) R(mu) P|, P the projector onto ran q."""
    _, rv = resolvent_matrices(ext, mu)
    rp = rv @ q
    return matrix_norm2(rp - q @ (q.conj().T @ rp))


def full_contour_integral(ext: Extension, contour: ContourSpec) -> np.ndarray:
    """Contour integral of the uncompressed state-space resolvent.

    Its compression S~^H (this) S, by linearity the contour integral of the
    bordered resolvent, vanishes (geometrically in the node count) exactly
    when the bordered resolvent is analytic inside the contour: that norm
    is the Morera residual.  Raises WeylScopeError when a node
    lies within CONTOUR_CLEARANCE of the spectrum.
    """
    for z in contour.points():
        if spectrum_distance(ext, z) <= CONTOUR_CLEARANCE:
            raise WeylScopeError(f"contour node {z} within {CONTOUR_CLEARANCE} of the spectrum")
    return contour_integral(lambda z: resolvent_matrices(ext, z)[1], contour)


def detection_record(ext: Extension, contour: ContourSpec, triple_id: str) -> dict:
    """JSON-ready record comparing the bordered and full contour residuals.

    The bordered residual is taken between S~ and S, both from the one
    inverse at sigma (krylov_spaces, S at the sample stream's anchor); both
    residuals come from one resolvent per contour node, so a record takes
    2 + nodes stacked factorizations.
    """
    s_space, s_adj = krylov_spaces(ext, (_sample_stream(ext)[0],), True)
    full = full_contour_integral(ext, contour)
    return {
        "triple_id": triple_id,
        "contour": {
            "center": [contour.center.real, contour.center.imag],
            "radius": contour.radius,
            "nodes": contour.nodes,
        },
        "residual_bordered": matrix_norm2(s_adj.conj().T @ full @ s_space),
        "residual_full": matrix_norm2(full),
        # null: the sampled spans T and Tadj would bring back the plan and the adjoint solves
        "dims": {"S": s_space.shape[1], "T": None, "Sadj": s_adj.shape[1], "Tadj": None},
    }
