"""Detection subspaces, bordered resolvents and contour analyticity tests.

Two families of state-space subspaces are attached to a restriction: the
span of its solution-operator ranges over resolvent points ("solution
space") and the span of resolvent-smoothed ranges anchored at a fixed
point ("resolvent space").  Their closures coincide and are the part of
the state space that the M-function can see; compressing the resolvent
between the adjoint-side and primary-side spaces removes the spectrum the
M-function is blind to, which is what the contour (Morera-style) residuals
check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ContourHitsSpectrumError, SampleInSpectrumError
from .numerics import (
    ContourSpec,
    contour_integral,
    matrix_norm2,
    orthonormal_basis,
)
from .triples import (
    Extension,
    adjoint_extension,
    extension_eigenvalues,
    extension_operator,
    resolvent_matrices,
    solution_basis,
    spectrum_distance,
)

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))
SPECTRUM_CLEARANCE = 1e-6
CONTOUR_CLEARANCE = 1e-4
# saturated_sampling: initial points, rank-stable additions to accept, point cap
SATURATION_START = 12
SATURATION_STABLE_RUNS = 8
SATURATION_MAX_POINTS = 200


@dataclass(frozen=True)
class SpaceSamplingSpec:
    """Sampling plan for the detection subspaces.

    anchor is the fixed resolvent point the smoothed space is built from;
    resolvent_samples feed the smoothed space, solution_samples the plain
    solution span.  All points must keep clear of the spectrum.
    """

    anchor: complex
    resolvent_samples: tuple = field(default_factory=tuple)
    solution_samples: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning one detection space."""

    basis: np.ndarray
    side: str  # 'solution' | 'resolvent'

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _check_samples(ext: Extension, points, what: str):
    for z in points:
        if spectrum_distance(ext, z) <= SPECTRUM_CLEARANCE:
            raise SampleInSpectrumError(f"{what} point {z} is within 1e-6 of the spectrum")


def _sample_stream(ext: Extension):
    """(anchor, endless iterator of sample points) for the restriction.

    Points alternate between two circles enclosing the spectrum at
    golden-angle steps, which keeps added points from aliasing; a point
    close to an eigenvalue is nudged along its circle.
    """
    eigs = extension_eigenvalues(ext)
    if eigs.size:
        center = complex(np.mean(eigs))
        spread = float(np.max(np.abs(eigs - center)))
    else:
        center, spread = 0.0, 0.0
    radii = (spread + 1.0, 2.0 * (spread + 1.0))
    anchor = complex(center + 1.37j * radii[1])
    if spectrum_distance(ext, anchor) <= 10 * SPECTRUM_CLEARANCE:
        anchor = complex(center + 1.61j * radii[1])

    def points():
        for j in itertools.count():
            r = radii[j % 2]
            ang = GOLDEN_ANGLE * j
            z = center + r * np.exp(1j * ang)
            bump = 0
            while spectrum_distance(ext, z) <= 10 * SPECTRUM_CLEARANCE and bump < 50:
                ang += 1e-3
                z = center + r * np.exp(1j * ang)
                bump += 1
            yield complex(z)

    return anchor, points()


def _solution_columns(ext: Extension, points) -> np.ndarray:
    """State values of the solution-operator ranges at the points, side by side."""
    blocks = [ext.triple.values(solution_basis(ext, mu)) for mu in points]
    return np.hstack(blocks) if blocks else np.zeros((ext.triple.state_dim, 0), dtype=complex)


def build_solution_space(ext: Extension, spec: SpaceSamplingSpec) -> SubspaceBasis:
    """Orthonormal basis of the span of solution-operator ranges over the samples."""
    _check_samples(ext, spec.solution_samples, "solution sample")
    _check_samples(ext, (spec.anchor,), "anchor")
    cols = _solution_columns(ext, spec.solution_samples)
    return SubspaceBasis(basis=orthonormal_basis(cols), side="solution")


def build_resolvent_space(ext: Extension, spec: SpaceSamplingSpec) -> SubspaceBasis:
    """Basis of the span of resolvent images of the anchor solution range."""
    _check_samples(ext, spec.resolvent_samples, "resolvent sample")
    _check_samples(ext, (spec.anchor,), "anchor")
    tr = ext.triple
    anchor_vals = tr.values(solution_basis(ext, spec.anchor))
    blocks = [resolvent_matrices(ext, delta)[1] @ anchor_vals for delta in spec.resolvent_samples]
    cols = np.hstack(blocks) if blocks else np.zeros((tr.state_dim, 0), dtype=complex)
    return SubspaceBasis(basis=orthonormal_basis(cols), side="resolvent")


def _adjoint_side(ext: Extension, spec: SpaceSamplingSpec):
    """The adjoint-side restriction and the plan conjugated to keep clear of its spectrum."""
    conj_spec = SpaceSamplingSpec(
        anchor=np.conj(spec.anchor),
        resolvent_samples=tuple(np.conj(z) for z in spec.resolvent_samples),
        solution_samples=tuple(np.conj(z) for z in spec.solution_samples),
    )
    return adjoint_extension(ext), conj_spec


def build_adjoint_spaces(ext: Extension, spec: SpaceSamplingSpec):
    """(resolvent, solution) bases of the adjoint-side restriction at the conjugated plan."""
    adj, conj_spec = _adjoint_side(ext, spec)
    return build_resolvent_space(adj, conj_spec), build_solution_space(adj, conj_spec)


def saturated_sampling(ext: Extension) -> SpaceSamplingSpec:
    """Grow the sampling plan until the solution-span rank is stable.

    Points are taken one at a time from the sample stream, starting from
    SATURATION_START of them; the plan is accepted once the rank has not
    moved for SATURATION_STABLE_RUNS consecutive additions, or at
    SATURATION_MAX_POINTS points.
    """
    anchor, stream = _sample_stream(ext)
    pts = list(itertools.islice(stream, SATURATION_START))
    cols = _solution_columns(ext, pts)
    rank = orthonormal_basis(cols).shape[1]
    stable = 0
    while stable < SATURATION_STABLE_RUNS and len(pts) < SATURATION_MAX_POINTS:
        pts.append(next(stream))
        cols = np.hstack([cols, _solution_columns(ext, pts[-1:])])
        new_rank = orthonormal_basis(cols).shape[1]
        stable = stable + 1 if new_rank == rank else 0
        rank = new_rank
    return SpaceSamplingSpec(anchor=anchor, resolvent_samples=tuple(pts),
                             solution_samples=tuple(pts))


def invariance_residual(space: SubspaceBasis, ext: Extension, mu: complex) -> float:
    """Defect of resolvent invariance: |(I - P) R(mu) P| for the space's projector."""
    q = space.basis
    _, rv = resolvent_matrices(ext, mu)
    rp = rv @ q
    return matrix_norm2(rp - q @ (q.conj().T @ rp))


def _compress(mat: np.ndarray, left: SubspaceBasis, right: SubspaceBasis) -> np.ndarray:
    """left^H mat right: a state-space operator compressed between two bases."""
    return left.basis.conj().T @ mat @ right.basis


def _bordered_norm(full: np.ndarray, left: SubspaceBasis, right: SubspaceBasis) -> float:
    """Norm of a contour integral compressed between the two bases."""
    return matrix_norm2(_compress(full, left, right))


def bordered_resolvent(ext: Extension, lam: complex, left: SubspaceBasis,
                       right: SubspaceBasis) -> np.ndarray:
    """Resolvent compressed between the adjoint-side and primary-side bases."""
    _, rv = resolvent_matrices(ext, lam)
    return _compress(rv, left, right)


def morera_residual(ext: Extension, contour: ContourSpec, left: SubspaceBasis,
                    right: SubspaceBasis) -> float:
    """Norm of the contour integral of the bordered resolvent.

    Vanishes (geometrically in the node count) exactly when the bordered
    resolvent is analytic inside the contour.  By linearity it is the
    compression of full_contour_integral, whose nodes must keep a
    clearance (CONTOUR_CLEARANCE) from the spectrum.
    """
    return _bordered_norm(full_contour_integral(ext, contour), left, right)


def full_contour_integral(ext: Extension, contour: ContourSpec) -> np.ndarray:
    """Contour integral of the uncompressed state-space resolvent.

    Raises ContourHitsSpectrumError when a node lies within
    CONTOUR_CLEARANCE of the spectrum.
    """
    for z in contour.points():
        if spectrum_distance(ext, z) <= CONTOUR_CLEARANCE:
            raise ContourHitsSpectrumError(
                f"contour node {z} within {CONTOUR_CLEARANCE} of the spectrum"
            )
    return contour_integral(lambda z: resolvent_matrices(ext, z)[1], contour)


def spectral_projection(ext: Extension, contour: ContourSpec) -> np.ndarray:
    """Oracle projection onto the eigenspaces enclosed by the contour.

    Built from the dense eigendecomposition of the restriction, independent
    of any contour quadrature.
    """
    op = extension_operator(ext)
    vals, vecs = np.linalg.eig(op)
    inside = np.abs(vals - contour.center) < contour.radius
    if not np.any(inside):
        return np.zeros_like(op)
    v_in = vecs[:, inside]
    wl = np.linalg.inv(vecs)[inside, :]
    return v_in @ wl


def detection_report(ext: Extension, contour: ContourSpec, left: SubspaceBasis,
                     right: SubspaceBasis, triple_id: str = "triple") -> dict:
    """JSON-ready record comparing bordered and full contour residuals.

    Both residuals come from one resolvent per contour node.
    """
    full = full_contour_integral(ext, contour)
    return {
        "triple_id": triple_id,
        "contour": {
            "center": [contour.center.real, contour.center.imag],
            "radius": contour.radius,
            "nodes": contour.nodes,
        },
        "residual_bordered": _bordered_norm(full, left, right),
        "residual_full": matrix_norm2(full),
        "dims": {
            "S": right.dim if right.side == "resolvent" else None,
            "T": right.dim if right.side == "solution" else None,
            "Sadj": left.dim if left.side == "resolvent" else None,
            "Tadj": left.dim if left.side == "solution" else None,
        },
    }


def detection_record(ext: Extension, contour: ContourSpec, triple_id: str) -> dict:
    """detection_report between S~ and S, the resolvent spaces of the two sides."""
    spec = saturated_sampling(ext)
    s_space = build_resolvent_space(ext, spec)
    s_adj = build_resolvent_space(*_adjoint_side(ext, spec))
    return detection_report(ext, contour, s_adj, s_space, triple_id=triple_id)
