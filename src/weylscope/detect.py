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
    resolvent_matrices,
    solution_basis,
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
    side: str  # 'solution' | 'resolvent' | 'solution-adjoint' | 'resolvent-adjoint'

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _near_spectrum(ext: Extension, points, clearance: float):
    """The first point within clearance of the restriction's spectrum, or None."""
    eigs = extension_eigenvalues(ext)
    if eigs.size:
        for z in points:
            if np.min(np.abs(eigs - z)) <= clearance:
                return z
    return None


def _check_samples(ext: Extension, points, what: str):
    z = _near_spectrum(ext, points, SPECTRUM_CLEARANCE)
    if z is not None:
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
    if eigs.size and np.min(np.abs(eigs - anchor)) <= 10 * SPECTRUM_CLEARANCE:
        anchor = complex(center + 1.61j * radii[1])

    def points():
        for j in itertools.count():
            r = radii[j % 2]
            ang = GOLDEN_ANGLE * j
            z = center + r * np.exp(1j * ang)
            if eigs.size:
                bump = 0
                while np.min(np.abs(eigs - z)) <= 10 * SPECTRUM_CLEARANCE and bump < 50:
                    ang += 1e-3
                    z = center + r * np.exp(1j * ang)
                    bump += 1
            yield complex(z)

    return anchor, points()


def default_sampling(ext: Extension, count: int = 24) -> SpaceSamplingSpec:
    """Deterministic sampling plan: the first count points of the sample stream."""
    anchor, stream = _sample_stream(ext)
    pts = tuple(itertools.islice(stream, count))
    return SpaceSamplingSpec(anchor=anchor, resolvent_samples=pts, solution_samples=pts)


def build_solution_space(ext: Extension, spec: SpaceSamplingSpec) -> SubspaceBasis:
    """Orthonormal basis of the span of solution-operator ranges over the samples."""
    _check_samples(ext, spec.solution_samples, "solution sample")
    _check_samples(ext, (spec.anchor,), "anchor")
    tr = ext.triple
    blocks = [tr.values(solution_basis(ext, mu)) for mu in spec.solution_samples]
    cols = np.hstack(blocks) if blocks else np.zeros((tr.state_dim, 0), dtype=complex)
    return SubspaceBasis(basis=orthonormal_basis(cols), side="solution")


def build_resolvent_space(ext: Extension, spec: SpaceSamplingSpec) -> SubspaceBasis:
    """Basis of the span of resolvent images of the anchor solution range."""
    _check_samples(ext, spec.resolvent_samples, "resolvent sample")
    _check_samples(ext, (spec.anchor,), "anchor")
    tr = ext.triple
    anchor_vals = tr.values(solution_basis(ext, spec.anchor))
    blocks = []
    for delta in spec.resolvent_samples:
        _, rv = resolvent_matrices(ext, delta)
        blocks.append(rv @ anchor_vals)
    cols = np.hstack(blocks) if blocks else np.zeros((tr.state_dim, 0), dtype=complex)
    return SubspaceBasis(basis=orthonormal_basis(cols), side="resolvent")


def build_adjoint_spaces(ext: Extension, spec: SpaceSamplingSpec):
    """(resolvent-adjoint, solution-adjoint) bases from the adjoint-side restriction.

    The adjoint side is sampled at the conjugated points, which avoid the
    conjugated spectrum exactly when the original points avoid the spectrum.
    """
    adj = adjoint_extension(ext)
    conj_spec = SpaceSamplingSpec(
        anchor=np.conj(spec.anchor),
        resolvent_samples=tuple(np.conj(z) for z in spec.resolvent_samples),
        solution_samples=tuple(np.conj(z) for z in spec.solution_samples),
    )
    s_adj = build_resolvent_space(adj, conj_spec)
    t_adj = build_solution_space(adj, conj_spec)
    return (
        SubspaceBasis(basis=s_adj.basis, side="resolvent-adjoint"),
        SubspaceBasis(basis=t_adj.basis, side="solution-adjoint"),
    )


def saturated_sampling(ext: Extension) -> SpaceSamplingSpec:
    """Grow the sampling plan until the solution-span rank is stable.

    Points are taken one at a time from the sample stream, starting from
    SATURATION_START of them; the plan is accepted once the rank has not
    moved for SATURATION_STABLE_RUNS consecutive additions, or at
    SATURATION_MAX_POINTS points.
    """
    tr = ext.triple
    anchor, stream = _sample_stream(ext)
    pts = list(itertools.islice(stream, SATURATION_START))
    cols = np.hstack([tr.values(solution_basis(ext, mu)) for mu in pts])
    rank = orthonormal_basis(cols).shape[1]
    stable = 0
    while stable < SATURATION_STABLE_RUNS and len(pts) < SATURATION_MAX_POINTS:
        pts.append(next(stream))
        cols = np.hstack([cols, tr.values(solution_basis(ext, pts[-1]))])
        new_rank = orthonormal_basis(cols).shape[1]
        stable = stable + 1 if new_rank == rank else 0
        rank = new_rank
    return SpaceSamplingSpec(anchor=anchor, resolvent_samples=tuple(pts),
                             solution_samples=tuple(pts))


def invariance_residual(space: SubspaceBasis, ext: Extension, mu: complex) -> float:
    """Defect of resolvent invariance: |(I - P) R(mu) P| for the space's projector."""
    q = space.basis
    _, rv = resolvent_matrices(ext, mu)
    if q.shape[1] == 0:
        return 0.0
    rp = rv @ q
    return float(np.linalg.norm(rp - q @ (q.conj().T @ rp), 2))


def bordered_resolvent(ext: Extension, lam: complex, left: SubspaceBasis,
                       right: SubspaceBasis) -> np.ndarray:
    """Resolvent compressed between the adjoint-side and primary-side bases."""
    _, rv = resolvent_matrices(ext, lam)
    return left.basis.conj().T @ rv @ right.basis


def morera_residual(ext: Extension, contour: ContourSpec, left: SubspaceBasis,
                    right: SubspaceBasis) -> float:
    """Norm of the contour integral of the bordered resolvent.

    Vanishes (geometrically in the node count) exactly when the bordered
    resolvent is analytic inside the contour; contour nodes must keep a
    clearance (CONTOUR_CLEARANCE) from the spectrum.
    """
    z = _near_spectrum(ext, contour.points(), CONTOUR_CLEARANCE)
    if z is not None:
        raise ContourHitsSpectrumError(
            f"contour node {z} within {CONTOUR_CLEARANCE} of the spectrum"
        )
    val = contour_integral(lambda z: bordered_resolvent(ext, z, left, right), contour)
    if np.asarray(val).size == 0:
        return 0.0
    return float(np.linalg.norm(val, 2))


def full_contour_integral(ext: Extension, contour: ContourSpec) -> np.ndarray:
    """Contour integral of the uncompressed state-space resolvent."""
    return contour_integral(lambda z: resolvent_matrices(ext, z)[1], contour)


def spectral_projection(ext: Extension, contour: ContourSpec) -> np.ndarray:
    """Oracle projection onto the eigenspaces enclosed by the contour.

    Built from the dense eigendecomposition of the restriction, independent
    of any contour quadrature.
    """
    from .triples import extension_operator

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
    """JSON-ready record comparing bordered and full contour residuals."""
    bordered = morera_residual(ext, contour, left, right)
    full = float(matrix_norm2(full_contour_integral(ext, contour)))
    return {
        "triple_id": triple_id,
        "contour": {
            "center": [contour.center.real, contour.center.imag],
            "radius": contour.radius,
            "nodes": contour.nodes,
        },
        "residual_bordered": bordered,
        "residual_full": full,
        "dims": {
            "S": right.dim if right.side.startswith("resolvent") else None,
            "T": right.dim if right.side.startswith("solution") else None,
            "Sadj": left.dim if left.side.startswith("resolvent") else None,
            "Tadj": left.dim if left.side.startswith("solution") else None,
        },
    }
