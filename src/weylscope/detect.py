"""Detection subspaces, bordered resolvents and contour analyticity tests.

Two families of state-space subspaces are attached to a restriction: the
span of its solution-operator ranges over resolvent points ("solution
space") and the span of resolvent-smoothed ranges anchored at a fixed
point ("resolvent space").  Their closures coincide and are the part of
the state space that the M-function can see; compressing the resolvent
between the adjoint-side and primary-side spaces removes the spectrum the
M-function is blind to, which is what the contour (Morera-style) residuals
check.  A space is the array of its orthonormal state-space columns (as
orthonormal_basis returns them), so the bordered resolvent is S~^H R S.

Each sample point is factorized once: from its stacked inverse the
saturation loop keeps the solution values it tests for rank and the
resolvent images of the anchor blocks, so the plan, T and S are one pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import WeylScopeError
from .numerics import (
    ContourSpec,
    contour_integral,
    matrix_norm2,
    numerical_rank,
    orthonormal_basis,
)
from .triples import (
    Extension,
    _stacked_inverse,
    adjoint_extension,
    extension_eigenvalues,
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


def _check_samples(ext: Extension, points, what: str):
    for z in points:
        if spectrum_distance(ext, z) <= SPECTRUM_CLEARANCE:
            raise WeylScopeError(f"{what} point {z} is within 1e-6 of the spectrum")


def _sample_stream(ext: Extension):
    """(anchor, endless iterator of sample points) for the restriction.

    Points alternate between two circles about the mean of the spectrum at
    golden-angle steps, which keeps added points from aliasing.  The radii
    are spread + 1 and twice that, spread the largest distance of an
    eigenvalue from the mean, and the anchor lies 1.37 times the outer
    radius above the mean: the anchor and every point keep distance at
    least 1 from the spectrum.
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

    return anchor, points()


def _side_by_side(ext: Extension, blocks) -> np.ndarray:
    """State-space column blocks side by side; state_dim x 0 when there are none."""
    return np.hstack(blocks) if blocks else np.zeros((ext.triple.state_dim, 0), dtype=complex)


def _point_columns(ext: Extension, mu: complex, anchor_blocks=()):
    """S(mu) state values (copied, not a view of the n x n inverse) and R_B(mu) @ a per block a."""
    m = ext.triple.state_dim
    inv = _stacked_inverse(ext, mu)
    return inv[:m, m:].copy(), [inv[:m, :m] @ a for a in anchor_blocks]


def _anchor_blocks(ext: Extension, anchors) -> list:
    """State values of the solution ranges at the anchors, the blocks R_B is applied to."""
    _check_samples(ext, anchors, "anchor")
    return [ext.triple.values(solution_basis(ext, z)) for z in anchors]


def build_solution_space(ext: Extension, spec: SpaceSamplingSpec) -> np.ndarray:
    """Orthonormal columns spanning the solution-operator ranges; the anchor is unused."""
    _check_samples(ext, spec.solution_samples, "solution sample")
    cols = [_point_columns(ext, mu)[0] for mu in spec.solution_samples]
    return orthonormal_basis(_side_by_side(ext, cols))


def build_resolvent_space(ext: Extension, spec: SpaceSamplingSpec) -> np.ndarray:
    """Orthonormal columns spanning the resolvent images of the anchor solution range."""
    _check_samples(ext, spec.resolvent_samples, "resolvent sample")
    anchor_vals = _anchor_blocks(ext, (spec.anchor,))
    blocks = [_point_columns(ext, delta, anchor_vals)[1][0] for delta in spec.resolvent_samples]
    return orthonormal_basis(_side_by_side(ext, blocks))


def _adjoint_side(ext: Extension, spec: SpaceSamplingSpec):
    """The adjoint-side restriction and the plan conjugated to keep clear of its spectrum."""
    conj_spec = SpaceSamplingSpec(
        anchor=np.conj(spec.anchor),
        resolvent_samples=tuple(np.conj(z) for z in spec.resolvent_samples),
        solution_samples=tuple(np.conj(z) for z in spec.solution_samples),
    )
    return adjoint_extension(ext), conj_spec


def build_adjoint_spaces(ext: Extension, spec: SpaceSamplingSpec):
    """(resolvent, solution) spaces of the adjoint-side restriction at the conjugated plan."""
    adj, conj_spec = _adjoint_side(ext, spec)
    return build_resolvent_space(adj, conj_spec), build_solution_space(adj, conj_spec)


def saturated_spaces(ext: Extension, shifts=(0.0,)):
    """(plan, T columns, S per shift), from one stacked inverse per point of the plan.

    Points are taken one at a time from the sample stream, starting from
    SATURATION_START of them; the plan is accepted once the solution-span
    rank has not moved for SATURATION_STABLE_RUNS consecutive additions, or
    at SATURATION_MAX_POINTS points.  orthonormal_basis of the T columns is
    build_solution_space(ext, plan); S is build_resolvent_space(ext, plan)
    with the anchor moved by the shift.
    """
    anchor, stream = _sample_stream(ext)
    anchor_vals = _anchor_blocks(ext, [anchor + shift for shift in shifts])
    pts, cols, images = [], [], []
    rank, stable = None, 0
    while stable < SATURATION_STABLE_RUNS and len(pts) < SATURATION_MAX_POINTS:
        for mu in itertools.islice(stream, 1 if pts else SATURATION_START):
            vals, imgs = _point_columns(ext, mu, anchor_vals)
            pts.append(mu)
            cols.append(vals)
            images.append(imgs)
        block = np.hstack(cols)
        new_rank = numerical_rank(block)
        stable = stable + 1 if new_rank == rank else 0
        rank = new_rank
    spec = SpaceSamplingSpec(anchor=anchor, resolvent_samples=tuple(pts),
                             solution_samples=tuple(pts))
    return spec, block, [orthonormal_basis(np.hstack(per_shift)) for per_shift in zip(*images)]


def saturated_sampling(ext: Extension) -> SpaceSamplingSpec:
    """The sampling plan alone, grown until the solution-span rank is stable (saturated_spaces)."""
    return saturated_spaces(ext, ())[0]


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

    The bordered residual is taken between S~ and S, the resolvent spaces of
    the adjoint and of the primary side at the saturated plan; both
    residuals come from one resolvent per contour node.
    """
    spec, _, (s_space,) = saturated_spaces(ext)
    s_adj = build_resolvent_space(*_adjoint_side(ext, spec))
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
        # T and Tadj, the solution-space dims, stay null until ROADMAP item 2 fills T
        "dims": {"S": s_space.shape[1], "T": None, "Sadj": s_adj.shape[1], "Tadj": None},
    }
