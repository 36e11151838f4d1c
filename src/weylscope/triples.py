"""Finite-dimensional adjoint pairs with boundary maps, extensions and M-functions.

The model
---------
A finite model of a maximal operator with boundary data cannot be a square
matrix: a restriction of a square matrix to a proper subspace never has a
resolvent defined on the whole space, and ker(T - lam I) is trivial away
from finitely many lam.  What the identities of the theory actually use is
an action with index h: surjective onto the state space with an
h-dimensional kernel at every spectral point.

We therefore model the maximal domain by coordinates C^n with n = m + h,
where the first m coordinates are the state-space (Hilbert) identity of the
element and the trailing h coordinates carry the boundary freedom.  The
action is an m x n matrix; "multiplication by lam" acts through the value
map value(u) = u[:m].  The stacked system

    [ action - lam * value ]            (m rows)
    [ bnd1 - B bnd2        ] x = rhs    (h rows)

is square, so restrictions defined by boundary conditions have honest
resolvents, solution operators exist at every point outside a finite
spectrum, and every identity below is a checkable residual.  For h = k = 0
the model reduces to a plain square matrix with its usual adjoint.

The adjoint side lives on nt = m + k coordinates with its own action and
boundary maps; the pairing identity (an exact matrix identity enforced by
the constructor) reads

    value_adj* action - action_adj* value = adj_bnd2* bnd1 - adj_bnd1* bnd2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import WeylScopeError
from .numerics import DEFAULT_RANK_TOL, matrix_norm2

SPECTRUM_RCOND = 1e-10


def _as_matrix(a, rows, cols, name):
    m = np.asarray(a, dtype=complex)
    if m.size == 0:
        m = np.zeros((rows, cols), dtype=complex)
    if m.shape != (rows, cols):
        raise ValueError(f"{name} must have shape {(rows, cols)}, got {m.shape}")
    return m


@dataclass(frozen=True)
class FiniteTriple:
    """Finite adjoint-pair model: actions, boundary maps, exact pairing identity.

    action:      (m, n)  maximal action, n = m + h domain coordinates
    action_adj:  (m, nt) adjoint-side maximal action, nt = m + k
    bnd1:        (h, n)  first boundary map of the primary side
    bnd2:        (k, n)  second boundary map of the primary side
    adj_bnd1:    (k, nt) first boundary map of the adjoint side
    adj_bnd2:    (h, nt) second boundary map of the adjoint side
    """

    action: np.ndarray
    action_adj: np.ndarray
    bnd1: np.ndarray
    bnd2: np.ndarray
    adj_bnd1: np.ndarray
    adj_bnd2: np.ndarray

    def __post_init__(self):
        # freeze the payload: Extension caches _spectrum and _stacked built from it
        for name in ("action", "action_adj", "bnd1", "bnd2", "adj_bnd1", "adj_bnd2"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def state_dim(self) -> int:
        return self.action.shape[0]

    @property
    def dom_dim(self) -> int:
        return self.action.shape[1]

    @property
    def adj_dom_dim(self) -> int:
        return self.action_adj.shape[1]

    @property
    def h(self) -> int:
        return self.bnd1.shape[0]

    @property
    def k(self) -> int:
        return self.bnd2.shape[0]


def make_triple(action, bnd1, bnd2, adj_bnd1, adj_bnd2=None):
    """Assemble a FiniteTriple, deriving the adjoint-side data.

    The adjoint-side action is always derived so the pairing identity holds
    exactly.  If adj_bnd2 is omitted it is derived as well (this needs the
    defect block bnd1[:, m:] to be invertible); if supplied, the assembled
    triple is checked against the pairing identity.

    Raises WeylScopeError when a stacked boundary map pair is not
    surjective, or when a supplied adj_bnd2 cannot close the identity.
    """
    action = np.asarray(action, dtype=complex)
    if action.ndim != 2:
        raise ValueError("action must be a matrix")
    m, n = action.shape
    h = n - m
    if h < 0:
        raise ValueError("action cannot have more rows than columns")
    bnd1 = _as_matrix(bnd1, h, n, "bnd1")
    bnd2 = np.asarray(bnd2, dtype=complex)
    if bnd2.ndim != 2 or bnd2.shape[1] != n:
        raise ValueError(f"bnd2 must have {n} columns")
    k = bnd2.shape[0]
    nt = m + k
    adj_bnd1 = _as_matrix(adj_bnd1, k, nt, "adj_bnd1")

    _check_surjective(bnd1, bnd2, "primary")

    # pairing identity, column blocks:  [action; 0][:, :m] - action_adj^H = rhs[:, :m]
    # and on the defect columns        [action; 0][:, m:]  = rhs[:, m:]
    # where rhs = adj_bnd2^H bnd1 - adj_bnd1^H bnd2.
    lifted = _lifted(action, k)
    supplied = adj_bnd2 is not None
    if supplied:
        adj_bnd2 = _as_matrix(adj_bnd2, h, nt, "adj_bnd2")
    elif h > 0:
        defect = bnd1[:, m:]
        if _rank_deficient(defect):
            raise WeylScopeError("bnd1 defect block is singular; supply adj_bnd2 explicitly")
        target = lifted[:, m:] + adj_bnd1.conj().T @ bnd2[:, m:]
        adj_bnd2 = np.linalg.solve(defect.conj().T, target.conj().T)
    else:
        adj_bnd2 = np.zeros((0, nt), dtype=complex)

    rhs = _pairing_rhs(bnd1, bnd2, adj_bnd1, adj_bnd2)
    tr = FiniteTriple(
        action=action,
        action_adj=(lifted[:, :m] - rhs[:, :m]).conj().T,
        bnd1=bnd1,
        bnd2=bnd2,
        adj_bnd1=adj_bnd1,
        adj_bnd2=adj_bnd2,
    )
    if supplied and _pairing_violated(tr):
        raise WeylScopeError("adj_bnd2 does not close the pairing identity")

    _check_surjective(adj_bnd1, adj_bnd2, "adjoint")
    return tr


def _lifted(action, k):
    """value_adj^H action: the action with k zero rows appended."""
    return np.vstack([action, np.zeros((k, action.shape[1]), dtype=complex)])


def _pairing_rhs(bnd1, bnd2, adj_bnd1, adj_bnd2):
    """The right side adj_bnd2^H bnd1 - adj_bnd1^H bnd2 of the pairing identity."""
    return adj_bnd2.conj().T @ bnd1 - adj_bnd1.conj().T @ bnd2


def _rank_deficient(mat) -> bool:
    """The full-rank test: sigma_min <= DEFAULT_RANK_TOL max(sigma_max, 1); False when empty."""
    sv = np.linalg.svd(mat, compute_uv=False)
    return sv.size > 0 and sv[-1] <= DEFAULT_RANK_TOL * max(sv[0], 1.0)


def _check_surjective(b1, b2, side):
    stacked = np.vstack([b1, b2])
    if stacked.shape[0] > stacked.shape[1]:
        raise WeylScopeError(f"{side} boundary maps exceed domain dimension")
    if _rank_deficient(stacked):
        raise WeylScopeError(f"stacked {side} boundary maps not surjective")


def green_residual(tr: FiniteTriple, u, v) -> float:
    """|(action u, v) - (u, action_adj v) - (bnd1 u, adj_bnd2 v) + (bnd2 u, adj_bnd1 v)|.

    u lives in domain coordinates C^n, v in adjoint-domain coordinates C^nt;
    the state pairings go through the value maps.  Zero (to rounding) for
    every triple produced by make_triple.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    m = tr.state_dim

    def pair(x, y):
        return np.vdot(y, x)  # (x, y) = y^H x

    lhs = pair(tr.action @ u, v[:m]) - pair(u[:m], tr.action_adj @ v)
    rhs = pair(tr.bnd1 @ u, tr.adj_bnd2 @ v) - pair(tr.bnd2 @ u, tr.adj_bnd1 @ v)
    return abs(lhs - rhs)


def triple_to_dict(tr: FiniteTriple) -> dict:
    """Serialize to the 'triple-v1' JSON schema (matrices as rows of [re, im])."""

    def enc(mat):
        mat = np.asarray(mat)
        return np.stack([mat.real, mat.imag], axis=-1).tolist()

    return {
        "schema": "triple-v1",
        "state_dim": tr.state_dim,
        "h": tr.h,
        "k": tr.k,
        "action": enc(tr.action),
        "action_adj": enc(tr.action_adj),
        "bnd1": enc(tr.bnd1),
        "bnd2": enc(tr.bnd2),
        "adj_bnd1": enc(tr.adj_bnd1),
        "adj_bnd2": enc(tr.adj_bnd2),
    }


def triple_from_dict(data: dict) -> FiniteTriple:
    """Load a triple from the 'triple-v1' schema, revalidating the identity."""
    if data.get("schema") != "triple-v1":
        raise ValueError(f"unsupported schema {data.get('schema')!r}")
    m, h, k = int(data["state_dim"]), int(data["h"]), int(data["k"])

    def dec(key, rows, cols):
        raw = data[key]
        if len(raw) != rows or any(len(r) != cols for r in raw):
            raise ValueError(f"field {key} has wrong shape")
        try:  # a pair of another length does not fit; strings and null give no number dtype
            pairs = np.array(raw).reshape(rows, cols, 2)
        except ValueError:
            pairs = None
        if pairs is None or pairs.dtype.kind not in "biuf":
            raise ValueError(f"field {key} has an entry that is not a pair of numbers")
        out = np.empty((rows, cols), dtype=complex)
        out.real, out.imag = pairs[..., 0], pairs[..., 1]
        if not np.isfinite(out).all():
            raise ValueError(f"field {key} has a non-finite entry")
        return out

    tr = FiniteTriple(
        action=dec("action", m, m + h),
        action_adj=dec("action_adj", m, m + k),
        bnd1=dec("bnd1", h, m + h),
        bnd2=dec("bnd2", k, m + h),
        adj_bnd1=dec("adj_bnd1", k, m + k),
        adj_bnd2=dec("adj_bnd2", h, m + k),
    )
    if _pairing_violated(tr):
        raise ValueError("triple file violates the pairing identity")
    try:
        _check_surjective(tr.bnd1, tr.bnd2, "primary")
        _check_surjective(tr.adj_bnd1, tr.adj_bnd2, "adjoint")
    except WeylScopeError as exc:
        raise ValueError(str(exc)) from exc
    return tr


def _pairing_violated(tr: FiniteTriple) -> bool:
    """Whether the matrix defect of the pairing identity exceeds 1e-9 of its larger side.

    The scale is max(1, |action|_F, |action_adj|_F): either side may carry it.
    """
    adj_lift = np.hstack([tr.action_adj.conj().T,
                          np.zeros((tr.state_dim + tr.k, tr.h), dtype=complex)])
    gap = (_lifted(tr.action, tr.k) - adj_lift
           - _pairing_rhs(tr.bnd1, tr.bnd2, tr.adj_bnd1, tr.adj_bnd2))
    return np.linalg.norm(gap) > 1e-9 * max(1.0, np.linalg.norm(tr.action),
                                            np.linalg.norm(tr.action_adj))


@dataclass(frozen=True)
class Extension:
    """Restriction of the maximal action to ker(bnd1 - bparam @ bnd2)."""

    triple: FiniteTriple
    bparam: np.ndarray  # (h, k)

    def __post_init__(self):
        bp = np.array(self.bparam, dtype=complex)
        if bp.shape != (self.triple.h, self.triple.k):
            raise ValueError(
                f"bparam must be {(self.triple.h, self.triple.k)}, got {bp.shape}"
            )
        bp.setflags(write=False)
        object.__setattr__(self, "bparam", bp)

    @property
    def constraint(self) -> np.ndarray:
        return self.triple.bnd1 - self.bparam @ self.triple.bnd2

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """Eigenvalues of the state-space matrix, computed once and read-only.

        The triple and bparam are immutable, so the cache cannot go stale.
        """
        if self.triple.state_dim == 0:
            eigs = np.zeros(0, dtype=complex)
        else:
            eigs = np.linalg.eigvals(extension_operator(self))
        eigs.setflags(write=False)
        return eigs

    @cached_property
    def _stacked(self) -> np.ndarray:
        """The stacked system [action; bnd1 - B bnd2] at lam = 0, built once and read-only."""
        mat = np.vstack([self.triple.action, self.constraint])
        mat.setflags(write=False)
        return mat


def adjoint_extension(ext: Extension) -> Extension:
    """The adjoint-side restriction: the pair with its two sides exchanged, parametrized by B^H."""
    tr = ext.triple
    swapped = FiniteTriple(action=tr.action_adj, action_adj=tr.action, bnd1=tr.adj_bnd1,
                           bnd2=tr.adj_bnd2, adj_bnd1=tr.bnd1, adj_bnd2=tr.bnd2)
    return Extension(swapped, ext.bparam.conj().T)


def _stacked_inverse(ext: Extension, lam: complex) -> np.ndarray:
    """Inverse of the stacked system [action - lam*value; bnd1 - B bnd2] (n x n).

    Its leading m columns are the resolvent R_B(lam) in domain coordinates,
    its trailing h columns the solution basis S(lam).  One LU per call.  lam
    counts as spectral when the solve fails or unless
    |A|_F |A^-1|_F < 1/SPECTRUM_RCOND; since |.|_2 <= |.|_F this rejects
    every lam with sigma_min(A) <= SPECTRUM_RCOND sigma_max(A), and a NaN
    or infinite inverse fails the comparison.  It starts from a copy of the
    restriction's cached system at lam = 0.
    """
    m, n = ext.triple.state_dim, ext.triple.dom_dim
    mat = ext._stacked.copy()
    mat.reshape(-1)[: m * (n + 1) : n + 1] -= lam  # the leading m diagonal entries
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        inv = None
    if inv is None or not (np.linalg.norm(mat) * np.linalg.norm(inv) * SPECTRUM_RCOND < 1.0):
        raise WeylScopeError(f"lambda={lam} is in the spectrum of the restriction")
    return inv


def extension_operator(ext: Extension) -> np.ndarray:
    """The restriction as a plain matrix on the state space.

    Domain vectors are determined by their state values, so the operator is
    (action @ Q) (value @ Q)^{-1} for an orthonormal basis Q of
    ker(bnd1 - B bnd2).  Raises WeylScopeError when value @ Q is singular:
    the domain then holds a vector with zero state value and the restriction
    is no operator.
    """
    tr = ext.triple
    con = ext.constraint
    if con.shape[0] == 0:
        q = np.eye(tr.dom_dim, dtype=complex)
    else:
        _, s, vh = np.linalg.svd(con)
        q = vh[int(np.sum(s > 1e-12 * max(s[0], 1.0))):].conj().T
    if q.shape[1] != tr.state_dim:
        raise WeylScopeError("restriction domain does not match the state dimension")
    vq = q[: tr.state_dim, :]
    if _rank_deficient(vq):  # sigma_max(vq) <= 1: vq is a row block of orthonormal columns
        raise WeylScopeError("restriction domain holds a vector with zero state value")
    return np.linalg.solve(vq.conj().T, (tr.action @ q).conj().T).conj().T


def extension_eigenvalues(ext: Extension) -> np.ndarray:
    """Spectrum of the restriction (eigenvalues of its state-space matrix).

    Computed once per Extension; the returned array is read-only.
    """
    return ext._spectrum


def spectrum_distance(ext: Extension, z: complex) -> float:
    """Distance from z to the restriction's spectrum (inf when it is empty)."""
    eigs = ext._spectrum
    return float(np.min(np.abs(eigs - z))) if eigs.size else np.inf


def resolvent_matrices(ext: Extension, lam: complex):
    """(coords, values) of the resolvent applied to the state-space identity.

    coords is n x m (domain coordinates column by column), the leading m
    columns of the stacked inverse; values = its leading m rows, i.e. the
    resolvent R_B(lam) as an m x m state-space operator.  The solution x of
    (action - lam * value) x = r with (bnd1 - B bnd2) x = 0 is coords @ r.
    """
    m = ext.triple.state_dim
    coords = _stacked_inverse(ext, lam)[:, :m]
    return coords, coords[:m]


def solution_basis(ext: Extension, lam: complex) -> np.ndarray:
    """Solution operator applied to the identity on boundary data (n x h).

    solution_basis(ext, lam) @ f is the kernel element y with
    (action - lam*value) y = 0 and (bnd1 - B bnd2) y = f, in domain
    coordinates, analytic off the spectrum.  The trailing h columns of the stacked inverse, copied: a view would keep
    the whole n x n inverse alive in callers that hold many bases.
    """
    return _stacked_inverse(ext, lam)[:, ext.triple.state_dim:].copy()


def hilbert_identity_residual(ext: Extension, lam: complex, lam0: complex, f) -> float:
    """Residual of the resolvent-difference identity for solution operators.

    Compares the solution at lam with the solution at lam0 corrected by
    (lam - lam0) times the resolvent at lam, in state values.  One stacked
    inverse per point gives both R(lam) and S(lam).
    """
    m = ext.triple.state_dim
    f = np.asarray(f, dtype=complex)
    inv = _stacked_inverse(ext, lam)
    base = _stacked_inverse(ext, lam0)[:m, m:] @ f
    left = inv[:m, m:] @ f
    right = base + (lam - lam0) * (inv[:m, :m] @ base)
    return float(np.linalg.norm(left - right))


def m_function(ext: Extension, lam: complex) -> np.ndarray:
    """The k x h M-matrix sending constrained boundary data to bnd2 data.

    M(lam) (bnd1 - B bnd2) u = bnd2 u for every kernel element u at lam.
    """
    return ext.triple.bnd2 @ solution_basis(ext, lam)


def m_via_resolvent(ext: Extension, lam: complex, lam0: complex) -> np.ndarray:
    """M computed from the resolvent route: bnd2 (I + (lam-lam0) R(lam)) S(lam0).

    Agrees with m_function at every pair of admissible points; the two
    routes are independent computations.
    """
    tr = ext.triple
    base = solution_basis(ext, lam0)
    corr = resolvent_matrices(ext, lam)[0] @ base[: tr.state_dim]
    return tr.bnd2 @ (base + (lam - lam0) * corr)


def krein_residual(ext_b: Extension, ext_c: Extension, lam: complex) -> float:
    """Operator-norm residual of the two-parameter resolvent formula.

    Both restrictions must come from the same triple.  Compares the
    resolvent of the B-restriction with the C-resolvent corrected through
    the boundary data:

        R_B = R_C - S_C (I + (B-C) M_B) (C-B) bnd2 R_C.

    R_B and M_B come from one stacked inverse, R_C and S_C from another.
    """
    if ext_b.triple is not ext_c.triple and not _same_triple(ext_b.triple, ext_c.triple):
        raise ValueError("extensions must share the owner triple")
    tr = ext_b.triple
    m = tr.state_dim
    inv_b = _stacked_inverse(ext_b, lam)
    inv_c = _stacked_inverse(ext_c, lam)
    mb = tr.bnd2 @ inv_b[:, m:]
    diff = ext_b.bparam - ext_c.bparam
    correction = inv_c[:m, m:] @ (np.eye(tr.h) + diff @ mb) @ (-diff) @ (tr.bnd2 @ inv_c[:, :m])
    gap = inv_b[:m, :m] - (inv_c[:m, :m] - correction)
    return matrix_norm2(gap)


def _same_triple(a: FiniteTriple, b: FiniteTriple) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("action", "action_adj", "bnd1", "bnd2", "adj_bnd1", "adj_bnd2")
    )


def direct_sum_hidden(tr: FiniteTriple, hidden) -> FiniteTriple:
    """Append a reducing block invisible to every boundary map.

    The new coordinates order is (old state values, hidden values, defect
    components); all boundary maps annihilate the hidden block, so every
    restriction gains the hidden spectrum while its M-function is unchanged
    at common resolvent points.
    """
    hidden = np.asarray(hidden, dtype=complex)
    if hidden.shape in ((0,), (0, 0)):
        return tr
    if hidden.ndim != 2 or hidden.shape[0] != hidden.shape[1]:
        raise ValueError(f"hidden block must be square, got shape {hidden.shape}")
    p = hidden.shape[0]
    m, h, k = tr.state_dim, tr.h, tr.k

    def widen(mat, dom_m):
        # insert p zero columns between the state and defect parts
        return np.hstack([mat[:, :dom_m], np.zeros((mat.shape[0], p), dtype=complex), mat[:, dom_m:]])

    action = np.vstack(
        [
            widen(tr.action, m),
            np.hstack([np.zeros((p, m)), hidden, np.zeros((p, h))]),
        ]
    )
    action_adj = np.vstack(
        [
            widen(tr.action_adj, m),
            np.hstack([np.zeros((p, m)), hidden.conj().T, np.zeros((p, k))]),
        ]
    )
    return FiniteTriple(
        action=action,
        action_adj=action_adj,
        bnd1=widen(tr.bnd1, m),
        bnd2=widen(tr.bnd2, m),
        adj_bnd1=widen(tr.adj_bnd1, m),
        adj_bnd2=widen(tr.adj_bnd2, m),
    )


def _random_matrix(rng, rows, cols, real):
    """Seeded standard normal matrix, complex unless real (imaginary part drawn second)."""
    a = rng.standard_normal((rows, cols))
    if not real:
        a = a + 1j * rng.standard_normal((rows, cols))
    return a


def random_triple(rng, state_dim: int, h: int, k: int, real: bool = False) -> FiniteTriple:
    """Random well-conditioned triple for residual suites (seeded, reproducible)."""
    if h > state_dim or k > state_dim:  # else a side's boundary maps are never surjective
        raise ValueError(f"need h, k <= state_dim = {state_dim}, got h = {h}, k = {k}")
    n = state_dim + h
    nt = state_dim + k
    # a rank-deficient draw, which make_triple refuses, has probability zero
    action = _random_matrix(rng, state_dim, n, real)
    bnd1 = _random_matrix(rng, h, n, real)
    bnd2 = _random_matrix(rng, k, n, real)
    adj_bnd1 = _random_matrix(rng, k, nt, real)
    return make_triple(action, bnd1, bnd2, adj_bnd1)


def random_extension(rng, tr: FiniteTriple, real: bool = False) -> Extension:
    return Extension(tr, _random_matrix(rng, tr.h, tr.k, real))
