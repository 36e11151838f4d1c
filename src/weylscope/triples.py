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

from .errors import (
    InconsistentBoundaryDataError,
    LambdaInSpectrumError,
    RankDeficientBoundaryError,
)
from .numerics import orthonormal_basis

SPECTRUM_SV_TOL = 1e-10


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
        # freeze the payload so triples are safe to share across threads
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

    def values(self, u: np.ndarray) -> np.ndarray:
        """State-space identity of a domain-coordinate vector (or column family)."""
        return u[: self.state_dim]

    def swap(self) -> "FiniteTriple":
        """The same pair with the two sides exchanged (conjugate pairing)."""
        return FiniteTriple(
            action=self.action_adj,
            action_adj=self.action,
            bnd1=self.adj_bnd1,
            bnd2=self.adj_bnd2,
            adj_bnd1=self.bnd1,
            adj_bnd2=self.bnd2,
        )


def make_triple(action, bnd1, bnd2, adj_bnd1, adj_bnd2=None, *, rank_tol=1e-10):
    """Assemble a FiniteTriple, deriving the adjoint-side data.

    The adjoint-side action is always derived so the pairing identity holds
    exactly.  If adj_bnd2 is omitted it is derived as well (this needs the
    defect block bnd1[:, m:] to be invertible); if supplied, it is checked
    for consistency on the defect columns.

    Raises RankDeficientBoundaryError when a stacked boundary map pair is
    not surjective, and InconsistentBoundaryDataError when a supplied
    adj_bnd2 cannot close the identity.
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

    _check_surjective(bnd1, bnd2, "primary", rank_tol)

    # pairing identity, column blocks:  [action; 0][:, :m] - action_adj^H = rhs[:, :m]
    # and on the defect columns        [action; 0][:, m:]  = rhs[:, m:]
    # where rhs = adj_bnd2^H bnd1 - adj_bnd1^H bnd2.
    lifted = np.vstack([action, np.zeros((k, n), dtype=complex)])  # value_adj^H @ action
    if adj_bnd2 is None:
        if h > 0:
            defect = bnd1[:, m:]
            sv = np.linalg.svd(defect, compute_uv=False)
            if sv[-1] <= rank_tol * max(sv[0], 1.0):
                raise RankDeficientBoundaryError(
                    "bnd1 defect block is singular; supply adj_bnd2 explicitly"
                )
            target = lifted[:, m:] + adj_bnd1.conj().T @ bnd2[:, m:]
            adj_bnd2 = np.linalg.solve(defect.conj().T, target.conj().T)
        else:
            adj_bnd2 = np.zeros((0, nt), dtype=complex)
    else:
        adj_bnd2 = _as_matrix(adj_bnd2, h, nt, "adj_bnd2")
        gap = lifted[:, m:] - (adj_bnd2.conj().T @ bnd1 - adj_bnd1.conj().T @ bnd2)[:, m:]
        if gap.size and np.linalg.norm(gap) > 1e-9 * max(1.0, np.linalg.norm(action)):
            raise InconsistentBoundaryDataError(
                "adj_bnd2 does not close the pairing identity on the defect columns"
            )

    rhs = adj_bnd2.conj().T @ bnd1 - adj_bnd1.conj().T @ bnd2
    action_adj = (lifted[:, :m] - rhs[:, :m]).conj().T

    _check_surjective(adj_bnd1, adj_bnd2, "adjoint", rank_tol)

    return FiniteTriple(
        action=action,
        action_adj=action_adj,
        bnd1=bnd1,
        bnd2=bnd2,
        adj_bnd1=adj_bnd1,
        adj_bnd2=adj_bnd2,
    )


def _check_surjective(b1, b2, side, rank_tol):
    stacked = np.vstack([b1, b2])
    if stacked.shape[0] == 0:
        return
    if stacked.shape[0] > stacked.shape[1]:
        raise RankDeficientBoundaryError(f"{side} boundary maps exceed domain dimension")
    sv = np.linalg.svd(stacked, compute_uv=False)
    if sv[-1] <= rank_tol * max(sv[0], 1.0):
        raise RankDeficientBoundaryError(f"stacked {side} boundary maps not surjective")


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
        return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]

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
        out = np.zeros((rows, cols), dtype=complex)
        for i, row in enumerate(raw):
            for j, (re, im) in enumerate(row):
                out[i, j] = complex(re, im)
        return out

    tr = FiniteTriple(
        action=dec("action", m, m + h),
        action_adj=dec("action_adj", m, m + k),
        bnd1=dec("bnd1", h, m + h),
        bnd2=dec("bnd2", k, m + h),
        adj_bnd1=dec("adj_bnd1", k, m + k),
        adj_bnd2=dec("adj_bnd2", h, m + k),
    )
    if np.linalg.norm(_pairing_gap(tr)) > 1e-9 * max(1.0, np.linalg.norm(tr.action)):
        raise ValueError("triple file violates the pairing identity")
    try:
        _check_surjective(tr.bnd1, tr.bnd2, "primary", 1e-10)
        _check_surjective(tr.adj_bnd1, tr.adj_bnd2, "adjoint", 1e-10)
    except RankDeficientBoundaryError as exc:
        raise ValueError(str(exc)) from exc
    return tr


def _pairing_gap(tr: FiniteTriple) -> np.ndarray:
    """Matrix defect of the pairing identity (zero for valid triples)."""
    m, h, k = tr.state_dim, tr.h, tr.k
    lift = np.vstack([tr.action, np.zeros((k, m + h), dtype=complex)])
    adj_lift = np.hstack([tr.action_adj.conj().T, np.zeros((m + k, h), dtype=complex)])
    rhs = tr.adj_bnd2.conj().T @ tr.bnd1 - tr.adj_bnd1.conj().T @ tr.bnd2
    return lift - adj_lift - rhs


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


def adjoint_extension(ext: Extension) -> Extension:
    """The adjoint-side restriction, parametrized by the conjugate transpose."""
    return Extension(ext.triple.swap(), ext.bparam.conj().T)


def _action_minus(tr: FiniteTriple, lam: complex) -> np.ndarray:
    out = tr.action.copy()
    m = tr.state_dim
    out[:, :m] -= lam * np.eye(m)
    return out


def _stacked(ext: Extension, lam: complex) -> np.ndarray:
    return np.vstack([_action_minus(ext.triple, lam), ext.constraint])


def _solve_stacked(ext: Extension, lam: complex, top: np.ndarray, bottom: np.ndarray):
    mat = _stacked(ext, lam)
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= SPECTRUM_SV_TOL * max(sv[0], 1e-300):
        raise LambdaInSpectrumError(f"lambda={lam} is in the spectrum of the restriction")
    rhs = np.concatenate([top, bottom], axis=0)
    return np.linalg.solve(mat, rhs)


def extension_matrix(ext: Extension):
    """Orthonormal domain basis of the restriction and the action on it.

    Returns (domain_basis, action_on_domain) where action_on_domain maps
    domain-basis coordinates to state values.
    """
    tr = ext.triple
    con = ext.constraint
    if con.shape[0] == 0:
        q = np.eye(tr.dom_dim, dtype=complex)
    else:
        _, s, vh = np.linalg.svd(con)
        rank = int(np.sum(s > 1e-12 * max(s[0], 1.0))) if s.size else 0
        q = vh[rank:].conj().T
    return q, tr.action @ q


def extension_operator(ext: Extension) -> np.ndarray:
    """The restriction as a plain matrix on the state space.

    Domain vectors are determined by their state values, so the operator is
    (action @ Q) (value @ Q)^{-1} for a domain basis Q.
    """
    tr = ext.triple
    q, act = extension_matrix(ext)
    if q.shape[1] != tr.state_dim:
        raise RankDeficientBoundaryError(
            "restriction domain does not match the state dimension"
        )
    vq = q[: tr.state_dim, :]
    return np.linalg.solve(vq.conj().T, act.conj().T).conj().T


def extension_eigenvalues(ext: Extension) -> np.ndarray:
    """Spectrum of the restriction (eigenvalues of its state-space matrix).

    Computed once per Extension; the returned array is read-only.
    """
    return ext._spectrum


def resolvent_apply(ext: Extension, lam: complex, rhs) -> np.ndarray:
    """Solve (action - lam * value) x = rhs with (bnd1 - B bnd2) x = 0.

    rhs is a state vector (length m); the result is returned in domain
    coordinates (length n), whose leading m entries are its state values.
    """
    tr = ext.triple
    rhs = np.asarray(rhs, dtype=complex)
    return _solve_stacked(ext, lam, rhs, np.zeros((tr.h,) + rhs.shape[1:], dtype=complex))


def resolvent_matrices(ext: Extension, lam: complex):
    """(coords, values) of the resolvent applied to the state-space identity.

    coords is n x m (domain coordinates column by column), values = its
    leading m rows, i.e. the resolvent as an m x m state-space operator.
    """
    tr = ext.triple
    coords = resolvent_apply(ext, lam, np.eye(tr.state_dim, dtype=complex))
    return coords, coords[: tr.state_dim]


def solution_operator(ext: Extension, lam: complex, f) -> np.ndarray:
    """Kernel element y with (action - lam*value) y = 0 and (bnd1 - B bnd2) y = f.

    Returned in domain coordinates; its leading m entries are the state
    values.  Defined for every lam outside the finite spectrum of the
    restriction, and analytic there.
    """
    tr = ext.triple
    f = np.asarray(f, dtype=complex)
    return _solve_stacked(ext, lam, np.zeros((tr.state_dim,) + f.shape[1:], dtype=complex), f)


def solution_basis(ext: Extension, lam: complex) -> np.ndarray:
    """Solution operator applied to the identity on boundary data (n x h)."""
    return solution_operator(ext, lam, np.eye(ext.triple.h, dtype=complex))


def hilbert_identity_residual(ext: Extension, lam: complex, lam0: complex, f) -> float:
    """Residual of the resolvent-difference identity for solution operators.

    Compares the solution at lam with the solution at lam0 corrected by
    (lam - lam0) times the resolvent at lam, in state values.
    """
    tr = ext.triple
    f = np.asarray(f, dtype=complex)
    left = tr.values(solution_operator(ext, lam, f))
    base = solution_operator(ext, lam0, f)
    corr = resolvent_apply(ext, lam, tr.values(base))
    right = tr.values(base) + (lam - lam0) * tr.values(corr)
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
    corr = resolvent_apply(ext, lam, tr.values(base))
    return tr.bnd2 @ (base + (lam - lam0) * corr)


def krein_residual(ext_b: Extension, ext_c: Extension, lam: complex) -> float:
    """Operator-norm residual of the two-parameter resolvent formula.

    Both restrictions must come from the same triple.  Compares the
    resolvent of the B-restriction with the C-resolvent corrected through
    the boundary data:

        R_B = R_C - S_C (I + (B-C) M_B) (C-B) bnd2 R_C.
    """
    if ext_b.triple is not ext_c.triple and not _same_triple(ext_b.triple, ext_c.triple):
        raise ValueError("extensions must share the owner triple")
    tr = ext_b.triple
    _, rb = resolvent_matrices(ext_b, lam)
    coords_c, rc = resolvent_matrices(ext_c, lam)
    sol_c = tr.values(solution_basis(ext_c, lam))
    mb = m_function(ext_b, lam)
    diff = ext_b.bparam - ext_c.bparam
    correction = sol_c @ (np.eye(tr.h) + diff @ mb) @ (-diff) @ (tr.bnd2 @ coords_c)
    gap = rb - (rc - correction)
    return float(np.linalg.norm(gap, 2))


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
    if hidden.size == 0:
        return tr
    if hidden.ndim != 2 or hidden.shape[0] != hidden.shape[1]:
        raise ValueError("hidden block must be square")
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


def random_triple(rng, state_dim: int, h: int, k: int, real: bool = False) -> FiniteTriple:
    """Random well-conditioned triple for residual suites (seeded, reproducible)."""

    def rand(rows, cols):
        a = rng.standard_normal((rows, cols))
        if not real:
            a = a + 1j * rng.standard_normal((rows, cols))
        return a

    n = state_dim + h
    nt = state_dim + k
    while True:
        action = rand(state_dim, n)
        bnd1 = rand(h, n)
        bnd2 = rand(k, n)
        adj_bnd1 = rand(k, nt)
        try:
            return make_triple(action, bnd1, bnd2, adj_bnd1)
        except RankDeficientBoundaryError:  # pragma: no cover - measure zero
            continue


def random_extension(rng, tr: FiniteTriple, real: bool = False) -> Extension:
    bp = rng.standard_normal((tr.h, tr.k))
    if not real:
        bp = bp + 1j * rng.standard_normal((tr.h, tr.k))
    return Extension(tr, bp)
