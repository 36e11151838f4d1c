"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to stream the lines).
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import time

import numpy as np

from weylscope import detect, firstorder, friedrichs, hainlust, triples
from weylscope.cli import main as cli_main
from weylscope.numerics import ContourSpec, matrix_norm2, principal_angles

from oracles import spectral_projection

SEED = 1729


def _line(num, label, value, tol, ok, relation="<"):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {label}: value={value:.3e} {relation} tol={tol:.3e} "
          f"... {status}")
    assert ok, f"criterion {num} failed: {label} value={value} tol={tol}"


def _rand_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _safe_point(rng, eig_sets, min_dist=0.3):
    while True:
        lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if all(np.min(np.abs(e - lam)) > min_dist for e in eig_sets):
            return lam


def _synthetic_triples():
    rng = np.random.default_rng(SEED)
    small = triples.random_triple(rng, state_dim=6, h=2, k=2)
    large = triples.random_triple(rng, state_dim=14, h=2, k=2)
    return rng, small, large


def test_criterion_01_green_identity():
    start = time.monotonic()
    rng, small, large = _synthetic_triples()
    family = [
        small,
        large,
        triples.random_triple(rng, state_dim=5, h=1, k=1, real=True),
        triples.random_triple(rng, state_dim=4, h=2, k=0),
        triples.direct_sum_hidden(small, np.array([[5.0 + 1j]])),
    ]
    worst = 0.0
    for tr in family:
        for _ in range(100):
            u = _rand_vec(rng, tr.dom_dim)
            v = _rand_vec(rng, tr.adj_dom_dim)
            worst = max(worst, triples.green_residual(tr, u, v))
    elapsed = time.monotonic() - start
    _line(1, "pairing identity residual, 100 pairs x 5 triples", worst, 1e-12,
          worst < 1e-12)
    _line(1, "pairing suite runtime (s)", elapsed, 5.0, elapsed < 5.0)


def test_criterion_02_hilbert_and_krein():
    start = time.monotonic()
    rng, small, large = _synthetic_triples()
    worst_h, worst_k = 0.0, 0.0
    for tr in (small, large):
        for _ in range(50):
            ext_b = triples.random_extension(rng, tr)
            ext_c = triples.random_extension(rng, tr)
            eigs = [triples.extension_eigenvalues(ext_b),
                    triples.extension_eigenvalues(ext_c)]
            lam = _safe_point(rng, eigs)
            lam0 = _safe_point(rng, eigs)
            f = _rand_vec(rng, tr.h)
            worst_h = max(worst_h, triples.hilbert_identity_residual(ext_b, lam, lam0, f))
            worst_k = max(worst_k, triples.krein_residual(ext_b, ext_c, lam))
    elapsed = time.monotonic() - start
    _line(2, "resolvent-difference identity residual, 50 draws x 2 dims",
          worst_h, 1e-9, worst_h < 1e-9)
    _line(2, "two-parameter resolvent formula residual, 50 draws x 2 dims",
          worst_k, 1e-9, worst_k < 1e-9)
    _line(2, "runtime (s)", elapsed, 10.0, elapsed < 10.0)


def test_criterion_03_m_function_consistency():
    rng, small, large = _synthetic_triples()
    worst = 0.0
    for tr in (small, large):
        ext = triples.random_extension(rng, tr)
        eigs = [triples.extension_eigenvalues(ext)]
        for _ in range(20):
            lam = _safe_point(rng, eigs)
            lam0 = _safe_point(rng, eigs)
            gap = np.abs(triples.m_function(ext, lam)
                         - triples.m_via_resolvent(ext, lam, lam0))
            worst = max(worst, float(np.max(gap)))
    _line(3, "M-function vs resolvent route, 20 pairs x 2 dims", worst, 1e-9,
          worst < 1e-9)


def test_criterion_04_detection_space_equality():
    rng, small, _ = _synthetic_triples()
    ext = triples.random_extension(rng, small)
    spec = detect.saturated_sampling(ext)
    t_space = detect.build_solution_space(ext, spec)
    s_space = detect.build_resolvent_space(ext, spec)
    ang = principal_angles(s_space, t_space)
    worst = float(np.max(ang)) if ang.size else 0.0
    _line(4, "saturated principal angles between the two spans", worst, 1e-8,
          worst < 1e-8)
    worst_anchor = 0.0
    for shift in (2.9j, -4.1j, 3.7):
        moved = detect.SpaceSamplingSpec(
            anchor=spec.anchor + shift,
            solution_samples=spec.solution_samples,
        )
        other = detect.build_resolvent_space(ext, moved)
        ang = principal_angles(other, s_space)
        worst_anchor = max(worst_anchor, float(np.max(ang)) if ang.size else 0.0)
    _line(4, "anchor independence across 3 choices", worst_anchor, 1e-8,
          worst_anchor < 1e-8)


def test_criterion_05_contour_dichotomy_hidden_block():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    tr = triples.random_triple(rng, state_dim=4, h=1, k=1)
    base = triples.random_extension(rng, tr)
    widened = triples.direct_sum_hidden(tr, np.array([[25.0 + 0.0j]]))
    ext = triples.Extension(widened, base.bparam)
    spec = detect.saturated_sampling(ext)
    s_space = detect.build_resolvent_space(ext, spec)
    s_adj, _ = detect.build_adjoint_spaces(ext, spec)
    contour = ContourSpec(center=25.0, radius=1.0, nodes=64)
    full = detect.full_contour_integral(ext, contour)
    bordered = matrix_norm2(s_adj.conj().T @ full @ s_space)
    full_norm = matrix_norm2(full)
    proj = spectral_projection(ext, contour)
    oracle_gap = float(np.linalg.norm(full + 2j * np.pi * proj, 2))
    elapsed = time.monotonic() - start
    _line(5, "bordered contour residual around hidden eigenvalue", bordered, 1e-8,
          bordered < 1e-8)
    _line(5, "full contour integral norm", full_norm, 0.1, full_norm > 0.1, ">")
    _line(5, "contour integral vs eigenprojection oracle", oracle_gap, 1e-6,
          oracle_gap < 1e-6)
    _line(5, "runtime (s)", elapsed, 5.0, elapsed < 5.0)


def test_criterion_06_firstorder_counterexample():
    grid = firstorder.HalfLineGrid(length=40.0, n=4096)
    model = firstorder.FOModel(grid=grid)
    m_vals = [firstorder.m_value(model, lam) for lam in (1 + 1j, -5j, 0.2 - 3j)]
    m_max = max(abs(v) for v in m_vals)
    _line(6, "M identically zero", m_max, 0.0, m_max == 0.0, "==")

    big = firstorder.FOModel(grid=firstorder.HalfLineGrid(length=4096.0, n=65536))
    g = np.exp(-0.05 * big.grid.nodes)
    path = [0.0 - 1j * 2.0 ** (-j) for j in range(1, 13)]
    col = firstorder.SCAN_HEADER.index("resolvent_norm")
    norms = [row[col] for row in firstorder.scan_rows(big, path, g)]
    ratio = norms[-1] / norms[0]
    increasing = all(a < b for a, b in zip(norms, norms[1:]))
    _line(6, "resolvent norm growth ratio over 12 dyadic steps", ratio, 1e2,
          increasing and ratio > 1e2, ">")

    f = grid.nodes * np.exp(-grid.nodes)
    mus = [-1j * t for t in np.linspace(0.25, 3.0, 30)]
    resid = firstorder.density_residual(model, f, mus)
    _line(6, "density residual with 30 exponentials", resid, 1e-3, resid < 1e-3)


def test_criterion_07_hainlust_closed_forms():
    start = time.monotonic()
    zero = hainlust.PiecewisePoly.constant(0.0)
    free = hainlust.HLModel(q=zero, u=zero, w=zero,
                            alpha=np.pi / 2, beta=np.pi / 2)
    m11 = hainlust.m_matrix(free, -1.0)[0, 0]
    gap = abs(m11 - (-1.0 / np.tanh(1.0)))
    _line(7, "m11(-1) against -coth(1)", gap, 1e-6, gap < 1e-6)

    search_model = hainlust.HLModel(q=zero, u=hainlust.PiecewisePoly.constant(5.0),
                                    w=zero, alpha=np.pi / 2, beta=np.pi / 2)
    found = hainlust.eigenvalues_in(search_model, 0.5, 50.0, -1.0, 1.0)
    assert len(found) == 2
    mat, _ = hainlust.discretize(search_model, 512)
    fd_eigs = np.linalg.eigvals(mat)
    worst = max(float(np.min(np.abs(fd_eigs - root))) for root in found)
    exact_gap = max(abs(found[0] - np.pi**2), abs(found[1] - 4 * np.pi**2))
    elapsed = time.monotonic() - start
    _line(7, "located eigenvalues vs finite-difference oracle (n=512)", worst,
          5e-3, worst < 5e-3)
    _line(7, "located eigenvalues vs closed form", exact_gap, 1e-6, exact_gap < 1e-6)
    _line(7, "runtime (s)", elapsed, 30.0, elapsed < 30.0)


def test_criterion_08_bordered_jump_dichotomy():
    zero = hainlust.PiecewisePoly.constant(0.0)
    model = hainlust.HLModel(
        q=zero,
        u=hainlust.PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=((2.0,), (3.0,))),
        w=hainlust.PiecewisePoly(breaks=(0.0, 0.5, 1.0), coeffs=((1.0,), (0.0,))),
        alpha=np.pi / 2, beta=np.pi / 2,
    )
    full, bordered = (hainlust.SCAN_HEADER.index(name) for name in ("full_jump", "bordered_jump"))
    at3 = hainlust.scan_rows(model, [3.0], [1e-5], n=320)[0]
    _line(8, "bordered jump at the uncoupled essential-range point",
          at3[bordered], 1e-4, at3[bordered] < 1e-4)
    _line(8, "full-resolvent jump at the uncoupled point", at3[full],
          1e-1, at3[full] > 1e-1, ">")
    at2 = hainlust.scan_rows(model, [2.0], [1e-2, 3e-3, 1e-3], n=320)
    best = max(r[bordered] for r in at2)
    _line(8, "bordered jump at the coupled essential-range point", best, 1e-1,
          best > 1e-1, ">")


def test_criterion_09_friedrichs_hardy_closed_form():
    rng = np.random.default_rng(SEED)
    model = friedrichs.FriedrichsModel(
        phi=friedrichs.PoleSum.from_poles((-1j,), (1.0,)),
        psi=friedrichs.PoleSum.from_poles((-2j,), (0.7 + 0.3j,)),
        bparam=0.4 - 0.2j,
    )
    worst = 0.0
    for _ in range(100):
        lam = complex(rng.uniform(-5, 5), rng.uniform(0.05, 4.0) * rng.choice([-1, 1]))
        gap = abs(friedrichs.m_value(model, lam)
                  - friedrichs.hardy_m_reference(model.bparam, lam))
        worst = max(worst, gap)
    _line(9, "M against one-sided closed form at 100 points", worst, 1e-9,
          worst < 1e-9)


def test_criterion_10_eigenvalue_not_a_pole():
    lower = friedrichs.example_eigenvalue_not_pole(lam0=-1j)
    _line(10, "determinant zeroed by construction", lower["det_at_lam0"], 1e-12,
          lower["det_at_lam0"] < 1e-12)
    _line(10, "inner product with the scaled probe equals -1",
          lower["inner_product_error"], 1e-9, lower["inner_product_error"] < 1e-9)
    _line(10, "tail functional of the eigenvector", lower["gamma2_abs"], 1e-9,
          lower["gamma2_abs"] < 1e-9)
    _line(10, "integral functional of the eigenvector (lower case)",
          lower["gamma1_abs"], 1e-9, lower["gamma1_abs"] < 1e-9)
    _line(10, "eigen-equation residual, L2 norm by residues", lower["eigen_residual"], 1e-7,
          lower["eigen_residual"] < 1e-7)
    _line(10, "contour residual of M around the eigenvalue",
          lower["m_pole_residual"], 1e-10, lower["m_pole_residual"] < 1e-10)
    upper = friedrichs.example_eigenvalue_not_pole(lam0=2j)
    _line(10, "solvability obstruction residual (upper case)",
          upper["solvability_residual_rel"], 1e-2,
          upper["solvability_residual_rel"] >= 1e-2, ">=")


def test_criterion_11_embedded_eigenvalue_invisible():
    rep = friedrichs.example_embedded_eigenvalue()
    _line(11, "embedded eigenvalue eigen-residual, L2 norm by residues", rep["eigen_residual"],
          1e-7, rep["eigen_residual"] < 1e-7)
    _line(11, "M jump equals the one-sided value", rep["m_jump_error"], 1e-9,
          rep["m_jump_error"] < 1e-9)


def test_criterion_12_determinism(tmp_path):
    cfg_check = tmp_path / "check.json"
    cfg_check.write_text(json.dumps({"seed": 31}))
    a, b = tmp_path / "c1.json", tmp_path / "c2.json"
    assert cli_main(["check", "--config", str(cfg_check), "--out", str(a)]) == 0
    assert cli_main(["check", "--config", str(cfg_check), "--out", str(b)]) == 0
    same_check = a.read_bytes() == b.read_bytes()

    cfg_scan = tmp_path / "scan.json"
    cfg_scan.write_text(json.dumps({
        "model": {"type": "friedrichs",
                  "phi": {"poles": [[0.0, -1.0]], "residues": [[1.0, 0.0]]},
                  "psi": {"poles": [[0.0, -2.0]], "residues": [[1.0, 0.0]]},
                  "B": [0.1, 0.0]},
        "grid": {"re": [-1.0, 1.0, 7], "eps": [1e-2, 1e-3]},
    }))
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli_main(["scan", "--config", str(cfg_scan), "--out", str(s1)]) == 0
    assert cli_main(["scan", "--config", str(cfg_scan), "--out", str(s2)]) == 0
    same_scan = s1.read_bytes() == s2.read_bytes()
    ok = same_check and same_scan
    _line(12, "byte-identical reruns of check and scan", float(not ok), 1.0, ok, "==0")
