"""The benchmark workloads: seeded inputs, CLI invocations and output checks.

Each builder draws its inputs from `numpy.random.default_rng(seed)`, so one
seed always gives the same input files.  Every invocation carries a
verifier that inspects the written report (outside the timed section) and
returns a `Verdict`: the problems that make the output wrong, and the
names of `"pass": false` entries of a `check` report, which are results the
program reports about itself, not benchmark failures.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

# Copies of configs/eig-free-neumann.json and configs/scan-hainlust-step.json,
# held here so a change to the shipped configs cannot change the workload.
FREE_NEUMANN = {
    "model": {
        "type": "hainlust",
        "q": {"breaks": [0.0, 1.0], "coeffs": [[[0.0, 0.0]]]},
        "u": {"breaks": [0.0, 1.0], "coeffs": [[[5.0, 0.0]]]},
        "w": {"breaks": [0.0, 1.0], "coeffs": [[[0.0, 0.0]]]},
        "alpha": 1.5707963267948966,
        "beta": 1.5707963267948966,
    },
    "region": [0.5, 50.0, -1.0, 1.0],
}
STEP_SCAN = {
    "model": {
        "type": "hainlust",
        "q": {"breaks": [0.0, 1.0], "coeffs": [[[0.0, 0.0]]]},
        "u": {"breaks": [0.0, 0.5, 1.0], "coeffs": [[[2.0, 0.0]], [[3.0, 0.0]]]},
        "w": {"breaks": [0.0, 0.5, 1.0], "coeffs": [[[1.0, 0.0]], [[0.0, 0.0]]]},
        "alpha": 1.5707963267948966,
        "beta": 1.5707963267948966,
    },
    "grid": {
        "re": [1.5, 3.5, 40],
        "eps": [0.1, 0.01, 0.001, -0.001, -0.01, -0.1],
        "fd_n": 128,
    },
}
STEP_MODEL = STEP_SCAN["model"]
# u on the support of w in the step model: the singular set of the scan.
STEP_SINGULAR = (2.0, 2.0)
STEP_UNCOUPLED_POINT = 3.0

# Tolerances pinned by tests/test_acceptance.py (criteria 07, 09, 10, 11).
FD_ORACLE_TOL = 5e-3
EX_TOLS = {
    "ex1": {"max_closed_form_deviation": 1e-9},
    "ex2-lower": {"det_at_lam0": 1e-12, "inner_product_error": 1e-9,
                  "gamma2_abs": 1e-9, "gamma1_abs": 1e-9,
                  "eigen_residual": 1e-7, "m_pole_residual": 1e-10},
    "ex2-upper": {},
    "ex3": {"eigen_residual": 1e-7, "m_jump_error": 1e-9},
}
SOLVABILITY_MIN = 1e-2
QUADRATURE_NODES = 1500  # per panel; the oracle agrees with residues to ~1e-11

# Three seeded triple-v1 files per size, so that per-seed differences in
# saturated_sampling cost average out within a repetition.
CHECK_DIMS = (20, 30, 40)
CHECKS_PER_DIM = 3
CONTOUR_DIM = 120
CHECK_SUITE = ("green", "hilbert", "krein", "m-equality", "detection-angle",
               "anchor-independence", "invariance")
CHECK_HIDDEN = ("morera-bordered", "morera-full")


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    failed_checks: list = field(default_factory=list)


@dataclass(frozen=True)
class Invocation:
    """One `weyl-scope` call: its label names the config and output files."""

    label: str
    command: str
    ext: str
    verify: Callable  # (output bytes, exit code) -> Verdict

    def argv(self, inputs_dir, out_dir):
        return [self.command, "--config", f"{inputs_dir}/{self.label}.json",
                "--out", f"{out_dir}/{self.label}.{self.ext}"]


# ------------------------------------------------------------------ helpers


def _json_report(data, rc, command, verdict, allowed_rc=(0,)):
    if rc not in allowed_rc:
        verdict.problems.append(f"exit code {rc}")
    try:
        rep = json.loads(data)
    except ValueError as exc:
        verdict.problems.append(f"report is not JSON: {exc}")
        return None
    if rep.get("command") != command:
        verdict.problems.append(f"report command {rep.get('command')!r}")
    return rep


def _csv_rows(data, rc, header, n_rows, verdict):
    if rc != 0:
        verdict.problems.append(f"exit code {rc}")
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != header:
        verdict.problems.append("unexpected CSV header")
        return []
    body = rows[1:]
    if len(body) != n_rows:
        verdict.problems.append(f"{len(body)} rows, expected {n_rows}")
    return body


def _in_rect(z, rect):
    re_lo, re_hi, im_lo, im_hi = rect
    return re_lo < z.real < re_hi and im_lo < z.imag < im_hi


def _interval_distance(lam, lo, hi):
    dx = 0.0 if lo <= lam.real <= hi else min(abs(lam.real - lo), abs(lam.real - hi))
    return math.hypot(dx, lam.imag)


# ------------------------------------------------------------------- hl-eig


def build_hl_eig(rng, ws, inputs_rel):
    """Shipped free-Neumann search plus one coupled step-model region."""
    region = [8.0 + rng.uniform(0.0, 1.0), 12.0 + rng.uniform(0.0, 1.0),
              -rng.uniform(0.3, 0.6), rng.uniform(0.3, 0.6)]
    coupled = {"model": STEP_MODEL, "region": region}

    def verify_free(data, rc):
        v = Verdict()
        rep = _json_report(data, rc, "eig", v)
        if rep is None:
            return v
        found = [complex(re, im) for re, im in rep["eigenvalues"]]
        re_lo, re_hi = FREE_NEUMANN["region"][:2]
        exact = [(j * math.pi) ** 2 for j in range(1, 10)
                 if re_lo < (j * math.pi) ** 2 < re_hi]
        if len(found) != len(exact):
            v.problems.append(f"{len(found)} eigenvalues, expected {len(exact)}")
        elif max(abs(a - b) for a, b in zip(found, exact)) > 1e-8:
            v.problems.append("eigenvalues differ from (j pi)^2 by more than 1e-8")
        return v

    def verify_coupled(data, rc):
        v = Verdict()
        rep = _json_report(data, rc, "eig", v)
        if rep is None:
            return v
        found = [complex(re, im) for re, im in rep["eigenvalues"]]
        mat, _ = ws.hainlust.discretize(ws.hainlust.model_from_dict(STEP_MODEL), 512)
        if np.any(mat.imag):
            v.problems.append("oracle matrix is not real")
            return v
        oracle = [z for z in np.linalg.eigvals(mat.real) if _in_rect(z, region)]
        if len(found) != len(oracle):
            v.problems.append(f"{len(found)} eigenvalues, oracle has {len(oracle)}")
        for z in found:
            gap = min((abs(z - o) for o in oracle), default=math.inf)
            if gap > FD_ORACLE_TOL:
                v.problems.append(f"eigenvalue {z} is {gap:.3e} from the n=512 oracle")
        return v

    files = {"eig-free-neumann.json": FREE_NEUMANN, "eig-coupled.json": coupled}
    invs = [Invocation("eig-free-neumann", "eig", "json", verify_free),
            Invocation("eig-coupled", "eig", "json", verify_coupled)]
    return files, invs


# ------------------------------------------------------------------ hl-scan

SCAN_HEADER = ["re_lambda", "im_lambda", "m11_re", "m11_im", "m12_re", "m12_im",
               "m21_re", "m21_im", "m22_re", "m22_im", "denom_abs", "full_jump",
               "bordered_jump"]


def _verify_hl_scan(grid, collapse):
    n_rows = int(grid["re"][2]) * len(grid["eps"])
    lo, hi = STEP_SINGULAR

    def verify(data, rc):
        v = Verdict()
        body = _csv_rows(data, rc, SCAN_HEADER, n_rows, v)
        for row in body:
            if row[4:6] != row[6:8]:
                v.problems.append(f"m12 != m21 at {row[:2]}")
            vals = [float(x) for x in row]
            lam = complex(vals[0], vals[1])
            if not all(math.isfinite(x) for x in vals[:11]):
                v.problems.append(f"M-matrix not finite at {lam}")
            near = _interval_distance(lam, lo, hi) <= 1e-3 - 1e-15
            nan_jump = math.isnan(vals[11]) and math.isnan(vals[12])
            if near != nan_jump:
                v.problems.append(f"NaN jump rows wrong at {lam}")
            full, bordered = vals[11], vals[12]
            if collapse and not near:
                # off the coupling support the bordered jump collapses; on it, it does not
                if vals[0] == STEP_UNCOUPLED_POINT and not bordered <= 1e-3 * full:
                    v.problems.append(f"bordered jump does not collapse at {lam}")
                if vals[0] == lo and not bordered >= 0.5 * full:
                    v.problems.append(f"bordered jump collapses at {lam}")
        return v

    return verify


def build_hl_scan(rng, ws, inputs_rel):
    """Shipped step-model scan (SVD norms) plus a short grid at fd_n=240 (power norms)."""
    delta = rng.uniform(0.005, 0.02)
    short = {
        "model": STEP_MODEL,
        "grid": {"re": [2.0, 3.0, 5], "eps": [delta, 5e-4, -5e-4, -delta], "fd_n": 240},
    }
    files = {"scan-step.json": STEP_SCAN, "scan-step-power.json": short}
    invs = [Invocation("scan-step", "scan", "csv", _verify_hl_scan(STEP_SCAN["grid"], False)),
            Invocation("scan-step-power", "scan", "csv", _verify_hl_scan(short["grid"], True))]
    return files, invs


# ----------------------------------------------------------- triples-detect


def _verify_check(n_triples):
    names = list(CHECK_SUITE) * n_triples + list(CHECK_HIDDEN)

    def verify(data, rc):
        v = Verdict()
        rep = _json_report(data, rc, "check", v, allowed_rc=(0, 1))
        if rep is None:
            return v
        checks = rep["checks"]
        if [c["name"] for c in checks] != names:
            v.problems.append("unexpected list of checks")
        for c in checks:
            expect = (c["residual"] > c["tolerance"] if c["expected_nonzero"]
                      else c["residual"] <= c["tolerance"])
            if c["pass"] != expect:
                v.problems.append(f"check {c['name']} pass flag disagrees with its residual")
            if not c["pass"]:
                v.failed_checks.append(c["name"])
        passed = all(c["pass"] for c in checks)
        if rep["passed"] != passed or rc != (0 if passed else 1):
            v.problems.append("report verdict disagrees with its checks or exit code")
        return v

    return verify


def _verify_contour(data, rc):
    v = Verdict()
    rep = _json_report(data, rc, "contour", v)
    if rep is None:
        return v
    if not rep["residual_bordered"] <= 1e-8:
        v.problems.append(f"residual_bordered {rep['residual_bordered']:.3e} > 1e-8")
    if not rep["residual_full"] > 0.1:
        v.problems.append(f"residual_full {rep['residual_full']:.3e} <= 0.1")
    return v


def build_triples_detect(rng, ws, inputs_rel):
    """check at the shipped sizes and on triple-v1 files, contour at state_dim 120."""
    tr_mod = ws.triples

    def seed():
        return int(rng.integers(1, 2**31 - 1))

    files, invs = {}, []
    for j in range(2):
        label = f"check-synthetic-{j}"
        files[f"{label}.json"] = {"seed": seed()}
        invs.append(Invocation(label, "check", "json", _verify_check(2)))
    for dim in CHECK_DIMS:
        for j in range(CHECKS_PER_DIM):
            label = f"check-triple-{dim}-{j}"
            triple = tr_mod.random_triple(rng, state_dim=dim, h=2, k=2)
            files[f"triple-{dim}-{j}.json"] = tr_mod.triple_to_dict(triple)
            files[f"{label}.json"] = {"triple": f"{inputs_rel}/triple-{dim}-{j}.json",
                                      "seed": seed()}
            invs.append(Invocation(label, "check", "json", _verify_check(1)))
    # The contour input does not depend on the seed: its cost follows the number
    # of points saturated_sampling adds, which ranged over 49-85 (2.8-4.9 s)
    # across seeded triples and would dominate the spread of wall_s.
    triple = tr_mod.random_triple(np.random.default_rng(CONTOUR_DIM), state_dim=CONTOUR_DIM,
                                  h=2, k=2)
    files[f"triple-{CONTOUR_DIM}.json"] = tr_mod.triple_to_dict(triple)
    files[f"contour-hidden-{CONTOUR_DIM}.json"] = {
        "triple": f"{inputs_rel}/triple-{CONTOUR_DIM}.json",
        "hidden": [[[25.0, 0.0]]],
        "contour": {"center": [25.0, 0.0], "radius": 1.0, "nodes": 64},
    }
    invs.append(Invocation(f"contour-hidden-{CONTOUR_DIM}", "contour", "json", _verify_contour))
    return files, invs


# -------------------------------------------------------- rational-halfline


def _rational(spec, x):
    out = np.zeros(np.shape(x), dtype=complex)
    for (pr, pi), (cr, ci), order in zip(spec["poles"], spec["residues"], spec["orders"]):
        out += complex(cr, ci) / (x - complex(pr, pi)) ** order
    return out


def _line_integral(f, nodes):
    """Whole-line integral by x = tan(theta) and Gauss-Legendre on two panels."""
    base, weights = nodes
    total = 0.0j
    for lo, hi in ((-math.pi / 2, 0.0), (0.0, math.pi / 2)):
        theta = 0.5 * (hi - lo) * base + 0.5 * (hi + lo)
        total += np.sum(f(np.tan(theta)) / np.cos(theta) ** 2 * 0.5 * (hi - lo) * weights)
    return total


def _verify_friedrichs_scan(cfg):
    model, grid = cfg["model"], cfg["grid"]
    n_rows = 2 * int(grid["re"][2]) * len(grid["eps"])
    bparam = complex(*model["B"])

    def verify(data, rc):
        v = Verdict()
        body = _csv_rows(data, rc, ["re_lambda", "im_lambda", "re_M", "im_M", "abs_D",
                                    "bracket_abs"], n_rows, v)
        nodes = leggauss(QUADRATURE_NODES)
        # quadrature oracle for the residue calculus, on every 13th row off the axis
        for row in body[::13]:
            x0, eps, m_re, m_im, abs_d = (float(t) for t in row[:5])
            if abs(eps) < 0.1:
                continue
            lam = complex(x0, eps)
            psi = lambda t: _rational(model["psi"], t)  # noqa: E731
            phi_c = lambda t: np.conj(_rational(model["phi"], t))  # noqa: E731
            det = 1.0 + _line_integral(lambda t: psi(t) * phi_c(t) / (t - lam), nodes)
            i_psi = _line_integral(lambda t: psi(t) / (t - lam), nodes)
            i_phi = _line_integral(lambda t: phi_c(t) / (t - lam), nodes)
            bracket = np.sign(eps) * 1j * math.pi + i_psi * i_phi / det - bparam
            if abs(abs(det) - abs_d) > 1e-8 * max(1.0, abs(det)):
                v.problems.append(f"|D| differs from quadrature at {lam}")
            if math.isnan(m_re):
                if min(abs(det), abs(bracket)) > 1e-9:
                    v.problems.append(f"M reported as a pole at {lam}")
            elif abs(complex(m_re, m_im) - 1.0 / bracket) > 1e-8 * max(1.0, abs(1.0 / bracket)):
                v.problems.append(f"M differs from quadrature at {lam}")
        return v

    return verify


def _verify_firstorder_scan(cfg):
    model, grid = cfg["model"], cfg["grid"]
    n_rows = int(grid["re"][2]) * len(grid["eps"])
    length, n = model["grid"]["length"], model["grid"]["n"]
    decay = grid["rhs_decay"]

    def verify(data, rc):
        v = Verdict()
        body = _csv_rows(data, rc, ["re_lambda", "im_lambda", "resolvent_norm",
                                    "m_value_re", "m_value_im"], n_rows, v)
        x = np.linspace(0.0, length, n)
        w = np.full(n, length / (n - 1))
        w[0] = w[-1] = w[0] / 2.0
        for row in body:
            x0, eps, norm, m_re, m_im = (float(t) for t in row)
            if m_re != 0.0 or m_im != 0.0:
                v.problems.append("M-function is not identically zero")
            lam = complex(x0, eps)
            # closed form of (i d/dx - lam)^{-1} exp(-decay x) with f(0) = 0
            f = -1j * (np.exp(-decay * x) - np.exp(-1j * lam * x)) / (1j * lam - decay)
            exact = math.sqrt(float(np.sum(w * np.abs(f) ** 2)))
            if abs(norm - exact) > 1e-5 * exact:
                v.problems.append(f"resolvent norm differs from the closed form at {lam}")
        return v

    return verify


def _verify_example(name):
    tols = EX_TOLS[name]

    def verify(data, rc):
        v = Verdict()
        rep = _json_report(data, rc, "example", v)
        if rep is None:
            return v
        for key, tol in tols.items():
            if not rep[key] < tol:
                v.problems.append(f"{key} {rep[key]:.3e} >= {tol:.0e}")
        if name == "ex1" and rep["points_checked"] < 1:
            v.problems.append("no points checked")
        if name == "ex2-upper" and not rep["solvability_residual_rel"] >= SOLVABILITY_MIN:
            v.problems.append("solvability obstruction not visible")
        return v

    return verify


def build_rational_halfline(rng, ws, inputs_rel):
    """The four example constructions, a Friedrichs scan and a first-order scan."""

    def pole(upper):
        return [rng.uniform(-2.0, 2.0), (1.0 if upper else -1.0) * rng.uniform(0.5, 2.0)]

    def coeff():
        return [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)]

    files = {
        "ex1.json": {"example": "ex1", "B": coeff(), "seed": int(rng.integers(1, 2**31 - 1))},
        "ex2-lower.json": {"example": "ex2-lower",
                           "lam0": [rng.uniform(-1.0, 1.0), -rng.uniform(0.5, 2.0)]},
        "ex2-upper.json": {"example": "ex2-upper",
                           "lam0": [rng.uniform(-1.0, 1.0), rng.uniform(1.0, 3.0)]},
        "ex3.json": {"example": "ex3", "B": rng.uniform(-1.0, 1.0)},
    }
    friedrichs = {
        "model": {
            "type": "friedrichs",
            "phi": {"poles": [pole(False), pole(True)], "residues": [coeff(), coeff()],
                    "orders": [2, 1]},
            "psi": {"poles": [pole(False), pole(True)], "residues": [coeff(), coeff()],
                    "orders": [1, 2]},
            "B": [0.5 * x for x in coeff()],
        },
        "grid": {"re": [-3.0, 3.0, 1000], "eps": [0.3, 0.1, 0.001]},
    }
    firstorder = {
        "model": {"type": "firstorder", "B": [1.0, 0.0],
                  "grid": {"length": 40.0, "n": 65536}},
        "grid": {"re": [0.0, 2.0, 20], "eps": [0.5, 0.125, 0.03125],
                 "rhs_decay": rng.uniform(0.5, 1.5)},
    }
    files["scan-friedrichs.json"] = friedrichs
    files["scan-firstorder.json"] = firstorder
    invs = [Invocation(name, "example", "json", _verify_example(name))
            for name in ("ex1", "ex2-lower", "ex2-upper", "ex3")]
    invs.append(Invocation("scan-friedrichs", "scan", "csv", _verify_friedrichs_scan(friedrichs)))
    invs.append(Invocation("scan-firstorder", "scan", "csv", _verify_firstorder_scan(firstorder)))
    return files, invs


def _combined(*parts):
    def build(rng, ws, inputs_rel):
        files, invs = {}, []
        for part in parts:
            part_files, part_invs = part(rng, ws, inputs_rel)
            files.update(part_files)
            invs += part_invs
        return files, invs

    return build


# Two workloads, not one per part: on a shared 2-vCPU machine the wall time of
# the interpreter-bound parts alone spread by up to 26% (IQR over median, ten
# seeds), and pairing each with steadier dense work in longer runs keeps the
# spread inside the bound.  Each layer is still exercised by one workload and
# bypassed by the other.
WORKLOADS = {
    "hainlust": _combined(build_hl_eig, build_hl_scan),
    "triples-rational": _combined(build_triples_detect, build_rational_halfline),
}


def build(name, seed, ws, inputs_rel):
    """(files, invocations) of workload `name`; files maps file name to JSON payload."""
    return WORKLOADS[name](np.random.default_rng(seed), ws, inputs_rel)
