"""Command-line front end: residual check suites, scans, eigenvalues, reports.

All randomness is drawn from a single seeded generator (default seed 1729),
floats are written with 17 significant digits and rows are assembled in a
fixed order, so rerunning any command with the same configuration produces
byte-identical output.  Exit codes: 0 all checks pass, 1 a check failed,
2 the configuration or model file is invalid.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import detect, firstorder, friedrichs, hainlust, triples
from .errors import (
    ConfigInvalidError,
    ModelUnknownError,
    SampleInSpectrumError,
    WeylScopeError,
)
# matrix_norm2 stays importable from cli: span tracers wrap it at this site
from .numerics import ContourSpec, matrix_norm2, principal_angles  # noqa: F401

DEFAULT_SEED = 1729
# check: residual tolerance per entry; --tol replaces all but morera-full,
# whose value is a lower bound (the hidden spectrum must be seen)
CHECK_TOLERANCES = {
    "green": 1e-12,
    "hilbert": 1e-9,
    "krein": 1e-9,
    "m-equality": 1e-9,
    "detection-angle": 1e-8,
    "anchor-independence": 1e-8,
    "invariance": 1e-8,
    "morera-bordered": 1e-8,
    "morera-full": 0.1,
}
# check: draws of a test point at distance > 0.3 from both spectra
SAFE_POINT_MAX_DRAWS = 10_000


@contextmanager
def _decoding(what):
    """Report a malformed model, grid, contour or triple as a config error."""
    try:
        yield
    except KeyError as exc:
        raise ConfigInvalidError(f"invalid {what}: missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigInvalidError(f"invalid {what}: {exc}") from exc


def _known_keys(what, obj, allowed):
    """Reject a config object that is not a JSON object or has a key outside allowed."""
    if not isinstance(obj, dict):
        raise ConfigInvalidError(f"'{what}' must be a JSON object")
    unknown = sorted(obj.keys() - allowed)
    if unknown:
        raise ConfigInvalidError(f"unknown key(s) in {what}: {', '.join(unknown)}")
    return obj


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalidError(f"cannot read JSON file {path}: {exc}") from exc


# keys a model object of each type may hold, and those of its nested objects
_MODEL_KEYS = {
    "hainlust": ({"type", "q", "u", "w", "alpha", "beta"},
                 dict.fromkeys(("q", "u", "w"), {"breaks", "coeffs"})),
    "friedrichs": ({"type", "phi", "psi", "B"},
                   dict.fromkeys(("phi", "psi"), {"poles", "residues", "orders"})),
    "firstorder": ({"type", "B", "grid"}, {"grid": {"length", "n"}}),
}


def _resolve_model(config):
    """The model object of a config, read from its file when given as a path.

    A hainlust, friedrichs or firstorder model may hold only the keys its
    decoder reads, at the top level and in its nested objects.
    """
    model = config.get("model")
    if model is None:
        raise ConfigInvalidError("config is missing 'model'")
    if isinstance(model, str):
        model = _load_json(model)
    if not isinstance(model, dict):
        raise ConfigInvalidError("'model' must be a path or an object")
    keys = _MODEL_KEYS.get(model.get("type"))
    if keys is not None:
        top, nested = keys
        _known_keys("model", model, top)
        for name, allowed in nested.items():
            if name in model:
                _known_keys(f"model.{name}", model[name], allowed)
    return model


def _fmt(value) -> str:
    return f"{value:.17g}"


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------- run: check


def _check_entry(name, identity, residual, tols, expected_nonzero=False):
    tol = tols[name]
    if expected_nonzero:
        ok = residual > tol
    else:
        ok = residual <= tol
    return {
        "name": name,
        "identity": identity,
        "residual": float(residual),
        "tolerance": float(tol),
        "expected_nonzero": expected_nonzero,
        "pass": bool(ok),
    }


def _suite_for_triple(rng, tr, tols):
    entries = []
    ext_b = triples.random_extension(rng, tr)
    ext_c = triples.random_extension(rng, tr)

    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(tr.dom_dim) + 1j * rng.standard_normal(tr.dom_dim)
        v = rng.standard_normal(tr.adj_dom_dim) + 1j * rng.standard_normal(tr.adj_dom_dim)
        worst = max(worst, triples.green_residual(tr, u, v))
    entries.append(_check_entry("green", "boundary pairing identity", worst, tols))

    def safe_point():
        for _ in range(SAFE_POINT_MAX_DRAWS):
            lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if (triples.spectrum_distance(ext_b, lam) > 0.3 and
                    triples.spectrum_distance(ext_c, lam) > 0.3):
                return lam
        raise SampleInSpectrumError(
            f"no test point clear of both spectra in {SAFE_POINT_MAX_DRAWS} draws")

    worst = 0.0
    for _ in range(50):
        f = rng.standard_normal(tr.h) + 1j * rng.standard_normal(tr.h)
        worst = max(worst, triples.hilbert_identity_residual(
            ext_b, safe_point(), safe_point(), f))
    entries.append(_check_entry("hilbert", "resolvent difference identity for "
                                "solution operators", worst, tols))

    worst = 0.0
    for _ in range(50):
        worst = max(worst, triples.krein_residual(ext_b, ext_c, safe_point()))
    entries.append(_check_entry("krein", "two-parameter resolvent formula", worst, tols))

    worst = 0.0
    for _ in range(20):
        lam, lam0 = safe_point(), safe_point()
        gap = np.abs(triples.m_function(ext_b, lam) -
                     triples.m_via_resolvent(ext_b, lam, lam0))
        worst = max(worst, float(np.max(gap)) if gap.size else 0.0)
    entries.append(_check_entry("m-equality", "M-function versus resolvent route",
                                worst, tols))

    spec = detect.saturated_sampling(ext_b)
    t_space = detect.build_solution_space(ext_b, spec)
    s_space = detect.build_resolvent_space(ext_b, spec)
    ang = principal_angles(s_space.basis, t_space.basis)
    worst = float(np.max(ang)) if ang.size else 0.0
    entries.append(_check_entry("detection-angle", "solution span equals smoothed "
                                "resolvent span", worst, tols))

    shifted = dataclasses.replace(spec, anchor=spec.anchor + 2.3j)
    ang = principal_angles(detect.build_resolvent_space(ext_b, shifted).basis,
                           s_space.basis)
    worst = float(np.max(ang)) if ang.size else 0.0
    entries.append(_check_entry("anchor-independence", "smoothed span independent "
                                "of its anchor", worst, tols))

    worst = max(
        detect.invariance_residual(s_space, ext_b, safe_point()) for _ in range(5)
    )
    entries.append(_check_entry("invariance", "resolvent invariance of the "
                                "detection space", worst, tols))
    return entries


def _hidden_block_entries(rng, tols):
    tr = triples.random_triple(rng, state_dim=4, h=1, k=1)
    base = triples.random_extension(rng, tr)
    widened = triples.direct_sum_hidden(tr, np.array([[25.0 + 0.0j]]))
    ext = triples.Extension(widened, base.bparam)
    spec = detect.saturated_sampling(ext)
    s_space = detect.build_resolvent_space(ext, spec)
    s_adj, _ = detect.build_adjoint_spaces(ext, spec)
    record = detect.detection_report(ext, ContourSpec(center=25.0, radius=1.0, nodes=64),
                                     s_adj, s_space)
    return [
        _check_entry("morera-bordered", "bordered resolvent analytic across the "
                     "hidden spectrum", record["residual_bordered"], tols),
        _check_entry("morera-full", "uncompressed contour integral sees the hidden "
                     "spectrum", record["residual_full"], tols, expected_nonzero=True),
    ]


def run_check(config, out_path, seed, tol_override):
    tols = dict(CHECK_TOLERANCES)
    if tol_override is not None:
        for name in tols.keys() - {"morera-full"}:
            tols[name] = float(tol_override)
    rng = np.random.default_rng(seed)

    if "triple" in config:
        data = _load_json(config["triple"])
        with _decoding("triple file"):
            tr_list = [triples.triple_from_dict(data)]
    else:
        tr_list = [
            triples.random_triple(rng, state_dim=6, h=2, k=2),
            triples.random_triple(rng, state_dim=14, h=2, k=2),
        ]

    checks = []
    for tr in tr_list:
        checks.extend(_suite_for_triple(rng, tr, tols))
    checks.extend(_hidden_block_entries(rng, tols))

    passed = all(c["pass"] for c in checks)
    report = {"command": "check", "seed": seed, "checks": checks, "passed": passed}
    _write_json(out_path, report)
    return 0 if passed else 1


# ------------------------------------------------------------------ run: scan


def _scan_grid(config, re_default, eps_default, extra_keys=()):
    """The grid object of a scan config, its real-part points and its eps values.

    The grid may hold re, eps and the model-specific extra_keys, nothing else;
    the numbers in re and eps must be finite (JSON as read by Python admits
    NaN and Infinity).
    """
    grid = _known_keys("grid", config.get("grid", {}), {"re", "eps", *extra_keys})
    with _decoding("grid"):
        re_lo, re_hi, re_n = grid.get("re", re_default)
        eps_values = [float(e) for e in grid.get("eps", eps_default)]
        if not all(math.isfinite(v) for v in (re_lo, re_hi, re_n, *eps_values)):
            raise ValueError("re and eps must be finite")
        re_points = np.linspace(re_lo, re_hi, int(re_n))
    return grid, re_points, eps_values


def _scan_hainlust(model_data, config):
    with _decoding("hainlust model"):
        model = hainlust.model_from_dict(model_data)
    grid, re_points, eps_values = _scan_grid(config, [0.0, 5.0, 20], [1e-1, 1e-2, 1e-3],
                                             ("fd_n",))
    with _decoding("grid"):
        fd_n = int(grid.get("fd_n", 128))
        if fd_n < hainlust.MIN_FD_N:
            raise ValueError(f"fd_n must be at least {hainlust.MIN_FD_N}")
    header = ["re_lambda", "im_lambda", "m11_re", "m11_im", "m12_re", "m12_im",
              "m21_re", "m21_im", "m22_re", "m22_im", "denom_abs", "full_jump",
              "bordered_jump"]
    return header, hainlust.scan_rows(model, re_points, eps_values, fd_n)


def _scan_friedrichs(model_data, config):
    with _decoding("friedrichs model"):
        model = friedrichs.model_from_dict(model_data)
    _, re_points, eps_values = _scan_grid(config, [-3.0, 3.0, 25], [1e-1, 1e-2, 1e-3])
    rows = friedrichs.m_scan(model, re_points, eps_values)
    header = ["re_lambda", "im_lambda", "re_M", "im_M", "abs_D", "bracket_abs"]
    return header, rows


def _scan_firstorder(model_data, config):
    with _decoding("firstorder model"):
        b = model_data.get("B", [1.0, 0.0])
        grid_cfg = model_data.get("grid", {})
        model = firstorder.FOModel(
            bparam=complex(b[0], b[1]),
            grid=firstorder.HalfLineGrid(
                length=float(grid_cfg.get("length", 40.0)),
                n=int(grid_cfg.get("n", 4096)),
            ),
        )
    grid, re_points, eps_values = _scan_grid(config, [0.0, 2.0, 10],
                                             [0.5, 0.125, 0.03125], ("rhs_decay",))
    with _decoding("grid"):
        decay = float(grid.get("rhs_decay", 1.0))
        if not math.isfinite(decay):
            raise ValueError("rhs_decay must be finite")
    g = np.exp(-decay * model.grid.nodes)
    lams = [complex(x0, -abs(e)) for x0 in re_points for e in eps_values]
    header = ["re_lambda", "im_lambda", "resolvent_norm", "m_value_re", "m_value_im"]
    return header, firstorder.scan_rows(model, lams, g)


def run_scan(config, out_path, seed, tol_override):
    model_data = _resolve_model(config)
    kind = model_data.get("type")
    if kind == "hainlust":
        header, rows = _scan_hainlust(model_data, config)
    elif kind == "friedrichs":
        header, rows = _scan_friedrichs(model_data, config)
    elif kind == "firstorder":
        header, rows = _scan_firstorder(model_data, config)
    else:
        raise ModelUnknownError(f"unknown model type {kind!r}")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(float(v)) for v in row])
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------- run: eig


def run_eig(config, out_path, seed, tol_override):
    model_data = _resolve_model(config)
    kind = model_data.get("type") or model_data.get("schema")
    if kind == "hainlust":
        with _decoding("hainlust model"):
            model = hainlust.model_from_dict(model_data)
        region = config.get("region")
        if not region or len(region) != 4:
            raise ConfigInvalidError("eig needs 'region': [re_lo, re_hi, im_lo, im_hi]")
        with _decoding("region"):
            region = [float(v) for v in region]
        vals = hainlust.eigenvalues_in(model, *region)
    elif kind == "triple-v1":
        with _decoding("triple file"):
            tr = triples.triple_from_dict(model_data)
        rng = np.random.default_rng(seed)
        bp = config.get("bparam")
        if bp is not None:
            with _decoding("bparam"):
                ext = triples.Extension(
                    tr, np.array([[complex(re, im) for re, im in row] for row in bp]))
        else:
            ext = triples.random_extension(rng, tr)
        vals = sorted(triples.extension_eigenvalues(ext), key=lambda z: (z.real, z.imag))
    else:
        raise ModelUnknownError(f"eigenvalues unsupported for model type {kind!r}")
    payload = {
        "command": "eig",
        "eigenvalues": [[float(v.real), float(v.imag)] for v in vals],
    }
    _write_json(out_path, payload)
    return 0


# --------------------------------------------------------------- run: contour


def run_contour(config, out_path, seed, tol_override):
    rng = np.random.default_rng(seed)
    if "triple" in config:
        data = _load_json(config["triple"])
        with _decoding("triple file"):
            tr = triples.triple_from_dict(data)
    else:
        tr = triples.random_triple(rng, state_dim=4, h=1, k=1)
    hidden = config.get("hidden")
    base_ext = triples.random_extension(rng, tr)
    if hidden is not None:
        with _decoding("hidden block"):
            tr = triples.direct_sum_hidden(
                tr, np.array([[complex(*v) for v in row] for row in hidden])
            )
    ext = triples.Extension(tr, base_ext.bparam)
    cfg = _known_keys("contour", config.get("contour", {}), {"center", "radius", "nodes"})
    with _decoding("contour"):
        contour = ContourSpec(
            center=complex(*cfg.get("center", [25.0, 0.0])),
            radius=float(cfg.get("radius", 1.0)),
            nodes=int(cfg.get("nodes", 64)),
        )
    spec = detect.saturated_sampling(ext)
    s_space = detect.build_resolvent_space(ext, spec)
    s_adj, _ = detect.build_adjoint_spaces(ext, spec)
    record = detect.detection_report(ext, contour, s_adj, s_space,
                                     triple_id=config.get("triple", "seeded"))
    record["command"] = "contour"
    _write_json(out_path, record)
    return 0


# --------------------------------------------------------------- run: example


def run_example(config, out_path, seed, tol_override):
    name = config.get("example")
    if name == "ex1":
        b = config.get("B", [0.0, 0.0])
        with _decoding("example"):
            bparam = complex(b[0], b[1])
        model = friedrichs.FriedrichsModel(
            phi=friedrichs.RationalH2(poles=(-1j,), residues=(1.0,)),
            psi=friedrichs.RationalH2(poles=(-2j,), residues=(1.0,)),
            bparam=bparam,
        )
        rng = np.random.default_rng(seed)
        filled = None
        if abs(bparam - 1j * np.pi) < 1e-12:
            filled = "upper"
        elif abs(bparam + 1j * np.pi) < 1e-12:
            filled = "lower"
        worst = 0.0
        checked = 0
        for _ in range(100):
            lam = complex(rng.uniform(-5, 5), rng.uniform(0.05, 4) * rng.choice([-1, 1]))
            if filled == "upper" and lam.imag > 0:
                continue
            if filled == "lower" and lam.imag < 0:
                continue
            gap = abs(friedrichs.m_value(model, lam)
                      - friedrichs.hardy_m_reference(bparam, lam))
            worst = max(worst, gap)
            checked += 1
        payload = {
            "command": "example", "example": "ex1",
            "max_closed_form_deviation": worst, "points_checked": checked,
            "eigenvalue_filled_half_plane": filled,
        }
    elif name in ("ex2-lower", "ex2-upper"):
        lam0 = config.get("lam0")
        if lam0 is None:
            lam0 = [0.0, -1.0] if name == "ex2-lower" else [0.0, 2.0]
        with _decoding("example"):
            lam0 = complex(*lam0)
        if abs(lam0.imag) <= friedrichs._REAL_AXIS_TOL:
            raise ConfigInvalidError(f"invalid example: lam0 must be nonreal, got {lam0}")
        payload = friedrichs.example_eigenvalue_not_pole(lam0=lam0)
        payload.update({"command": "example", "example": name})
    elif name == "ex3":
        with _decoding("example"):
            bparam = float(config.get("B", 0.0))
        payload = friedrichs.example_embedded_eigenvalue(bparam=bparam)
        payload.update({"command": "example", "example": "ex3"})
    else:
        raise ConfigInvalidError(f"unknown example {name!r}")
    _write_json(out_path, payload)
    return 0


# ----------------------------------------------------------------------- main


# each command's runner and the top-level config keys it reads
_COMMANDS = {
    "check": (run_check, {"seed", "triple"}),
    "scan": (run_scan, {"seed", "model", "grid"}),
    "eig": (run_eig, {"seed", "model", "region", "bparam"}),
    "contour": (run_contour, {"seed", "triple", "hidden", "contour"}),
    "example": (run_example, {"seed", "example", "B", "lam0"}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weyl-scope",
        description="Residual checks and scans for boundary-pair spectral models",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=False, help="JSON configuration file")
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)

    try:
        config = _load_json(args.config) if args.config else {}
        run, keys = _COMMANDS[args.command]
        _known_keys("config", config, keys)
        with _decoding("seed"):
            seed = args.seed if args.seed is not None else int(config.get("seed", DEFAULT_SEED))
        if args.command == "example" and "example" not in config:
            raise ConfigInvalidError("example command needs 'example' in the config")
        return run(config, args.out, seed, args.tol)
    except (ConfigInvalidError, ModelUnknownError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeylScopeError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
