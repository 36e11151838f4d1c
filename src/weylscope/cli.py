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
import io
import json
import math
import sys
from functools import partial

import numpy as np

from . import detect, firstorder, friedrichs, hainlust, triples
from .errors import ConfigInvalidError, WeylScopeError
from .numerics import ContourSpec, matrix_norm2, principal_angles

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


# ------------------------------------------------------------ config schema
#
# A kind is one of
#   - a function (value, where) -> value: FLOAT, NONZERO, POSITIVE, PATH,
#     integer(k), nonempty(kind), ANY, and select(...) for an object whose tag picks its dict;
#   - a tuple: a JSON list holding one value of each kind, in order;
#   - a one-item list: a JSON list whose values all have that kind;
#   - a dict: a JSON object, key -> (kind, default), where the default
#     REQUIRED makes the key mandatory and None leaves an absent key out.
# A key outside its dict is rejected at every depth.  JSON as read by Python
# admits NaN and Infinity, which no number kind accepts.

REQUIRED = object()


def _scalar(what, test):
    def check(value, where):
        if not test(value):
            raise ConfigInvalidError(f"{where} must be {what}, got {value!r:.60}")
        return value
    return check


def _finite(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


FLOAT = _scalar("a finite number", _finite)
NONZERO = _scalar("a finite nonzero number", lambda v: _finite(v) and v != 0)
POSITIVE = _scalar("a finite positive number", lambda v: _finite(v) and v > 0)
PATH = _scalar("a path string", lambda v: isinstance(v, str))
PAIR = (FLOAT, FLOAT)


def integer(least):
    """Exact JSON integers >= least: no bool, and no 1.5 truncated to 1."""
    return _scalar(f"an integer >= {least}", lambda v: type(v) is int and v >= least)


def nonempty(kind):
    """A JSON list of one or more values of kind (an empty grid has no rows)."""
    not_empty = _scalar("a non-empty list", lambda v: v != [])
    return lambda value, where: _decode([kind], not_empty(value, where), where)


def ANY(value, where):
    """A value its constructor checks, or a tag its select has matched."""
    return value


def select(tag, table, what):
    """Kind of a JSON object whose dict kind its tag picks: table[tag(object)]."""
    def check(value, where):
        if not isinstance(value, dict):
            raise ConfigInvalidError(f"{where} must be a JSON object")
        key = tag(value)
        if not isinstance(key, str) or key not in table:
            raise ConfigInvalidError(f"unknown {what} {key!r:.60}")
        return _decode(table[key], value, where)
    return check


def _decode(kind, value, where):
    """value checked against kind, with the defaults of its objects filled in."""
    if callable(kind):
        return kind(value, where)
    if isinstance(kind, (tuple, list)):
        if not isinstance(value, list) or (isinstance(kind, tuple) and len(value) != len(kind)):
            size = f" of {len(kind)} values" if isinstance(kind, tuple) else ""
            raise ConfigInvalidError(f"{where} must be a list{size}")
        kinds = kind if isinstance(kind, tuple) else kind * len(value)
        return [_decode(k, v, f"{where}[{i}]") for i, (k, v) in enumerate(zip(kinds, value))]
    if not isinstance(value, dict):
        raise ConfigInvalidError(f"{where} must be a JSON object")
    unknown = sorted(value.keys() - kind.keys())
    if unknown:
        raise ConfigInvalidError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    out = {}
    for key, (sub, default) in kind.items():
        if key in value:
            out[key] = _decode(sub, value[key], f"{where}.{key}")
        elif default is REQUIRED:
            raise ConfigInvalidError(f"{where} is missing '{key}'")
        elif default is not None:
            out[key] = _decode(sub, default, f"{where}.{key}")
    return out


def _model_type(config):
    model = config.get("model")
    if not isinstance(model, dict):
        raise ConfigInvalidError("config.model must be a model object or its path")
    return model.get("type") or model.get("schema")


def _config(**keys):
    """A command's config: the keys it reads, and the seed every command takes."""
    return {"seed": (SEED, DEFAULT_SEED), **keys}


def _scan(model, re, eps, **extra):
    """A scan config: the model, and a grid of re = [lo, hi, count] and nonzero eps values."""
    grid = {"re": ((FLOAT, FLOAT, integer(1)), re), "eps": (nonempty(NONZERO), eps), **extra}
    return _config(model=(MODELS[model], REQUIRED), grid=(grid, {}))


SEED = integer(0)
TAG = (ANY, REQUIRED)
POLY = {"breaks": ([FLOAT], REQUIRED), "coeffs": ([[PAIR]], REQUIRED)}
RATIONAL = {"poles": ([PAIR], REQUIRED), "residues": ([PAIR], REQUIRED),
            "orders": ([integer(1)], None)}
# one per model type; triple_from_dict tests the triple-v1 matrices
MODELS = {
    "hainlust": {"type": TAG, "q": (POLY, REQUIRED), "u": (POLY, REQUIRED),
                 "w": (POLY, REQUIRED), "alpha": (FLOAT, REQUIRED),
                 "beta": (FLOAT, REQUIRED)},
    "friedrichs": {"type": TAG, "phi": (RATIONAL, REQUIRED), "psi": (RATIONAL, REQUIRED),
                   "B": (PAIR, None)},
    # firstorder B is accepted and has no effect: f(0) = 0 has no parameter (ROADMAP item 13)
    "firstorder": {"type": TAG, "B": (PAIR, None),
                   "grid": ({"length": (FLOAT, 40.0), "n": (integer(1), 4096)}, {})},
    "triple-v1": {"schema": TAG, **dict.fromkeys(("state_dim", "h", "k"), (integer(0), REQUIRED)),
                  **dict.fromkeys(("action", "action_adj", "bnd1", "bnd2", "adj_bnd1",
                                   "adj_bnd2"), (ANY, REQUIRED))},
}
# one per command; every scan's resolvents need nonzero eps
SCHEMAS = {
    "check": _config(triple=(PATH, None)),
    "scan": select(_model_type, {
        "hainlust": _scan("hainlust", [0.0, 5.0, 20], [1e-1, 1e-2, 1e-3],
                          fd_n=(integer(hainlust.MIN_FD_N), 128)),
        "friedrichs": _scan("friedrichs", [-3.0, 3.0, 25], [1e-1, 1e-2, 1e-3]),
        "firstorder": _scan("firstorder", [0.0, 2.0, 10], [0.5, 0.125, 0.03125],
                            rhs_decay=(POSITIVE, 1.0)),
    }, "model type"),
    "eig": select(_model_type, {
        "hainlust": _config(model=(MODELS["hainlust"], REQUIRED),
                            region=((FLOAT,) * 4, REQUIRED)),
        "triple-v1": _config(model=(MODELS["triple-v1"], REQUIRED), bparam=([[PAIR]], None)),
    }, "model type"),
    "contour": _config(triple=(PATH, None), hidden=([[PAIR]], None),
                       contour=({"center": (PAIR, [25.0, 0.0]), "radius": (FLOAT, 1.0),
                                 "nodes": (integer(1), 64)}, {})),
    "example": select(lambda config: config.get("example"), {
        "ex1": _config(example=TAG, B=(PAIR, [0.0, 0.0])),
        "ex2-lower": _config(example=TAG, lam0=(PAIR, [0.0, -1.0])),
        "ex2-upper": _config(example=TAG, lam0=(PAIR, [0.0, 2.0])),
        "ex3": _config(example=TAG, B=(FLOAT, 0.0)),
    }, "example"),
}


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bytes that are not UTF-8
        raise ConfigInvalidError(f"cannot read JSON file {path}: {exc}") from exc


def _read_triple(path):
    return triples.triple_from_dict(_decode(MODELS["triple-v1"], _load_json(path), path))


def _complex_matrix(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _write(path, text):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_json(path, payload):
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _worst(residuals) -> float:
    """Largest residual, NaN when any is NaN; 0.0 when there are none."""
    return float(np.max(residuals)) if np.size(residuals) else 0.0


# Each command takes the decoded config, the seed and the --tol value, and
# builds its models; a ValueError, TypeError, KeyError or OverflowError
# raised there is a config error.  It returns the function that computes the
# report, writes it to a path (stdout when None) and returns the exit code.

# ----------------------------------------------------------------- run: check


def _check_entry(name, identity, residual, tols, expected_nonzero=False):
    tol = tols[name]
    ok = residual > tol if expected_nonzero else residual <= tol
    return {
        "name": name,
        "identity": identity,
        "residual": float(residual),
        "tolerance": float(tol),
        "expected_nonzero": expected_nonzero,
        "pass": bool(ok and math.isfinite(residual)),
    }


def _suite_for_triple(rng, tr, tols):
    ext_b = triples.random_extension(rng, tr)
    ext_c = triples.random_extension(rng, tr)

    def vector(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    act, act_adj, b1, adj_b2, b2, adj_b1 = (
        matrix_norm2(a) for a in (tr.action, tr.action_adj, tr.bnd1, tr.adj_bnd2, tr.bnd2,
                                  tr.adj_bnd1))

    def green():
        """green_residual over the size of its four pairings: a backward error."""
        u, v = vector(tr.dom_dim), vector(tr.adj_dom_dim)
        m, nu, nv = tr.state_dim, np.linalg.norm(u), np.linalg.norm(v)
        scale = (act * nu * np.linalg.norm(v[:m]) + np.linalg.norm(u[:m]) * act_adj * nv
                 + (b1 * adj_b2 + b2 * adj_b1) * nu * nv)
        return triples.green_residual(tr, u, v) / (scale or 1.0)  # size 0 makes every pairing 0

    def safe_point():
        for _ in range(SAFE_POINT_MAX_DRAWS):
            lam = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if (triples.spectrum_distance(ext_b, lam) > 0.3 and
                    triples.spectrum_distance(ext_c, lam) > 0.3):
                return lam
        raise WeylScopeError(
            f"no test point clear of both spectra in {SAFE_POINT_MAX_DRAWS} draws")

    def hilbert():
        f = vector(tr.h)
        return triples.hilbert_identity_residual(ext_b, safe_point(), safe_point(), f)

    def m_gap():
        lam, lam0 = safe_point(), safe_point()
        return np.abs(triples.m_function(ext_b, lam) -
                      triples.m_via_resolvent(ext_b, lam, lam0))

    entries = []

    def entry(name, identity, residuals):
        entries.append(_check_entry(name, identity, _worst(residuals), tols))

    entry("green", "boundary pairing identity", [green() for _ in range(100)])
    entry("hilbert", "resolvent difference identity for solution operators",
          [hilbert() for _ in range(50)])
    entry("krein", "two-parameter resolvent formula",
          [triples.krein_residual(ext_b, ext_c, safe_point()) for _ in range(50)])
    entry("m-equality", "M-function versus resolvent route", [m_gap() for _ in range(20)])

    spec, t_space = detect.saturated_spaces(ext_b)
    s_space, shifted = detect.krylov_spaces(ext_b, (spec.anchor, spec.anchor + 2.3j), False)
    entry("detection-angle", "solution span equals smoothed resolvent span",
          principal_angles(s_space, t_space))
    entry("anchor-independence", "smoothed span independent of its anchor",
          principal_angles(shifted, s_space))
    entry("invariance", "resolvent invariance of the detection space",
          [detect.invariance_residual(s_space, ext_b, safe_point()) for _ in range(5)])
    return entries


def _hidden_block_extension(rng, tr, hidden):
    """tr (random when None) under a random bparam, widened by the hidden block."""
    if tr is None:
        tr = triples.random_triple(rng, state_dim=4, h=1, k=1)
    bparam = triples.random_extension(rng, tr).bparam
    return triples.Extension(triples.direct_sum_hidden(tr, hidden), bparam)


def _hidden_block_entries(rng, tols):
    ext = _hidden_block_extension(rng, None, np.array([[25.0 + 0.0j]]))
    record = detect.detection_record(ext, ContourSpec(center=25.0, radius=1.0, nodes=64),
                                     "triple")
    return [
        _check_entry("morera-bordered", "bordered resolvent analytic across the "
                     "hidden spectrum", record["residual_bordered"], tols),
        _check_entry("morera-full", "uncompressed contour integral sees the hidden "
                     "spectrum", record["residual_full"], tols, expected_nonzero=True),
    ]


def run_check(cfg, seed, tol):
    tols = {name: value if tol is None or name == "morera-full" else tol
            for name, value in CHECK_TOLERANCES.items()}
    rng = np.random.default_rng(seed)
    if "triple" in cfg:
        tr_list = [_read_triple(cfg["triple"])]
    else:
        tr_list = [triples.random_triple(rng, state_dim=m, h=2, k=2) for m in (6, 14)]

    def report(out_path):
        checks = []
        for tr in tr_list:
            checks.extend(_suite_for_triple(rng, tr, tols))
        checks.extend(_hidden_block_entries(rng, tols))
        passed = all(c["pass"] for c in checks)
        _write_json(out_path, {"command": "check", "seed": seed, "checks": checks,
                               "passed": passed})
        return 0 if passed else 1

    return report


# ------------------------------------------------------------------ run: scan

def run_scan(cfg, seed, tol):
    data, grid = cfg["model"], cfg["grid"]
    re_points = np.linspace(*grid["re"])
    eps_values = [float(e) for e in grid["eps"]]
    if data["type"] == "hainlust":
        header = hainlust.SCAN_HEADER
        rows = partial(hainlust.scan_rows, hainlust.model_from_dict(data), re_points,
                       eps_values, grid["fd_n"])
    elif data["type"] == "friedrichs":
        header = friedrichs.SCAN_HEADER
        rows = partial(friedrichs.m_scan, friedrichs.model_from_dict(data), re_points,
                       eps_values)
    else:
        model = firstorder.FOModel(grid=firstorder.HalfLineGrid(
            length=float(data["grid"]["length"]), n=data["grid"]["n"]))
        g = np.exp(-float(grid["rhs_decay"]) * model.grid.nodes)
        lams = [complex(x0, -abs(e)) for x0 in re_points for e in eps_values]
        header = firstorder.SCAN_HEADER
        rows = partial(firstorder.scan_rows, model, lams, g)

    def report(out_path):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows():
            writer.writerow([f"{float(v):.17g}" for v in row])
        _write(out_path, buf.getvalue())
        return 0

    return report


# ------------------------------------------------------------------- run: eig


def run_eig(cfg, seed, tol):
    data = cfg["model"]
    if data.get("type") == "hainlust":
        region = [float(v) for v in cfg["region"]]
        hainlust._check_region(*region)
        eigenvalues = partial(hainlust.eigenvalues_in, hainlust.model_from_dict(data), *region)
    else:
        tr = triples.triple_from_dict(data)
        if "bparam" in cfg:
            ext = triples.Extension(tr, _complex_matrix(cfg["bparam"]))
        else:
            ext = triples.random_extension(np.random.default_rng(seed), tr)

        def eigenvalues():
            return sorted(triples.extension_eigenvalues(ext), key=lambda z: (z.real, z.imag))

    def report(out_path):
        vals = eigenvalues()
        _write_json(out_path, {"command": "eig",
                               "eigenvalues": [[float(v.real), float(v.imag)] for v in vals]})
        return 0

    return report


# --------------------------------------------------------------- run: contour


def run_contour(cfg, seed, tol):
    tr = _read_triple(cfg["triple"]) if "triple" in cfg else None
    hidden = _complex_matrix(cfg.get("hidden", []))
    ext = _hidden_block_extension(np.random.default_rng(seed), tr, hidden)
    circle = cfg["contour"]
    contour = ContourSpec(center=complex(*circle["center"]), radius=float(circle["radius"]),
                          nodes=circle["nodes"])

    def report(out_path):
        record = detect.detection_record(ext, contour, cfg.get("triple", "seeded"))
        record["command"] = "contour"
        _write_json(out_path, record)
        return 0

    return report


# --------------------------------------------------------------- run: example


def _ex1(bparam, seed):
    model = friedrichs.FriedrichsModel(
        phi=friedrichs.PoleSum.from_poles((-1j,), (1.0,)),
        psi=friedrichs.PoleSum.from_poles((-2j,), (1.0,)),
        bparam=bparam,
    )
    rng = np.random.default_rng(seed)
    filled = None
    if abs(bparam - 1j * np.pi) < 1e-12:
        filled = "upper"
    elif abs(bparam + 1j * np.pi) < 1e-12:
        filled = "lower"
    gaps = []
    for _ in range(100):
        lam = complex(rng.uniform(-5, 5), rng.uniform(0.05, 4) * rng.choice([-1, 1]))
        if (filled == "upper" and lam.imag > 0) or (filled == "lower" and lam.imag < 0):
            continue
        gaps.append(abs(friedrichs.m_value(model, lam)
                        - friedrichs.hardy_m_reference(bparam, lam)))
    return {"max_closed_form_deviation": _worst(gaps), "points_checked": len(gaps),
            "eigenvalue_filled_half_plane": filled}


def run_example(cfg, seed, tol):
    name = cfg["example"]
    if name == "ex1":
        payload = partial(_ex1, complex(*cfg["B"]), seed)
    elif name == "ex3":
        payload = partial(friedrichs.example_embedded_eigenvalue, bparam=float(cfg["B"]))
    else:
        lam0 = complex(*cfg["lam0"])
        if abs(lam0.imag) <= friedrichs._REAL_AXIS_TOL:
            raise ConfigInvalidError(f"invalid example: lam0 must be nonreal, got {lam0}")
        payload = partial(friedrichs.example_eigenvalue_not_pole, lam0=lam0)

    def report(out_path):
        _write_json(out_path, {**payload(), "command": "example", "example": name})
        return 0

    return report


# ----------------------------------------------------------------------- main


COMMANDS = {"check": run_check, "scan": run_scan, "eig": run_eig, "contour": run_contour,
            "example": run_example}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weyl-scope",
        description="Residual checks and scans for boundary-pair spectral models",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=False, help="JSON configuration file")
    parser.add_argument("--out", default=None, help="output path (stdout when omitted)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    args = parser.parse_args(argv)

    try:
        config = _load_json(args.config) if args.config else {}
        if isinstance(config, dict) and isinstance(config.get("model"), str):
            config["model"] = _load_json(config["model"])
        try:
            cfg = _decode(SCHEMAS[args.command], config, "config")
            seed = cfg["seed"] if args.seed is None else SEED(args.seed, "--seed")
            tol = None if args.tol is None else POSITIVE(args.tol, "--tol")
            report = COMMANDS[args.command](cfg, seed, tol)
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigInvalidError(f"invalid config: {exc}") from exc
        return report(args.out)
    except ConfigInvalidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeylScopeError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
