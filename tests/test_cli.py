import contextlib
import dataclasses
import io
import json
import math
import pathlib
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylscope import cli, detect, triples
from weylscope.cli import main
from weylscope.triples import random_triple, triple_to_dict

NAN, INF = float("nan"), float("inf")
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def write_json(path, payload):
    path.write_text(json.dumps(payload))


@pytest.fixture
def step_model_dict():
    return {
        "type": "hainlust",
        "q": {"breaks": [0.0, 1.0], "coeffs": [[[0.0, 0.0]]]},
        "u": {"breaks": [0.0, 0.5, 1.0], "coeffs": [[[2.0, 0.0]], [[3.0, 0.0]]]},
        "w": {"breaks": [0.0, 0.5, 1.0], "coeffs": [[[1.0, 0.0]], [[0.0, 0.0]]]},
        "alpha": np.pi / 2,
        "beta": np.pi / 2,
    }


def test_check_default_suite_passes(tmp_path):
    out = tmp_path / "report.json"
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"seed": 1729})
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"green", "hilbert", "krein", "m-equality", "detection-angle",
            "invariance", "morera-bordered", "morera-full"} <= names
    for c in report["checks"]:
        assert "tolerance" in c and "identity" in c
        if not c["expected_nonzero"]:
            assert c["residual"] <= c["tolerance"]


def test_check_detection_block_factorizes_each_sample_point_once(monkeypatch, solve_calls):
    # T, S and the S anchored 2.3i higher all come from the saturation loop's
    # inverses: N + 2 stacked factorizations for a plan of N points (one per
    # point, the anchor, the shifted anchor) instead of 4N + 2.  The other
    # entries take hilbert 2 x 50, krein 2 x 50, m-equality 3 x 20 and
    # invariance 5; the spectra are m x m and not counted.
    rng = np.random.default_rng(7)
    tr = random_triple(rng, state_dim=6, h=2, k=2)
    plans = []
    sampled = detect.saturated_spaces

    def recording(ext, shifts):
        out = sampled(ext, shifts)
        plans.append(out[0])
        return out

    monkeypatch.setattr(detect, "saturated_spaces", recording)
    cli._suite_for_triple(rng, tr, cli.CHECK_TOLERANCES)
    (plan,) = plans
    n = tr.dom_dim
    stacked = sum(shape == (n, n) for shape in solve_calls)
    assert stacked == 265 + len(plan.solution_samples) + 2


def test_check_corrupted_triple_exits_2(tmp_path):
    rng = np.random.default_rng(0)
    data = triple_to_dict(random_triple(rng, state_dim=4, h=1, k=1))
    data["bnd1"][0][0][0] += 1.0
    bad = tmp_path / "triple.json"
    write_json(bad, data)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"triple": str(bad)})
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2


def test_check_valid_triple_file(tmp_path):
    rng = np.random.default_rng(7)
    data = triple_to_dict(random_triple(rng, state_dim=5, h=1, k=1))
    tf = tmp_path / "triple.json"
    write_json(tf, data)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"triple": str(tf)})
    out = tmp_path / "r.json"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_scan_firstorder_rows(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {
        "model": {"type": "firstorder", "B": [1.0, 0.0],
                  "grid": {"length": 40.0, "n": 512}},
        "grid": {"re": [0.0, 1.0, 4], "eps": [0.5, 0.25]},
    })
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("re_lambda,im_lambda,resolvent_norm")
    assert len(lines) == 1 + 4 * 2


def test_scan_friedrichs_constant_m_per_half_plane(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {
        "model": {"type": "friedrichs",
                  "phi": {"poles": [[0.0, -1.0]], "residues": [[1.0, 0.0]]},
                  "psi": {"poles": [[0.0, -2.0]], "residues": [[1.0, 0.0]]},
                  "B": [0.0, 0.0]},
        "grid": {"re": [-2.0, 2.0, 5], "eps": [1e-2]},
    })
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    upper = {(r[2], r[3]) for r in rows if float(r[1]) > 0}
    lower = {(r[2], r[3]) for r in rows if float(r[1]) < 0}
    assert len(upper) == 1 and len(lower) == 1 and upper != lower


def test_scan_hainlust_row_count(tmp_path, step_model_dict):
    model_file = tmp_path / "model.json"
    write_json(model_file, step_model_dict)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"model": str(model_file),
                     "grid": {"re": [4.0, 6.0, 5], "eps": [0.1, -0.1, 0.01],
                              "fd_n": 64}})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 5 * 3
    assert lines[0].split(",")[:4] == ["re_lambda", "im_lambda", "m11_re", "m11_im"]


def test_scan_unknown_model_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"model": {"type": "mystery"}})
    assert main(["scan", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


def test_scan_rerun_byte_identical(tmp_path, step_model_dict):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"model": step_model_dict,
                     "grid": {"re": [4.0, 6.0, 3], "eps": [0.1], "fd_n": 64}})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["scan", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_without_out_writes_stdout(tmp_path, capsys):
    config, out = str(CONFIGS / "scan-friedrichs-hardy.json"), tmp_path / "scan.csv"
    assert main(["scan", "--config", config, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["scan", "--config", config]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def _drop(data, key):
    return {k: v for k, v in data.items() if k != key}


@pytest.mark.parametrize("command, make_config", [
    ("scan", lambda m: {"model": _drop(m, "q")}),
    ("eig", lambda m: {"model": _drop(m, "q"), "region": [0.5, 15.0, -1.0, 1.0]}),
    ("scan", lambda m: {"model": {**m, "alpha": 0.0}}),
    ("scan", lambda m: {"model": m, "grid": {"re": [0.0, 5.0]}}),
    ("scan", lambda m: {"model": {"type": "friedrichs",
                                  "phi": {"poles": [[1.0, 0.0]], "residues": [[1.0, 0.0]]},
                                  "psi": {"poles": [[0.0, -2.0]], "residues": [[1.0, 0.0]]}}}),
    ("scan", lambda m: {"model": {"type": "firstorder", "grid": {"n": 4}}}),
    ("contour", lambda m: {"contour": {"radius": -1}}),
    ("example", lambda m: {"example": "ex2-lower", "lam0": [1, 0]}),
    ("scan", lambda m: {"model": m, "grid": {"re": [4.0, 6.0, 3], "eps": [0.1], "fd_n": 16}}),
    ("check", lambda m: {"seed": 3, "tolerances": {"green": 1.0}}),
    ("eig", lambda m: {"model": m, "region": [0.5, 15.0, -1.0, 1.0], "regoin": [0, 1, 0, 1]}),
    ("scan", lambda m: {"model": m, "grid": {"re": [4.0, 6.0, 3], "fdn": 64}}),
    ("scan", lambda m: {"model": {"type": "friedrichs",
                                  "phi": {"poles": [[0.0, -1.0]], "residues": [[1.0, 0.0]]},
                                  "psi": {"poles": [[0.0, -2.0]], "residues": [[1.0, 0.0]]}},
                        "grid": {"re": [-1.0, 1.0, 3], "fd_n": 64}}),
    ("scan", lambda m: {"model": m, "grid": [4.0, 6.0, 3]}),
    ("contour", lambda m: {"contour": {"centre": [25.0, 0.0]}}),
    ("example", lambda m: {"example": "ex2-lower", "lam_0": [0.0, -1.0]}),
    ("scan", lambda m: {"model": {"type": "firstorder", "grid": {"N": 512}}}),
    ("scan", lambda m: {"model": {"type": "firstorder", "b": [1.0, 0.0]}}),
    ("scan", lambda m: {"model": {**m, "q": {**m["q"], "degree": 0}}}),
    ("eig", lambda m: {"model": {**m, "gamma": 1.0}, "region": [0.5, 15.0, -1.0, 1.0]}),
    ("scan", lambda m: {"model": {"type": "friedrichs",
                                  "phi": {"poles": [[0.0, -1.0]], "residues": [[1.0, 0.0]],
                                          "weights": [1.0]},
                                  "psi": {"poles": [[0.0, -2.0]], "residues": [[1.0, 0.0]]}}}),
    ("scan", lambda m: {"model": {"type": "friedrichs", "bparam": [0.0, 0.0],
                                  "phi": {"poles": [[0.0, -1.0]], "residues": [[1.0, 0.0]]},
                                  "psi": {"poles": [[0.0, -2.0]], "residues": [[1.0, 0.0]]}}}),
    # json reads NaN and Infinity literals, which would give NaN or inf rows
    ("scan", lambda m: {"model": {"type": "firstorder", "grid": {"length": 40.0, "n": 64}},
                        "grid": {"re": [0.0, float("nan"), 3], "eps": [0.5]}}),
    ("scan", lambda m: {"model": {"type": "firstorder", "grid": {"length": 40.0, "n": 64}},
                        "grid": {"re": [0.0, 2.0, 3], "eps": [0.5], "rhs_decay": float("inf")}}),
    # g = exp(-rhs_decay x) must decay: at -0.5 the norms of a non-L2 g read 4.85e8
    ("scan", lambda m: {"model": {"type": "firstorder", "grid": {"length": 40.0, "n": 64}},
                        "grid": {"re": [0.0, 2.0, 3], "eps": [0.5], "rhs_decay": 0}}),
    ("scan", lambda m: {"model": {"type": "firstorder", "grid": {"length": 40.0, "n": 64}},
                        "grid": {"re": [0.0, 2.0, 3], "eps": [0.5], "rhs_decay": -0.5}}),
    ("scan", lambda m: {"model": {"type": "friedrichs",
                                  "phi": {"poles": [[0.0, -1.0]], "residues": [[1.0, 0.0]]},
                                  "psi": {"poles": [[0.0, -2.0]], "residues": [[1.0, 0.0]]}},
                        "grid": {"re": [-1.0, 1.0, 3], "eps": [0.1, float("inf")]}}),
    ("scan", lambda m: {"model": m, "grid": {"re": [-float("inf"), 6.0, 3], "eps": [0.1],
                                             "fd_n": 64}}),
    ("scan", lambda m: {"model": m, "grid": {"re": [4.0, 6.0, float("inf")], "eps": [0.1],
                                             "fd_n": 64}}),
    ("scan", lambda m: {"model": m, "grid": {"re": [4.0, 6.0, 3], "eps": [float("nan")],
                                             "fd_n": 64}}),
    # NaN passed the old checks: a NaN residual, NaN rows or a LinAlgError
    ("example", lambda m: {"example": "ex1", "B": [NAN, 0.0]}),
    ("example", lambda m: {"example": "ex3", "B": NAN}),
    ("example", lambda m: {"example": "ex2-lower", "lam0": [0.0, NAN]}),
    ("contour", lambda m: {"hidden": [[[NAN, 0.0]]]}),
    # a 1x0 block was taken for no block and dropped
    ("contour", lambda m: {"hidden": [[]]}),
    ("scan", lambda m: {"model": {"type": "friedrichs",
                                  "phi": {"poles": [[0.0, -1.0]], "residues": [[1.0, 0.0]]},
                                  "psi": {"poles": [[0.0, -2.0]], "residues": [[NAN, 0.0]]}},
                        "grid": {"re": [-1.0, 1.0, 3], "eps": [0.1]}}),
    # poles, residues and orders of one function must match in length
    ("scan", lambda m: {"model": {"type": "friedrichs",
                                  "phi": {"poles": [[0.0, -1.0]], "residues": [[1.0, 0.0]]},
                                  "psi": {"poles": [[0.0, -2.0], [1.0, -1.0]],
                                          "residues": [[1.0, 0.0]]}},
                        "grid": {"re": [-1.0, 1.0, 3], "eps": [0.1]}}),
    ("scan", lambda m: {"model": {"type": "friedrichs",
                                  "phi": {"poles": [[0.0, -1.0]], "residues": [[1.0, 0.0]],
                                          "orders": [1, 2]},
                                  "psi": {"poles": [[0.0, -2.0]], "residues": [[1.0, 0.0]]}},
                        "grid": {"re": [-1.0, 1.0, 3], "eps": [0.1]}}),
    # an empty orders list ran as "all ones"
    ("scan", lambda m: {"model": {"type": "friedrichs",
                                  "phi": {"poles": [[0.0, -1.0], [1.0, -2.0]],
                                          "residues": [[1.0, 0.0], [0.5, 0.0]], "orders": []},
                                  "psi": {"poles": [[0.0, -2.0]], "residues": [[1.0, 0.0]]}},
                        "grid": {"re": [-1.0, 1.0, 3], "eps": [0.1]}}),
    # counts and the seed are exact integers: 1.5 was truncated, -1 raised
    ("check", lambda m: {"seed": -1}),
    ("check", lambda m: {"seed": 1.5}),
    ("scan", lambda m: {"model": m, "grid": {"re": [4.0, 6.0, 2.7], "eps": [0.1], "fd_n": 64}}),
    ("scan", lambda m: {"model": {"type": "firstorder", "grid": {"length": 40.0, "n": 16.5}},
                        "grid": {"re": [0.0, 1.0, 2], "eps": [0.5]}}),
    ("scan", lambda m: {"model": m, "grid": {"re": [4.0, 6.0, 0], "eps": [0.1], "fd_n": 64}}),
    # lambda = x - i eps must be nonreal for these resolvents
    ("scan", lambda m: {"model": {"type": "firstorder", "grid": {"length": 40.0, "n": 64}},
                        "grid": {"re": [0.0, 1.0, 2], "eps": [0.0]}}),
    ("scan", lambda m: {"model": {"type": "friedrichs",
                                  "phi": {"poles": [[0.0, -1.0]], "residues": [[1.0, 0.0]]},
                                  "psi": {"poles": [[0.0, -2.0]], "residues": [[1.0, 0.0]]}},
                        "grid": {"re": [-1.0, 1.0, 3], "eps": [0.0]}}),
    # the step model's jumps read 0 at eps 0: R(x) - R(x), with 1/(u - x) infinite at x = 3
    ("scan", lambda m: {"model": m, "grid": {"re": [1.5, 3.5, 5], "eps": [0.0], "fd_n": 32}}),
    ("check", lambda m: {"triple": ["triple.json"]}),
    # an empty eps list wrote a header-only CSV and exited 0
    ("scan", lambda m: {"model": m, "grid": {"re": [4.0, 6.0, 3], "eps": [], "fd_n": 64}}),
    ("scan", lambda m: {"model": {"type": "friedrichs",
                                  "phi": {"poles": [[0.0, -1.0]], "residues": [[1.0, 0.0]]},
                                  "psi": {"poles": [[0.0, -2.0]], "residues": [[1.0, 0.0]]}},
                        "grid": {"re": [-1.0, 1.0, 3], "eps": []}}),
    ("scan", lambda m: {"model": {"type": "firstorder", "grid": {"length": 40.0, "n": 64}},
                        "grid": {"re": [0.0, 1.0, 2], "eps": []}}),
    # a piece without coefficients raised IndexError in shoot; a u defined on
    # [0, 0.5] only was extended over [0.5, 1] and gave finite M rows on its range
    ("eig", lambda m: {"model": {**m, "q": {"breaks": [0.0, 1.0], "coeffs": [[]]}},
                       "region": [0.5, 15.0, -1.0, 1.0]}),
    ("scan", lambda m: {"model": {**m, "q": {"breaks": [0.0, 1.0], "coeffs": [[]]}}}),
    ("scan", lambda m: {"model": {**m, "u": {"breaks": [0.0, 0.5],
                                             "coeffs": [[[0.0, 0.0], [1.0, 0.0]]]},
                                  "w": {"breaks": [0.0, 1.0], "coeffs": [[[1.0, 0.0]]]}},
                        "grid": {"re": [0.6, 0.9, 4], "eps": [1e-9], "fd_n": 32}}),
    # bounds that do not increase hit the winding cap or ran for minutes
    ("eig", lambda m: {"model": m, "region": [50.0, 0.5, -1.0, 1.0]}),
    ("eig", lambda m: {"model": m, "region": [0.5, 50.0, 0.0, 0.0]}),
    ("eig", lambda m: {"model": m, "region": [0.5, 50.0, 1.0, -1.0]}),
    ("scan", lambda m: {"model": {**m, "u": {**m["u"], "breaks": [0.0, 0.0, 1.0]}}}),
    ("scan", lambda m: {"model": {"type": "firstorder", "grid": {"length": -1.0, "n": 64}}}),
], ids=["scan-hainlust-no-q", "eig-hainlust-no-q", "alpha-zero", "re-two-elements",
        "friedrichs-real-pole", "firstorder-n4", "contour-negative-radius",
        "ex2-real-lam0", "fd-n-16", "check-leftover-tolerances", "eig-misspelt-region",
        "grid-misspelt-fd-n", "friedrichs-grid-fd-n", "grid-not-object",
        "contour-misspelt-center", "example-misspelt-lam0", "firstorder-grid-misspelt-n",
        "firstorder-misspelt-b", "hainlust-poly-extra-key", "eig-hainlust-extra-key",
        "friedrichs-pole-extra-key", "friedrichs-misspelt-b", "firstorder-re-nan",
        "firstorder-rhs-decay-inf", "firstorder-rhs-decay-zero",
        "firstorder-rhs-decay-negative", "friedrichs-eps-inf", "hainlust-re-minus-inf",
        "hainlust-re-count-inf", "hainlust-eps-nan", "ex1-b-nan", "ex3-b-nan",
        "ex2-lam0-nan", "contour-hidden-nan", "contour-hidden-1x0", "friedrichs-residue-nan",
        "friedrichs-residues-short", "friedrichs-orders-long", "friedrichs-orders-empty",
        "seed-negative", "seed-fraction", "re-count-fraction", "firstorder-n-fraction",
        "re-count-zero", "firstorder-eps-zero", "friedrichs-eps-zero", "hainlust-eps-zero",
        "check-triple-not-a-path",
        "hainlust-eps-empty", "friedrichs-eps-empty", "firstorder-eps-empty",
        "eig-hainlust-empty-piece", "scan-hainlust-empty-piece", "scan-hainlust-u-short",
        "eig-region-re-decreasing", "eig-region-im-flat", "eig-region-im-decreasing",
        "hainlust-breaks-repeated", "firstorder-length-negative"])
def test_malformed_config_exits_2(tmp_path, capsys, step_model_dict, command, make_config):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, make_config(step_model_dict))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _nan_entry(key):
    def edit(data, config):
        data[key][0][0][0] = NAN
    return edit


@pytest.mark.parametrize("command, edit, message", [
    ("check", _nan_entry("action_adj"), "field action_adj has a non-finite entry"),
    ("check", _nan_entry("action"), "field action has a non-finite entry"),
    ("eig", _nan_entry("action"), "field action has a non-finite entry"),
    ("contour", _nan_entry("action"), "field action has a non-finite entry"),
    ("check", lambda data, config: data.update(schema="triple-v2"),
     "unsupported schema 'triple-v2'"),
    ("check", lambda data, config: data["action"].pop(), "field action has wrong shape"),
    ("eig", lambda data, config: config.update(bparam=[[[0.0, 0.0], [0.0, 0.0]]]),
     r"bparam must be \(1, 1\), got \(1, 2\)"),
], ids=["check-action_adj", "check-action", "eig-action", "contour-action", "check-schema-v2",
        "check-action-row-dropped", "eig-bparam-1x2"])
def test_nonfinite_triple_file_exits_2(tmp_path, capsys, command, edit, message):
    # a NaN made the pairing test false (check passed) or raised LinAlgError; the
    # other triple-file refusals share the path
    data = triple_to_dict(random_triple(np.random.default_rng(4), state_dim=4, h=1, k=1))
    tf = tmp_path / "triple.json"
    config = {"model" if command == "eig" else "triple": str(tf)}
    edit(data, config)
    write_json(tf, data)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, config)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config: ") and err.count("\n") == 1
    assert re.search(message, err)


@pytest.mark.parametrize("content", [None, "{not json", b"\xff\xfe", "directory"],
                         ids=["missing", "malformed", "not-utf-8", "directory"])
@pytest.mark.parametrize("through", ["config", "model"])
def test_unreadable_file_exits_2(tmp_path, capsys, content, through):
    # bytes that are not UTF-8 raised UnicodeDecodeError with a traceback and exit 1
    bad = tmp_path / "bad.json"
    if content == "directory":
        bad.mkdir()
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    cfg = bad
    if through == "model":
        cfg = tmp_path / "cfg.json"
        write_json(cfg, {"model": str(bad), "region": [0.5, 15.0, -1.0, 1.0]})
    assert main(["eig", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read JSON file {bad}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--seed", "-1"], ["--tol", "inf"], ["--tol", "nan"],
                                   ["--tol", "-1"], ["--tol", "0"]],
                         ids=["seed-negative", "tol-inf", "tol-nan", "tol-negative", "tol-zero"])
def test_invalid_flag_exits_2(tmp_path, capsys, flags):
    # --tol inf passed every replaceable check; --seed -1 raised from default_rng
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"seed": 3})
    out = tmp_path / "r.json"
    assert main(["check", "--config", str(cfg), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_check_nan_residual_fails(tmp_path, monkeypatch):
    # max(0.0, nan) is 0.0: the old worst case dropped a NaN residual
    real, calls = triples.green_residual, []

    def nan_once(*args):
        calls.append(None)
        return NAN if len(calls) == 1 else real(*args)

    monkeypatch.setattr(triples, "green_residual", nan_once)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"seed": 3})
    out = tmp_path / "r.json"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["green"] and math.isnan(report["checks"][0]["residual"])
    # an infinite residual fails an expected-nonzero entry too
    assert not cli._check_entry("morera-full", "", INF, cli.CHECK_TOLERANCES,
                                expected_nonzero=True)["pass"]


# keys without a default, wherever they occur in a shipped config
REQUIRED_KEYS = {"model", "type", "q", "u", "w", "alpha", "beta", "phi", "psi", "poles",
                 "residues", "breaks", "coeffs", "region", "example"}
OTHER_TYPE = [None, True, "no-such-file.json", 2.5, [], {}]


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value).__name__


def _nodes(value, path=()):
    """(path, value) of every node of a JSON value, the root first."""
    yield path, value
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield from _nodes(sub, path + (key,))


def _replace(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replace(value[path[0]], path[1:], new)
    return copy


@st.composite
def violations(draw):
    """A shipped config's command and the config with one schema violation."""
    path = draw(st.sampled_from(sorted(CONFIGS.glob("*.json"))))
    config = json.loads(path.read_text())
    nodes = list(_nodes(config))
    numbers = [(p, v) for p, v in nodes if _json_type(v) == "number"]
    ints = [(p, v) for p, v in numbers if type(v) is int]  # counts and seeds
    mutations = {
        "unknown key": [(p, {**v, "unknown_key": 1}) for p, v in nodes if isinstance(v, dict)],
        "non-finite": [(p, x) for p, _ in numbers for x in (NAN, INF, -INF)],
        "fractional count": [(p, v + 0.5) for p, v in ints],
        "negative count": [(p, -v - 1) for p, v in ints],
        "wrong type": [(p, x) for p, v in nodes for x in OTHER_TYPE
                       if _json_type(x) != _json_type(v)],
        "dropped key": [(p, {k: x for k, x in v.items() if k != key})
                        for p, v in nodes if isinstance(v, dict) for key in v
                        if key in REQUIRED_KEYS],
    }
    kind = draw(st.sampled_from([k for k, cases in mutations.items() if cases]))
    where, new = draw(st.sampled_from(mutations[kind]))
    return path.stem.split("-")[0], _replace(config, where, new)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=violations())
def test_schema_violations_exit_2(case):
    command, config = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--out", f"{tmp}/out"])
        assert code == 2, config
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_eig_hainlust_region(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {
        "model": {"type": "hainlust",
                  "q": {"breaks": [0.0, 1.0], "coeffs": [[[0.0, 0.0]]]},
                  "u": {"breaks": [0.0, 1.0], "coeffs": [[[5.0, 0.0]]]},
                  "w": {"breaks": [0.0, 1.0], "coeffs": [[[0.0, 0.0]]]},
                  "alpha": np.pi / 2, "beta": np.pi / 2},
        "region": [0.5, 15.0, -1.0, 1.0],
    })
    out = tmp_path / "eig.json"
    assert main(["eig", "--config", str(cfg), "--out", str(out)]) == 0
    vals = json.loads(out.read_text())["eigenvalues"]
    assert len(vals) == 1
    assert abs(vals[0][0] - np.pi**2) < 1e-8


@pytest.mark.parametrize("region, message", [
    # the winding number counts the singular point 2 inside: it read 0 with the root 2.179
    ([1.5, 2.5, -0.3, 0.5], "search region within 1e-3 of the singular set"),
    # an edge through 2 that 16 samples per side missed by 0.006
    ([2.0, 3.0, -0.31, 0.5], "search region within 1e-3 of the singular set"),
    # 3 lies in the essential range of u but off the coupling support
    ([2.5, 3.0, -0.3, 0.5], "search-region boundary within 1e-3 of the essential range"),
], ids=["encloses-singular-point", "edge-through-singular-point", "edge-through-essran"])
def test_eig_hainlust_region_meeting_the_singular_set_exits_1(tmp_path, capsys, step_model_dict,
                                                              region, message):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"model": step_model_dict, "region": region})
    assert main(["eig", "--config", str(cfg), "--out", str(tmp_path / "eig.json")]) == 1
    assert capsys.readouterr().err == f"check failed: {message}\n"
    assert not (tmp_path / "eig.json").exists()


@pytest.mark.parametrize("region, found", [
    ([1.9, 2.1, 0.5, 1.0], []),  # above the singular point 2
    ([2.5, 3.5, -0.3, 0.5], []),  # around the uncoupled point 3
    ([2.05, 2.95, -0.4, 0.6], [2.178994560607486]),
    # taller than wide: a midpoint cut fell on Im = 0, through the eigenvalue
    ([2.05, 2.95, -0.5, 0.5], [2.178994560607486]),
], ids=["above-singular-point", "around-uncoupled-point", "next-to-singular-point",
        "symmetric-about-the-axis"])
def test_eig_hainlust_region_clear_of_the_singular_set(tmp_path, step_model_dict, region, found):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"model": step_model_dict, "region": region})
    out = tmp_path / "eig.json"
    assert main(["eig", "--config", str(cfg), "--out", str(out)]) == 0
    vals = json.loads(out.read_text())["eigenvalues"]
    assert len(vals) == len(found)
    for (re, im), z in zip(vals, found):
        assert abs(re - z) < 1e-10 and abs(im) < 1e-10


HL_COMMANDS = [("scan", {"grid": {"re": [1.5, 3.5, 5], "eps": [0.1], "fd_n": 32}}),
               ("eig", {"region": [1.5, 3.5, -0.3, 0.5]})]


@pytest.mark.parametrize("command, rest", HL_COMMANDS, ids=["scan", "eig"])
def test_hainlust_complex_u_exits_2(tmp_path, capsys, step_model_dict, command, rest):
    # the singular set is u's essential range, real intervals: a complex u is refused
    step_model_dict["u"]["coeffs"][0] = [[2.0, 0.1]]
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"model": step_model_dict, **rest})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: invalid config: u must have real coefficients\n"


def test_scan_hainlust_complex_q_and_w_still_scan(tmp_path, step_model_dict):
    step_model_dict["q"]["coeffs"][0] = [[0.5, 0.2]]
    step_model_dict["w"]["coeffs"][0] = [[1.0, -0.3]]
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"model": step_model_dict, **HL_COMMANDS[0][1]})
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 5


def test_contour_hidden_block_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"hidden": [[[25.0, 0.0]]],
                     "contour": {"center": [25.0, 0.0], "radius": 1.0, "nodes": 64}})
    out = tmp_path / "contour.json"
    assert main(["contour", "--config", str(cfg), "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["residual_bordered"] < 1e-8
    assert rec["residual_full"] > 0.1


def test_example_ex1_flags_filled_half_plane(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"example": "ex1", "B": [0.0, np.pi]})
    out = tmp_path / "ex1.json"
    assert main(["example", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["eigenvalue_filled_half_plane"] == "upper"
    assert rep["max_closed_form_deviation"] < 1e-9


def test_example_ex1_lower_half_plane_filled(tmp_path):
    # B = -i pi: only upper-half-plane points are compared with the closed form
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"example": "ex1", "B": [0.0, -np.pi]})
    out = tmp_path / "ex1.json"
    assert main(["example", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["eigenvalue_filled_half_plane"] == "lower"
    assert rep["points_checked"] == 44
    assert rep["max_closed_form_deviation"] < 1e-9


def test_example_ex2_lower_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"example": "ex2-lower"})
    out = tmp_path / "ex2.json"
    assert main(["example", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["eigen_residual"] < 1e-7
    assert rep["gamma1_abs"] < 1e-9
    assert rep["m_pole_residual"] < 1e-10


def test_example_ex2_upper_far_lam0_exits_1(tmp_path, capsys):
    # at lam0 = 1e15 i no scaling of phi zeroes the determinant
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"example": "ex2-upper", "lam0": [0.0, 1e15]})
    assert main(["example", "--config", str(cfg), "--out", str(tmp_path / "ex2.json")]) == 1
    assert capsys.readouterr().err == "check failed: determinant cannot be zeroed by scaling\n"
    assert not (tmp_path / "ex2.json").exists()


def test_example_ex3_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"example": "ex3"})
    out = tmp_path / "ex3.json"
    assert main(["example", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["eigen_residual"] < 1e-7
    assert "scaling" in rep and "m_jump" in rep


def test_example_unknown_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"example": "ex99"})
    assert main(["example", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2


def test_check_safe_point_draw_cap_exits_1(tmp_path, capsys, monkeypatch):
    # stands in for a triple whose spectra leave no point of [-4, 4]^2 at
    # distance > 0.3: the search for test points must stop, not loop forever
    monkeypatch.setattr(cli, "SAFE_POINT_MAX_DRAWS", 0)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"seed": 3})
    out = tmp_path / "r.json"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("check failed:") and "0 draws" in err[0]
    assert not out.exists()


def test_eig_singular_value_block_exits_1(tmp_path, capsys):
    # this bparam puts a zero-state vector into the domain; the restriction has
    # no state-space matrix, so eig must fail instead of printing a huge eigenvalue
    tr = random_triple(np.random.default_rng(3), 3, 1, 1)
    b = tr.bnd1[0, 3] / tr.bnd2[0, 3]
    triple_file = tmp_path / "triple.json"
    write_json(triple_file, triple_to_dict(tr))
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"model": str(triple_file), "bparam": [[[b.real, b.imag]]]})
    out = tmp_path / "eig.json"
    assert main(["eig", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("check failed:")
    assert not out.exists()


@pytest.mark.parametrize("seed, defect, passes", [(2, 0.0, True), (3, 1e-10, False)])
def test_check_green_is_a_backward_error(tmp_path, seed, defect, passes):
    # green divides the pairing residual by the size of its four pairings: a
    # state_dim 40 triple passes at 1e-12 (its absolute residual is 1.8e-12),
    # while action_adj scaled by 1 + 1e-10 still fails
    tr = random_triple(np.random.default_rng(seed), state_dim=40, h=2, k=2)
    tr = dataclasses.replace(tr, action_adj=tr.action_adj * (1.0 + defect))
    tf, cfg, out = tmp_path / "triple.json", tmp_path / "cfg.json", tmp_path / "r.json"
    write_json(tf, triple_to_dict(tr))
    write_json(cfg, {"triple": str(tf)})
    main(["check", "--config", str(cfg), "--out", str(out)])
    green = next(c for c in json.loads(out.read_text())["checks"] if c["name"] == "green")
    assert green["pass"] is passes and green["tolerance"] == 1e-12


@pytest.mark.parametrize("make", [
    lambda: random_triple(np.random.default_rng(0), 0, 0, 0),
    lambda: triples.make_triple(np.zeros((2, 2)), *[np.zeros((0, 2))] * 3),
], ids=["empty", "zero-action"])
def test_check_passes_a_triple_whose_green_scale_is_zero(tmp_path, make):
    # each pairing is bounded by its term of the green scale, so a scale of 0
    # forces a residual of 0: it is reported undivided, not as 0/0 = NaN
    tf, cfg, out = tmp_path / "triple.json", tmp_path / "cfg.json", tmp_path / "r.json"
    write_json(tf, triple_to_dict(make()))
    write_json(cfg, {"triple": str(tf)})
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
    green = next(c for c in json.loads(out.read_text())["checks"] if c["name"] == "green")
    assert green["residual"] == 0.0 and green["pass"] is True


def test_check_impossible_tolerance_exits_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"seed": 3})
    out = tmp_path / "r.json"
    code = main(["check", "--config", str(cfg), "--out", str(out), "--tol", "1e-30"])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["passed"] is False


def test_eig_corrupted_triple_exits_2(tmp_path):
    rng = np.random.default_rng(9)
    data = triple_to_dict(random_triple(rng, state_dim=4, h=1, k=1))
    data["action"][0][0][0] += 0.5
    tf = tmp_path / "triple.json"
    write_json(tf, data)
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"model": str(tf)})
    assert main(["eig", "--config", str(cfg), "--out", str(tmp_path / "e.json")]) == 2


def test_eig_triple_file(tmp_path):
    rng = np.random.default_rng(5)
    tr = random_triple(rng, state_dim=4, h=1, k=1)
    tf = tmp_path / "triple.json"
    write_json(tf, triple_to_dict(tr))
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"model": str(tf)})
    out = tmp_path / "eig.json"
    assert main(["eig", "--config", str(cfg), "--out", str(out)]) == 0
    vals = json.loads(out.read_text())["eigenvalues"]
    assert len(vals) == 4


def test_shipped_configs_run(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    jobs = [
        ("check", "check.json", "json"),
        ("scan", "scan-friedrichs-hardy.json", "csv"),
        ("scan", "scan-firstorder.json", "csv"),
        ("eig", "eig-free-neumann.json", "json"),
        ("contour", "contour-hidden.json", "json"),
        ("example", "example-ex2-lower.json", "json"),
        ("example", "example-ex2-upper.json", "json"),
    ]
    for i, (cmd, name, kind) in enumerate(jobs):
        out = tmp_path / f"out_{i}.{kind}"
        assert main([cmd, "--config", str(root / name), "--out", str(out)]) == 0, name
        assert out.stat().st_size > 0


def test_check_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"seed": 11})
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["check", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["check", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
