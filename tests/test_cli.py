import json

import numpy as np
import pytest

from weylscope.cli import main
from weylscope.triples import random_triple, triple_to_dict


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
], ids=["scan-hainlust-no-q", "eig-hainlust-no-q", "alpha-zero", "re-two-elements",
        "friedrichs-real-pole", "firstorder-n4", "contour-negative-radius",
        "ex2-real-lam0", "fd-n-16"])
def test_malformed_config_exits_2(tmp_path, capsys, step_model_dict, command, make_config):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, make_config(step_model_dict))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_example_ex2_lower_report(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_json(cfg, {"example": "ex2-lower"})
    out = tmp_path / "ex2.json"
    assert main(["example", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["eigen_residual"] < 1e-7
    assert rep["gamma1_abs"] < 1e-9
    assert rep["m_pole_residual"] < 1e-10


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
