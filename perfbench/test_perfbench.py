"""Tests of the benchmark itself.  Run with `python3 -m pytest perfbench`."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_embedded_configs_match_shipped():
    shipped = ROOT / "configs"
    assert json.loads((shipped / "eig-free-neumann.json").read_text()) == workloads.FREE_NEUMANN
    assert json.loads((shipped / "scan-hainlust-step.json").read_text()) == workloads.STEP_SCAN


def test_wrappers_cover_direct_imports_and_are_removed():
    ws = run.load_weylscope()
    sites = [(ws.cli, "matrix_norm2"), (ws.detect, "resolvent_matrices"),
             (ws.detect, "solution_basis"), (ws.detect, "extension_eigenvalues"),
             (ws.detect, "contour_integral"), (ws.detect, "orthonormal_basis"),
             (ws.friedrichs.PoleSum, "__mul__"), (ws.hainlust, "shoot")]
    tracer = spans.Tracer()
    with tracer.installed(ws):
        assert all(hasattr(getattr(owner, name), "__wrapped__") for owner, name in sites)
    assert not any(hasattr(getattr(owner, name), "__wrapped__") for owner, name in sites)


def test_free_neumann_shoot_count_and_identical_reports(tmp_path):
    ws = run.load_weylscope()
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    invocations = run.generate_inputs("hainlust", 1, ws, str(inputs))
    free = [inv for inv in invocations if inv.label == "eig-free-neumann"]
    plain = run.run_rep(ws, free, str(inputs), str(out))
    tracer = spans.Tracer()
    with tracer.installed(ws):
        tracer.begin_rep()
        traced = run.run_rep(ws, free, str(inputs), str(out), traced=True)
    assert plain.codes == traced.codes == [0]
    assert plain.outputs == traced.outputs
    assert not free[0].verify(plain.outputs[0], 0).problems
    assert spans.rep_counts(tracer.reps[0])["hainlust.shoot.calls"] == 413


def test_busy_counts_outermost_spans_and_self_time_subtracts_children():
    # [name, parent, start, end]: main(0..10) > a(1..5) > a(2..3); main > b(6..8)
    rep = [["cli.main", -1, 0.0, 10.0], ["x.a", 0, 1.0, 5.0], ["x.a", 1, 2.0, 3.0],
           ["x.b", 0, 6.0, 8.0]]
    assert spans._busy(rep, ["x.a"]) == 4.0
    assert spans._busy(rep, ["x.a", "x.b"]) == 6.0
    assert spans._self_time(rep, "cli.main") == 4.0
    assert spans._invocation_index(rep + [["cli.main", -1, 11.0, 12.0]]) == [0, 0, 0, 0, 1]
    assert spans._count_within(rep, "x.a", "x.a") == 1
    assert spans._count_within(rep, "x.b", "cli.main") == 1
