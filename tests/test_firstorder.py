import csv
import json
import pathlib

import numpy as np
import pytest

from weylscope.cli import main
from weylscope.errors import WeylScopeError
from weylscope.firstorder import (
    _BLOCK,
    SCAN_HEADER,
    FOModel,
    HalfLineGrid,
    density_residual,
    m_value,
    resolvent,
    scan_rows,
)


@pytest.fixture
def model():
    return FOModel(grid=HalfLineGrid(length=40.0, n=4096))


def test_m_identically_zero(model):
    for lam in (1 + 1j, -5j, 0.3 - 0.7j, 100.0 + 0.001j):
        assert m_value(model, lam) == 0.0


def test_resolvent_zero_rhs(model):
    f = resolvent(model, -1j, np.zeros(model.grid.n))
    assert np.linalg.norm(f) == 0.0


def test_resolvent_boundary_value_exact(model):
    g = np.exp(-model.grid.nodes)
    f = resolvent(model, -0.5 - 1j, g)
    assert f[0] == 0.0


def test_resolvent_closed_form_generic():
    # g = e^{-x}, lam = -2i: f = -i (e^{-x} - e^{-i lam x}) / (i lam - 1);
    # the larger |lam| needs a finer grid for the same pointwise accuracy
    m = FOModel(grid=HalfLineGrid(length=40.0, n=8192))
    x = m.grid.nodes
    lam = -2j
    f = resolvent(m, lam, np.exp(-x))
    exact = -1j * (np.exp(-x) - np.exp(-1j * lam * x)) / (1j * lam - 1.0)
    assert np.max(np.abs(f - exact)) < 1e-6


def test_resolvent_closed_form_degenerate(model):
    # at lam = -i the generic antiderivative degenerates to f = -i x e^{-x}
    x = model.grid.nodes
    f = resolvent(model, -1j, np.exp(-x))
    exact = -1j * x * np.exp(-x)
    assert np.max(np.abs(f - exact)) < 1e-6


def test_resolvent_ode_residual_second_order(model):
    # centered-difference residual of i f' - lam f = g shrinks like h^2
    lam = -0.3 - 0.8j
    errs = []
    for n in (512, 1024, 2048):
        grid = HalfLineGrid(length=20.0, n=n)
        m = FOModel(grid=grid)
        x = grid.nodes
        g = np.exp(-x) * np.sin(x)
        f = resolvent(m, lam, g)
        h = x[1] - x[0]
        df = (f[2:] - f[:-2]) / (2 * h)
        resid = 1j * df - lam * f[1:-1] - g[1:-1]
        errs.append(np.max(np.abs(resid)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_resolvent_linearity(model):
    lam = -1.0 - 0.5j
    g = np.cos(model.grid.nodes) * np.exp(-0.2 * model.grid.nodes)
    f1 = resolvent(model, lam, g)
    f2 = resolvent(model, lam, 2.0 * g)
    np.testing.assert_allclose(f2, 2.0 * f1, atol=1e-14)


def _stepped_resolvent(model, lam, g):
    """The trapezoid recursion stepped one complex scalar at a time."""
    g = np.asarray(g, dtype=complex)
    n = model.grid.n
    h = model.grid.length / (n - 1)
    prop = np.exp(-1j * lam * h)
    half = -1j * h / 2.0
    f = np.zeros(n, dtype=complex)
    for j in range(n - 1):
        f[j + 1] = prop * f[j] + half * (prop * g[j] + g[j + 1])
    return f


@pytest.mark.parametrize("n", [4096, 2 * _BLOCK + 3])
@pytest.mark.parametrize("lam", [-1j, 0.3 - 0.7j, 5.0 - 0.01j, -3.0 - 40j, 2.0 - 1e-9j])
def test_resolvent_bit_identical_to_stepped_recursion(n, lam):
    # near the axis (|prop| ~ 1) and deep in the lower half plane (prop ~ 0);
    # the odd n spans two full blocks of local terms and a partial one
    model = FOModel(grid=HalfLineGrid(length=40.0, n=n))
    x = model.grid.nodes
    rng = np.random.default_rng(n)
    for g in (np.exp(-x), np.exp((-0.5 + 2j) * x),
              rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        assert np.array_equal(resolvent(model, lam, g), _stepped_resolvent(model, lam, g))


def test_resolvent_rejects_upper_half_plane(model):
    with pytest.raises(WeylScopeError, match=r"resolvent undefined for Im\(lam\) = 1.0 >= 0"):
        resolvent(model, 1j, np.zeros(model.grid.n))
    with pytest.raises(WeylScopeError, match=r"resolvent undefined for Im\(lam\) = 0.0 >= 0"):
        resolvent(model, 1.0, np.zeros(model.grid.n))


def test_resolvent_rejects_g_off_the_grid(model):
    with pytest.raises(ValueError, match="g must be sampled on the 4096-point grid"):
        resolvent(model, -1j, np.zeros(model.grid.n - 1))


def test_density_member_of_span(model):
    mu = -0.4 - 0.9j
    f = np.exp(-1j * mu * model.grid.nodes)
    assert density_residual(model, f, [mu, -0.3j - 1.0]) < 1e-10


def test_density_real_exponential_coincidence(model):
    # exp(-i(-i)x) = exp(-x): the decaying exponential is already in the span
    f = np.exp(-model.grid.nodes)
    assert density_residual(model, f, [-1j]) < 1e-10


def test_density_monotone_decrease(model):
    x = model.grid.nodes
    f = x * np.exp(-x)
    residuals = []
    for count in (2, 6, 10, 14, 18, 22, 26, 30):
        mus = [-1j * t for t in np.linspace(0.25, 3.0, count)]
        residuals.append(density_residual(model, f, mus))
    assert all(a >= b - 1e-12 for a, b in zip(residuals, residuals[1:]))
    assert residuals[0] > residuals[-1]
    assert residuals[-1] < 1e-3


def test_density_rejects_bad_mu(model):
    with pytest.raises(WeylScopeError, match="sample 0.5j not in the open lower half plane"):
        density_residual(model, np.exp(-model.grid.nodes), [0.5j])


def _scan_norms(model, path, g):
    """The resolvent_norm column of scan_rows."""
    col = SCAN_HEADER.index("resolvent_norm")
    return [row[col] for row in scan_rows(model, path, g)]


def test_blowup_scan_growth():
    grid = HalfLineGrid(length=4096.0, n=65536)
    model = FOModel(grid=grid)
    g = np.exp(-0.05 * grid.nodes)
    path = [0.0 - 1j * 2.0 ** (-j) for j in range(1, 13)]
    norms = _scan_norms(model, path, g)
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert norms[-1] / norms[0] > 1e2


def test_blowup_scan_plain_exponential_strictly_grows():
    # with g = e^{-x} the norms grow without bound but the 12-step ratio
    # saturates near 55 (the 1/sqrt(2 Im lam) rate), short of 100
    grid = HalfLineGrid(length=16384.0, n=65536)
    model = FOModel(grid=grid)
    g = np.exp(-grid.nodes)
    path = [0.0 - 1j * 2.0 ** (-j) for j in range(1, 13)]
    norms = _scan_norms(model, path, g)
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert norms[-1] / norms[0] > 30.0


def test_blowup_scan_zero_rhs(model):
    path = [-1j * 2.0 ** (-j) for j in range(1, 6)]
    for lam in path:
        assert model.grid.norm(resolvent(model, lam, np.zeros(model.grid.n))) == 0.0


def test_bounded_path_norm_estimate(model):
    # away from the real axis the symmetric-operator bound |R g| <= |g|/|Im lam|
    # holds and is sharp within a factor 10 on this path
    g = np.exp(-model.grid.nodes)
    gnorm = model.grid.norm(g)
    for eta in (0.3, 0.5, 1.0, 2.0):
        nrm = model.grid.norm(resolvent(model, -1j * eta, g))
        bound = gnorm / eta
        assert nrm <= bound * (1.0 + 1e-6)
        assert nrm >= bound / 10.0


def test_scan_rows_shape(model):
    rows = scan_rows(model, [-1j, -0.5 - 0.5j], np.exp(-model.grid.nodes))
    assert len(rows) == 2 and len(rows[0]) == 5
    assert rows[0][3] == 0.0 and rows[0][4] == 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="FOUND, ROADMAP item 13: the scan reports the trapezoid norm on "
                          "[0, 40], not the half-line norm")
def test_shipped_scan_reports_the_half_line_norm(tmp_path):
    # through the command and its shipped config, so the test outlives a new resolvent API
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "scan-firstorder.json"
    out = tmp_path / "scan.csv"
    assert main(["scan", "--config", str(config), "--out", str(out)]) == 0
    a = json.loads(config.read_text())["grid"]["rhs_decay"]
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    for row in rows:
        x0, eps = float(row["re_lambda"]), -float(row["im_lambda"])
        exact = np.sqrt((a + eps) / (2 * a * eps)) / abs(complex(a + eps, x0))
        assert float(row["resolvent_norm"]) == pytest.approx(exact, rel=1e-3)
