import numpy as np
import pytest

from weylscope.friedrichs import PoleSum


@pytest.fixture
def solve_calls(monkeypatch):
    """Shapes of the matrices factorized by np.linalg.solve or np.linalg.inv while the test runs."""
    calls = []
    solve, inv = np.linalg.solve, np.linalg.inv

    def counting_solve(a, b):
        calls.append(np.shape(a))
        return solve(a, b)

    def counting_inv(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(np.linalg, "inv", counting_inv)
    return calls


@pytest.fixture
def polesum_mul_calls(monkeypatch):
    """Term counts of the two factors of every PoleSum product formed while the test runs."""
    calls = []
    mul = PoleSum.__mul__

    def counting(self, other):
        calls.append((len(self.terms), len(other.terms)))
        return mul(self, other)

    monkeypatch.setattr(PoleSum, "__mul__", counting)
    return calls
