import numpy as np
import pytest

from weylscope.friedrichs import PoleSum


@pytest.fixture
def solve_calls(monkeypatch):
    """Shapes of the matrices passed to np.linalg.solve while the test runs."""
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
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
