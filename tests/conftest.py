import numpy as np
import pytest


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
