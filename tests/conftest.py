"""Test configuration: property tests draw the same examples on every run."""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def poison_empty(monkeypatch):
    """Call to make ``np.empty`` fill float arrays with -inf for the rest of the test.

    An entry that is read before it is set then changes a result
    deterministically, where uninitialized memory would change it only by
    chance.
    """
    empty = np.empty

    def filled(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind == "f":
            out.fill(-np.inf)
        return out

    return lambda: monkeypatch.setattr(np, "empty", filled)
