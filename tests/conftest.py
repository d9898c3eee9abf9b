import time

import pytest

from cirtrain.train import run_gradient_check


@pytest.fixture(scope="session")
def gradient_sweep():
    """One full finite-difference sweep at the pinned geometry: (rows, seconds taken).

    The sweep is the slowest deterministic computation in the suite, so every
    test that reads its report shares this one run.
    """
    started = time.time()
    rows = run_gradient_check()
    return rows, time.time() - started
