"""Engine behaviour only a fresh process shows: malloc's thresholds and BLAS worker threads.

Each probe runs in a child interpreter, which imports `cirtrain` from where this process
did and reads its environment (`OPENBLAS_NUM_THREADS`) before numpy loads.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cirtrain
from cirtrain import tensor as T


def _child(script: str, **env) -> str:
    """The stdout of `python -c script` in a child process with `env` added to this one's."""
    src = str(Path(cirtrain.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


HEAP_ROUNDS = """
import resource
import numpy as np
import cirtrain

def round_trip():
    arrays = [np.ones(100_000 // 8) for _ in range(20)]  # 20 arrays of 100 KB, then freed
    del arrays

round_trip()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    round_trip()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are set on glibc only")
def test_freed_heap_stays_in_the_process_on_glibc():
    # with glibc's default 128 KiB trim threshold each round hands its 2 MB back to the OS
    # and faults it in again (hundreds of minor faults a round)
    assert float(_child(HEAP_ROUNDS)) < 5
    assert T._keep_freed_heap()


@pytest.mark.parametrize("confstr", [None, "raise"], ids=["no_version", "refused"])
def test_no_threshold_is_set_off_glibc(confstr, monkeypatch):
    def fake_confstr(name):
        if confstr == "raise":
            raise ValueError(f"unrecognized configuration name {name!r}")
        return confstr

    loaded = []
    monkeypatch.setattr(os, "confstr", fake_confstr)
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: loaded.append(args))
    assert T._keep_freed_heap() is False
    assert loaded == []


THREADED_OVERFLOW = """
import numpy as np
from cirtrain import tensor as T

BIG = 1e200

def with_corner(shape, index):
    # ones, but BIG at `index`: the product meets BIG x BIG at its last output entry only
    data = np.ones(shape)
    data[index] = BIG
    return T.Tensor(data)

def matmul(m, k, n):
    return T.matmul(with_corner((m, k), (m - 1, 0)), with_corner((k, n), (0, n - 1)))

def attention():
    # only the value projection overflows; no later product or softmax raises a flag
    wk = np.ones((64, 256))
    wk[0] = 0.0
    return T.attention(T.Tensor(np.full((256, 64), 1e-3)), with_corner((256, 64), (255, 0)),
                       T.Tensor(np.full((64, 256), 1e-3)), T.Tensor(wk),
                       with_corner((64, 256), (0, 255)))

for name, case in [("at_bound", lambda: matmul(64, 64, 64)), ("matmul", lambda: matmul(256, 64, 256)),
                   ("attention", attention)]:
    try:
        with T.unchecked():
            case()
    except T.NonFiniteError as err:
        print(name, err.op)
    except FloatingPointError:
        print(name, "flag")
    else:
        print(name, "escaped")
"""


def test_unchecked_products_catch_an_overflow_in_a_blas_worker_thread():
    # on 2 BLAS threads the last output entry of a (256 x 64) @ (64 x 256) product is a
    # worker's, whose overflow raises no flag here; at m·n·k = 2^18 OpenBLAS stays on this
    # thread, so the errstate's own flag is raised
    assert _child(THREADED_OVERFLOW, OPENBLAS_NUM_THREADS="2").split("\n") == [
        "at_bound flag", "matmul matmul", "attention attention", ""]
    assert T.BLAS_SINGLE_THREAD_MNK == 64 * 64 * 64
