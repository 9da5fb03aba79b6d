"""fork_map's hold on the BLAS thread pool of the numpy it runs under."""

from __future__ import annotations

import ctypes
import logging
import os
import subprocess
import sys

import pytest
from conftest import REPO
from numpy._core import _multiarray_umath

from slvrate import parallel

# numpy imported before slvrate, so OPENBLAS_NUM_THREADS cannot reach the
# pool; it is set to 2 whatever the core count, read in every item (items 0
# and 2 run in the parent's share, 1 and 3 in the forked child's) and read
# again once the child is reaped
NUMPY_FIRST = """
import ctypes
import numpy
from numpy._core import _multiarray_umath

blas = ctypes.CDLL(_multiarray_umath.__file__)
blas.scipy_openblas_set_num_threads64_(2)
from slvrate.parallel import fork_map

print(fork_map(lambda i: blas.scipy_openblas_get_num_threads64_(), 4, 2))
print(blas.scipy_openblas_get_num_threads64_())
"""


def _bundles_scipy_openblas() -> bool:
    return hasattr(ctypes.CDLL(_multiarray_umath.__file__), "scipy_openblas_set_num_threads64_")


@pytest.mark.skipif(not _bundles_scipy_openblas(), reason="numpy bundles no scipy-openblas")
def test_forked_items_run_on_one_blas_thread_when_numpy_was_imported_first():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(REPO / "src") + (os.pathsep + path if path else "")
    proc = subprocess.run([sys.executable, "-c", NUMPY_FIRST], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[1, 1, 1, 1]", "2"]
    assert proc.stderr == ""


def test_a_blas_without_the_thread_calls_is_named_in_one_warning_per_process(monkeypatch, caplog):
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    parallel._openblas_pool.cache_clear()
    try:
        with caplog.at_level(logging.WARNING, logger="slvrate.parallel"):
            for _ in range(2):
                assert parallel.fork_map(lambda i: i * i, 3, 2) == [0, 1, 4]
    finally:
        parallel._openblas_pool.cache_clear()
    assert len(caplog.records) == 1
    assert "scipy_openblas_get_num_threads64_" in caplog.records[0].getMessage()
