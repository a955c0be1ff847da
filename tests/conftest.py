import multiprocessing
import os

import pytest

from isingspec import statevec

# the platform's own, even while a test replaces os.sched_getaffinity
_affinity = getattr(os, "sched_getaffinity", lambda pid: None)


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Pin numpy's BLAS to one thread, as the CLI does, so in-process tests
    use the same arithmetic as the CLI subprocesses they are compared with."""
    statevec.pin_blas_threads()


@pytest.fixture(autouse=True)
def blas_threads_and_affinity_kept():
    """Fail a test that leaves numpy's BLAS thread count or this process's
    CPU affinity changed, or a child process alive: the fork helper must
    give both back and join every child before its call ends."""
    before = statevec.blas_threads(), _affinity(0)
    yield
    after = statevec.blas_threads(), _affinity(0)
    assert after == before, f"BLAS threads and CPU affinity {before} became {after}"
    assert multiprocessing.active_children() == []


@pytest.fixture
def two_blas_threads():
    """numpy's BLAS on two threads in the test, as a Python API caller has
    it on two CPUs; the session's one thread after."""
    statevec.pin_blas_threads(threads=2)
    if statevec.blas_threads() != 2:
        statevec.pin_blas_threads()
        pytest.skip("numpy's OpenBLAS does not run two threads here")
    yield
    statevec.pin_blas_threads()
