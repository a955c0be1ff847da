import pytest

from isingspec import statevec


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Pin numpy's BLAS to one thread, as the CLI does, so in-process tests
    use the same arithmetic as the CLI subprocesses they are compared with."""
    statevec.pin_blas_threads()
