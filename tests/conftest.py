import threading

import pytest

from eelink import QosSpec, default_params


@pytest.fixture(scope="session")
def params():
    return default_params()


@pytest.fixture(scope="session")
def qos_1e4():
    return QosSpec(theta=1e-4)


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running which was not there at its
    start, such as a simulator worker that was never joined."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still running after the test: {left}")
