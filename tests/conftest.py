import pytest
from hypothesis import settings

from graphstab import build_chi00, build_graph_state
from graphstab import verify

settings.register_profile("default", deadline=None, max_examples=60)
settings.load_profile("default")


@pytest.fixture(scope="session")
def chi():
    return build_chi00()


@pytest.fixture(scope="session")
def graph_a():
    return verify.graph_a()


@pytest.fixture(scope="session")
def graph_b():
    return verify.graph_b()


@pytest.fixture(scope="session")
def state_a(graph_a):
    return build_graph_state(graph_a)


@pytest.fixture(scope="session")
def state_b(graph_b):
    return build_graph_state(graph_b)


@pytest.fixture(scope="session")
def u_chi():
    return verify.chi00_unitary()


@pytest.fixture(scope="session")
def k_set():
    return verify.plain_generators()


@pytest.fixture(scope="session")
def kbar_set():
    return verify.conjugated_generators()
