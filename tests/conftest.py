import pytest

from soficlab.groups import build_hom_specs
from soficlab.sofic import build_sigma, build_tilde_sigma


@pytest.fixture(scope="session")
def family7():
    return build_hom_specs(7, 5, 3)


@pytest.fixture(scope="session")
def sigma7(family7):
    return build_sigma(7, 5, 3, family=family7)


@pytest.fixture(scope="session")
def tilde7(sigma7):
    return build_tilde_sigma(sigma7)
