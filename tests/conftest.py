import pytest

from speccat import ALL_MONOS, MonoFamily, stable_essential_family
from speccat import registry


@pytest.fixture(scope="session")
def S_all():
    return MonoFamily(ALL_MONOS)


@pytest.fixture(scope="session")
def s3():
    return registry.s3()


@pytest.fixture(scope="session")
def s3_universe():
    return registry.universe("s3-subgroups")


@pytest.fixture(scope="session")
def z4_universe():
    return registry.universe("z4-chain")


@pytest.fixture(scope="session")
def se_family_grp(S_all, s3_universe):
    return stable_essential_family(S_all, s3_universe)


@pytest.fixture(scope="session")
def se_family_ab(S_all, z4_universe):
    return stable_essential_family(S_all, z4_universe)


@pytest.fixture(scope="session")
def s3_named():
    return registry.s3_named_subobjects()
