import pytest

import lcdisc


@pytest.fixture(scope="session")
def gauss_profile():
    return lcdisc.make_profile(lcdisc.GaussianFamily(k0=5.0, sigma=1.0))


@pytest.fixture(scope="session")
def gauss_d3():
    return lcdisc.make_profile(lcdisc.GaussianFamily(k0=5.0, sigma=1.0),
                               offset_d=3.0)


@pytest.fixture(scope="session")
def gauss_d10():
    return lcdisc.make_profile(lcdisc.GaussianFamily(k0=5.0, sigma=1.0),
                               offset_d=10.0)


@pytest.fixture(scope="session")
def expo_profile():
    return lcdisc.make_profile(lcdisc.ExponentialFamily(kappa=2.0))

