import math

import pytest

from billiards.profiles import AngleProfile, ellipse_profile
from billiards.supportfn import FourierTable, ellipse_support, table_from_profile


@pytest.fixture(scope="session")
def circle():
    return ellipse_support(1.0, 1.0)


@pytest.fixture(scope="session")
def ellipse21():
    return ellipse_support(2.0, 1.0)


@pytest.fixture(scope="session")
def ellipse21_profile():
    return ellipse_profile(2.0, 1.0)


@pytest.fixture(scope="session")
def mode6_profile():
    # a convex mode-6 admixture alongside the 0.1 mode-2; rho > 0 holds up
    # to the closed-form limit a* ~ 0.0246 (the benchmark and
    # reports/conjugate_scan_mode6.json are built on 0.02)
    return AngleProfile(((2, 0.1, 0.0), (6, 0.02, 0.0)))


@pytest.fixture(scope="session")
def mode6_table(mode6_profile):
    return table_from_profile(mode6_profile, 1.0)


@pytest.fixture(scope="session")
def profile_a_table():
    # a lone mode-2 of amplitude 0.1, the benchmark's profile-a table
    return table_from_profile(AngleProfile(((2, 0.1, 0.0),)), 1.0)


@pytest.fixture(scope="session")
def mode2_profile():
    return AngleProfile(((2, 0.2, 0.0),))


@pytest.fixture(scope="session")
def mode2_table(mode2_profile):
    return table_from_profile(mode2_profile, 1.0)


@pytest.fixture(scope="session")
def fourier_circle():
    return FourierTable(1.0)


@pytest.fixture(scope="session")
def profile_zoo():
    """Valid profiles (with radii) spanning modes 2, 6 and 10."""
    return [
        (ellipse_profile(2.0, 1.0), math.sqrt(5.0)),
        (AngleProfile(()), 1.0),
        (AngleProfile(((2, 0.1, 0.0),)), 1.0),
        (AngleProfile(((2, 0.05, 0.02),)), 2.0),
        (AngleProfile(((2, 0.1, 0.0), (6, 0.02, 0.0))), 1.0),
        (AngleProfile(((2, 0.05, 0.0), (10, 0.005, 0.0))), 1.0),
        (AngleProfile(((6, 0.02, 0.0),)), 1.5),
    ]
