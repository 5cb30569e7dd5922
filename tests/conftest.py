"""Shared fixtures: the expensive objects (profiles, bubble ladder,
Robin reports) are session-scoped so the module suites and the
acceptance gate reuse one computation."""

import pytest

from mtcrit import (
    DomainModel,
    PerturbationFamily,
    asymptotic_data,
    ladder_reports,
    lambda_g_report,
    robin_report,
    solve_profile,
)
from mtcrit.profiles import profile_integrals


@pytest.fixture(scope="session")
def fam0():
    return PerturbationFamily()


@pytest.fixture(scope="session")
def data0(fam0):
    return asymptotic_data(fam0)


@pytest.fixture(scope="session")
def disk():
    return DomainModel()


@pytest.fixture(scope="session")
def profiles():
    return {i: solve_profile(i) for i in range(3)}


@pytest.fixture(scope="session")
def integrals(profiles):
    return profile_integrals(profiles)


@pytest.fixture(scope="session")
def robin0(disk, data0):
    return robin_report(disk, data0.F)


@pytest.fixture(scope="session")
def lambda_g0(fam0):
    return lambda_g_report(fam0)


@pytest.fixture(scope="session")
def ladder0(fam0, profiles):
    return ladder_reports(fam0, 1, [3.0, 4.0, 5.0], profiles=profiles)
