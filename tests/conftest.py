import numpy as np
import pytest

from diraclab import (PotentialMatrix, boundary_from_config, build_mesh,
                      make_potential, root_system)


@pytest.fixture(scope="session")
def mesh96():
    return build_mesh(96, order=5)


@pytest.fixture(scope="session")
def mesh128():
    return build_mesh(128, order=5)


@pytest.fixture(scope="session")
def dirichlet():
    return boundary_from_config("dirichlet_analog")


@pytest.fixture(scope="session")
def periodic():
    return boundary_from_config("periodic")


@pytest.fixture(scope="session")
def antiperiodic():
    return boundary_from_config("antiperiodic")


@pytest.fixture(scope="session")
def const_potential():
    return make_potential({"family": "constant_offdiag", "c": 0.3})


@pytest.fixture(scope="session")
def trig_potential():
    return make_potential({
        "family": "trig",
        "p2": [["sin", 1, [0.8, 0.1]], ["cos", 3, [0.2, 0.0]]],
        "p3": [["cos", 2, [0.5, 0.0]]],
    })


@pytest.fixture(scope="session")
def full_trig_potential():
    return make_potential({
        "family": "trig",
        "p1": [["cos", 1, [0.3, 0.05]]],
        "p2": [["sin", 1, [0.8, 0.1]]],
        "p3": [["cos", 2, [0.5, 0.0]]],
        "p4": [["sin", 2, [0.2, -0.1]]],
    })


@pytest.fixture(scope="session")
def rs_const_m8(const_potential, dirichlet, mesh96):
    return root_system(const_potential, dirichlet, 8, mesh96)


@pytest.fixture(scope="session")
def rs_free_m8(dirichlet, mesh96):
    return root_system(PotentialMatrix.zero(), dirichlet, 8, mesh96)


def random_regular_form(rng):
    from diraclab import BoundaryMatrixPair, is_regular
    while True:
        C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        D = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        bf = BoundaryMatrixPair(C, D)
        if is_regular(bf)[0]:
            return bf
