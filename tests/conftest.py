import json

import numpy as np
import pytest

from purespin.cli import main
from purespin.geometry import PinLift
from purespin.groups import GroupModel, coadjoint_semidirect_model, su2_model, su3_model


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)


@pytest.fixture(scope="session")
def su2():
    return su2_model()


@pytest.fixture(scope="session")
def su3():
    return su3_model()


@pytest.fixture(scope="session")
def semidirect():
    return coadjoint_semidirect_model()


@pytest.fixture(scope="session")
def su2_pin(su2):
    return PinLift(su2)


def torus3_model() -> GroupModel:
    """Three-torus of diagonal phases: the abelian control case."""
    basis = [1j * np.diag([float(k == i) for k in range(3)]) for i in range(3)]
    return GroupModel("torus3", basis, np.eye(3), liftable=True)


@pytest.fixture(scope="session")
def torus3():
    return torus3_model()


@pytest.fixture(scope="session")
def verify_all_run(tmp_path_factory):
    """Exit code and JSON report of one ``purespin verify-all --seed 7`` run.

    The twelve criteria are the slowest part of the suite; the acceptance
    tests and the CLI test assert on this one run.
    """
    path = tmp_path_factory.mktemp("verify-all") / "report.json"
    code = main(["verify-all", "--seed", "7", "--out", str(path)])
    return code, json.loads(path.read_text())
