import time

import numpy as np
import pytest
from hypothesis import settings

from diqc import bell, certify, quantum

# drawn examples are the same on every run, no example database is written,
# and a slow example on a loaded host is not a failure
settings.register_profile("diqc", derandomize=True, deadline=None, database=None)
settings.load_profile("diqc")

# rotation by pi around the x axis, exp(i pi/2 sigma_x) = i sigma_x; the
# relabelled branch-1 test is defined through it
ROT_X_PI = 1j * quantum.SIGMA_X


class _CutoffSolver:
    """Session-wide memo so acceptance and module tests share solver runs."""

    def __init__(self):
        self.memo = {}

    def _key(self, theta, family, grid):
        return (round(float(theta), 15), family, grid)

    def get(self, theta, family="new", grid=(201, 201)):
        key = self._key(theta, family, grid)
        if key not in self.memo:
            start = time.perf_counter()
            cert = certify.find_cutoff(theta, family, grid=grid)
            self.memo[key] = (cert, time.perf_counter() - start)
        return self.memo[key][0]

    def elapsed(self, theta, family="new", grid=(201, 201)):
        self.get(theta, family, grid)
        return self.memo[self._key(theta, family, grid)][1]


@pytest.fixture(scope="session")
def cutoffs():
    return _CutoffSolver()


def _branch1_bell_operator(theta, family, a, b):
    # the relabelled (primed) branch-1 test at the operator level:
    # (R x R) B(pi/2 - a, b) (R x R)^dag with R the pi rotation about x
    rr = np.kron(ROT_X_PI, ROT_X_PI)
    single = bell.new_bell_operator if family == "new" else bell.tilted_operator
    return rr @ single(theta, np.pi / 2 - a, b) @ rr.conj().T


def _branch1_margin(theta, family, i_star, a, b):
    # smallest eigenvalue of branch 1's bound operator at one angle pair,
    # built from the physical definition: the public channels applied to
    # the branch-1 target, less the relabelled Bell operator
    s, mu = certify.slope_and_intercept(theta, i_star)
    target = quantum.projector(quantum.partial_entangled_state(theta, 1))
    twirled = quantum.apply_one_sided(quantum.dephasing_alice(a), target, "alice")
    twirled = quantum.apply_one_sided(quantum.dephasing_bob(b, theta, family), twirled, "bob")
    m = twirled - s * _branch1_bell_operator(theta, family, a, b) - mu * np.eye(4)
    return float(np.linalg.eigvalsh(m)[0])


@pytest.fixture(scope="session")
def branch1_bell_operator():
    return _branch1_bell_operator


@pytest.fixture(scope="session")
def branch1_margin():
    return _branch1_margin
