import math

import numpy as np
import pytest

from diqc import cli, pipeline
from diqc.experiment import NoiseModel
from diqc.pipeline import DomainError, certify_instrument, raw_pipeline_bound

# the default sweep-fig4 angles, the benchmark's 13 and the sweep-fig5 default
ANGLES = sorted({*map(float, np.linspace(0.05, np.pi / 4, 25)),
                 *map(float, np.linspace(0.05, np.pi / 4, 13)), cli.FIG5_THETA})


@pytest.fixture(scope="module")
def cert():
    # a cutoff record at theta = 0.6; the pipeline reads only theta and i_star
    return pipeline.LinearBoundCertificate(
        theta=0.6, family="new", i_star=0.85, grid_a=101, grid_b=101, refine_levels=2,
        worst_margin=0.0)


# the numpy expressions the math forms replaced, kept as oracles


def np_bob_ideal_angle(theta, kind):
    two = 2.0 * theta
    if kind == "new":
        s2, c2 = np.sin(two), np.cos(two)
        return float(np.arctan(np.sqrt((1.0 + 0.5 * c2 * c2) / (s2 * s2))))
    return float(np.arctan(1.0 / np.sin(two)))


def np_tilted_alpha(theta):
    if abs(theta - np.pi / 4) < 1e-12:
        return 0.0
    tan2 = np.tan(2 * theta)
    return float(2.0 / np.sqrt(1.0 + 2.0 * tan2 * tan2))


def np_local_bound_new(theta):
    c2, c4 = np.cos(2 * theta), np.cos(4 * theta)
    return float(0.25 * (c2 + (2.0 + c2) * np.sqrt((7.0 - c4) / (5.0 + c4))))


def np_tilted_local_bound(theta):
    alpha = np_tilted_alpha(theta)
    return float((2.0 + alpha) / np.sqrt(8.0 + 2.0 * alpha * alpha))


def np_bell_constants(theta, family):
    # bell.BellTerms' table constants as it computed them with numpy
    if family == "new" and np_tilted_alpha(theta) != 0.0:
        bt = np_bob_ideal_angle(theta, "new")
        sb, cb, s2, c2 = np.sin(bt), np.cos(bt), np.sin(2 * theta), np.cos(2 * theta)
        return [1.0 / (2.0 * sb), s2 / (2.0 * cb), c2 / 4.0, c2 / (4.0 * sb)]
    alpha = np_tilted_alpha(theta)
    norm = np.sqrt(8.0 + 2.0 * alpha * alpha)
    return [2.0 / norm, 2.0 / norm, alpha / norm, 0.0]


@pytest.mark.parametrize("theta", ANGLES)
def test_math_forms_match_numpy_bit_for_bit(theta):
    new, tilted = pipeline.BellKind("new", theta), pipeline.BellKind("tilted", theta)
    pairs = [(new.b_ideal, np_bob_ideal_angle(theta, "new")),
             (tilted.b_ideal, np_bob_ideal_angle(theta, "tilted")),
             (tilted.alpha, np_tilted_alpha(theta)),
             (new.local_bound, np_local_bound_new(theta)),
             (tilted.local_bound, np_tilted_local_bound(theta)),
             *zip(new.bell_constants, np_bell_constants(theta, "new")),
             *zip(tilted.bell_constants, np_bell_constants(theta, "tilted"))]
    assert [mine.hex() for mine, _ in pairs] == [float(oracle).hex() for _, oracle in pairs]


def _fig5_floor(family):
    lb = pipeline.BellKind(family, cli.FIG5_THETA).local_bound
    return lb - 0.05 * (1.0 - lb)


@pytest.mark.parametrize("start, stop, num", [
    (0.05, np.pi / 4, 25),
    (2.0, pipeline.CHSH_QUANTUM_BOUND, 50),
    (_fig5_floor("new"), 1.0, 50),
    (_fig5_floor("tilted"), 1.0, 50),
    (0.05, np.pi / 4, 1),
    (0.05, np.pi / 4, 2),
    (0.05, np.pi / 4, 7),
    (np.pi / 4, 0.05, 25),
])
def test_linspace_matches_numpy_bit_for_bit(start, stop, num):
    assert [x.hex() for x in cli._linspace(start, stop, num)] == \
        [float(x).hex() for x in np.linspace(start, stop, num)]


@pytest.mark.parametrize("name", ["beta", "i0", "i1", "p0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pipeline_names_a_non_finite_input(name, value, cert):
    args = dict(beta=2.7, i0=0.97, i1=0.96, p0=0.5) | {name: value}
    with pytest.raises(DomainError, match=f"^{name}="):
        certify_instrument(**args, theta=0.6, cert=cert)


def test_raw_pipeline_names_a_non_finite_violation(cert):
    with pytest.raises(DomainError, match="^i0=nan"):
        raw_pipeline_bound(2.7, math.nan, 0.6, cert)


@pytest.mark.parametrize("name", ["alice_angle_offset", "bob_angle_offset",
                                  "instrument_theta"])
def test_noise_model_names_a_non_finite_angle(name):
    with pytest.raises(DomainError, match=f"^{name}=nan"):
        NoiseModel(**{name: math.nan})



def test_pipeline_names_a_nan_theta(cert):
    with pytest.raises(DomainError, match="theta=nan"):
        certify_instrument(2.7, 0.97, 0.95, 0.45, math.nan, cert)
    with pytest.raises(DomainError, match="theta=nan"):
        raw_pipeline_bound(2.7, 0.97, math.nan, cert)


@pytest.mark.parametrize("args, name", [
    ((math.nan, 0.6, 0.9), "i"), ((0.95, math.nan, 0.9), "theta")])
def test_output_fidelity_bound_names_a_nan_input(args, name):
    with pytest.raises(DomainError, match=f"^{name}=nan"):
        pipeline.output_fidelity_bound(*args)


@pytest.mark.parametrize("theta", [5.0, -0.3, 0.0, 0.8])
def test_output_fidelity_bound_rejects_an_angle_outside_theta_range(theta):
    # no certificate exists outside THETA_RANGE, so no branch fidelity does
    with pytest.raises(DomainError, match=f"^theta={theta!r} outside"):
        pipeline.output_fidelity_bound(0.95, theta, 0.9)


@pytest.mark.parametrize("theta", pipeline.THETA_RANGE)
def test_output_fidelity_bound_takes_both_ends_of_theta_range(theta):
    assert math.cos(theta) <= pipeline.output_fidelity_bound(0.95, theta, 0.9) <= 1.0


def test_input_fidelity_bound_names_a_nan_beta():
    with pytest.raises(DomainError, match="^beta=nan"):
        pipeline.input_fidelity_bound(math.nan)
