import dataclasses

import numpy as np
import pytest

from diqc import certify, experiment, matrixcore, quantum
from diqc.experiment import (
    NoiseModel,
    cheating_run,
    end_to_end,
    noisy_instrument,
    noisy_source,
    oracle_choi_fidelity,
    simulate_run,
)
from diqc.quantum import phi_plus, projector

THETA = 0.6


@pytest.fixture(scope="module")
def cert():
    return certify.find_cutoff(THETA, "new", grid=(101, 101))


# ---- sources and instruments ----


def test_noisy_source_limits():
    assert np.allclose(noisy_source(1.0), projector(phi_plus()))
    assert np.allclose(noisy_source(0.0), np.eye(4) / 4)


def test_noisy_source_chsh_scales_with_visibility():
    stats = simulate_run(NoiseModel(visibility=0.9), THETA)
    assert stats.beta == pytest.approx(0.9 * 2 * np.sqrt(2), abs=1e-12)


def test_noisy_instrument_reduces_to_reference():
    clean = noisy_instrument(0.4, 0.0)
    ref = quantum.reference_instrument(0.4)
    for got, want in zip(clean.branches, ref.branches):
        assert len(got) == len(want) == 1
        assert np.allclose(got[0], want[0])


def test_noisy_instrument_completeness():
    rng = np.random.default_rng(3)
    for _ in range(10):
        theta_p = rng.uniform(0.0, np.pi / 4)
        eta = rng.uniform(0.0, 1.0)
        instr = noisy_instrument(theta_p, eta)  # constructor checks completeness
        total = sum(k.conj().T @ k for ops in instr.branches for k in ops)
        assert np.max(np.abs(total - np.eye(2))) < 1e-10


def test_noisy_instrument_identity_with_label():
    instr = noisy_instrument(np.pi / 4, 0.0)
    for (k,) in instr.branches:
        assert np.allclose(k, np.eye(2) / np.sqrt(2))


def test_noisy_instrument_multi_kraus_branches():
    instr = noisy_instrument(0.3, 0.2)
    assert all(len(ops) == 3 for ops in instr.branches)


# ---- the simulated recipe ----


def test_zero_noise_run_hits_ideal_statistics():
    stats = simulate_run(NoiseModel(), THETA)
    assert stats.beta == pytest.approx(2 * np.sqrt(2), abs=1e-9)
    assert stats.i0 == pytest.approx(1.0, abs=1e-9)
    assert stats.i1 == pytest.approx(1.0, abs=1e-9)
    assert stats.p0 == pytest.approx(0.5, abs=1e-9)


def test_simulate_run_is_deterministic():
    noise = NoiseModel(visibility=0.93, alice_angle_offset=0.02,
                       bob_angle_offset=-0.01, branch_depolarization=0.04)
    first = simulate_run(noise, THETA)
    second = simulate_run(noise, THETA)
    assert first == second


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(5):
        noise = NoiseModel(visibility=rng.uniform(0.8, 1.0),
                           branch_depolarization=rng.uniform(0, 0.3))
        reg = quantum.apply_instrument(
            noisy_instrument(THETA, noise.branch_depolarization),
            noisy_source(noise.visibility), "bob")
        assert sum(p for _, p, _ in reg.blocks) == pytest.approx(1.0, abs=1e-12)


def test_end_to_end_zero_noise(cert):
    fc = end_to_end(NoiseModel(), THETA, cert)
    assert fc.bound >= 1.0 - 1e-6


def test_end_to_end_monotone_in_noise(cert):
    base = end_to_end(NoiseModel(), THETA, cert).bound
    for noise in (NoiseModel(visibility=0.97),
                  NoiseModel(alice_angle_offset=0.03),
                  NoiseModel(bob_angle_offset=-0.03),
                  NoiseModel(instrument_theta=THETA + 0.03),
                  NoiseModel(branch_depolarization=0.05)):
        assert end_to_end(noise, THETA, cert).bound <= base + 1e-9


def test_simulate_run_takes_settings_at_the_ends_of_their_range():
    # offsets that move a setting onto 0 or pi/2, and instrument angles 0
    # and pi/4, are in range, as the observables and the instrument take them
    for noise in (NoiseModel(alice_angle_offset=np.pi / 4),
                  NoiseModel(alice_angle_offset=-np.pi / 4),
                  NoiseModel(bob_angle_offset=-np.pi / 4),
                  NoiseModel(instrument_theta=0.0),
                  NoiseModel(instrument_theta=np.pi / 4)):
        simulate_run(noise, THETA)
    with pytest.raises(quantum.DomainError, match=r"^alice_angle_offset=.* outside"):
        simulate_run(NoiseModel(alice_angle_offset=np.pi / 4 + 1e-9), THETA)


def test_end_to_end_rejects_tilted_cutoff(cert):
    # the simulated violations are of the symmetric inequality
    tilted = dataclasses.replace(cert, family="tilted")
    with pytest.raises(quantum.DomainError, match=r"'new'.*'tilted'"):
        end_to_end(NoiseModel(visibility=0.95), THETA, tilted)


def test_noise_sweep_decreasing(cert):
    bounds = [end_to_end(NoiseModel(visibility=v), THETA, cert).bound
              for v in (1.0, 0.98, 0.96, 0.94)]
    assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bounds, bounds[1:]))


# ---- oracle and soundness ----


def test_oracle_zero_noise():
    assert oracle_choi_fidelity(NoiseModel(), THETA) == pytest.approx(1.0, abs=1e-9)


def test_oracle_depolarized_below_one():
    assert oracle_choi_fidelity(NoiseModel(branch_depolarization=1.0), THETA) < 1.0 - 1e-3


def test_soundness_on_sampled_noise(cert):
    rng = np.random.default_rng(7)
    for _ in range(25):
        noise = NoiseModel(
            visibility=rng.uniform(0.9, 1.0),
            alice_angle_offset=rng.uniform(-0.05, 0.05),
            bob_angle_offset=rng.uniform(-0.05, 0.05),
            instrument_theta=THETA + rng.uniform(-0.05, 0.05),
            branch_depolarization=rng.uniform(0.0, 0.1))
        certified = end_to_end(noise, THETA, cert).bound
        assert certified <= oracle_choi_fidelity(noise, THETA) + 1e-6


def test_oracle_fidelity_matches_pure_target_form():
    # every reference block is pure, sigma = |psi><psi|, where the Uhlmann
    # fidelity is exactly sqrt(<psi|rho|psi>) with no matrix square root
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(200):
        theta = (0.3, 0.6, np.pi / 4)[k % 3]
        u = rng.uniform(size=4)
        theta_prime = theta - 0.05 + min(0.1, np.pi / 4 - theta + 0.05) * u[1]
        actual = quantum.apply_instrument(noisy_instrument(theta_prime, 0.1 * u[2]),
                                          noisy_source(0.9 + 0.1 * u[0]), side="bob")
        target = quantum.instrument_choi(quantum.reference_instrument(theta))
        for (_, _, rho), (_, _, sigma) in zip(actual.blocks, target.blocks):
            vals, vecs = np.linalg.eigh(sigma)
            assert vals[-1] == pytest.approx(1.0, abs=1e-12)
            psi = vecs[:, -1]
            exact = np.sqrt(np.vdot(psi, rho @ psi).real)
            worst = max(worst, abs(matrixcore.uhlmann_fidelity(rho, sigma) - exact))
    assert worst <= 1e-9


# ---- the no-go model ----


def test_cheating_run_fakes_step_two_only(cert):
    stats = cheating_run(THETA)
    assert stats.i0 == pytest.approx(1.0, abs=1e-9)
    assert stats.i1 == pytest.approx(1.0, abs=1e-9)
    assert stats.p0 == pytest.approx(0.5, abs=1e-9)
    assert stats.beta <= 2.0 + 1e-9
    fc = certify.certify_instrument(stats.beta, stats.i0, stats.i1, stats.p0,
                                    THETA, cert)
    assert fc.bound <= 1 / np.sqrt(2) + 1e-9


def test_cheating_beta_closed_form():
    # best label readout reaches 2 cos(2 theta) on the recipe's settings
    for theta in (0.2, 0.5, 0.7):
        assert cheating_run(theta).beta == pytest.approx(2 * np.cos(2 * theta), abs=1e-9)


def test_noise_model_validation():
    with pytest.raises(quantum.DomainError):
        NoiseModel(visibility=1.2)
    with pytest.raises(quantum.DomainError):
        NoiseModel(branch_depolarization=-0.1)


def test_run_statistics_validation():
    with pytest.raises(ValueError):
        experiment.RunStatistics(beta=3.0, i0=0.9, i1=0.9, p0=0.5)
    with pytest.raises(ValueError):
        experiment.RunStatistics(beta=2.0, i0=1.1, i1=0.9, p0=0.5)
