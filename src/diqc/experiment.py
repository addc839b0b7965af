"""Simulated noisy realization of the certification recipe.

The recipe has three steps: measure the CHSH value on the bare source
(step one), apply the instrument and measure the branch-resolved Bell
violations (step two), then feed all statistics into the pipeline (step
three). Here every statistic is an exact quantum expectation value; there is
no shot noise.

The noise family is chosen to exercise the generalities the certification
must cope with: an isotropic source (white noise), misaligned measurement
angles on both sides, a detuned instrument angle and depolarized branches,
which turn each outcome into a genuine multi-Kraus map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bell, certify, quantum
from .bell import CorrelatorTable
from .matrixcore import block_fidelity
from .pipeline import _ANGLE_SLACK, _check_range
from .quantum import DomainError, IDENTITY_2, SIGMA_X, SIGMA_Z


@dataclass(frozen=True)
class NoiseModel:
    """Imperfections of the simulated experiment.

    visibility mixes the source with white noise; the angle offsets shift
    every measurement setting of the respective party; instrument_theta
    detunes the instrument away from the target angle (None means on
    target); branch_depolarization splits each Kraus branch into three.
    """

    visibility: float = 1.0
    alice_angle_offset: float = 0.0
    bob_angle_offset: float = 0.0
    instrument_theta: float | None = None
    branch_depolarization: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alice_angle_offset", "bob_angle_offset", "instrument_theta"):
            angle = getattr(self, name)
            if angle is not None and not math.isfinite(angle):
                raise DomainError(f"{name}={float(angle)!r} is not a finite number")
        if self.instrument_theta is not None:
            _check_range(self.instrument_theta, 0.0, math.pi / 4, "instrument_theta")
        if not 0.0 <= self.visibility <= 1.0:
            raise DomainError(f"visibility {self.visibility} outside [0, 1]")
        if not 0.0 <= self.branch_depolarization <= 1.0:
            raise DomainError(
                f"branch_depolarization {self.branch_depolarization} outside [0, 1]")


@dataclass(frozen=True)
class RunStatistics:
    """Observed values of one simulated run."""

    beta: float
    i0: float
    i1: float
    p0: float

    def __post_init__(self) -> None:
        if self.beta > certify.CHSH_QUANTUM_BOUND + 1e-9:
            raise ValueError(f"beta {self.beta} exceeds the quantum bound")
        for name, v in (("i0", self.i0), ("i1", self.i1)):
            if v > 1.0 + 1e-9:
                raise ValueError(f"{name} {v} exceeds the quantum bound")
        if not -1e-12 <= self.p0 <= 1.0 + 1e-12:
            raise ValueError(f"p0 {self.p0} outside [0, 1]")


def noisy_source(v: float) -> np.ndarray:
    """Isotropic state v |phi+><phi+| + (1 - v) identity/4."""
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"visibility {v} outside [0, 1]")
    return (v * quantum.projector(quantum.phi_plus())
            + (1.0 - v) * np.eye(4, dtype=complex) / 4.0)


def noisy_instrument(theta_prime: float, eta: float) -> quantum.KrausInstrument:
    """Reference instrument with each branch partially depolarized.

    Branch l keeps sqrt(1 - eta) K_l and gains sqrt(eta/2) sigma_x K_l and
    sqrt(eta/2) sigma_z K_l; completeness survives exactly because the added
    conjugations are unitary. eta = 0 reproduces the reference instrument.
    """
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"eta {eta} outside [0, 1]")
    ref = quantum.reference_instrument(theta_prime)
    branches = []
    for (k,) in ref.branches:
        if eta == 0.0:
            branches.append((k,))
        else:
            branches.append((np.sqrt(1.0 - eta) * k,
                             np.sqrt(eta / 2.0) * SIGMA_X @ k,
                             np.sqrt(eta / 2.0) * SIGMA_Z @ k))
    return quantum.KrausInstrument(tuple(branches))


def _flip_second_bob_setting(t: CorrelatorTable) -> CorrelatorTable:
    # Bob relabels the outcomes of his second setting; in this observable
    # convention that is what lines up the CHSH combination with phi+.
    joint = t.joint.copy()
    joint[:, 1] *= -1.0
    mb = t.marginal_b.copy()
    mb[1] *= -1.0
    return CorrelatorTable(joint, t.marginal_a, mb)


def _shifted(setting: float, offset: float, name: str) -> float:
    """A measurement setting plus a party's offset, if it stays in [0, pi/2].

    Checks what ``quantum``'s observables check, with the same slack, but
    names the offset that moved the setting.
    """
    angle = setting + offset
    if not -_ANGLE_SLACK <= angle <= math.pi / 2 + _ANGLE_SLACK:
        raise DomainError(f"{name}={offset!r} moves a setting to {angle!r}, "
                          f"outside [0, {math.pi / 2:.6g}]")
    return angle


def simulate_run(noise: NoiseModel, theta: float) -> RunStatistics:
    """Exact statistics of the two-step recipe under a noise model.

    Step one measures CHSH on the source at the phi+ settings; step two
    applies the instrument to Bob's half and evaluates the symmetric
    inequality on branch 0 and its relabeled counterpart on branch 1, at
    the branch-test settings. All angles carry the party's offset; an
    offset that moves a setting out of [0, pi/2] is a DomainError naming it.
    """
    a1 = _shifted(np.pi / 4, noise.alice_angle_offset, "alice_angle_offset")
    b1 = _shifted(np.pi / 4, noise.bob_angle_offset, "bob_angle_offset")
    b2 = _shifted(quantum.ideal_settings(theta)[1], noise.bob_angle_offset, "bob_angle_offset")
    rho = noisy_source(noise.visibility)
    beta = bell.chsh_value(_flip_second_bob_setting(
        bell.correlators_from_state(rho, a1, b1)))

    theta_prime = theta if noise.instrument_theta is None else noise.instrument_theta
    instr = noisy_instrument(theta_prime, noise.branch_depolarization)
    register = quantum.apply_instrument(instr, rho)
    t0 = bell.correlators_from_state(register.state(0), a1, b2)
    t1 = bell.correlators_from_state(register.state(1), a1, b2)
    i0 = bell.new_bell_value(t0, theta)
    i1 = bell.new_bell_value(bell.relabel_branch1(t1), theta)
    return RunStatistics(beta=beta, i0=i0, i1=i1, p0=register.probability(0))


def check_simulated_family(family: str) -> None:
    """Reject a cutoff family other than ``new`` for simulated statistics.

    The simulated statistics are violations of the symmetric inequality, so
    only a cutoff of the ``new`` family may certify them.
    """
    if family != "new":
        raise DomainError(
            f"simulated runs measure the 'new' inequality; a {family!r} "
            f"cutoff cannot certify them")


def end_to_end(noise: NoiseModel, theta: float,
               cert: certify.LinearBoundCertificate) -> certify.FidelityCertificate:
    """Simulate a run and certify it with a ``new``-family cutoff."""
    check_simulated_family(cert.family)
    stats = simulate_run(noise, theta)
    return certify.certify_instrument(stats.beta, stats.i0, stats.i1, stats.p0,
                                      theta, cert)


def oracle_choi_fidelity(noise: NoiseModel, theta: float) -> float:
    """Register fidelity of the noisy run against the reference instrument.

    Applies the noisy instrument to the noisy source and compares with the
    reference Choi state, with the extraction maps fixed to the identity.
    The isotropic source is one-sided white noise on phi+, so this is the
    defining fidelity at one choice of maps, a lower bound on the true
    instrument fidelity, which maximizes over them. A certified bound at or
    below it is therefore sound for this device; one above it shows nothing
    by itself, since the true fidelity may lie higher still.
    """
    theta_prime = theta if noise.instrument_theta is None else noise.instrument_theta
    instr = noisy_instrument(theta_prime, noise.branch_depolarization)
    actual = quantum.apply_instrument(instr, noisy_source(noise.visibility))
    target = quantum.instrument_choi(quantum.reference_instrument(theta))
    return block_fidelity(actual, target)


# ---------------------------------------------------------------------------
# the no-go demonstration


def cheating_run(theta: float) -> RunStatistics:
    """Statistics of the label-readout cheat.

    The source emits (|phi0>|0> + |phi1>|1>)/sqrt(2), with the extra qubit
    held inside Bob's measurement device; the 'measurement' only reads that
    label out. Step two looks perfect: each branch appears with probability
    one half in exactly the target state. But Bob's step-one settings also
    only read the label, so the CHSH correlators admit a local model and
    beta stays at or below 2 (here the best readout gives 2 cos(2 theta)).
    The pipeline then certifies nothing beyond the trivial bound, which is
    why assessing the pre-measurement state is indispensable.
    """
    phi0 = quantum.partial_entangled_state(theta, 0)
    phi1 = quantum.partial_entangled_state(theta, 1)
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    # ordering: alice qubit (x) bob qubit (x) label qubit
    psi = (np.kron(phi0, ket0) + np.kron(phi1, ket1)) / np.sqrt(2.0)
    rho = quantum.projector(psi)

    # step two: project the label, hand the remaining qubit pair onward
    branch_states = []
    probs = []
    for ket in (ket0, ket1):
        k = np.kron(np.eye(4, dtype=complex), ket.conj().reshape(1, 2))
        out = k @ rho @ k.conj().T
        p = np.trace(out).real
        probs.append(p)
        branch_states.append(out / p)
    a2, b2 = quantum.ideal_settings(theta, "new")
    i0 = bell.new_bell_value(
        bell.correlators_from_state(branch_states[0], a2, b2), theta)
    i1 = bell.new_bell_value(bell.relabel_branch1(
        bell.correlators_from_state(branch_states[1], a2, b2)), theta)

    # step one: alice measures her qubit, bob's outputs are +-1 functions of
    # the label alone; maximize CHSH over the 16 readout assignments
    aa = [np.kron(np.kron(quantum.alice_observable(k, np.pi / 4), IDENTITY_2), IDENTITY_2)
          for k in (0, 1)]
    best = -np.inf
    for signs in np.ndindex(2, 2, 2, 2):
        g = 1.0 - 2.0 * np.array(signs, dtype=float)
        readout = [np.diag([g[2 * j], g[2 * j + 1]]).astype(complex) for j in (0, 1)]
        bb = [np.kron(np.eye(4, dtype=complex), r) for r in readout]
        joint = np.array([[np.trace(rho @ aa[k] @ bb[j]).real for j in (0, 1)]
                          for k in (0, 1)])
        best = max(best, joint[0, 0] + joint[0, 1] + joint[1, 0] - joint[1, 1])
    return RunStatistics(beta=float(best), i0=i0, i1=i1, p0=float(probs[0]))
