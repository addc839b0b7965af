import numpy as np
import pytest
from conftest import ROT_X_PI

from diqc import quantum
from diqc.matrixcore import kron
from diqc.quantum import (
    BellKind,
    DomainError,
    H_OBS,
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    V_OBS,
    alice_observable,
    apply_instrument,
    apply_one_sided,
    bob_observable,
    dephasing_alice,
    dephasing_bob,
    dephasing_profile,
    ideal_settings,
    instrument_choi,
    partial_entangled_state,
    partial_trace,
    phi_plus,
    projector,
    reference_instrument,
)


def random_density(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---- states ----


def test_partial_state_maximally_entangled():
    assert np.allclose(partial_entangled_state(np.pi / 4, 0), phi_plus())


def test_partial_state_branches_flip_related():
    theta = 0.3
    flip = kron(SIGMA_X, SIGMA_X)
    assert np.allclose(flip @ partial_entangled_state(theta, 0),
                       partial_entangled_state(theta, 1))


def test_partial_state_overlap():
    for theta in (0.05, 0.2, 0.6, np.pi / 4):
        ov = np.vdot(partial_entangled_state(theta, 0), partial_entangled_state(theta, 1))
        assert abs(ov - np.sin(2 * theta)) < 1e-12


def test_partial_state_domain():
    with pytest.raises(DomainError):
        partial_entangled_state(0.01)
    with pytest.raises(DomainError):
        partial_entangled_state(0.3, branch=2)


# ---- observables ----


def test_alice_observable_at_quarter_pi():
    assert np.allclose(alice_observable(0, np.pi / 4), SIGMA_Z)
    assert np.allclose(alice_observable(1, np.pi / 4), SIGMA_X)


def test_observables_are_binary():
    rng = np.random.default_rng(2)
    for _ in range(20):
        angle = rng.uniform(0, np.pi / 2)
        for op in (alice_observable(0, angle), alice_observable(1, angle),
                   bob_observable(0, angle), bob_observable(1, angle)):
            assert np.max(np.abs(op - op.conj().T)) < 1e-12
            vals = np.linalg.eigvalsh(op)
            assert np.allclose(sorted(vals), [-1.0, 1.0], atol=1e-10)
            assert abs(abs(np.linalg.det(op)) - 1.0) < 1e-10


def test_ideal_settings():
    a, b = ideal_settings(np.pi / 4)
    assert abs(a - np.pi / 4) < 1e-12
    assert abs(b - np.pi / 4) < 1e-12
    # H + V is sqrt(2) sigma_z
    assert np.allclose((H_OBS + V_OBS) / np.sqrt(2), SIGMA_Z)


def test_bob_ideal_angle_tilted_limit():
    assert abs(BellKind.tilted(np.pi / 4).b_ideal - np.pi / 4) < 1e-12
    # moves toward pi/2 as the state becomes less entangled
    assert BellKind.tilted(0.1).b_ideal > BellKind.tilted(0.6).b_ideal


# ---- instruments ----


def test_reference_instrument_projective_limit():
    instr = reference_instrument(0.0)
    assert np.allclose(instr.branches[0][0], np.diag([1.0, 0.0]))
    assert np.allclose(instr.branches[1][0], np.diag([0.0, 1.0]))


def test_reference_instrument_identity_limit():
    instr = reference_instrument(np.pi / 4)
    for (k,) in instr.branches:
        assert np.allclose(k, IDENTITY_2 / np.sqrt(2))


def test_reference_instrument_complete():
    for theta in (0.0, 0.2, 0.5, np.pi / 4):
        instr = reference_instrument(theta)
        total = sum(k.conj().T @ k for ops in instr.branches for k in ops)
        assert np.max(np.abs(total - IDENTITY_2)) < 1e-15


def test_instrument_requires_completeness():
    half = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="complete"):
        quantum.KrausInstrument(((half,),))


def test_apply_instrument_on_phi_plus():
    theta = 0.4
    reg = apply_instrument(reference_instrument(theta), projector(phi_plus()), "bob")
    assert abs(reg.probability(0) - 0.5) < 1e-12
    assert abs(reg.probability(1) - 0.5) < 1e-12
    for branch in (0, 1):
        target = projector(partial_entangled_state(theta, branch))
        assert np.max(np.abs(reg.state(branch) - target)) < 1e-12


def test_apply_instrument_projective_limit():
    reg = apply_instrument(reference_instrument(0.0), projector(phi_plus()), "bob")
    assert np.allclose(reg.state(0), np.diag([1, 0, 0, 0]))
    assert np.allclose(reg.state(1), np.diag([0, 0, 0, 1]))


def test_apply_instrument_identity_limit():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 4)
    reg = apply_instrument(reference_instrument(np.pi / 4), rho, "bob")
    for branch in (0, 1):
        assert abs(reg.probability(branch) - 0.5) < 1e-12
        assert np.max(np.abs(reg.state(branch) - rho)) < 1e-12


def test_apply_instrument_degenerate():
    with pytest.raises(quantum.DegenerateInstrumentError):
        apply_instrument(reference_instrument(0.3), np.zeros((4, 4)), "bob")


def test_instrument_choi_blocks():
    theta = 0.35
    choi = instrument_choi(reference_instrument(theta))
    total = 0.0
    for branch in (0, 1):
        assert abs(choi.probability(branch) - 0.5) < 1e-12
        target = projector(partial_entangled_state(theta, branch))
        assert np.max(np.abs(choi.state(branch) - target)) < 1e-12
        total += choi.probability(branch) * np.trace(choi.state(branch)).real
    assert abs(total - 1.0) < 1e-12


# ---- channels ----


def _choi_of_channel(channel):
    return apply_one_sided(channel, projector(phi_plus()), "bob")


def _is_cptp(channel, rng):
    choi = _choi_of_channel(channel)
    if np.linalg.eigvalsh(choi).min() < -1e-9:
        return False
    for _ in range(5):
        rho = random_density(rng, 2)
        out = channel.apply(rho)
        if abs(np.trace(out).real - 1.0) > 1e-10:
            return False
        if np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() < -1e-9:
            return False
    return True


def _is_self_adjoint(channel, rng):
    x = random_density(rng, 2)
    y = random_density(rng, 2)
    lhs = np.trace(y.conj().T @ channel.apply(x))
    rhs = np.trace(channel.apply(y).conj().T @ x)
    return abs(lhs - rhs) < 1e-12


def test_dephasing_alice_identity_point():
    ch = dephasing_alice(np.pi / 4)
    assert abs(ch.weight - 1.0) < 1e-12


def test_dephasing_alice_full_at_zero():
    ch = dephasing_alice(0.0)
    rng = np.random.default_rng(4)
    rho = random_density(rng, 2)
    assert np.allclose(ch.apply(rho), 0.5 * (rho + H_OBS @ rho @ H_OBS))


def test_dephasing_alice_cptp_and_self_adjoint():
    rng = np.random.default_rng(14)
    for a in rng.uniform(0, np.pi / 2, size=20):
        ch = dephasing_alice(a)
        assert _is_cptp(ch, rng)
        assert _is_self_adjoint(ch, rng)


def test_dephasing_alice_commutes_with_axis_conjugation():
    rng = np.random.default_rng(21)
    for a in (0.1, 0.5, 1.2):
        ch = dephasing_alice(a)
        rho = random_density(rng, 2)
        g = ch.axis
        assert np.allclose(ch.apply(g @ rho @ g), g @ ch.apply(rho) @ g)


@pytest.mark.parametrize("kind", ["new", "tilted"])
def test_dephasing_bob_identity_at_ideal_angle(kind):
    for theta in (0.1, 0.35, 0.6, np.pi / 4):
        ch = dephasing_bob(BellKind(kind, theta).b_ideal, theta, kind)
        assert abs(ch.weight - 1.0) < 1e-9


def test_dephasing_bob_full_at_zero():
    ch = dephasing_bob(0.0, 0.5)
    rng = np.random.default_rng(6)
    rho = random_density(rng, 2)
    assert np.allclose(ch.apply(rho), 0.5 * (rho + SIGMA_X @ rho @ SIGMA_X))
    assert np.allclose(ch.axis, SIGMA_X)


def test_dephasing_bob_cptp_and_self_adjoint():
    rng = np.random.default_rng(16)
    for _ in range(20):
        b = rng.uniform(0, np.pi / 2)
        theta = rng.uniform(0.05, np.pi / 4)
        ch = dephasing_bob(b, theta)
        assert _is_cptp(ch, rng)
        assert _is_self_adjoint(ch, rng)


def test_dephasing_bob_domain():
    with pytest.raises(DomainError):
        dephasing_bob(-0.1, 0.5)
    with pytest.raises(DomainError):
        dephasing_alice(2.0)


def test_channels_preserve_trace_and_positivity():
    rng = np.random.default_rng(26)
    channels = [dephasing_alice(rng.uniform(0, np.pi / 2)) for _ in range(5)]
    channels += [dephasing_bob(rng.uniform(0, np.pi / 2), rng.uniform(0.05, np.pi / 4))
                 for _ in range(5)]
    for ch in channels:
        for _ in range(5):
            rho = random_density(rng, 4)
            out = apply_one_sided(ch, rho, "bob")
            assert abs(np.trace(out).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() > -1e-9


# ---- the angle reparametrization ----


def test_linear_warp_fixes_endpoints_and_peak():
    for theta in (0.1, 0.45, 0.6):
        warp = quantum.bob_warp(theta, "new")
        assert warp.variant == quantum.LINEAR_WARP
        assert abs(warp(np.array([0.0]))[0]) < 1e-15
        assert abs(warp(np.array([warp.b_ideal]))[0] - np.pi / 4) < 1e-12
        assert abs(warp(np.array([np.pi / 2]))[0] - np.pi / 2) < 1e-12


def test_warp_is_identity_at_quarter_pi():
    warp = quantum.bob_warp(np.pi / 4, "new")
    assert warp.variant == "identity"
    b = np.linspace(0, np.pi / 2, 7)
    assert np.allclose(warp(b), b)


def test_profile_window():
    assert dephasing_profile(np.pi / 4) == pytest.approx(1.0)
    assert dephasing_profile(0.0) == pytest.approx(0.0)
    # outside the window the weight stays zero instead of wrapping around
    assert dephasing_profile(-5.63) == 0.0
    assert dephasing_profile(2.0) == 0.0


# ---- one-sided application and rotations ----


def test_apply_one_sided_identity():
    rng = np.random.default_rng(33)
    rho = random_density(rng, 4)
    ch = dephasing_alice(np.pi / 4)
    assert np.allclose(apply_one_sided(ch, rho, "alice"), rho)


def test_apply_one_sided_double_dephasing():
    # weight one half mixes the state with its conjugate: full dephasing
    z_deph = quantum.DephasingChannel(0.5, SIGMA_Z)
    rho = projector(phi_plus())
    out = apply_one_sided(z_deph, apply_one_sided(z_deph, rho, "alice"), "bob")
    assert np.allclose(out, np.diag([0.5, 0, 0, 0.5]))


def test_rotation_conjugation_identities():
    # R H R^dag is V up to an overall sign, which the dephasing term cannot
    # see because it conjugates twice
    r = ROT_X_PI
    conjugated = r @ H_OBS @ r.conj().T
    assert np.max(np.abs(conjugated + V_OBS)) < 1e-12
    rng = np.random.default_rng(42)
    rho = random_density(rng, 2)
    assert np.allclose(conjugated @ rho @ conjugated, V_OBS @ rho @ V_OBS)
    theta = 0.3
    rotated = kron(r, r) @ partial_entangled_state(theta, 0)
    target = partial_entangled_state(theta, 1)
    phase = np.vdot(target, rotated)
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.allclose(rotated, phase * target)


def test_profile_mirror_symmetry():
    rng = np.random.default_rng(37)
    for a in rng.uniform(0, np.pi / 2, size=10):
        assert abs(dephasing_profile(a) - dephasing_profile(np.pi / 2 - a)) < 1e-12


def test_partial_trace():
    rho = projector(phi_plus())
    assert np.allclose(partial_trace(rho, "alice"), IDENTITY_2 / 2)
    assert np.allclose(partial_trace(rho, "bob"), IDENTITY_2 / 2)
