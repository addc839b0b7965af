import dataclasses

import numpy as np
import pytest

from diqc import bell, certify, quantum
from diqc.certify import (
    BETA_STAR,
    CHSH_QUANTUM_BOUND,
    ChannelFamilyError,
    NonQuantumValueError,
    certify_instrument,
    combine_branches,
    find_cutoff,
    input_fidelity_bound,
    instrument_fidelity_bound,
    operator_margin,
    output_fidelity_bound,
    slope_and_intercept,
    verify_branch1,
)
from diqc.quantum import DomainError

SQ05 = 1 / np.sqrt(2)


@pytest.fixture(scope="module")
def small_cert():
    # coarse but legal grid keeps module tests quick
    return find_cutoff(0.6, "new", grid=(101, 101))


# ---- closed-form pieces ----


def test_slope_intercept_identities():
    for theta in (0.1, 0.4, np.pi / 4):
        for i_star in (0.75, 0.85, 0.95):
            s, mu = slope_and_intercept(theta, i_star)
            assert s + mu == pytest.approx(1.0, abs=1e-15)
            assert s * i_star + mu == pytest.approx(np.cos(theta) ** 2, abs=1e-12)


def test_input_fidelity_endpoints():
    assert input_fidelity_bound(CHSH_QUANTUM_BOUND) == pytest.approx(1.0, abs=1e-12)
    assert input_fidelity_bound(BETA_STAR) == pytest.approx(SQ05, abs=1e-12)
    assert input_fidelity_bound(2.0) == pytest.approx(SQ05, abs=1e-15)


def test_input_fidelity_raw_regime():
    assert input_fidelity_bound(2.0, floor=False) < SQ05
    assert input_fidelity_bound(-1.0, floor=False) == 0.0


def test_input_fidelity_rejects_superquantum():
    with pytest.raises(NonQuantumValueError):
        input_fidelity_bound(2 * np.sqrt(2) + 1e-3)
    # within tolerance of the quantum bound it clamps instead
    assert input_fidelity_bound(2 * np.sqrt(2) + 1e-9) == pytest.approx(1.0)


def test_output_fidelity_endpoints():
    theta, i_star = 0.5, 0.9
    assert output_fidelity_bound(1.0, theta, i_star) == pytest.approx(1.0, abs=1e-12)
    assert output_fidelity_bound(i_star, theta, i_star) == pytest.approx(np.cos(theta), abs=1e-12)


def test_output_fidelity_monotone():
    theta, i_star = 0.4, 0.92
    grid = np.linspace(i_star, 1.0, 30)
    vals = [output_fidelity_bound(i, theta, i_star) for i in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_output_fidelity_squared_matches_overlap_line():
    # above the floor, the square of the bound is the linear overlap bound
    theta, i_star = 0.5, 0.88
    s, mu = slope_and_intercept(theta, i_star)
    for i in np.linspace(i_star, 1.0, 9):
        f = output_fidelity_bound(i, theta, i_star)
        assert f * f == pytest.approx(s * i + mu, abs=1e-12)


def test_output_fidelity_rejects_superquantum():
    with pytest.raises(NonQuantumValueError):
        output_fidelity_bound(1.1, 0.5, 0.9)


def test_combine_branches():
    assert combine_branches(0.5, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert combine_branches(1.0, 1.0, 0.3) == pytest.approx(SQ05, abs=1e-15)
    assert combine_branches(0.5, 0.8, 0.8) == pytest.approx(0.8, abs=1e-15)


def test_instrument_fidelity_bound():
    assert instrument_fidelity_bound(1.0, 1.0) == pytest.approx(1.0)
    assert instrument_fidelity_bound(1.0, 0.63) == pytest.approx(0.63, abs=1e-12)
    assert instrument_fidelity_bound(0.63, 1.0) == pytest.approx(0.63, abs=1e-12)
    assert instrument_fidelity_bound(SQ05, SQ05) == 0.0


# ---- operator margins ----


def test_margin_nonnegative_at_ideal(small_cert):
    a, b = quantum.ideal_settings(0.6)
    m = operator_margin(0.6, "new", small_cert.i_star, a, b)
    assert m >= -1e-12


def test_margin_negative_below_cutoff(small_cert):
    # below the certified cutoff some angle pair must reject the line
    bad = bell.local_bound_new(0.6) + 1e-6
    grid = np.linspace(0, np.pi / 2, 41)
    worst = min(operator_margin(0.6, "new", bad, a, b)
                for a in grid[::8] for b in grid[::8])
    assert worst < -1e-9


def test_margin_continuity(small_cert):
    # adjacent angle cells move the margin by at most a Lipschitz-sized step
    h = 1e-4
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b = rng.uniform(0.1, np.pi / 2 - 0.1, size=2)
        m0 = operator_margin(0.6, "new", small_cert.i_star, a, b)
        m1 = operator_margin(0.6, "new", small_cert.i_star, a + h, b)
        m2 = operator_margin(0.6, "new", small_cert.i_star, a, b + h)
        assert abs(m1 - m0) < 100 * h
        assert abs(m2 - m0) < 100 * h


def test_margin_matches_explicit_construction(small_cert):
    # independent route: apply the public channels to the projector and
    # assemble the bound operator by hand
    rng = np.random.default_rng(3)
    s, mu = small_cert.slope, small_cert.intercept
    target = quantum.projector(quantum.partial_entangled_state(0.6, 0))
    for _ in range(15):
        a, b = rng.uniform(0, np.pi / 2, size=2)
        twirled = quantum.apply_one_sided(quantum.dephasing_alice(a), target, "alice")
        twirled = quantum.apply_one_sided(quantum.dephasing_bob(b, 0.6), twirled, "bob")
        m = twirled - s * bell.new_bell_operator(0.6, a, b) - mu * np.eye(4)
        explicit = np.linalg.eigvalsh(m)[0]
        fast = operator_margin(0.6, "new", small_cert.i_star, a, b)
        assert abs(explicit - fast) < 1e-12


def test_overlap_bound_holds_for_random_states(small_cert):
    # direct consequence of PSD margins: the linear bound holds pointwise
    rng = np.random.default_rng(9)
    s, mu = small_cert.slope, small_cert.intercept
    target = quantum.projector(quantum.partial_entangled_state(0.6, 0))
    for _ in range(25):
        a, b = rng.uniform(0, np.pi / 2, size=2)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        extracted = quantum.apply_one_sided(quantum.dephasing_alice(a), target, "alice")
        extracted = quantum.apply_one_sided(quantum.dephasing_bob(b, 0.6), extracted, "bob")
        lhs = np.trace(extracted @ rho).real
        rhs = s * np.trace(bell.new_bell_operator(0.6, a, b) @ rho).real + mu
        assert lhs >= rhs - 1e-8


# ---- the cutoff solver ----


def test_find_cutoff_basic_properties(small_cert):
    assert bell.local_bound_new(0.6) < small_cert.i_star < 1.0
    assert small_cert.worst_margin >= -small_cert.tol
    assert small_cert.delta_variant == "linear"
    assert small_cert.slope * small_cert.i_star + small_cert.intercept == pytest.approx(
        np.cos(0.6) ** 2, abs=1e-12)
    assert small_cert.slope + small_cert.intercept == pytest.approx(1.0, abs=1e-12)


def test_find_cutoff_rejects_coarse_grid():
    with pytest.raises(ValueError, match="at least 101"):
        find_cutoff(0.6, "new", grid=(51, 51))


def test_find_cutoff_rejects_unknown_family():
    with pytest.raises(DomainError):
        find_cutoff(0.6, "chsh")


def test_find_cutoff_rejects_negative_refinement():
    with pytest.raises(ValueError, match="refine_levels"):
        find_cutoff(0.6, "new", grid=(101, 101), refine_levels=-3)


@pytest.mark.parametrize("family", ["new", "tilted"])
def test_find_cutoff_solves_smallest_angle(family):
    # 1 - I* is about 1e-7 here, below the 1e-6 a bracketed search can reach
    cert = find_cutoff(0.05, family)
    assert 0.0 < 1.0 - cert.i_star < 1e-6
    assert cert.worst_margin >= -cert.tol


def test_find_cutoff_resolves_small_gap():
    # the exact gap is about 1.2e-5; a bracket of width 1e-4 returns 1e-6
    cert = find_cutoff(0.1113, "new")
    assert 1.0 - cert.i_star > 1e-5


def test_find_cutoff_reports_binding_corner():
    cert = find_cutoff(0.6, "new")
    assert (cert.worst_a, cert.worst_b) == (0.0, pytest.approx(np.pi / 2, abs=1e-15))


@pytest.mark.parametrize("theta, family", [(0.6, "new"), (0.3, "tilted"), (0.1, "new")])
def test_cutoff_cannot_be_lowered(theta, family):
    cert = find_cutoff(theta, family)
    lower = cert.i_star - 1e-6 * (1.0 - cert.i_star)
    assert operator_margin(theta, family, cert.i_star, cert.worst_a, cert.worst_b) >= -cert.tol
    assert operator_margin(theta, family, lower, cert.worst_a, cert.worst_b) < 0.0


def test_kernel_leak_names_its_input(monkeypatch):
    # counting genuine eigenvalues of 1 - B as kernel must be caught, not
    # silently dropped from the slope
    monkeypatch.setattr(certify, "_KERNEL_RTOL", 0.5)
    with pytest.raises(ChannelFamilyError, match=r"\(a=.*b=.*tilted at theta=0\.6"):
        find_cutoff(0.6, "tilted", grid=(101, 101))


# ---- the screen against a solve at every grid point ----


def _full_grid_cutoff(theta, family, grid=certify.DEFAULT_GRID,
                      refine_levels=certify.DEFAULT_REFINE_LEVELS):
    # reference solve with no screen: exact slopes at every grid point, the
    # same refinement patches, and a margin scan over the grid and patches
    ev = certify._MarginEvaluator(theta, family)
    s_max, (bind_a, bind_b), patches = certify._search(
        ev.slopes, *grid, refine_levels, ev.b_ideal)
    i_star = certify._cutoff(ev, s_max, (bind_a, bind_b))
    a, b = np.linspace(0.0, np.pi / 2, grid[0]), np.linspace(0.0, np.pi / 2, grid[1])
    worst = min(float(ev.margins(i_star, pa, pb).min()) for pa, pb in [(a, b), *patches])
    s, mu = slope_and_intercept(theta, i_star)
    return certify.LinearBoundCertificate(
        theta=theta, family=family, i_star=i_star, slope=s, intercept=mu,
        grid_a=grid[0], grid_b=grid[1], refine_levels=refine_levels, tol=certify.VERIFY_TOL,
        worst_margin=worst, worst_a=bind_a, worst_b=bind_b, delta_variant=ev.warp.variant)


@pytest.mark.parametrize("family", ["new", "tilted"])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.6, np.pi / 4])
def test_screened_cutoff_equals_full_grid_solve(theta, family):
    assert find_cutoff(theta, family) == _full_grid_cutoff(theta, family)


def test_screened_cutoff_equals_full_grid_solve_unrefined():
    assert (find_cutoff(0.4, "tilted", grid=(101, 101), refine_levels=0)
            == _full_grid_cutoff(0.4, "tilted", grid=(101, 101), refine_levels=0))


@pytest.mark.parametrize("theta, family", [(0.6, "new"), (0.3, "tilted")])
def test_low_slope_guess_recovers_grid_maximum(theta, family):
    ev = certify._MarginEvaluator(theta, family)
    a = b = np.linspace(0.0, np.pi / 2, 201)
    slopes = ev.slopes(a, b)
    i, j = np.unravel_index(np.argmax(slopes), slopes.shape)
    peak = (float(slopes[i, j]), (float(a[i]), float(b[j])))
    expected = _full_grid_cutoff(theta, family)
    for factor in (0.5, 0.9):
        guess = (factor * peak[0], peak[1])
        assert certify._screened_peak(ev, a, b, guess)[:2] == peak
        assert certify._screened_cutoff(ev, (201, 201), 2, guess) == expected


@pytest.mark.parametrize("theta, family", [(0.3, "new"), (0.6, "tilted")])
def test_screen_leaves_few_grid_points_to_solve(theta, family, monkeypatch):
    # outside the refinement patches the pencil is solved only at the four
    # corners and at the grid points the screen cannot clear
    solved = []
    in_patches = [False]
    slopes, refine = certify._MarginEvaluator.slopes, certify._refine

    def counting_slopes(self, a, b):
        if not in_patches[0]:
            solved.append(len(a) * len(b))
        return slopes(self, a, b)

    def uncounted_refine(*args, **kwargs):
        in_patches[0] = True
        try:
            return refine(*args, **kwargs)
        finally:
            in_patches[0] = False

    monkeypatch.setattr(certify._MarginEvaluator, "slopes", counting_slopes)
    monkeypatch.setattr(certify, "_refine", uncounted_refine)
    find_cutoff(theta, family)
    assert 4 < sum(solved) <= 10


def test_positive_definite_mask_matches_eigenvalues():
    # random symmetric stacks with lambda_min of either sign, between 1e-9
    # and 1 in magnitude, and the other eigenvalues up to 3
    rng = np.random.default_rng(17)
    shape = (40, 50)
    q, _ = np.linalg.qr(rng.normal(size=shape + (4, 4)))
    low = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-9, 0, size=shape)
    rest = rng.uniform(np.abs(low)[..., None], 3.0, size=shape + (3,))
    vals = np.concatenate([low[..., None], rest], axis=-1)
    m = (q * vals[..., None, :]) @ q.swapaxes(-1, -2)
    m = 0.5 * (m + m.swapaxes(-1, -2))
    expected = np.linalg.eigvalsh(m)[..., 0] > 0
    assert 0 < expected.sum() < expected.size
    np.testing.assert_array_equal(certify._positive_definite(m), expected)


def test_verify_branch1_passes(small_cert):
    worst = verify_branch1(small_cert, grid=(101, 101))
    assert worst >= -1e-8


def test_verify_branch1_rejects_wrong_delta_variant(small_cert):
    relabelled = dataclasses.replace(small_cert, delta_variant="identity")
    with pytest.raises(DomainError, match="delta_variant"):
        verify_branch1(relabelled, grid=(101, 101))


def test_branch_margins_mirror_in_alice_angle(small_cert):
    ev0 = certify._MarginEvaluator(0.6, "new", branch=0)
    ev1 = certify._MarginEvaluator(0.6, "new", branch=1)
    rng = np.random.default_rng(13)
    a = rng.uniform(0, np.pi / 2, size=20)
    b = rng.uniform(0, np.pi / 2, size=20)
    m1 = np.diagonal(ev1.margins(small_cert.i_star, a, b))
    m0 = np.diagonal(ev0.margins(small_cert.i_star, np.pi / 2 - a, b))
    assert np.max(np.abs(m1 - m0)) < 1e-9


# ---- pipeline ----


def test_certify_perfect_statistics(small_cert):
    fc = certify_instrument(CHSH_QUANTUM_BOUND, 1.0, 1.0, 0.5, 0.6, small_cert)
    assert fc.bound == pytest.approx(1.0, abs=1e-9)


def test_certify_input_cutoff_point(small_cert):
    fc = certify_instrument(BETA_STAR, 1.0, 1.0, 0.5, 0.6, small_cert)
    assert fc.bound == pytest.approx(SQ05, abs=1e-6)


def test_certify_monotone_in_observations(small_cert):
    rng = np.random.default_rng(21)
    for _ in range(10):
        beta = rng.uniform(2.2, CHSH_QUANTUM_BOUND)
        i0, i1 = rng.uniform(small_cert.i_star, 1.0, size=2)
        base = certify_instrument(beta, i0, i1, 0.5, 0.6, small_cert).bound
        assert certify_instrument(min(beta + 0.05, CHSH_QUANTUM_BOUND), i0, i1,
                                  0.5, 0.6, small_cert).bound >= base - 1e-12
        assert certify_instrument(beta, min(i0 + 0.01, 1.0), i1,
                                  0.5, 0.6, small_cert).bound >= base - 1e-12
        assert certify_instrument(beta, i0, min(i1 + 0.01, 1.0),
                                  0.5, 0.6, small_cert).bound >= base - 1e-12


def test_certify_requires_matching_angle(small_cert):
    with pytest.raises(DomainError):
        certify_instrument(2.5, 0.95, 0.95, 0.5, 0.55, small_cert)


def test_raw_pipeline_requires_matching_angle(small_cert):
    with pytest.raises(DomainError):
        certify.raw_pipeline_bound(2.5, 0.95, 0.55, small_cert)


def test_raw_pipeline_reaches_zero(small_cert):
    fc = certify.raw_pipeline_bound(2.0, bell.local_bound_new(0.6) - 0.02, 0.6, small_cert)
    assert fc.bound == 0.0
