import dataclasses
import sys

import numpy as np
import pytest
from conftest import ROT_X_PI

from diqc import bell, certify, pipeline, quantum
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
    verify_cutoff,
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


def _axes(grid, half=True):
    # the grid's axes; with half, its a-axis only up to the middle row
    a, b = (np.linspace(0.0, np.pi / 2, n) for n in grid)
    return (a[:(grid[0] + 1) // 2] if half else a), b


def _unscreened_search(f, grid, refine_levels, b_ideal, half=True):
    # largest value of f at every point of the grid and of every refinement
    # patch, and the patches, patch by patch: each level refines around the
    # running best point and around the ideal point, one coarse cell wide,
    # shrinking eightfold per level, and only a larger value moves the best;
    # with half, on a <= pi/4 as find_cutoff, else on all of [0, pi/2]^2
    def peak(a, b):
        vals = f(a[:, None], b[None, :])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        return float(vals[i, j]), (float(a[i]), float(b[j]))

    best, best_at = peak(*_axes(grid, half))
    h = [(np.pi / 2) / (n - 1) for n in grid]
    ends = (np.pi / 4 if half else np.pi / 2, np.pi / 2)
    centers, patches = [best_at, (np.pi / 4, b_ideal)], []
    for _ in range(refine_levels):
        next_centers = []
        for center in centers:
            patch = tuple(certify._patch_axis(c, w, e) for c, w, e in zip(center, h, ends))
            value, at = peak(*patch)
            if value > best:
                best, best_at = value, at
            patches.append(patch)
            next_centers.append(at)
        centers = next_centers
        h = [w / (certify._REFINE_POINTS / 2.0) for w in h]
    return best, best_at, patches


def _full_grid_cutoff(theta, family, grid=certify.DEFAULT_GRID,
                      refine_levels=certify.DEFAULT_REFINE_LEVELS, half=True):
    # reference solve with no screen: exact slopes at every grid point, the
    # same refinement patches, and a margin scan over the grid and patches,
    # on a <= pi/4 with half, else on all of [0, pi/2]^2
    ev = certify._MarginEvaluator(theta, family)
    s_max, (bind_a, bind_b), patches = _unscreened_search(
        ev.slopes, grid, refine_levels, ev.b_ideal, half)
    i_star = certify._cutoff(ev, s_max, (bind_a, bind_b))
    worst = min(float(ev.margins(i_star, pa[:, None], pb[None, :]).min())
                for pa, pb in [_axes(grid, half), *patches])
    s, mu = slope_and_intercept(theta, i_star)
    return certify.LinearBoundCertificate(
        theta=theta, family=family, i_star=i_star, slope=s, intercept=mu,
        grid_a=grid[0], grid_b=grid[1], refine_levels=refine_levels, tol=certify.VERIFY_TOL,
        worst_margin=worst, worst_a=bind_a, worst_b=bind_b, delta_variant=ev.warp.variant)


def _corner_guess(ev):
    # slope and intercept of the cutoff that find_cutoff's corner guess gives
    corners = (np.array([0.0]), np.array([0.0, np.pi / 2]))
    guess = certify._peaks(ev.slopes, [corners])[0]
    return slope_and_intercept(ev.theta, certify._cutoff(ev, *guess))


def _positive_definite(m):
    # whether each matrix of a symmetric (..., 4, 4) stack passes the screen's LDL^T
    return certify._pivots_positive([m[..., i, j] for i, j in zip(*certify._LOWER)])


def _lower_stack(x, c, y):
    # the screen's planes as a stack [r, k, i, j] with the lower triangle
    # filled, lined up with _MarginEvaluator.operators
    m = np.empty((4, 4, x.shape[1], y.shape[1]))
    m[certify._LOWER] = certify._planes(x.T, c, y)
    return np.moveaxis(m, (0, 1), (2, 3))


@pytest.mark.parametrize("family", ["new", "tilted"])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.6, np.pi / 4])
def test_screened_cutoff_equals_full_grid_solve(theta, family):
    assert find_cutoff(theta, family) == _full_grid_cutoff(theta, family)


def test_screened_cutoff_equals_full_grid_solve_unrefined():
    assert (find_cutoff(0.4, "tilted", grid=(101, 101), refine_levels=0)
            == _full_grid_cutoff(0.4, "tilted", grid=(101, 101), refine_levels=0))


def test_screened_cutoff_equals_full_grid_solve_deeply_refined():
    assert (find_cutoff(0.5, "new", grid=(101, 101), refine_levels=3)
            == _full_grid_cutoff(0.5, "new", grid=(101, 101), refine_levels=3))


@pytest.mark.parametrize("family", ["new", "tilted"])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.6, np.pi / 4])
def test_half_square_cutoff_holds_on_the_full_square(theta, family, cutoffs):
    # the rows a > pi/4 mirror the solved ones: an unscreened solve over all
    # of [0, pi/2]^2 moves I* by at most 2 ulps, and an unscreened margin
    # scan there at the certificate's I* clears -VERIFY_TOL on both halves
    cert = cutoffs.get(theta, family)
    ev = certify._MarginEvaluator(theta, family)
    grid, levels = certify.DEFAULT_GRID, certify.DEFAULT_REFINE_LEVELS
    s_max, at, _ = _unscreened_search(ev.slopes, grid, levels, ev.b_ideal, half=False)
    assert abs(certify._cutoff(ev, s_max, at) - cert.i_star) <= 2 * np.spacing(cert.i_star)
    scanned = []

    def neg_margins(a, b):
        scanned.append(ev.margins(cert.i_star, a, b))
        return -scanned[-1]

    neg, _, _ = _unscreened_search(neg_margins, grid, levels, ev.b_ideal, half=False)
    assert -neg >= -certify.VERIFY_TOL
    rows = (grid[0] + 1) // 2
    assert scanned[0][:rows].min() >= -certify.VERIFY_TOL
    assert scanned[0][rows:].min() >= -certify.VERIFY_TOL


@pytest.mark.parametrize("theta, family", [(0.6, "new"), (0.3, "tilted")])
def test_low_slope_guess_recovers_grid_maximum(theta, family):
    ev = certify._MarginEvaluator(theta, family)
    a, b = _axes(certify.DEFAULT_GRID)
    slopes = ev.slopes(a[:, None], b[None, :])
    i, j = np.unravel_index(np.argmax(slopes), slopes.shape)
    peak = (float(slopes[i, j]), (float(a[i]), float(b[j])))
    expected = _full_grid_cutoff(theta, family)
    for factor in (0.5, 0.9):
        guess = (factor * peak[0], peak[1])
        assert certify._screened_peaks(ev, [(a, b)], [guess])[0][:2] == peak
        assert certify._screened_cutoff(ev, (201, 201), 2, guess) == expected


@pytest.mark.parametrize("theta, family", [(0.3, "new"), (0.6, "tilted")])
def test_screen_leaves_few_grid_points_to_solve(theta, family, monkeypatch):
    # outside the refinement patches the pencil is solved only at the two
    # corners a = 0 and at the points of the half grid the screen cannot
    # clear: 3 to 8 points in all over the 50 default sweep-fig4 angles
    solved = []
    in_patches = [False]
    slopes, refine = certify._MarginEvaluator.slopes, certify._refine

    def counting_slopes(self, a, b):
        out = slopes(self, a, b)
        if not in_patches[0]:
            solved.append(out.size)
        return out

    def uncounted_refine(*args, **kwargs):
        in_patches[0] = True
        try:
            return refine(*args, **kwargs)
        finally:
            in_patches[0] = False

    monkeypatch.setattr(certify._MarginEvaluator, "slopes", counting_slopes)
    monkeypatch.setattr(certify, "_refine", uncounted_refine)
    find_cutoff(theta, family)
    assert 2 < sum(solved) <= 8


def test_screen_clearing_every_point_names_its_input():
    # only a guess above the maximum can clear every point of a meshgrid
    ev = certify._MarginEvaluator(0.6, "tilted")
    a, b = np.linspace(0.0, 0.2, 9), np.linspace(1.3, np.pi / 2, 9)
    s, at = certify._peaks(ev.slopes, [(a, b)])[0]
    assert certify._screened_peaks(ev, [(a, b)], [(0.5 * s, at)])[0][:2] == (s, at)
    with pytest.raises(ChannelFamilyError, match=r"9x9 points.*tilted at theta=0\.6"):
        certify._screened_peaks(ev, [(a, b)], [(1.5 * s, at)])


@pytest.mark.parametrize("family", ["new", "tilted"])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.6, np.pi / 4])
def test_screen_planes_match_operator_stacks(theta, family):
    # the lower triangle the screen builds with one matrix product against
    # the exact path's matrices of T - s0 B - shift, at the corner guess's
    # s0; find_cutoff and verify_cutoff screen this one operator
    ev = certify._MarginEvaluator(theta, family)
    s0, mu0 = _corner_guess(ev)
    c = ev.coefficients(s0, mu0 + certify._SCREEN_RTOL * (1.0 + s0))
    a = b = np.linspace(0.0, np.pi / 2, 201)
    x, y = ev.factors(a, b)
    planes = _lower_stack(x, c, y)
    expected = ev.operators(c, a[:, None], b[None, :])[0]
    i, j = certify._LOWER
    assert np.max(np.abs(planes[..., i, j] - expected[..., i, j])) <= 1e-14 * (1.0 + s0)


@pytest.mark.parametrize("family", ["new", "tilted"])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.6, np.pi / 4])
def test_operators_do_not_depend_on_the_batch(theta, family):
    # bit for bit, signs of zero included: each matrix equals the one built
    # for its point alone, in a point list and in a meshgrid, which the
    # batching of _peaks and the equality with _full_grid_cutoff rest on
    ev = certify._MarginEvaluator(theta, family)
    rng = np.random.default_rng(47)
    a = np.concatenate([[0.0, np.pi / 4, ev.b_ideal, np.pi / 2], rng.uniform(0.0, np.pi / 2, 30)])
    b = np.concatenate([[0.0, np.pi / 4, ev.b_ideal, np.pi / 2], rng.uniform(0.0, np.pi / 2, 30)])
    s, mu = _corner_guess(ev)
    for c in (ev.coefficients(s, mu), ev._pencil):
        meshgrid = ev.operators(c, a[:, None], b[None, :])
        points = ev.operators(c, a[:, None], b[:, None])
        for k in range(len(a)):
            alone = ev.operators(c, a[k:k + 1, None], b[k:k + 1, None])[:, 0, 0]
            for got in (meshgrid[:, k, k], points[:, k, 0]):
                assert np.array_equal(got.view(np.int64), alone.view(np.int64))
        for k, j in [(0, 5), (7, 3), (33, 1)]:
            alone = ev.operators(c, a[k:k + 1, None], b[j:j + 1, None])[:, 0, 0]
            assert np.array_equal(meshgrid[:, k, j].view(np.int64), alone.view(np.int64))


@pytest.mark.parametrize("family", ["new", "tilted"])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.6, np.pi / 4])
def test_operators_match_pointwise_oracle(theta, family):
    # the table's target twirl and Bell operator against the public
    # channels applied to the target and the single-point constructors
    ev = certify._MarginEvaluator(theta, family)
    s, mu = _corner_guess(ev)
    target = quantum.projector(quantum.partial_entangled_state(theta))
    build = bell.new_bell_operator if family == "new" else bell.tilted_operator
    rng = np.random.default_rng(53)
    a = np.concatenate([[0.0, np.pi / 4, ev.b_ideal, np.pi / 2], rng.uniform(0.0, np.pi / 2, 20)])
    b = np.concatenate([[0.0, np.pi / 4, ev.b_ideal, np.pi / 2], rng.uniform(0.0, np.pi / 2, 20)])
    margins = ev.operators(ev.coefficients(s, mu), a[:, None], b[:, None])[0, :, 0]
    pencil = ev.operators(ev._pencil, a[:, None], b[:, None])[:, :, 0]
    for k, (x, y) in enumerate(zip(a, b)):
        twirled = quantum.apply_one_sided(quantum.dephasing_alice(x), target, "alice")
        twirled = quantum.apply_one_sided(
            quantum.dephasing_bob(y, theta, family), twirled, "bob").real
        bop = build(theta, x, y).real
        for got, expected in [(margins[k], twirled - s * bop - mu * np.eye(4)),
                              (pencil[0, k], np.eye(4) - twirled),
                              (pencil[1, k], np.eye(4) - bop)]:
            assert np.max(np.abs(got - expected)) <= 1e-14 * (1.0 + s)


def test_families_coincide_at_the_anchor(cutoffs):
    # at theta = pi/4 both inequalities are CHSH / (2 sqrt 2): one Bell table
    # and one certificate, so I*(new) <= I*(tilted) holds there with equality
    tables = [bell.BellTerms(bell.BellKind(f, np.pi / 4)).table for f in ("new", "tilted")]
    assert np.array_equal(tables[0], tables[1])
    assert cutoffs.get(np.pi / 4, "new") == dataclasses.replace(
        cutoffs.get(np.pi / 4, "tilted"), family="new")


def _golden_id(theta, family, grid, refine_levels):
    return f"{theta:.4g}-{family}-{grid[0]}x{grid[1]}-r{refine_levels}"


_DEFAULT_GOLDENS = [
    (0.05, "new", "0x1.fffffc7a681f1p-1", "0x1.2600000000000p-38"),
    (0.3, "tilted", "0x1.fed5e75e8ac59p-1", "-0x1.b4978b0016c94p-49"),
    (0.6, "new", "0x1.d3a7071aa623ap-1", "-0x1.0000000000000p-52"),
    (np.pi / 4, "tilted", "0x1.7d31d5d690d17p-1", "0x1.8000000000000p-53"),
]
_NONDEFAULT_GOLDENS = [
    (0.08, "tilted", (151, 151), 3, "0x1.ffffe0767add0p-1", "0x1.3400000000000p-40"),
    (0.25, "new", (151, 151), 3, "0x1.ff663d688184bp-1", "-0x1.0000000000000p-49"),
    (0.5, "new", (101, 131), 1, "0x1.ec607b7553942p-1", "0x1.0000000000000p-52"),
    (0.7, "tilted", (201, 201), 0, "0x1.ad0dee1a86ebbp-1", "-0x1.a56b394b80f3ep-50"),
]


@pytest.mark.parametrize("theta, family, i_star, worst_margin", _DEFAULT_GOLDENS,
                         ids=[_golden_id(t, f, certify.DEFAULT_GRID, certify.DEFAULT_REFINE_LEVELS)
                              for t, f, *_ in _DEFAULT_GOLDENS])
def test_default_certificates_are_bit_stable(theta, family, i_star, worst_margin):
    # the CLI cache serves a certificate under the solver's tag, so new
    # golden values without a new tag would let stale cached ones through
    assert pipeline.SOLVER_TAG == "pencil3"
    cert = find_cutoff(theta, family)
    assert (cert.i_star.hex(), cert.worst_margin.hex()) == (i_star, worst_margin)


@pytest.mark.parametrize("theta, family, grid, refine_levels, i_star, worst_margin",
                         _NONDEFAULT_GOLDENS,
                         ids=[_golden_id(*golden[:4]) for golden in _NONDEFAULT_GOLDENS])
def test_nondefault_certificates_are_bit_stable(theta, family, grid, refine_levels,
                                                i_star, worst_margin):
    # the tag names these values for the CLI cache, as above
    assert pipeline.SOLVER_TAG == "pencil3"
    cert = find_cutoff(theta, family, grid=grid, refine_levels=refine_levels)
    assert (cert.i_star.hex(), cert.worst_margin.hex()) == (i_star, worst_margin)


@pytest.mark.parametrize("theta, family", [(0.05, "new"), (0.6, "tilted")])
def test_screen_builds_no_operator_stacks(theta, family, monkeypatch):
    # the screen works on lower-triangle planes; only the exact solves, the
    # refinement patches and the final scan build 4x4 matrices
    built = []
    operators = certify._MarginEvaluator.operators

    def counting_operators(self, c, a, b):
        out = operators(self, c, a, b)
        built.append(out[0].size // 16)
        return out

    monkeypatch.setattr(certify._MarginEvaluator, "operators", counting_operators)
    find_cutoff(theta, family)
    assert 0 < sum(built) <= 200


@pytest.mark.parametrize("theta, family", [(0.6, "new"), (0.3, "tilted")])
def test_refinement_solves_few_points(theta, family, monkeypatch):
    # each patch is screened from a 3x3 sample of its own points, so the
    # pencil is solved at the sample and at the few points the screen cannot
    # clear; clipping at the edges of [0, pi/2] leaves no repeated angle
    solved, axes = [], []
    in_patches = [False]
    slopes, refine = certify._MarginEvaluator.slopes, certify._refine

    def counting_slopes(self, a, b):
        out = slopes(self, a, b)
        if in_patches[0]:
            solved.append(out.size)
        return out

    def flagged_refine(peaks, *args):
        def recording_peaks(meshgrids):
            axes.extend(x for meshgrid in meshgrids for x in meshgrid)
            return peaks(meshgrids)

        in_patches[0] = True
        try:
            return refine(recording_peaks, *args)
        finally:
            in_patches[0] = False

    monkeypatch.setattr(certify._MarginEvaluator, "slopes", counting_slopes)
    monkeypatch.setattr(certify, "_refine", flagged_refine)
    find_cutoff(theta, family)
    assert len(axes) == 2 * 2 * certify.DEFAULT_REFINE_LEVELS
    assert all(np.all(np.diff(x) > 0) for x in axes)
    assert sum(solved) <= 80


@pytest.mark.parametrize("theta, family", [(0.6, "new"), (0.3, "tilted")])
def test_solve_batches_its_eigensolves(theta, family, monkeypatch):
    # one batched solve for the corners, one for what the grid screen
    # leaves, two per refinement level (both patches' samples, then what
    # both screens leave) and one final margin scan
    calls = {"eigvalsh": 0, "eigh": 0}

    def counting(name):
        solve = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "diqc.certify":
                calls[name] += 1
            return solve(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    find_cutoff(theta, family)
    assert calls["eigvalsh"] <= 7
    assert calls["eigh"] <= 6


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
    np.testing.assert_array_equal(_positive_definite(m), expected)


# ---- one inequality for both branches ----

# U = (XZ) (x) (XZ), a signed permutation proportional to Y (x) Y; RR is the
# pi rotation about x on both qubits that defines the relabelled branch-1 test
_XZ = quantum.SIGMA_X.real @ quantum.SIGMA_Z.real
_U = np.kron(_XZ, _XZ)
_RR = np.kron(ROT_X_PI, ROT_X_PI).real


@pytest.mark.parametrize("family", ["new", "tilted"])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.6, np.pi / 4])
def test_branch1_inequality_is_branch0_conjugated(theta, family, cutoffs, branch1_margin):
    # branch 1's bound operator is U (branch 0's) U^T at the same (a, b), so
    # the two have the same margins and one cutoff certifies both branches
    p0, p1 = (quantum.projector(quantum.partial_entangled_state(theta, k)).real
              for k in (0, 1))
    # (a) the target and each of the nine twirl terms, exactly
    assert np.array_equal(_U @ p0 @ _U.T, p1)
    twirl0 = certify._MarginEvaluator(theta, family)._twirl
    twirl1 = np.array([[g @ p1 @ g for g in row] for row in certify._LIFTS])
    assert np.array_equal(_U @ twirl0 @ _U.T, twirl1)
    # (b) every entry of the Bell table, up to the sign its Alice factor
    # takes under a -> pi/2 - a, exactly: p is even there and q odd
    table = bell.BellTerms(bell.BellKind(family, theta)).table
    for i, sign in enumerate((1.0, -1.0, 1.0)):
        for k in table[i]:
            assert np.array_equal(_U @ k @ _U.T, sign * (_RR @ k @ _RR.T))
    # (c) that sign
    rng = np.random.default_rng(31)
    a = rng.uniform(0.0, np.pi / 2, size=50)
    p, q, one = bell.alice_factors(a)
    mirrored = bell.alice_factors(np.pi / 2 - a)
    assert np.max(np.abs(mirrored - np.stack([p, -q, one]))) <= 1e-15
    # (d) so the margins agree with branch 1's physical definition pointwise
    cert = cutoffs.get(theta, family)
    b = rng.uniform(0.0, np.pi / 2, size=50)
    for x, y in zip(a, b):
        expected = branch1_margin(theta, family, cert.i_star, x, y)
        assert abs(operator_margin(theta, family, cert.i_star, x, y) - expected) \
            <= 1e-14 * (1.0 + cert.slope)


# ---- the Z (x) Z mirror in Alice's angle ----

# U = Z (x) Z fixes the target state and maps the bound operator at (a, b) to
# the one at (pi/2 - a, b), which lets the screen factor half the grid
_ZZ = np.kron(quantum.SIGMA_Z.real, quantum.SIGMA_Z.real)


@pytest.mark.parametrize("family", ["new", "tilted"])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.6, np.pi / 4])
def test_operator_mirrors_in_alice_angle(theta, family, cutoffs):
    ev = certify._MarginEvaluator(theta, family)
    # (a) U fixes the target and the twirl's row 0, and swaps Alice's
    # dephasing axes H and V (rows 1 and 2), exactly
    assert np.array_equal(_ZZ @ ev._proj @ _ZZ, ev._proj)
    for j in range(3):
        assert np.array_equal(_ZZ @ ev._twirl[0, j] @ _ZZ, ev._twirl[0, j])
        assert np.array_equal(_ZZ @ ev._twirl[1, j] @ _ZZ, ev._twirl[2, j])
    # (b) every entry of the Bell table takes the sign its Alice factor
    # takes under a -> pi/2 - a, exactly: p is even there and q odd
    table = bell.BellTerms(bell.BellKind(family, theta)).table
    for i, sign in enumerate((1.0, -1.0, 1.0)):
        for k in table[i]:
            assert np.array_equal(_ZZ @ k @ _ZZ, sign * k)
    # (c) those parities, and Alice's weight is even, on both sides of pi/4
    rng = np.random.default_rng(43)
    a = np.concatenate([rng.uniform(0.0, np.pi / 4, 25), rng.uniform(np.pi / 4, np.pi / 2, 25)])
    p, q, one = bell.alice_factors(a)
    assert np.max(np.abs(bell.alice_factors(np.pi / 2 - a) - np.array([p, -q, one]))) <= 1e-15
    weight = quantum.alice_dephasing_weight
    assert np.max(np.abs(weight(np.pi / 2 - a) - weight(a))) <= 1e-15
    # (d) so mirrored points have the same margin
    cert = cutoffs.get(theta, family)
    for x, y in zip(a, rng.uniform(0.0, np.pi / 2, size=50)):
        margin = operator_margin(theta, family, cert.i_star, x, y)
        assert abs(operator_margin(theta, family, cert.i_star, np.pi / 2 - x, y) - margin) \
            <= 1e-14 * (1.0 + cert.slope)


@pytest.mark.parametrize("family", ["new", "tilted"])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.6, np.pi / 4])
def test_mirrored_screen_leaves_what_a_full_screen_leaves(theta, family):
    # (e) at the corner guess's slope, the LDL^T verdicts on every row of
    # the default grid mirror row for row, and the rows a <= pi/4 hold what
    # the screen leaves on the half grid
    ev = certify._MarginEvaluator(theta, family)
    s0, mu0 = _corner_guess(ev)
    a = b = np.linspace(0.0, np.pi / 2, 201)
    x, y = ev.factors(a, b)
    c = ev.coefficients(s0, mu0 + certify._SCREEN_RTOL * (1.0 + s0))
    fails = ~certify._pivots_positive(certify._planes(x.T, c, y))
    assert np.array_equal(fails, fails[::-1])
    half = fails[:101]
    left_a, left_b = certify._screen(ev, [(s0, mu0, a[:101], b)])[0]
    assert np.array_equal(left_a, a[:101][half.any(axis=1)])
    assert np.array_equal(left_b, b[half.any(axis=0)])


def _screened_points(monkeypatch):
    # points factored per _screen call, counted where the LDL^T runs
    calls = []
    screen, pivots = certify._screen, certify._pivots_positive

    def recording_screen(*args):
        calls.append(0)
        return screen(*args)

    def counting_pivots(planes):
        calls[-1] += planes[0].size
        return pivots(planes)

    monkeypatch.setattr(certify, "_screen", recording_screen)
    monkeypatch.setattr(certify, "_pivots_positive", counting_pivots)
    return calls


def test_grid_screen_factors_half_the_grid(monkeypatch, cutoffs):
    # the grid, then one pass per refinement level, the grid on the rows
    # with a <= pi/4 alone
    cert = cutoffs.get(0.6, "new")
    calls = _screened_points(monkeypatch)
    find_cutoff(0.6, "new")
    assert len(calls) == 1 + certify.DEFAULT_REFINE_LEVELS
    assert calls[0] <= 101 * 201
    calls.clear()
    verify_cutoff(cert, grid=(801, 801))
    assert len(calls) == 1 + certify.DEFAULT_REFINE_LEVELS
    assert calls[0] <= 401 * 801


# ---- verify_cutoff, the re-verification that covers branch 1 by the identity ----


def test_verify_branch1_passes(small_cert):
    worst = verify_cutoff(small_cert, grid=(101, 101))
    assert worst >= -1e-8


def test_verify_branch1_rejects_wrong_delta_variant(small_cert):
    relabelled = dataclasses.replace(small_cert, delta_variant="identity")
    with pytest.raises(DomainError, match="delta_variant"):
        verify_cutoff(relabelled, grid=(101, 101))


def _unscreened_scan(cert, grid):
    # reference verification with no screen: exact margins at every point
    # of the grid and of every refinement patch
    ev = certify._MarginEvaluator(cert.theta, cert.family)
    neg, _, _ = _unscreened_search(lambda a, b: -ev.margins(cert.i_star, a, b), grid,
                                   cert.refine_levels, ev.b_ideal)
    return -neg


@pytest.mark.parametrize("theta, family, grid, refine_levels, verify_grid", [
    (0.6, "new", (201, 201), 2, None),
    (0.6, "new", (201, 201), 2, (151, 173)),
    (0.25, "new", (151, 151), 3, None),
    (0.7, "tilted", (201, 201), 0, (151, 173)),
    (0.3, "tilted", (201, 201), 2, (152, 151)),
])
def test_verify_branch1_equals_unscreened_scan(theta, family, grid, refine_levels,
                                               verify_grid):
    cert = find_cutoff(theta, family, grid=grid, refine_levels=refine_levels)
    expected = _unscreened_scan(cert, verify_grid or grid)
    assert verify_cutoff(cert, grid=verify_grid).hex() == expected.hex()


def test_verify_branch1_scans_cleared_meshgrids_in_full(monkeypatch):
    # a conservative certificate clears whole meshgrids; scanning those in
    # full keeps the patch centres, and so the result, of the unscreened scan
    cert = find_cutoff(0.6, "new")
    i_star = (cert.i_star + 1.0) / 2.0
    s, mu = slope_and_intercept(0.6, i_star)
    cert = dataclasses.replace(cert, i_star=i_star, slope=s, intercept=mu)
    cleared = []
    screen = certify._screen

    def recording_screen(*args):
        left = screen(*args)
        cleared.extend(kept[0].size == 0 for kept in left)
        return left

    monkeypatch.setattr(certify, "_screen", recording_screen)
    assert verify_cutoff(cert).hex() == _unscreened_scan(cert, (201, 201)).hex()
    assert len(cleared) == 5 and 0 < sum(cleared) < 5


@pytest.mark.parametrize("n", [201, 801])
def test_verify_branch1_takes_few_exact_margins(n, monkeypatch):
    # the screen works on lower-triangle planes; exact margins build 4x4
    # matrices only on the points it leaves
    built = []
    operators = certify._MarginEvaluator.operators

    def counting_operators(self, c, a, b):
        out = operators(self, c, a, b)
        built.append(out[0].size // 16)
        return out

    cert = find_cutoff(0.6, "new")
    monkeypatch.setattr(certify._MarginEvaluator, "operators", counting_operators)
    verify_cutoff(cert, grid=(n, n))
    assert 0 < sum(built) <= 50


@pytest.mark.parametrize("field, value", [("tol", 1e6), ("tol", float("nan")),
                                          ("i_star", 1.0), ("i_star", float("nan")),
                                          ("i_star", 1.5), ("i_star", 0.0)])
def test_verify_branch1_rejects_untrusted_fields(small_cert, field, value):
    with pytest.raises(DomainError, match=field):
        verify_cutoff(dataclasses.replace(small_cert, **{field: value}), grid=(101, 101))


def test_verify_branch1_rejects_cutoff_far_below_true_one(small_cert):
    low = dataclasses.replace(small_cert, i_star=0.5)
    with pytest.raises(ChannelFamilyError, match=r"fails verification: margin -.*\(a=.*b=.*\)"):
        verify_cutoff(low, grid=(101, 101))


@pytest.mark.parametrize("theta, family", [(0.05, "new"), (0.3, "tilted"), (np.pi / 4, "new")])
def test_verify_cutoff_passes_default_certificates_finely(theta, family, cutoffs):
    # criterion 05 re-verifies ten default certificates on their own grid
    assert verify_cutoff(cutoffs.get(theta, family), grid=(801, 801)) >= -certify.VERIFY_TOL


@pytest.mark.parametrize("theta, family", [(0.05, "tilted"), (0.6, "new"), (np.pi / 4, "new")])
def test_verify_cutoff_rejects_a_slightly_lowered_cutoff(theta, family, cutoffs):
    cert = cutoffs.get(theta, family)
    i_star = cert.i_star - 1e-6 * (1.0 - cert.i_star)
    s, mu = slope_and_intercept(theta, i_star)
    lowered = dataclasses.replace(cert, i_star=i_star, slope=s, intercept=mu)
    with pytest.raises(ChannelFamilyError,
                       match=rf"cutoff {i_star!r} fails verification: margin -.* at "
                             rf"\(a=.*, b=.*\) for {family} at theta={theta}"):
        verify_cutoff(lowered)


@pytest.mark.parametrize("grid, refine_levels", [((0, 0), 2), ((1, 1), 2), ((2, 2), 2),
                                                 ((101, 100), 2), ((101, 101), -1)])
def test_verify_branch1_checks_grid_as_find_cutoff_does(small_cert, grid, refine_levels):
    cert = dataclasses.replace(small_cert, refine_levels=refine_levels)
    with pytest.raises(ValueError, match="at least 101|refine_levels"):
        verify_cutoff(cert, grid=grid)
    with pytest.raises(ValueError, match="at least 101|refine_levels"):
        find_cutoff(0.6, "new", grid=grid, refine_levels=refine_levels)


@pytest.mark.parametrize("grid, refine_levels, name", [
    ((201.5, 201), 2, "grid"), ((201.0, 201), 2, "grid"), ((201,), 2, "grid"),
    ((201, 201, 201), 2, "grid"), (201, 2, "grid"), ((201, "201"), 2, "grid"),
    ((201, 201), 1.5, "refine_levels"), ((201, 201), "2", "refine_levels"),
])
def test_grid_check_names_unusable_grid_or_depth(small_cert, grid, refine_levels, name):
    # a grid is two integers and a depth is an integer; anything else is
    # named in a ValueError before numpy or an unpacking sees it
    with pytest.raises(ValueError, match=name):
        find_cutoff(0.6, "new", grid=grid, refine_levels=refine_levels)
    cert = dataclasses.replace(small_cert, refine_levels=refine_levels)
    with pytest.raises(ValueError, match=name):
        verify_cutoff(cert, grid=grid)


def test_grid_check_takes_numpy_integers(small_cert):
    grid = (np.int64(101), np.int32(101))
    assert find_cutoff(0.6, "new", grid=grid, refine_levels=np.int64(2)) == small_cert
    assert verify_cutoff(small_cert, grid=grid) == verify_cutoff(small_cert, grid=(101, 101))


@pytest.mark.parametrize("i_star, a, b, name", [
    (0.9, 5.0, 0.3, "a="), (0.9, 0.3, -0.1, "b="), (0.9, float("nan"), 0.3, "a="),
    (0.9, 0.3, float("nan"), "b="), (1.0, 0.3, 0.3, "i_star="),
    (float("nan"), 0.3, 0.3, "i_star="), (-0.2, 0.3, 0.3, "i_star="),
])
def test_operator_margin_rejects_unusable_input(i_star, a, b, name):
    with pytest.raises(DomainError, match=name):
        operator_margin(0.6, "new", i_star, a, b)


def test_branch_margins_mirror_in_alice_angle(small_cert, branch1_margin):
    # branch 1's margin at (a, b), from its physical definition, is branch
    # 0's at (pi/2 - a, b): the branch identity and the mirror in a combined
    ev = certify._MarginEvaluator(0.6, "new")
    rng = np.random.default_rng(13)
    a = rng.uniform(0, np.pi / 2, size=20)
    b = rng.uniform(0, np.pi / 2, size=20)
    m1 = [branch1_margin(0.6, "new", small_cert.i_star, x, y) for x, y in zip(a, b)]
    m0 = ev.margins(small_cert.i_star, (np.pi / 2 - a)[:, None], b[:, None])[:, 0]
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
