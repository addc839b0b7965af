"""The closed-form cutoff against 50-digit arithmetic, the pencil oracle and the corners."""

import itertools
import math
import re

import mpmath
import numpy as np
import pencil_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diqc import bell, certify, pipeline, quantum
from diqc.pipeline import vertex_cutoff

DEFAULTS = [(float(theta), family) for family in ("new", "tilted")
            for theta in np.linspace(0.05, np.pi / 4, 25)]
drawn_angles = st.floats(*pipeline.THETA_RANGE)
families = st.sampled_from(["new", "tilted"])


def _ulps(x, reference):
    return abs(x - reference) / math.ulp(reference)


def _exact_cutoff(theta, family):
    # vertex_cutoff's rounding rule, the smallest float whose float slope
    # covers s*, applied to s* from the float theta at 50 digits, through
    # the textbook local bounds
    with mpmath.workdps(50):
        th = mpmath.mpf(theta)
        if family == "tilted" and not pipeline.BellKind(family, theta).is_chsh:
            t_star = mpmath.cos(th - mpmath.pi / 8) ** 2 / 2
            alpha = 2 / mpmath.sqrt(1 + 2 * mpmath.tan(2 * th) ** 2)
            beta_l = (2 + alpha) / mpmath.sqrt(8 + 2 * alpha ** 2)
        else:
            t_star = mpmath.cos(th) ** 2 * mpmath.cos(mpmath.pi / 8) ** 2
            c2, c4 = mpmath.cos(2 * th), mpmath.cos(4 * th)
            beta_l = (c2 + (2 + c2) * mpmath.sqrt((7 - c4) / (5 + c4))) / 4
        s = (1 - t_star) / (1 - beta_l)
        i_star = float(1 - mpmath.sin(th) ** 2 / s)
        while pipeline.slope_and_intercept(theta, math.nextafter(i_star, 0.0))[0] >= s:
            i_star = math.nextafter(i_star, 0.0)
        while pipeline.slope_and_intercept(theta, i_star)[0] < s:
            i_star = math.nextafter(i_star, 1.0)
    return i_star


def test_vertex_cutoff_matches_50_digit_rounding():
    # the pencil solve was off by up to 2 ulps from a 50-digit solve, 22 in all
    errors = [_ulps(vertex_cutoff(theta, family)[0], _exact_cutoff(theta, family))
              for theta, family in DEFAULTS]
    assert max(errors) <= 2
    assert sum(errors) <= 22


@pytest.mark.parametrize("shift", [-20, 20])
@pytest.mark.parametrize("theta, family", [(0.6, "new"), (0.3, "tilted"), (math.pi / 4, "tilted")])
def test_vertex_cutoff_bounds_its_ulp_walk(theta, family, shift, monkeypatch):
    # a closed form 20 ulps off the covering float, modelled by shifting the
    # slope the walk compares, stops the walk after 8 steps with an error
    # naming the input, where an unbounded walk would return the shifted float
    slope_and_intercept = pipeline.slope_and_intercept
    monkeypatch.setattr(pipeline, "slope_and_intercept",
                        lambda th, i: slope_and_intercept(th, i + shift * math.ulp(i)))
    with pytest.raises(pipeline.ChannelFamilyError,
                       match=re.escape(f"{family!r} at theta={theta!r}")):
        vertex_cutoff(theta, family)


def test_vertex_cutoff_agrees_with_the_pencil_at_the_corners():
    # at every default angle the pencil's grid maximum sits at a corner a = 0
    for theta, family in DEFAULTS:
        i_star = vertex_cutoff(theta, family)[0]
        assert _ulps(i_star, pencil_oracle.corner_cutoff(theta, family)) <= 3


def test_vertex_cutoff_meets_the_chsh_anchor():
    # both tests are CHSH / (2 sqrt 2) at pi/4 and share one cutoff, bit for bit
    new, tilted = (vertex_cutoff(np.pi / 4, family) for family in ("new", "tilted"))
    assert new == tilted
    with mpmath.workdps(50):
        anchor = (8 + 7 * mpmath.sqrt(2)) / (17 * mpmath.sqrt(2))
        assert abs(new[0] - anchor) <= 2 * math.ulp(new[0])


@settings(max_examples=20)
@given(theta=drawn_angles, family=families)
def test_vertex_cutoff_agrees_with_the_pencil_on_a_grid(theta, family):
    # the pencil at every point of the unrefined 101^2 half grid
    ev = certify._MarginEvaluator(theta, family)
    a = np.linspace(0.0, np.pi / 2, 101)
    s_max = float(pencil_oracle.slopes(ev, a[:51, None], a[None, :]).max())
    i_star = vertex_cutoff(theta, family)[0]
    assert _ulps(i_star, pencil_oracle.cutoff(ev, s_max)) <= 3


def _check_corners(theta, family):
    # at a = 0 and b in {0, pi/2} the pointwise T and B are diagonal in the
    # product eigenbasis of Alice's axis H and Bob's (sigma_x at b = 0,
    # sigma_z at pi/2), with T holding the overlaps t_k of the basis states
    # with the target and B the values beta_k of the 8 deterministic
    # strategies with A0 = A1; the local-bound entries give the largest
    # slope (1 - t_k)/(1 - beta_k), one at the corner vertex_cutoff names
    kind = bell.BellKind(family, theta)
    build = bell.new_bell_operator if family == "new" else bell.tilted_operator
    target = quantum.projector(quantum.partial_entangled_state(theta)).real
    _, alice = np.linalg.eigh(quantum.H_OBS.real)
    entries = []
    for b, axis in ((0.0, quantum.SIGMA_X.real), (np.pi / 2, quantum.SIGMA_Z.real)):
        twirled = quantum.apply_one_sided(quantum.dephasing_alice(0.0), target, "alice")
        twirled = quantum.apply_one_sided(quantum.dephasing_bob(b, theta, family), twirled, "bob")
        signs, bob = np.linalg.eigh(axis)
        u = np.kron(alice, bob)
        t, beta = u.T @ twirled.real @ u, u.T @ build(theta, 0.0, b).real @ u
        for m in (t, beta):
            assert np.max(np.abs(m - np.diag(np.diag(m)))) <= 1e-15
        for k, (x, y) in enumerate(itertools.product((-1, 1), np.rint(signs).astype(int))):
            strategy = bell._deterministic_table(x, x, y, y if b == 0.0 else -y)
            assert beta[k, k] == pytest.approx(bell.bell_value(kind, strategy), abs=1e-14)
            assert t[k, k] == pytest.approx(u[:, k] @ target @ u[:, k], abs=1e-15)
            entries.append((t[k, k], beta[k, k], (0.0, b)))
    beta_l = bell.local_bound(kind)
    assert max(beta for _, beta, _ in entries) == pytest.approx(beta_l, abs=1e-14)
    slopes = [((1.0 - t) / (1.0 - beta), abs(beta - beta_l) <= 1e-12, at)
              for t, beta, at in entries]
    top = max(s for s, _, _ in slopes)
    i_star, corner = vertex_cutoff(theta, family)
    assert any(local and at == corner and s >= top * (1.0 - 1e-12) for s, local, at in slopes)
    assert all(local or s < top * (1.0 - 1e-9) for s, local, _ in slopes)
    assert 1.0 - i_star == pytest.approx(math.sin(theta) ** 2 / top, rel=1e-9)


@pytest.mark.parametrize("family", ["new", "tilted"])
def test_corner_operators_are_diagonal_in_a_product_basis(family):
    for theta in np.linspace(0.05, np.pi / 4, 25):
        _check_corners(float(theta), family)


@settings(max_examples=30)
@given(theta=drawn_angles, family=families)
def test_corner_operators_are_diagonal_at_drawn_angles(theta, family):
    _check_corners(theta, family)
