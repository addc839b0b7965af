import itertools

import numpy as np
import pytest

from diqc import bell
from diqc.bell import (
    BellKind,
    CorrelatorTable,
    brute_force_local_bound,
    brute_force_local_strategy,
    chsh_value,
    correlators_from_state,
    new_bell_operator,
    new_bell_value,
    relabel_branch1,
    tilted_bell_value,
    tilted_operator,
)
from diqc.quantum import (
    DomainError,
    ideal_settings,
    partial_entangled_state,
    phi_plus,
    projector,
)


def random_density(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _flip_second_bob(t):
    joint = t.joint.copy()
    joint[:, 1] *= -1
    mb = t.marginal_b.copy()
    mb[1] *= -1
    return CorrelatorTable(joint, t.marginal_a, mb)


# ---- CHSH ----


def test_chsh_zero_table():
    t = CorrelatorTable(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    assert chsh_value(t) == 0.0


def test_chsh_ideal_value():
    # A0 = sz, A1 = sx, Bob measuring (sz +- sx)/sqrt(2) on phi+
    s = 1 / np.sqrt(2)
    t = CorrelatorTable(np.array([[s, s], [s, -s]]), np.zeros(2), np.zeros(2))
    assert abs(chsh_value(t) - 2 * np.sqrt(2)) < 1e-12


def test_chsh_deterministic_point():
    t = CorrelatorTable(np.ones((2, 2)), np.ones(2), np.ones(2))
    assert chsh_value(t) == 2.0


def test_chsh_from_state_with_relabeled_setting():
    t = correlators_from_state(projector(phi_plus()), np.pi / 4, np.pi / 4)
    assert abs(chsh_value(_flip_second_bob(t)) - 2 * np.sqrt(2)) < 1e-12


# ---- the symmetric inequality ----


def test_new_value_is_one_at_ideal():
    for theta in np.linspace(0.05, np.pi / 4, 50):
        rho = projector(partial_entangled_state(theta, 0))
        a, b = ideal_settings(theta)
        assert abs(new_bell_value(correlators_from_state(rho, a, b), theta) - 1.0) < 1e-10


def test_new_reduces_to_scaled_chsh_at_quarter_pi():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_density(rng)
        a, b = rng.uniform(0, np.pi / 2, size=2)
        t = correlators_from_state(rho, a, b)
        lhs = new_bell_value(t, np.pi / 4)
        rhs = chsh_value(_flip_second_bob(t)) / (2 * np.sqrt(2))
        assert abs(lhs - rhs) < 1e-12


def test_new_deterministic_strategy_hits_local_bound():
    for theta in (0.1, 0.3, 0.6, np.pi / 4):
        joint = np.array([[1.0, -1.0], [1.0, -1.0]])
        t = CorrelatorTable(joint, np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        assert abs(new_bell_value(t, theta) - BellKind.new(theta).local_bound) < 1e-12


def test_new_theta_domain():
    t = CorrelatorTable(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
    with pytest.raises(DomainError):
        new_bell_value(t, 0.01)


# ---- operators and the dual evaluation route ----


def test_new_operator_hermitian_and_top_eigenvalue():
    op = new_bell_operator(np.pi / 4, *ideal_settings(np.pi / 4))
    assert np.max(np.abs(op - op.conj().T)) < 1e-12
    assert abs(np.linalg.eigvalsh(op)[-1] - 1.0) < 1e-10


@pytest.mark.parametrize("family", ["new", "tilted"])
def test_operator_matches_correlator_route(family):
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = rng.uniform(0.05, np.pi / 4)
        a, b = rng.uniform(0, np.pi / 2, size=2)
        rho = random_density(rng)
        t = correlators_from_state(rho, a, b)
        if family == "new":
            op_val = np.trace(new_bell_operator(theta, a, b) @ rho).real
            tab_val = new_bell_value(t, theta)
        else:
            op_val = np.trace(tilted_operator(theta, a, b) @ rho).real
            tab_val = tilted_bell_value(t, theta)
        assert abs(op_val - tab_val) < 1e-10


@pytest.mark.parametrize("family", ["new", "tilted"])
def test_operator_grid_matches_pointwise(family):
    rng = np.random.default_rng(9)
    theta = 0.45
    kind = BellKind(family, theta)
    a = rng.uniform(0, np.pi / 2, size=5)
    b = rng.uniform(0, np.pi / 2, size=5)
    stack = bell.bell_operator_grid(kind, a, b)
    build = new_bell_operator if family == "new" else tilted_operator
    for i, j in itertools.product(range(5), range(5)):
        assert np.max(np.abs(stack[i, j] - build(theta, a[i], b[j]))) < 1e-12


@pytest.mark.parametrize("family", ["new", "tilted"])
def test_quantum_maximum_on_grid(family):
    # quantum bound of one, scanned over the measurement-angle grid
    for theta in (0.2, 0.45, 0.7):
        kind = BellKind(family, theta)
        grid = np.linspace(0, np.pi / 2, 61)
        stack = bell.bell_operator_grid(kind, grid, grid)
        top = np.linalg.eigvalsh(stack)[..., -1].max()
        assert top <= 1.0 + 1e-6


# ---- local bounds ----


def test_local_bound_new_at_quarter_pi():
    assert abs(BellKind.new(np.pi / 4).local_bound - np.sqrt(2) / 2) < 1e-12


def test_local_bound_matches_brute_force():
    for theta in np.linspace(0.05, np.pi / 4, 50):
        closed = BellKind.new(theta).local_bound
        brute = brute_force_local_bound(BellKind.new(theta))
        assert abs(closed - brute) < 1e-12


def test_local_bound_ordering_new_above_tilted():
    for theta in np.linspace(0.05, np.pi / 4, 25):
        assert BellKind.new(theta).local_bound >= BellKind.tilted(theta).local_bound - 1e-12


def test_brute_force_chsh():
    tables = itertools.starmap(bell._deterministic_table, itertools.product((1, -1), repeat=4))
    assert max(map(chsh_value, tables)) == 2.0


def test_brute_force_new_quarter_pi():
    assert abs(brute_force_local_bound(BellKind.new(np.pi / 4)) - np.sqrt(2) / 2) < 1e-12


def test_brute_force_tilted_matches_closed_form():
    for theta in (0.1, 0.3, 0.55, np.pi / 4):
        brute = brute_force_local_bound(BellKind.tilted(theta))
        assert abs(brute - BellKind.tilted(theta).local_bound) < 1e-12


def test_stated_strategy_is_maximizing():
    for theta in (0.1, 0.4, 0.7):
        best, value = brute_force_local_strategy(BellKind.new(theta))
        joint = np.array([[1.0, -1.0], [1.0, -1.0]])
        stated = CorrelatorTable(joint, np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        assert abs(new_bell_value(stated, theta) - value) < 1e-12
        assert best[0] == 1 and best[2] == 1 and best[3] == -1


# ---- tilted specifics ----


def test_tilted_alpha_values():
    assert abs(BellKind.tilted(np.pi / 8).alpha - 2 / np.sqrt(3)) < 1e-12
    assert BellKind.tilted(np.pi / 4).alpha == 0.0


def test_tilted_reduces_to_scaled_chsh_at_quarter_pi():
    rng = np.random.default_rng(11)
    rho = random_density(rng)
    t = correlators_from_state(rho, 0.3, 0.9)
    lhs = tilted_bell_value(t, np.pi / 4)
    rhs = chsh_value(_flip_second_bob(t)) / (2 * np.sqrt(2))
    assert abs(lhs - rhs) < 1e-12


def test_tilted_value_is_one_at_ideal():
    for theta in (0.1, 0.3, 0.6):
        rho = projector(partial_entangled_state(theta, 0))
        a, b = ideal_settings(theta, "tilted")
        t = correlators_from_state(rho, a, b)
        assert abs(tilted_bell_value(t, theta) - 1.0) < 1e-9


# ---- branch-1 relabeling ----


def test_relabel_is_involution():
    rng = np.random.default_rng(13)
    t = correlators_from_state(random_density(rng), 0.4, 0.8)
    back = relabel_branch1(relabel_branch1(t))
    assert np.allclose(back.joint, t.joint)
    assert np.allclose(back.marginal_a, t.marginal_a)
    assert np.allclose(back.marginal_b, t.marginal_b)


def test_branch1_value_is_one_on_second_state():
    for theta in (0.1, 0.35, 0.6):
        rho = projector(partial_entangled_state(theta, 1))
        a, b = ideal_settings(theta)
        t = relabel_branch1(correlators_from_state(rho, a, b))
        assert abs(new_bell_value(t, theta) - 1.0) < 1e-10


def test_branch1_value_below_one_on_first_state():
    theta = 0.35
    rho = projector(partial_entangled_state(theta, 0))
    a, b = ideal_settings(theta)
    t = relabel_branch1(correlators_from_state(rho, a, b))
    assert new_bell_value(t, theta) < 1.0 - 1e-3


@pytest.mark.parametrize("family", ["new", "tilted"])
@pytest.mark.parametrize("theta", [0.05, 0.3, 0.5, np.pi / 4])
def test_relabel_matches_rotated_operator(theta, family, branch1_bell_operator):
    # the oracle that fixes the relabeling convention: the relabeled table
    # value must equal the expectation of (R x R) B(pi/2 - a, b) (R x R)^dag,
    # for the Bell operator of either family
    value = new_bell_value if family == "new" else tilted_bell_value
    rng = np.random.default_rng(17)
    for _ in range(20):
        rho = random_density(rng)
        a, b = rng.uniform(0, np.pi / 2, size=2)
        t = relabel_branch1(correlators_from_state(rho, a, b))
        op_val = np.trace(branch1_bell_operator(theta, family, a, b) @ rho).real
        assert abs(value(t, theta) - op_val) < 1e-10


def test_correlators_of_maximally_mixed_state():
    t = correlators_from_state(np.eye(4) / 4, 0.3, 1.1)
    assert np.allclose(t.joint, 0.0)
    assert np.allclose(t.marginal_a, 0.0)
    assert np.allclose(t.marginal_b, 0.0)


def test_correlators_of_phi_plus_at_diagonal_settings():
    # A0 = sigma_z, B0 = (sigma_x + sigma_z)/sqrt(2) on phi+
    t = correlators_from_state(projector(phi_plus()), np.pi / 4, np.pi / 4)
    assert abs(t.joint[0, 0] - 1 / np.sqrt(2)) < 1e-12


def test_table_entry_range():
    rng = np.random.default_rng(19)
    for _ in range(10):
        t = correlators_from_state(random_density(rng), rng.uniform(0, np.pi / 2),
                                   rng.uniform(0, np.pi / 2))
        assert np.max(np.abs(t.joint)) <= 1.0 + 1e-9
        assert np.max(np.abs(t.marginal_a)) <= 1.0 + 1e-9
        assert np.max(np.abs(t.marginal_b)) <= 1.0 + 1e-9


def test_bell_kind_validation():
    with pytest.raises(DomainError):
        BellKind("chsh", 0.3)
    with pytest.raises(DomainError):
        BellKind("new", None)
    with pytest.raises(DomainError):
        BellKind("magic", 0.3)
