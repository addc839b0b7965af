import numpy as np
import pytest

from diqc import matrixcore
from diqc.matrixcore import block_fidelity, psd_sqrt, uhlmann_fidelity
from diqc.quantum import RegisterState, partial_trace

I2 = np.eye(2)
I4 = np.eye(4)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---- the spectrum behind psd_sqrt ----


def test_eig_identity():
    assert np.allclose(psd_sqrt(I4 / 4.0), I4 / 2.0)


def test_eig_sigma_z():
    with pytest.raises(ValueError, match=r"smallest eigenvalue -1\.000e\+00"):
        psd_sqrt(SZ)


def test_eig_ideal_bell_operator_top_eigenvalue():
    from diqc.bell import new_bell_operator
    from diqc.quantum import ideal_settings

    a, b = ideal_settings(np.pi / 4)
    vals = np.linalg.eigvalsh(new_bell_operator(np.pi / 4, a, b))
    assert abs(vals[-1] - 1.0) < 1e-10


def test_eig_rejects_non_hermitian():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        psd_sqrt(m)


def test_eig_trace_sum_and_reconstruction():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 8):
        for _ in range(10):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = g @ g.conj().T
            s = psd_sqrt(m)
            root_sum = np.sum(np.sqrt(np.linalg.eigvalsh(m)))
            assert abs(np.trace(s).real - root_sum) < 1e-10 * root_sum
            assert np.max(np.abs(s @ s - m)) < 1e-10 * np.max(np.abs(m))
            assert np.array_equal(s, s.conj().T)


def test_eig_deterministic():
    rng = np.random.default_rng(17)
    m = random_density(rng, 4)
    assert np.array_equal(psd_sqrt(m), psd_sqrt(m.copy()))


# ---- psd_sqrt ----


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(I4), I4)


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 1.0, 0.0, 0.0])), np.diag([2.0, 1.0, 0.0, 0.0]))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = random_density(rng, 4)
        s = psd_sqrt(rho)
        assert np.max(np.abs(s @ s - rho)) < 1e-9


def test_psd_sqrt_rejects_negative():
    with pytest.raises(ValueError, match="not PSD"):
        psd_sqrt(np.diag([1.0, -0.01]))


def test_psd_sqrt_clamps_roundoff():
    s = psd_sqrt(np.diag([1.0, -1e-11]))
    assert np.allclose(s, np.diag([1.0, 0.0]))


# ---- uhlmann_fidelity ----


def test_fidelity_self():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 4)
    assert abs(uhlmann_fidelity(rho, rho) - 1.0) < 1e-9


def test_fidelity_orthogonal_pure():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    assert uhlmann_fidelity(p0, p1) < 1e-9


def test_fidelity_mixed_versus_pure():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    assert abs(uhlmann_fidelity(I2 / 2, p0) - 1 / np.sqrt(2)) < 1e-9


def test_fidelity_symmetric():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rho, sigma = random_density(rng, 4), random_density(rng, 4)
        assert abs(uhlmann_fidelity(rho, sigma) - uhlmann_fidelity(sigma, rho)) < 1e-8


def test_fidelity_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        uhlmann_fidelity(2 * I2, I2 / 2)


def test_fidelity_monotone_under_discarding():
    rng = np.random.default_rng(41)
    for _ in range(20):
        rho, sigma = random_density(rng, 4), random_density(rng, 4)
        full = uhlmann_fidelity(rho, sigma)
        reduced = uhlmann_fidelity(partial_trace(rho, "alice"), partial_trace(sigma, "alice"))
        assert reduced >= full - 1e-8


# ---- block_fidelity ----


def _register(rng, probs):
    blocks = tuple((label, p, random_density(rng, 4)) for label, p in enumerate(probs))
    return RegisterState(blocks)


def test_block_fidelity_identical():
    rng = np.random.default_rng(7)
    reg = _register(rng, [0.3, 0.7])
    assert abs(block_fidelity(reg, reg) - 1.0) < 1e-9


def test_block_fidelity_disjoint_support():
    rng = np.random.default_rng(9)
    a = RegisterState(((0, 1.0, random_density(rng, 4)), (1, 0.0, I4 / 4)))
    b = RegisterState(((0, 0.0, I4 / 4), (1, 1.0, random_density(rng, 4))))
    assert block_fidelity(a, b) == 0.0


def test_block_fidelity_mismatched_labels():
    rng = np.random.default_rng(13)
    a = RegisterState(((0, 1.0, random_density(rng, 4)),))
    b = RegisterState(((1, 1.0, random_density(rng, 4)),))
    with pytest.raises(ValueError, match="mismatched"):
        block_fidelity(a, b)


def test_block_fidelity_matches_dense_embedding():
    # oracle: embed the register as an 8x8 block-diagonal state
    rng = np.random.default_rng(19)
    for _ in range(10):
        w = rng.uniform(0.2, 0.8)
        p = _register(rng, [w, 1 - w])
        v = rng.uniform(0.2, 0.8)
        q = _register(rng, [v, 1 - v])
        direct = block_fidelity(p, q)
        dense = uhlmann_fidelity(p.dense_embedding(), q.dense_embedding())
        assert abs(direct - dense) < 1e-8


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        matrixcore.as_matrix(np.zeros((2, 3)))
