"""PSD square roots and fidelities of the small states used here.

All operations act on plain complex numpy arrays of dimension at most 8 and
are deterministic for identical inputs, so every certificate produced
downstream is reproducible run to run. Products and spectra are numpy's own
``np.kron`` and ``np.linalg``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .quantum import RegisterState

MAX_DIM = 8
HERMITIAN_ATOL = 1e-9
TRACE_ATOL = 1e-6
NOT_PSD_FLOOR = -1e-6


def as_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex array of dimension at most 8."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"{name} dimension {a.shape[0]} exceeds the supported maximum {MAX_DIM}")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of m from its conjugate transpose."""
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root S with S @ S == m.

    Eigenvalues in [-1e-6, 0) are treated as roundoff and clamped to zero;
    anything more negative is rejected because certification must not
    silently repair invalid states. So is a matrix that is not Hermitian
    within ``HERMITIAN_ATOL``.
    """
    m = as_matrix(m)
    defect = hermiticity_defect(m)
    if defect > HERMITIAN_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {HERMITIAN_ATOL:.0e}")
    vals, vecs = np.linalg.eigh(m)
    if vals[0] < NOT_PSD_FLOOR:
        raise ValueError(f"matrix is not PSD: smallest eigenvalue {vals[0]:.3e}")
    root = np.sqrt(np.clip(vals, 0.0, None))
    s = (vecs * root) @ vecs.conj().T
    return 0.5 * (s + s.conj().T)


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)) of two states.

    Computed as the nuclear norm of sqrt(rho) sqrt(sigma), the sum of its
    singular values, which equals that trace. Taking the square root of
    sqrt(rho) sigma sqrt(rho) instead would turn its roundoff eigenvalues
    of order 1e-16 into errors of order 1e-8 when the states are of low
    rank. Both arguments must be trace-one density matrices. The result is
    clamped to [0, 1] to absorb roundoff at the 1e-9 scale, since
    downstream arccos needs the closed interval.
    """
    rho = as_matrix(rho, "rho")
    sigma = as_matrix(sigma, "sigma")
    for name, state in (("rho", rho), ("sigma", sigma)):
        tr = np.trace(state).real
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"{name} is not normalized: trace {tr:.8f}")
    singular = np.linalg.svd(psd_sqrt(rho) @ psd_sqrt(sigma), compute_uv=False)
    return float(np.clip(np.sum(singular), 0.0, 1.0))


def block_fidelity(p: "RegisterState", q: "RegisterState") -> float:
    """Fidelity of two register states, sum_l sqrt(p_l q_l) F(rho_l, sigma_l).

    Valid because blocks with distinct labels are orthogonal; agrees with the
    Uhlmann fidelity of the dense block-diagonal embeddings.
    """
    p_blocks = list(p.blocks)
    q_blocks = list(q.blocks)
    if [lbl for lbl, _, _ in p_blocks] != [lbl for lbl, _, _ in q_blocks]:
        raise ValueError("register states have mismatched label sets")
    for blocks, name in ((p_blocks, "p"), (q_blocks, "q")):
        total = sum(w for _, w, _ in blocks)
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"{name} block probabilities sum to {total:.10f}, not 1")
    acc = 0.0
    for (_, pw, prho), (_, qw, qrho) in zip(p_blocks, q_blocks):
        weight = np.sqrt(max(pw, 0.0) * max(qw, 0.0))
        if weight > 0.0:
            acc += weight * uhlmann_fidelity(prho, qrho)
    return float(np.clip(acc, 0.0, 1.0))
