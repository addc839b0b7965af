"""Two-qubit domain objects: states, observables, instruments and channels.

Conventions used throughout the package:

* Alice is always the left tensor factor.
* Qubit observables with outcomes +-1 are parametrized by a single angle.
  Alice's pair has bisector ``H_OBS`` and half-angle ``a``; Bob's pair has
  bisector ``sigma_x`` and half-angle ``b``::

      A_0(a) = cos(a) H + sin(a) V        B_0(b) = cos(b) sx + sin(b) sz
      A_1(a) = cos(a) H - sin(a) V        B_1(b) = cos(b) sx - sin(b) sz

  with H = (sz + sx)/sqrt(2) and V = (sz - sx)/sqrt(2).
* The classical outcome of an instrument lives in a register label, never in
  a tensor factor, except in the dense-embedding oracle used by tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrixcore import as_matrix, hermiticity_defect, kron
# the scalar layer, re-exported here
from .pipeline import (  # noqa: F401
    LINEAR_WARP, THETA_RANGE, BellKind, DomainError, _check_range, check_theta)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)

# Observables halfway between sigma_z and sigma_x; H_OBS is the Hadamard matrix.
H_OBS = (SIGMA_Z + SIGMA_X) / np.sqrt(2.0)
V_OBS = (SIGMA_Z - SIGMA_X) / np.sqrt(2.0)

_SQRT2_P1 = 1.0 + np.sqrt(2.0)


class DegenerateInstrumentError(ValueError):
    """Every outcome branch of an instrument has vanishing probability."""


def projector(vec: np.ndarray) -> np.ndarray:
    """Rank-one projector |v><v| for a state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def phi_plus() -> np.ndarray:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v


def partial_entangled_state(theta: float, branch: int = 0) -> np.ndarray:
    """Partially entangled two-qubit state for one instrument branch.

    Branch 0 is cos(theta)|00> + sin(theta)|11>, branch 1 swaps the two
    amplitudes. The two branches are related by sigma_x tensor sigma_x.
    """
    theta = check_theta(theta)
    if branch not in (0, 1):
        raise DomainError(f"branch must be 0 or 1, got {branch!r}")
    c, s = np.cos(theta), np.sin(theta)
    v = np.zeros(4, dtype=complex)
    v[0], v[3] = (c, s) if branch == 0 else (s, c)
    return v


def alice_observable(index: int, a: float) -> np.ndarray:
    """Alice observable A_0(a) or A_1(a)."""
    a = _check_range(a, 0.0, np.pi / 2, "a")
    if index not in (0, 1):
        raise DomainError(f"index must be 0 or 1, got {index!r}")
    sign = 1.0 if index == 0 else -1.0
    return np.cos(a) * H_OBS + sign * np.sin(a) * V_OBS


def bob_observable(index: int, b: float) -> np.ndarray:
    """Bob observable B_0(b) or B_1(b)."""
    b = _check_range(b, 0.0, np.pi / 2, "b")
    if index not in (0, 1):
        raise DomainError(f"index must be 0 or 1, got {index!r}")
    sign = 1.0 if index == 0 else -1.0
    return np.cos(b) * SIGMA_X + sign * np.sin(b) * SIGMA_Z


def ideal_settings(theta: float, kind: str = "new") -> tuple[float, float]:
    """Measurement angles (a, b) at which the Bell value reaches 1.

    a = pi/4 turns Alice's pair into (sigma_z, sigma_x); b is the
    kind-dependent ideal half-angle for Bob, ``BellKind.b_ideal``.
    """
    return float(np.pi / 4), BellKind(kind, theta).b_ideal


# ---------------------------------------------------------------------------
# instruments


@dataclass(frozen=True)
class KrausInstrument:
    """Two-outcome qubit instrument given by Kraus operators per branch.

    ``branches[l]`` is the tuple of Kraus operators of outcome ``l``; the
    operators of all branches together must satisfy the completeness
    relation sum K^dag K = identity.
    """

    branches: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        if len(self.branches) == 0:
            raise ValueError("instrument needs at least one branch")
        total = np.zeros((2, 2), dtype=complex)
        frozen = []
        for ops in self.branches:
            row = []
            for op in ops:
                op = as_matrix(op, "kraus operator")
                if op.shape != (2, 2):
                    raise ValueError("kraus operators must be 2x2")
                op = op.copy()
                op.setflags(write=False)
                row.append(op)
                total += op.conj().T @ op
            frozen.append(tuple(row))
        object.__setattr__(self, "branches", tuple(frozen))
        defect = float(np.max(np.abs(total - IDENTITY_2)))
        if defect > 1e-9:
            raise ValueError(f"instrument is not complete: defect {defect:.3e}")


@dataclass(frozen=True)
class RegisterState:
    """Classically labelled ensemble of post-measurement states.

    ``blocks`` holds (label, probability, density matrix) per outcome.
    Probabilities sum to one; a zero-probability branch carries a maximally
    mixed placeholder state.
    """

    blocks: tuple[tuple[int, float, np.ndarray], ...]

    def __post_init__(self) -> None:
        total = 0.0
        frozen = []
        for label, prob, rho in self.blocks:
            rho = as_matrix(rho, f"block {label}")
            if prob < -1e-12:
                raise ValueError(f"block {label} has negative probability {prob}")
            tr = np.trace(rho).real
            if abs(tr - 1.0) > 1e-6:
                raise ValueError(f"block {label} is not normalized: trace {tr:.8f}")
            if hermiticity_defect(rho) > 1e-8:
                raise ValueError(f"block {label} is not Hermitian")
            rho = rho.copy()
            rho.setflags(write=False)
            frozen.append((int(label), float(max(prob, 0.0)), rho))
            total += max(prob, 0.0)
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"block probabilities sum to {total:.10f}, not 1")
        object.__setattr__(self, "blocks", tuple(frozen))

    def probability(self, label: int) -> float:
        for lbl, prob, _ in self.blocks:
            if lbl == label:
                return prob
        raise KeyError(label)

    def state(self, label: int) -> np.ndarray:
        for lbl, _, rho in self.blocks:
            if lbl == label:
                return rho
        raise KeyError(label)

    def dense_embedding(self) -> np.ndarray:
        """Block-diagonal matrix sum_l p_l rho_l (x) |l><l| (oracle use only)."""
        n = len(self.blocks)
        dim = self.blocks[0][2].shape[0]
        out = np.zeros((dim * n, dim * n), dtype=complex)
        for slot, (_, prob, rho) in enumerate(self.blocks):
            marker = np.zeros((n, n))
            marker[slot, slot] = 1.0
            out += prob * np.kron(rho, marker)
        return out


def reference_instrument(theta: float) -> KrausInstrument:
    """Target instrument: one Kraus operator per outcome.

    K_0 = diag(cos theta, sin theta), K_1 = diag(sin theta, cos theta).
    Projective at theta = 0, the outcome-labelled identity at theta = pi/4.
    """
    theta = _check_range(theta, 0.0, np.pi / 4, "theta")
    c, s = np.cos(theta), np.sin(theta)
    k0 = np.array([[c, 0.0], [0.0, s]], dtype=complex)
    k1 = np.array([[s, 0.0], [0.0, c]], dtype=complex)
    return KrausInstrument(((k0,), (k1,)))


def _side_operator(op: np.ndarray, side: str) -> np.ndarray:
    if side == "alice":
        return kron(op, IDENTITY_2)
    if side == "bob":
        return kron(IDENTITY_2, op)
    raise DomainError(f"side must be 'alice' or 'bob', got {side!r}")


def apply_instrument(instr: KrausInstrument, rho: np.ndarray, side: str = "bob") -> RegisterState:
    """Apply a single-qubit instrument to one side of a two-qubit state."""
    rho = as_matrix(rho, "rho")
    if rho.shape != (4, 4):
        raise ValueError("rho must be a two-qubit (4x4) state")
    blocks = []
    for label, ops in enumerate(instr.branches):
        out = np.zeros((4, 4), dtype=complex)
        for op in ops:
            lifted = _side_operator(op, side)
            out += lifted @ rho @ lifted.conj().T
        prob = np.trace(out).real
        if prob > 1e-12:
            blocks.append((label, prob, out / prob))
        else:
            blocks.append((label, 0.0, IDENTITY_4 / 4.0))
    if all(prob <= 1e-12 for _, prob, _ in blocks):
        raise DegenerateInstrumentError("all branch probabilities vanish")
    return RegisterState(tuple(blocks))


def instrument_choi(instr: KrausInstrument) -> RegisterState:
    """Register-resolved Choi state of an instrument acting on Bob's side."""
    return apply_instrument(instr, projector(phi_plus()), side="bob")


# ---------------------------------------------------------------------------
# extraction channels


@dataclass(frozen=True)
class DephasingChannel:
    """Single-qubit channel rho -> w rho + (1 - w) axis rho axis.

    ``axis`` is a Hermitian unitary, so the channel is unital, trace
    preserving and self-adjoint; w = 1 is the identity, w = 1/2 fully
    dephases toward the axis eigenbasis.
    """

    weight: float
    axis: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0 + 1e-12:
            raise ValueError(f"weight {self.weight} outside [0, 1]")
        axis = as_matrix(self.axis, "axis").copy()
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "weight", float(min(self.weight, 1.0)))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return self.weight * rho + (1.0 - self.weight) * self.axis @ rho @ self.axis

    def kraus(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.sqrt(self.weight) * np.eye(self.axis.shape[0], dtype=complex),
                np.sqrt(1.0 - self.weight) * self.axis)


def dephasing_profile(t: np.ndarray | float) -> np.ndarray | float:
    """Dephasing weight profile g(t) = (1 + sqrt 2)(cos t + sin t - 1).

    Equal to 1 at t = pi/4 and 0 at the endpoints of [0, pi/2]; outside that
    window the channel is taken as fully dephasing (weight 0), which keeps a
    valid convex mixture and can only weaken a certificate. (The raw cosine
    form is 2 pi periodic and would spuriously revive outside the window.)
    """
    t = np.asarray(t, dtype=float)
    g = _SQRT2_P1 * (np.cos(t) + np.sin(t) - 1.0)
    g = np.where((t >= 0.0) & (t <= np.pi / 2), g, 0.0)
    # g is finite and never -0.0 here, so this is np.clip(g, 0, 1) at less cost
    out = np.minimum(np.maximum(g, 0.0), 1.0)
    return out if out.ndim else float(out)


def alice_dephasing_weight(a: np.ndarray | float) -> np.ndarray | float:
    """Mixing weight (1 + g(a))/2 of Alice's extraction channel."""
    out = (1.0 + np.asarray(dephasing_profile(np.asarray(a, dtype=float)))) / 2.0
    return out if out.ndim else float(out)


def dephasing_alice(a: float) -> DephasingChannel:
    """Alice's extraction channel at measurement half-angle a.

    Identity at a = pi/4; full dephasing toward H at a = 0 and toward V at
    a = pi/2, where her two observables coincide up to sign.
    """
    a = _check_range(a, 0.0, np.pi / 2, "a")
    axis = H_OBS if a <= np.pi / 4 else V_OBS
    return DephasingChannel(alice_dephasing_weight(a), axis)


# Bob's channel reuses the same profile through a reparametrization of his
# half-angle that moves the profile peak from pi/4 to the ideal angle.

@dataclass(frozen=True)
class AngleWarp:
    """Monotone reparametrization t(b) of Bob's half-angle.

    The extraction weight is g(t(b)), so the warp decides where Bob's channel
    is the identity (t = pi/4) and how fast it dephases away from there. It
    maps [0, b_ideal] onto [0, pi/4] and [b_ideal, pi/2] onto [pi/4, pi/2]
    linearly, unless ``variant`` is the identity (where b_ideal is pi/4, the
    CHSH case); ``bob_warp`` takes both from the family record.
    """

    b_ideal: float
    variant: str

    def __call__(self, b: np.ndarray | float) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if self.variant == "identity":
            return b
        lo = (np.pi / 4) * b / self.b_ideal
        hi = np.pi / 4 + (np.pi / 4) * (b - self.b_ideal) / (np.pi / 2 - self.b_ideal)
        return np.where(b <= self.b_ideal, lo, hi)


def bob_warp(theta: float, kind: str = "new") -> AngleWarp:
    """The reparametrization of Bob's angle for a given inequality."""
    record = BellKind(kind, theta)
    return AngleWarp(record.b_ideal, record.warp_variant)


def dephasing_bob(b: float, theta: float, kind: str = "new") -> DephasingChannel:
    """Bob's extraction channel at measurement half-angle b.

    Mixing weight (1 + g(t(b)))/2, Alice's at the warped angle t(b).
    Identity at the ideal angle b_ideal(theta, kind); dephases toward
    sigma_x below it (observables collapsing onto sigma_x) and toward
    sigma_z above it (observables collapsing onto +-sigma_z).
    """
    b = _check_range(b, 0.0, np.pi / 2, "b")
    warp = bob_warp(theta, kind)
    axis = SIGMA_X if b <= warp.b_ideal else SIGMA_Z
    return DephasingChannel(alice_dephasing_weight(warp(b)), axis)


def apply_one_sided(channel: DephasingChannel, rho: np.ndarray, side: str) -> np.ndarray:
    """Apply a single-qubit channel to one side of a two-qubit state."""
    rho = as_matrix(rho, "rho")
    if rho.shape != (4, 4):
        raise ValueError("rho must be a two-qubit (4x4) state")
    out = np.zeros_like(rho)
    for op in channel.kraus():
        lifted = _side_operator(op, side)
        out += lifted @ rho @ lifted.conj().T
    return out


def partial_trace(rho: np.ndarray, keep: str, dims: tuple[int, int] = (2, 2)) -> np.ndarray:
    """Trace out one side of a bipartite state; ``keep`` is 'alice' or 'bob'."""
    rho = as_matrix(rho, "rho")
    da, db = dims
    if rho.shape != (da * db, da * db):
        raise ValueError(f"rho shape {rho.shape} does not match dims {dims}")
    r = rho.reshape(da, db, da, db)
    if keep == "alice":
        return np.trace(r, axis1=1, axis2=3)
    if keep == "bob":
        return np.trace(r, axis1=0, axis2=2)
    raise DomainError(f"keep must be 'alice' or 'bob', got {keep!r}")
