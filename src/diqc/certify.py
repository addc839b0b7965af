"""Certification core: self-testing cutoffs and the fidelity pipeline.

The central object is the linear overlap bound

    <extracted overlap>  >=  s * I + mu,      s + mu = 1,

valid whenever the operator

    (Lambda_a (x) Lambda_b)[|phi><phi|] - s B(a, b) - mu * identity

is positive semidefinite for every pair of measurement half-angles. The
cutoff I* is the violation at which the bound meets the trivial fidelity
(the largest Schmidt coefficient squared); the slope and intercept follow
from I* alone:

    s = (1 - cos^2 theta) / (1 - I*),    mu = (cos^2 theta - I*) / (1 - I*).

Since s + mu = 1, the operator is (T - 1) + s (1 - B) with T the twirled
target, and 1 - B is PSD because the Bell operators never exceed one. It is
PSD exactly when s is at least the top eigenvalue s_min(a, b) of the pencil
(1 - T, 1 - B) on the range of 1 - B, provided 1 - T vanishes on its kernel.
`find_cutoff` needs max s_min over a dense grid with local refinement and
sets I* = 1 - sin^2 theta / max s_min directly; there is no search over I*.

Only a handful of grid points can bind, so the pencil is not solved
everywhere. Exact slopes at the four corners of [0, pi/2]^2 give a guess
s0; the corners are grid points, so s0 <= max s_min, and at every default
angle the grid maximum sits at a corner. One pass over the full grid then
screens out every point whose operator (T - 1) + s0 (1 - B) - delta is
positive definite, tested by an unpivoted LDL^T factorization of the 4x4
stacks. This is sound for three reasons:

* the margin lambda_min((T - 1) + s (1 - B)) is nondecreasing in s because
  1 - B is PSD, so a point that clears delta at s0 has s_min < s0 and still
  clears it at the final slope, which is at least s0;
* when LDL^T completes with positive pivots, the factors are exact for a
  perturbation of norm about 5e-15 (1 + s0) (Higham, Accuracy and Stability
  of Numerical Algorithms, Thm 10.3), far below delta = 1e-12 (1 + s0);
* every remaining point, which includes every point with s_min >= s0 and
  every point where 1 - T leaks into the kernel of 1 - B, is solved exactly.

The certificate is therefore the one a full-grid solve gives for any guess
at most the grid maximum; a poor guess only costs time. A final margin scan
at I* over the solved points and the refinement patches confirms it.

The certificate is numerical: it reports the grid, the worst margin of the
final scan and the angle pair where the bound binds, so callers can
re-verify at higher resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bell, quantum
from .bell import BellKind
from .quantum import DomainError

BETA_STAR = 2.0 * (8.0 + 7.0 * math.sqrt(2.0)) / 17.0
CHSH_QUANTUM_BOUND = 2.0 * math.sqrt(2.0)
TRIVIAL_INPUT_FIDELITY = 1.0 / math.sqrt(2.0)

DEFAULT_GRID = (201, 201)
DEFAULT_REFINE_LEVELS = 2
VERIFY_TOL = 1e-9
# names the solver in the CLI cache key; change it whenever a solver change
# changes the certificates, so cached ones from the old solver are not served
SOLVER_TAG = "pencil1"
_REFINE_POINTS = 17
# grid rows per batched eigensolve or screen: bounds the temporary stacks
_ROW_BLOCK = 16
# the screen clears a point when its operator exceeds delta = this * (1 + s0),
# far above the LDL^T backward error of about 5e-15 * (1 + s0): the screened
# operator has norm at most 2 (1 + s0), since ||1 - T|| <= 1 and ||1 - B|| <= 2
_SCREEN_RTOL = 1e-12
# eigenvalues of 1 - B up to this multiple of its norm count as its kernel;
# genuine ones near the ideal point reach down to about 1e-13
_KERNEL_RTOL = 1e-15


class NonQuantumValueError(ValueError):
    """An observed violation exceeds the quantum bound beyond tolerance."""


class ChannelFamilyError(RuntimeError):
    """No cutoff below one exists for this extraction-channel family."""


class SymmetryViolationError(RuntimeError):
    """Branch-1 verification failed far beyond tolerance (implementation bug)."""


# ---------------------------------------------------------------------------
# fidelity bounds


def input_fidelity_bound(beta: float, floor: bool = True) -> float:
    """Fidelity of the source state with phi+ certified by a CHSH value.

    sqrt(1/2 + (beta - beta*) / (2 (2 sqrt 2 - beta*))) with
    beta* = 2 (8 + 7 sqrt 2)/17 ~ 2.106. With ``floor`` the result is
    clamped below by 1/sqrt(2), the fidelity achievable with no violation
    at all; without it the raw value (down to 0) is returned.
    """
    beta = float(beta)
    if beta > CHSH_QUANTUM_BOUND + 1e-6:
        raise NonQuantumValueError(f"beta={beta!r} exceeds 2*sqrt(2)")
    if beta < -4.0 - 1e-9:
        raise DomainError(f"beta={beta!r} below -4")
    beta = min(beta, CHSH_QUANTUM_BOUND)
    inner = 0.5 + 0.5 * (beta - BETA_STAR) / (CHSH_QUANTUM_BOUND - BETA_STAR)
    value = math.sqrt(max(inner, 0.0))
    if floor:
        value = max(value, TRIVIAL_INPUT_FIDELITY)
    return min(value, 1.0)


def output_fidelity_bound(i: float, theta: float, i_star: float,
                          floor: bool = True) -> float:
    """Fidelity of one post-measurement branch certified by its violation.

    sqrt(cos^2 theta + (1 - cos^2 theta)(i - i*)/(1 - i*)). With ``floor``
    the result is clamped below by cos(theta), the largest Schmidt
    coefficient of the branch target.
    """
    i = float(i)
    if i > 1.0 + 1e-6:
        raise NonQuantumValueError(f"violation {i!r} exceeds the quantum bound 1")
    if not 0.0 < i_star < 1.0:
        raise DomainError(f"i_star={i_star!r} outside (0, 1)")
    i = min(i, 1.0)
    c2 = math.cos(theta) ** 2
    inner = c2 + (1.0 - c2) * (i - i_star) / (1.0 - i_star)
    value = math.sqrt(max(inner, 0.0))
    if floor:
        value = max(value, math.cos(theta))
    return min(value, 1.0)


def combine_branches(p0: float, f0: float, f1: float) -> float:
    """Combine branch fidelities into one register-state fidelity.

    sqrt(p0/2) f0 + sqrt((1 - p0)/2) f1; the reference assigns each outcome
    probability one half, hence the halved weights.
    """
    p0 = float(p0)
    if not -1e-12 <= p0 <= 1.0 + 1e-12:
        raise DomainError(f"p0={p0!r} outside [0, 1]")
    for name, f in (("f0", f0), ("f1", f1)):
        if not -1e-12 <= f <= 1.0 + 1e-9:
            raise DomainError(f"{name}={f!r} outside [0, 1]")
    p0 = min(max(p0, 0.0), 1.0)
    return math.sqrt(p0 / 2.0) * f0 + math.sqrt((1.0 - p0) / 2.0) * f1


def instrument_fidelity_bound(f_in: float, f_out: float) -> float:
    """Compose input and output state fidelities into an instrument bound.

    cos(arccos f_in + arccos f_out), clamped to zero once the angle sum
    passes pi/2; fidelities compose this way because they cannot decrease
    under trace-preserving maps and obey the arccos triangle inequality.
    """
    for name, f in (("f_in", f_in), ("f_out", f_out)):
        if not -1e-9 <= f <= 1.0 + 1e-9:
            raise DomainError(f"{name}={f!r} outside [0, 1]")
    angle = math.acos(min(max(f_in, 0.0), 1.0)) + math.acos(min(max(f_out, 0.0), 1.0))
    if angle >= math.pi / 2:
        return 0.0
    return math.cos(angle)


def slope_and_intercept(theta: float, i_star: float) -> tuple[float, float]:
    """Line through (I*, cos^2 theta) and (1, 1) in the (violation, overlap) plane."""
    c2 = math.cos(theta) ** 2
    s = (1.0 - c2) / (1.0 - i_star)
    mu = (c2 - i_star) / (1.0 - i_star)
    return s, mu


# ---------------------------------------------------------------------------
# operator-inequality verification


@dataclass(frozen=True)
class LinearBoundCertificate:
    """Accepted linear overlap bound for one inequality and angle.

    Records the full verification metadata: grid resolution, refinement
    depth, the verification tolerance, the worst margin of the final scan,
    the binding angle pair (where the bound is tight, so I* cannot be
    lowered; reported as ``worst_a``, ``worst_b``), and which
    reparametrization of Bob's extraction channel was in force (derived from
    the angle, see ``quantum.AngleWarp``).
    """

    theta: float
    family: str
    i_star: float
    slope: float
    intercept: float
    grid_a: int
    grid_b: int
    refine_levels: int
    tol: float
    worst_margin: float
    worst_a: float
    worst_b: float
    delta_variant: str

    @property
    def kind(self) -> BellKind:
        return BellKind(self.family, self.theta)


def _kind(theta: float, family: str) -> BellKind:
    if family not in ("new", "tilted"):
        raise DomainError(f"cutoffs exist only for 'new' and 'tilted', got {family!r}")
    return BellKind(family, theta)


class _MarginEvaluator:
    """Margins and pencil slopes of the operator inequality, vectorized.

    Precomputes everything that does not depend on the angles: the target
    projector and its conjugations by the dephasing axes. Every operator
    involved is real, so the stacks are float64.
    """

    def __init__(self, theta: float, family: str, branch: int = 0):
        self.theta = float(theta)
        self.kind = _kind(theta, family)
        self.branch = int(branch)
        self.warp = quantum.bob_warp(theta, family)
        self.b_ideal = self.warp.b_ideal
        self.c2 = math.cos(theta) ** 2
        state = quantum.partial_entangled_state(theta, branch)
        self._proj = quantum.projector(state).real
        gam = (quantum.H_OBS.real, quantum.V_OBS.real)
        ome = (quantum.SIGMA_X.real, quantum.SIGMA_Z.real)
        e2 = np.eye(2)
        self._conj_a = np.array(
            [np.kron(g, e2) @ self._proj @ np.kron(g, e2) for g in gam])
        self._conj_b = np.array(
            [np.kron(e2, o) @ self._proj @ np.kron(e2, o) for o in ome])
        self._conj_ab = np.array(
            [[np.kron(g, o) @ self._proj @ np.kron(g, o) for o in ome] for g in gam])
        self._rr = np.kron(quantum.ROT_X_PI, quantum.ROT_X_PI).real

    def stacks(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Channel-twirled projector stack and Bell stack on the meshgrid."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        wa = np.atleast_1d(quantum.alice_dephasing_weight(a))
        wb = np.atleast_1d((1.0 + quantum.dephasing_profile(self.warp(b))) / 2.0)
        sel_a = (a > np.pi / 4).astype(int)
        sel_b = (b > self.b_ideal).astype(int)
        ca = self._conj_a[sel_a]
        cb = self._conj_b[sel_b]
        cab = self._conj_ab[sel_a[:, None], sel_b[None, :]]
        wa4 = wa[:, None, None, None]
        wb4 = wb[None, :, None, None]
        twirled = (wa4 * wb4 * self._proj
                   + wa4 * (1.0 - wb4) * cb[None, :]
                   + (1.0 - wa4) * wb4 * ca[:, None]
                   + (1.0 - wa4) * (1.0 - wb4) * cab)
        if self.branch == 0:
            bops = bell.bell_operator_grid(self.kind, a, b)
        else:
            # primed test: rotate the operator stack taken at pi/2 - a
            base = bell.bell_operator_grid(self.kind, np.pi / 2 - a, b)
            bops = np.einsum("ij,abjk,lk->abil", self._rr, base, self._rr)
        return twirled, bops

    def margins(self, i_star: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of the bound operator at cutoff ``i_star``."""
        s, mu = slope_and_intercept(self.theta, i_star)
        twirled, bops = self.stacks(a, b)
        m = twirled - s * bops - mu * np.eye(4)
        return np.linalg.eigvalsh(m)[..., 0]

    def slopes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Smallest slope s whose bound operator is PSD, per angle pair.

        That is the top eigenvalue of the pencil (Q, P) = (1 - T, 1 - B) on
        the range of P, after whitening Q there. Eigenvalues of P at
        roundoff level relative to its norm count as its kernel, where Q
        must vanish; any other kernel direction is a ChannelFamilyError.
        """
        twirled, bops = self.stacks(a, b)
        w, v = np.linalg.eigh(np.eye(4) - bops)
        g = v.swapaxes(-1, -2) @ (np.eye(4) - twirled) @ v
        kernel = w <= _KERNEL_RTOL * w[..., -1:]
        leak = kernel & (np.diagonal(g, axis1=-2, axis2=-1) > VERIFY_TOL)
        if leak.any():
            i, j, _ = np.argwhere(leak)[0]
            raise ChannelFamilyError(
                f"1 - T does not vanish on the kernel of 1 - B at "
                f"(a={a[i]:.6f}, b={b[j]:.6f}); the extraction-channel family "
                f"cannot certify {self.kind.family} at theta={self.theta}")
        r = np.where(kernel, 0.0, 1.0 / np.sqrt(np.where(kernel, 1.0, w)))
        return np.linalg.eigvalsh(r[..., :, None] * g * r[..., None, :])[..., -1]


def operator_margin(theta: float, family: str, i_star: float, a: float, b: float) -> float:
    """Smallest eigenvalue of the bound operator at one angle pair.

    Nonnegative margins at every (a, b) make the linear overlap bound with
    cutoff ``i_star`` valid.
    """
    ev = _MarginEvaluator(theta, family)
    return float(ev.margins(i_star, np.array([a]), np.array([b]))[0, 0])


Patch = tuple[np.ndarray, np.ndarray]
Peak = tuple[float, tuple[float, float]]


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, np.pi / 2, n)


def _peak(f, a: np.ndarray, b: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Largest value of f over the meshgrid of a and b, and where it is.

    Evaluates ``_ROW_BLOCK`` values of a at a time, which bounds the size
    of the temporary operator stacks.
    """
    vals = np.concatenate([f(a[i:i + _ROW_BLOCK], b)
                           for i in range(0, len(a), _ROW_BLOCK)])
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    return float(vals[idx]), (float(a[idx[0]]), float(b[idx[1]]))


def _refine(f, best: float, best_at: tuple[float, float], n_a: int, n_b: int,
            refine_levels: int,
            b_ideal: float) -> tuple[float, tuple[float, float], list[Patch]]:
    """Raise the grid maximum ``best`` of f by local refinement patches.

    Refines around the running best cell and around the ideal point, one
    coarse cell wide, shrinking eightfold per level. Returns the patches
    too, so a later scan can revisit the same points.
    """
    h_a = (np.pi / 2) / (n_a - 1)
    h_b = (np.pi / 2) / (n_b - 1)
    centers = [best_at, (np.pi / 4, b_ideal)]
    patches = []
    for _ in range(refine_levels):
        next_centers = []
        for ca, cb in centers:
            fa = np.clip(np.linspace(ca - h_a, ca + h_a, _REFINE_POINTS), 0.0, np.pi / 2)
            fb = np.clip(np.linspace(cb - h_b, cb + h_b, _REFINE_POINTS), 0.0, np.pi / 2)
            patches.append((fa, fb))
            value, at = _peak(f, fa, fb)
            if value > best:
                best, best_at = value, at
            next_centers.append(at)
        centers = next_centers
        h_a /= _REFINE_POINTS / 2.0
        h_b /= _REFINE_POINTS / 2.0
    return best, best_at, patches


def _search(f, n_a: int, n_b: int, refine_levels: int,
            b_ideal: float) -> tuple[float, tuple[float, float], list[Patch]]:
    """Largest value of f over the full grid plus local refinement patches."""
    best, best_at = _peak(f, _grid(n_a), _grid(n_b))
    return _refine(f, best, best_at, n_a, n_b, refine_levels, b_ideal)


def _positive_definite(m: np.ndarray) -> np.ndarray:
    """Whether each symmetric matrix of a stack is positive definite.

    Unpivoted LDL^T: a matrix passes when every pivot is positive. The
    computed factors of a passing matrix are exact for m + E with
    ||E|| <= n gamma_(n+1) ||m + E|| (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3), about 2.3e-15 ||m|| for n = 4, so a
    pass proves lambda_min(m) > -2.3e-15 ||m||.
    """
    m = m.copy()
    ok = np.ones(m.shape[:-2], dtype=bool)
    n = m.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            pivot = m[..., k, k]
            ok &= pivot > 0.0
            col = m[..., k + 1:, k] / pivot[..., None]
            m[..., k + 1:, k + 1:] -= col[..., :, None] * m[..., None, k, k + 1:]
    return ok


def _cutoff(ev: _MarginEvaluator, s: float, at: tuple[float, float]) -> float:
    """Smallest float I below one whose slope covers the pencil slope s."""
    # 1 - I* carries a relative roundoff of up to 1e-9 at theta = 0.05, so
    # step up until the slope recomputed from I* covers s
    i_star = 1.0 - (1.0 - ev.c2) / s
    while i_star < 1.0 and slope_and_intercept(ev.theta, i_star)[0] < s:
        i_star = math.nextafter(i_star, 1.0)
    if not i_star < 1.0:
        raise ChannelFamilyError(
            f"slope {s:.6g} at (a={at[0]:.6f}, b={at[1]:.6f}) leaves no "
            f"cutoff below one for {ev.kind.family} at theta={ev.theta}")
    return i_star


def _screened_peak(ev: _MarginEvaluator, a: np.ndarray, b: np.ndarray,
                   guess: Peak) -> tuple[float, tuple[float, float], list[Patch]]:
    """Largest pencil slope over the meshgrid of a and b, solved sparsely.

    ``guess`` is a slope, at most the true maximum, and where it was found.
    Take the cutoff I0 that it gives, with slope s0 and intercept mu0. A
    point whose operator T - s0 B - (mu0 + delta) is positive definite has
    s_min below s0 and cannot hold the maximum. The pencil is solved at
    every other point, one grid row at a time in row-major order, so ties
    break as np.argmax over the full grid does. Returns the maximum, where
    it is, and the solved points as (one-element a, b) meshgrids.
    """
    s0, mu0 = slope_and_intercept(ev.theta, _cutoff(ev, *guess))
    shift = (mu0 + _SCREEN_RTOL * (1.0 + s0)) * np.eye(4)
    points = []
    for i in range(0, len(a), _ROW_BLOCK):
        twirled, bops = ev.stacks(a[i:i + _ROW_BLOCK], b)
        fails = ~_positive_definite(twirled - s0 * bops - shift)
        points += [(a[i + r:i + r + 1], b[fails[r]])
                   for r in np.flatnonzero(fails.any(axis=1))]
    best, best_at = -np.inf, guess[1]
    for pa, pb in points:
        vals = ev.slopes(pa, pb)[0]
        j = int(np.argmax(vals))
        if vals[j] > best:
            best, best_at = float(vals[j]), (float(pa[0]), float(pb[j]))
    return best, best_at, points


def _screened_cutoff(ev: _MarginEvaluator, grid: tuple[int, int], refine_levels: int,
                     guess: Peak) -> LinearBoundCertificate:
    """Certificate of ``find_cutoff`` from a slope guess at most the grid maximum."""
    n_a, n_b = grid
    s_grid, at, points = _screened_peak(ev, _grid(n_a), _grid(n_b), guess)
    s_max, (bind_a, bind_b), patches = _refine(ev.slopes, s_grid, at, n_a, n_b,
                                               refine_levels, ev.b_ideal)
    i_star = _cutoff(ev, s_max, (bind_a, bind_b))
    # every screened-out point keeps a margin above delta at I*, so the
    # solved points and the patches hold the worst one
    neg, (wa, wb) = max((_peak(lambda a, b: -ev.margins(i_star, a, b), pa, pb)
                         for pa, pb in [*points, *patches]), key=lambda peak: peak[0])
    if -neg < -VERIFY_TOL:
        raise ChannelFamilyError(
            f"cutoff {i_star!r} fails verification: margin {-neg:.3e} at "
            f"(a={wa:.6f}, b={wb:.6f}) for {ev.kind.family} at theta={ev.theta}")
    s, mu = slope_and_intercept(ev.theta, i_star)
    return LinearBoundCertificate(
        theta=ev.theta, family=ev.kind.family, i_star=i_star, slope=s, intercept=mu,
        grid_a=n_a, grid_b=n_b, refine_levels=refine_levels, tol=VERIFY_TOL,
        worst_margin=-neg, worst_a=bind_a, worst_b=bind_b,
        delta_variant=ev.warp.variant)


def find_cutoff(theta: float, family: str = "new",
                grid: tuple[int, int] = DEFAULT_GRID,
                refine_levels: int = DEFAULT_REFINE_LEVELS) -> LinearBoundCertificate:
    """Smallest cutoff I* whose operator inequality holds on the grid.

    The bound operator is (T - 1) + s (1 - B), PSD exactly where s is at
    least the top eigenvalue s_min(a, b) of the pencil (1 - T, 1 - B). The
    largest s_min over an ``n_a x n_b`` grid (at least 101 per axis), with
    ``refine_levels`` refinement passes around its maximum and around the
    ideal point, gives I* = 1 - sin^2 theta / max s_min, rounded up to the
    first float whose slope covers that maximum.

    The pencil is solved exactly at the four corners of [0, pi/2]^2 for a
    guess s0, and then only at the grid points a positive definiteness
    screen cannot clear: the operator at s0 minus delta = 1e-12 (1 + s0),
    factored by LDL^T whose backward error stays far below delta. Since the
    margin is nondecreasing in s, a cleared point has s_min < s0 and a
    margin above delta at I*. So the maximum, where it lies (ties broken in
    row-major order) and the certificate equal those of a solve at every
    grid point, for any guess at most the grid maximum; the corners are grid
    points, and at every default angle one of them holds the maximum, so
    the screen leaves only a few points to solve. A final margin scan at I*
    over the solved points and the patches must find no margin below
    -VERIFY_TOL. Raises ChannelFamilyError if 1 - T fails to vanish on the
    kernel of 1 - B or the final scan fails, which indicates a broken
    channel family.
    """
    n_a, n_b = grid
    if n_a < 101 or n_b < 101:
        raise ValueError(f"grid {grid} too coarse: need at least 101 points per axis")
    if refine_levels < 0:
        raise ValueError(f"refine_levels must be nonnegative, got {refine_levels}")
    ev = _MarginEvaluator(theta, family)
    ends = np.array([0.0, np.pi / 2])
    return _screened_cutoff(ev, grid, refine_levels, _peak(ev.slopes, ends, ends))


def verify_branch1(cert: LinearBoundCertificate,
                   grid: tuple[int, int] | None = None) -> float:
    """Re-verify an accepted certificate against the second branch state.

    Scans the operator inequality built from the branch-1 target and the
    rotated Bell operator over the full grid; by the change-of-variables
    symmetry its margins equal the branch-0 margins at mirrored Alice
    angles, so an accepted certificate must pass. Returns the worst margin;
    raises SymmetryViolationError if it is worse than ten times the
    certificate tolerance (an implementation-bug indicator, not a physical
    failure mode). Raises DomainError if the certificate records another
    ``delta_variant`` than its angle gives.
    """
    n_a, n_b = grid if grid is not None else (cert.grid_a, cert.grid_b)
    ev = _MarginEvaluator(cert.theta, cert.family, branch=1)
    if ev.warp.variant != cert.delta_variant:
        raise DomainError(
            f"certificate records delta_variant={cert.delta_variant!r}, but "
            f"theta={cert.theta} gives {ev.warp.variant!r}")
    neg, _, _ = _search(lambda a, b: -ev.margins(cert.i_star, a, b), n_a, n_b,
                        cert.refine_levels, ev.b_ideal)
    if -neg < -10.0 * cert.tol:
        raise SymmetryViolationError(
            f"branch-1 margin {-neg:.3e} violates the mirror symmetry")
    return -neg


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class FidelityCertificate:
    """Composed instrument-fidelity lower bound and its ingredients."""

    beta: float
    i0: float
    i1: float
    p0: float
    f_in: float
    f_out0: float
    f_out1: float
    f_out: float
    bound: float


def _pipeline(beta: float, i0: float, i1: float, p0: float, theta: float,
              cert: LinearBoundCertificate, floor: bool) -> FidelityCertificate:
    if abs(cert.theta - theta) > 1e-9:
        raise DomainError(
            f"certificate is for theta={cert.theta}, asked to certify theta={theta}")
    f_in = input_fidelity_bound(beta, floor)
    f0 = output_fidelity_bound(i0, theta, cert.i_star, floor)
    f1 = output_fidelity_bound(i1, theta, cert.i_star, floor)
    f_out = combine_branches(p0, f0, f1)
    bound = instrument_fidelity_bound(f_in, min(f_out, 1.0))
    return FidelityCertificate(beta=float(beta), i0=float(i0), i1=float(i1),
                               p0=float(p0), f_in=f_in, f_out0=f0, f_out1=f1,
                               f_out=f_out, bound=bound)


def certify_instrument(beta: float, i0: float, i1: float, p0: float,
                       theta: float, cert: LinearBoundCertificate) -> FidelityCertificate:
    """Full certification pipeline from observed statistics.

    The input fidelity comes from the CHSH value, each branch fidelity from
    its violation through the certificate's cutoff (one cutoff serves both
    branches by the mirror symmetry), the branches combine with square-root
    probability weights, and input and output compose through the arccos
    triangle inequality. The certificate must be for ``theta``.
    """
    return _pipeline(beta, i0, i1, p0, theta, cert, floor=True)


def raw_pipeline_bound(beta: float, i: float, theta: float,
                       cert: LinearBoundCertificate, p0: float = 0.5) -> FidelityCertificate:
    """Pipeline without the trivial-fidelity floors, for surface sweeps.

    Both branches are assumed to reach the same violation. Dropping the
    floors lets the surface reach the zero clamp in the low-violation
    corner instead of saturating at the floor composition. The certificate
    must be for ``theta``.
    """
    return _pipeline(beta, i, i, p0, theta, cert, floor=False)
