"""Certification core: self-testing cutoffs (the fidelity pipeline is ``pipeline``).

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
positive definite, tested by an unpivoted LDL^T factorization.

The screen builds no 4x4 operator stacks. The operator is separable,
T - s0 B - mu0 = sum_ij x_i(a) y_j(b) C_ij, with six factors of a (the
twirl's three and Alice's (p, q, 1)), ten or eleven of b and fixed real 4x4
matrices C_ij, so one contraction and one matrix product give its ten
lower-triangle entries for a block of grid rows as contiguous planes, and
the LDL^T runs on those planes entry by entry. This is sound for four
reasons:

* the margin lambda_min((T - 1) + s (1 - B)) is nondecreasing in s because
  1 - B is PSD, so a point that clears delta at s0 has s_min < s0 and still
  clears it at the final slope, which is at least s0;
* the planes differ from the operator the stacks give by about 1e-15
  (1 + s0) per entry (a test holds them to 1e-14 (1 + s0) at four angles
  for both families and branches), far below delta = 1e-12 (1 + s0);
* when LDL^T completes with positive pivots, the factors are exact for a
  perturbation of norm about 5e-15 (1 + s0) (Higham, Accuracy and Stability
  of Numerical Algorithms, Thm 10.3), also far below delta;
* every remaining point, which includes every point with s_min >= s0 and
  every point where 1 - T leaks into the kernel of 1 - B, is solved exactly.

The certificate is therefore the one a full-grid solve gives for any guess
at most the grid maximum; a poor guess only costs time. Each refinement
patch is screened the same way from the exact maximum over its sample
{first, middle, last}^2, which is at most the patch maximum, so that
maximum and where it lies (the next patch's centre) stay the same. A final
margin scan at I* over the solved meshgrids alone confirms the certificate.

The same screen, at a certificate's own slope and intercept, lets
`verify_branch1` re-verify the branch-1 operator at any resolution in
milliseconds, taking exact margins only where it fails.
"""

from __future__ import annotations

import math

import numpy as np

from . import bell, quantum
from .bell import BellKind
# the scalar layer, re-exported here
from .pipeline import (  # noqa: F401
    BETA_STAR, CHSH_QUANTUM_BOUND, DEFAULT_GRID, DEFAULT_REFINE_LEVELS, SOLVER_TAG,
    TRIVIAL_INPUT_FIDELITY, VERIFY_TOL, ChannelFamilyError, DomainError,
    FidelityCertificate, LinearBoundCertificate, NonQuantumValueError, _check_cutoff,
    _check_range, certify_instrument, combine_branches, input_fidelity_bound,
    instrument_fidelity_bound, output_fidelity_bound, raw_pipeline_bound, slope_and_intercept)

_REFINE_POINTS = 17
# matrices per batched eigensolve or screen call, 16 rows of the default
# grid: bounds the temporary stacks, and a refinement patch fits in one call
_BLOCK_MATRICES = 16 * 201
# lower triangle of a 4x4 matrix, the entries the screen builds
_LOWER = np.tril_indices(4)
# the screen clears a point when its operator exceeds delta = this * (1 + s0),
# far above the errors of building and factoring it, about 1e-15 and 5e-15
# times its norm, which is at most ||1 - T|| + s0 ||1 - B|| <= 2 (1 + s0)
_SCREEN_RTOL = 1e-12
# eigenvalues of 1 - B up to this multiple of its norm count as its kernel;
# genuine ones near the ideal point reach down to about 1e-13
_KERNEL_RTOL = 1e-15
# lifted products of (1, Alice's dephasing axes) with (1, Bob's): conjugating
# the target by entry [i, j] gives the twirl's term for factors i and j
_LIFTS = np.array([[np.kron(g, o) for o in (np.eye(2), quantum.SIGMA_X.real,
                                            quantum.SIGMA_Z.real)]
                   for g in (np.eye(2), quantum.H_OBS.real, quantum.V_OBS.real)])
# the pi rotation about x on both qubits, which maps the branch-1 test to branch 0
_RR = np.kron(quantum.ROT_X_PI, quantum.ROT_X_PI).real


class SymmetryViolationError(RuntimeError):
    """Branch-1 verification failed far beyond tolerance (implementation bug)."""


# ---------------------------------------------------------------------------
# operator-inequality verification


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
        # the twirl is sum_ij x_i(a) y_j(b) twirl[i, j] with the factors
        # x = (wa, (1 - wa) [a <= pi/4], (1 - wa) [a > pi/4]) and y likewise
        # at b_ideal, which fold in the dephasing-axis selection of ``stacks``
        self._twirl = np.array([[g @ self._proj @ g for g in row] for row in _LIFTS])

    def stacks(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Channel-twirled projector stack and Bell stack on the meshgrid."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        wa = np.atleast_1d(quantum.alice_dephasing_weight(a))
        wb = np.atleast_1d((1.0 + quantum.dephasing_profile(self.warp(b))) / 2.0)
        sel_a = 1 + (a > np.pi / 4)
        sel_b = 1 + (b > self.b_ideal)
        ca = self._twirl[sel_a, 0]
        cb = self._twirl[0, sel_b]
        cab = self._twirl[sel_a[:, None], sel_b[None, :]]
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
            bops = np.einsum("ij,abjk,lk->abil", _RR, base, _RR)
        return twirled, bops

    def separable(self, s0: float, shift: float, a: np.ndarray,
                  b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Separable factors of the operator T - s0 B - shift on the meshgrid.

        Returns x of shape (len(a), 6), c of shape (6, n, 10) and y of shape
        (n, len(b)) such that entry e of the lower triangle (in ``_LOWER``
        order) at (a[r], b[k]) is sum_ij x[r, i] c[i, j, e] y[j, k]. Alice's
        factors are the twirl's three and ``bell.alice_factors``; Bob's are
        the twirl's three, one per term of ``bell.bell_terms`` and a row of
        ones that carries the shift. Branch 1 takes Alice's Bell factors at
        pi/2 - a and conjugates each Pauli product by ``_RR``, as ``stacks`` does.
        """
        wa = np.atleast_1d(quantum.alice_dephasing_weight(a))
        wb = (1.0 + quantum.dephasing_profile(self.warp(b))) / 2.0
        far_a, far_b = a > np.pi / 4, b > self.b_ideal
        x = np.vstack([wa, (1.0 - wa) * ~far_a, (1.0 - wa) * far_a,
                       bell.alice_factors(np.pi / 2 - a if self.branch else a)]).T
        terms, norm = bell.bell_terms(self.kind, b)
        y = np.vstack([wb, (1.0 - wb) * ~far_b, (1.0 - wb) * far_b,
                       *(g for _, g, _ in terms), np.ones_like(b)])
        c = np.zeros((6, len(y), 4, 4))
        c[:3, :3] = self._twirl
        for t, (i, _, k) in enumerate(terms):
            c[3 + i, 3 + t] = (-s0 / norm) * (_RR @ k @ _RR.T if self.branch else k)
        c[5, -1] = -shift * np.eye(4)
        return x, c[:, :, _LOWER[0], _LOWER[1]], y

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


def _check_grid(grid: tuple[int, int], refine_levels: int) -> None:
    """Reject a grid under 101 points per axis or a negative refinement depth."""
    if min(grid) < 101:
        raise ValueError(f"grid {grid} too coarse: need at least 101 points per axis")
    if refine_levels < 0:
        raise ValueError(f"refine_levels must be nonnegative, got {refine_levels}")


def operator_margin(theta: float, family: str, i_star: float, a: float, b: float) -> float:
    """Smallest eigenvalue of the bound operator at one angle pair.

    Nonnegative margins at every (a, b) make the linear overlap bound with
    cutoff ``i_star`` valid. Raises DomainError for an angle outside
    [0, pi/2] or a cutoff outside (0, 1).
    """
    ev = _MarginEvaluator(theta, family)
    a, b = _check_range(a, 0.0, np.pi / 2, "a"), _check_range(b, 0.0, np.pi / 2, "b")
    return float(ev.margins(_check_cutoff(i_star), np.array([a]), np.array([b]))[0, 0])


Patch = tuple[np.ndarray, np.ndarray]
Peak = tuple[float, tuple[float, float]]


def _grid(n: int) -> np.ndarray:
    return np.linspace(0.0, np.pi / 2, n)


def _rows(n_b: int) -> int:
    """Grid rows per batched call when each row holds n_b matrices."""
    return max(1, _BLOCK_MATRICES // n_b)


def _peak(f, a: np.ndarray, b: np.ndarray) -> tuple[float, tuple[float, float]]:
    """Largest value of f over the meshgrid of a and b, and where it is.

    Evaluates ``_rows(len(b))`` values of a at a time, which bounds the
    size of the temporary operator stacks.
    """
    rows = _rows(len(b))
    vals = np.concatenate([f(a[i:i + rows], b) for i in range(0, len(a), rows)])
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    return float(vals[idx]), (float(a[idx[0]]), float(b[idx[1]]))


def _patch_axis(center: float, h: float) -> np.ndarray:
    """_REFINE_POINTS angles across center +- h in [0, pi/2], less clipped copies."""
    x = np.clip(np.linspace(center - h, center + h, _REFINE_POINTS), 0.0, np.pi / 2)
    # the axis ascends, so a copy is an angle equal to the one before it
    return x[np.append(True, x[1:] > x[:-1])]


def _refine(peak, best: float, best_at: tuple[float, float], n_a: int, n_b: int,
            refine_levels: int,
            b_ideal: float) -> tuple[float, tuple[float, float], list[Patch]]:
    """Raise the grid maximum ``best`` by local refinement patches.

    ``peak(a, b)`` gives the maximum over the meshgrid of a and b, where it
    is, and the meshgrids it solved to find it. Refines around the running
    best cell and around the ideal point, one coarse cell wide, shrinking
    eightfold per level. Returns the solved meshgrids too, so a later scan
    can revisit the same points.
    """
    h_a = (np.pi / 2) / (n_a - 1)
    h_b = (np.pi / 2) / (n_b - 1)
    centers = [best_at, (np.pi / 4, b_ideal)]
    patches = []
    for _ in range(refine_levels):
        next_centers = []
        for ca, cb in centers:
            value, at, solved = peak(_patch_axis(ca, h_a), _patch_axis(cb, h_b))
            patches += solved
            if value > best:
                best, best_at = value, at
            next_centers.append(at)
        centers = next_centers
        h_a /= _REFINE_POINTS / 2.0
        h_b /= _REFINE_POINTS / 2.0
    return best, best_at, patches


def _positive_definite(m: np.ndarray) -> np.ndarray:
    """Whether each symmetric matrix of a stack is positive definite.

    Unpivoted LDL^T on the lower triangle, entry by entry, so only entries
    m[..., i, j] with i >= j are read: a matrix passes when every pivot is
    positive. The computed factors of a passing matrix are exact for m + E
    with ||E|| <= n gamma_(n+1) ||m + E|| (Higham, Accuracy and Stability
    of Numerical Algorithms, Thm 10.3), about 2.3e-15 ||m|| for n = 4, so a
    pass proves lambda_min(m) > -2.3e-15 ||m||.
    """
    n = m.shape[-1]
    low = {(i, j): m[..., i, j] for i in range(n) for j in range(i + 1)}
    ok = np.ones(m.shape[:-2], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            pivot = low[k, k]
            ok &= pivot > 0.0
            col = {i: low[i, k] / pivot for i in range(k + 1, n)}
            for i in range(k + 1, n):
                for j in range(k + 1, i + 1):
                    low[i, j] = low[i, j] - col[i] * low[j, k]
    return ok


def _lower_stack(x: np.ndarray, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stack [r, k, i, j] of the matrices with the separable factors x, c, y.

    Only the lower triangle is filled, as contiguous (len(x), y.shape[1])
    planes: one contraction and one matrix product.
    """
    m = np.empty((4, 4, len(x), y.shape[1]))
    m[_LOWER] = np.einsum("ri,ije->erj", x, c) @ y
    return np.moveaxis(m, (0, 1), (2, 3))


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


def _screen(ev: _MarginEvaluator, s: float, mu: float, a: np.ndarray, b: np.ndarray) -> Patch:
    """Rows and columns of the meshgrid of a and b that the LDL^T screen leaves.

    Returns the angles of a and of b, in order, whose rows and columns hold
    every point where LDL^T of T - s B - (mu + _SCREEN_RTOL (1 + s)), built
    from ev's separable planes, fails; both are empty if it fails nowhere.
    """
    x, c, y = ev.separable(s, mu + _SCREEN_RTOL * (1.0 + s), a, b)
    rows = _rows(len(b))
    fails = np.concatenate([~_positive_definite(_lower_stack(x[i:i + rows], c, y))
                            for i in range(0, len(a), rows)])
    return a[fails.any(axis=1)], b[fails.any(axis=0)]


def _screened_peak(ev: _MarginEvaluator, a: np.ndarray, b: np.ndarray,
                   guess: Peak) -> tuple[float, tuple[float, float], list[Patch]]:
    """Largest pencil slope over the meshgrid of a and b, solved sparsely.

    ``guess`` is a slope, at most the true maximum, and where it was found.
    The pencil is solved only on what ``_screen`` leaves at the slope s0 and
    intercept mu0 of the cutoff the guess gives, since a cleared point has
    s_min below s0; ties break as np.argmax over the full grid does.
    Returns the maximum, where it is, and the solved meshgrid in a list.
    Raises ChannelFamilyError if the screen clears every point, which only
    a guess above the maximum can cause.
    """
    s0, mu0 = slope_and_intercept(ev.theta, _cutoff(ev, *guess))
    solved = _screen(ev, s0, mu0, a, b)
    if not solved[0].size:
        raise ChannelFamilyError(
            f"guess {guess[0]:.6g} exceeds the maximum slope: the screen clears all "
            f"{len(a)}x{len(b)} points for {ev.kind.family} at theta={ev.theta}")
    return *_peak(ev.slopes, *solved), [solved]


def _screened_cutoff(ev: _MarginEvaluator, grid: tuple[int, int], refine_levels: int,
                     guess: Peak) -> LinearBoundCertificate:
    """Certificate of ``find_cutoff`` from a slope guess at most the grid maximum."""
    n_a, n_b = grid

    def patch_peak(a: np.ndarray, b: np.ndarray):
        # the exact maximum over the patch's {first, middle, last}^2 is a
        # guess at most the patch maximum
        i, j = [0, len(a) // 2, -1], [0, len(b) // 2, -1]
        return _screened_peak(ev, a, b, _peak(ev.slopes, a[i], b[j]))

    s_grid, at, solved = _screened_peak(ev, _grid(n_a), _grid(n_b), guess)
    s_max, (bind_a, bind_b), patches = _refine(patch_peak, s_grid, at, n_a, n_b,
                                               refine_levels, ev.b_ideal)
    i_star = _cutoff(ev, s_max, (bind_a, bind_b))
    # every screened-out point keeps a margin above delta at I*, so the
    # solved meshgrids hold the worst one
    neg, (wa, wb) = max((_peak(lambda a, b: -ev.margins(i_star, a, b), pa, pb)
                         for pa, pb in [*solved, *patches]), key=lambda peak: peak[0])
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

    The pencil is solved at the four corners of [0, pi/2]^2 for a guess s0
    and then only where ``_screen`` at s0 leaves points; each refinement
    patch, with no angle repeated on its axes, is screened from the exact
    maximum over its 3x3 sample of first, middle and last angles. The
    module docstring shows why the maximum, where it lies (ties broken in
    row-major order) and the certificate equal a solve's at every point. A
    final margin scan at I* over the solved meshgrids must find no margin
    below -VERIFY_TOL. Raises ChannelFamilyError if 1 - T fails to vanish
    on the kernel of 1 - B or the final scan fails, which indicates a
    broken channel family.
    """
    _check_grid(grid, refine_levels)
    ev = _MarginEvaluator(theta, family)
    ends = np.array([0.0, np.pi / 2])
    return _screened_cutoff(ev, grid, refine_levels, _peak(ev.slopes, ends, ends))


def verify_branch1(cert: LinearBoundCertificate,
                   grid: tuple[int, int] | None = None) -> float:
    """Re-verify an accepted certificate against the second branch state.

    Returns the worst margin at the certificate's I* of the branch-1
    operator inequality over the grid (its own unless ``grid`` is given)
    and its refinement patches; by the mirror symmetry in Alice's angle it
    equals the branch-0 one, so an accepted certificate passes. Exact
    margins are taken where ``_screen`` leaves points, or on all of a
    meshgrid it clears; a point it clears has a margin above delta less
    about 6e-15 (1 + s), so a meshgrid's worst margin and where it lies
    (the next patch's centre) are a full scan's whenever that margin is
    below this, as it is for every ``find_cutoff`` certificate.
    Raises SymmetryViolationError below -10 VERIFY_TOL (an implementation
    bug, not a physical failure mode); DomainError for a ``delta_variant``
    other than the angle's, a ``tol`` other than VERIFY_TOL or an
    ``i_star`` outside (0, 1); ValueError as ``find_cutoff`` for the grid.
    """
    n_a, n_b = grid if grid is not None else (cert.grid_a, cert.grid_b)
    _check_grid((n_a, n_b), cert.refine_levels)
    ev = _MarginEvaluator(cert.theta, cert.family, branch=1)
    if ev.warp.variant != cert.delta_variant:
        raise DomainError(
            f"certificate records delta_variant={cert.delta_variant!r}, but "
            f"theta={cert.theta} gives {ev.warp.variant!r}")
    if cert.tol != VERIFY_TOL:
        raise DomainError(
            f"certificate records tol={cert.tol!r}, but certificates are verified "
            f"to VERIFY_TOL={VERIFY_TOL!r}")
    s, mu = slope_and_intercept(ev.theta, _check_cutoff(cert.i_star))

    def peak(a: np.ndarray, b: np.ndarray):
        left = _screen(ev, s, mu, a, b)
        return *_peak(lambda a, b: -ev.margins(cert.i_star, a, b),
                      *(left if left[0].size else (a, b))), []

    neg, at, _ = peak(_grid(n_a), _grid(n_b))
    neg, _, _ = _refine(peak, neg, at, n_a, n_b, cert.refine_levels, ev.b_ideal)
    if -neg < -10.0 * VERIFY_TOL:
        raise SymmetryViolationError(
            f"branch-1 margin {-neg:.3e} violates the mirror symmetry")
    return -neg
