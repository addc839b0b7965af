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
everywhere, and only half the square is needed: U = Z (x) Z maps the
operator at (a, b) to the one at (pi/2 - a, b), so the solver works on
a <= pi/4 alone. Exact slopes at the two corners a = 0 give a guess s0;
the corners are grid points, so s0 <= max s_min, and at every default
angle the grid maximum sits at a corner. One pass over the grid then
screens out every point whose operator (T - 1) + s0 (1 - B) - delta is
positive definite, tested by an unpivoted LDL^T factorization.

Every matrix comes from one table: T - s B - mu = sum_ij x_i(a) y_j(b) c_ij
with six factors of a (the twirl's three and Alice's (p, q, 1)), six of b
(the twirl's three and Bob's (sin b, cos b, 1)) and c = t - s b - mu e from
the fixed 4x4 tables of the twirl, the Bell operator and the identity; the
pencil (1 - T, 1 - B) has the table (e - t, e - b). The exact path
contracts a table elementwise in a fixed order, on angle arrays that
broadcast; the screen contracts it with one matrix product into ten
contiguous lower-triangle planes per block of grid rows and runs the LDL^T
on them entry by entry. The planes agree with the exact matrices to about
1e-15 (1 + s0) per entry (a test holds them to 1e-14 (1 + s0) at four
angles for both families), far below delta = 1e-12 (1 + s0). The
certificate covers every grid point, screened or mirrored, for four
reasons:

* the margin lambda_min((T - 1) + s (1 - B)) is nondecreasing in s because
  1 - B is PSD, so a point that clears delta at s0 has s_min < s0 and still
  clears it at the final slope, which is at least s0;
* when LDL^T completes with positive pivots, the factors are exact for a
  perturbation of norm about 5e-15 (1 + s0) (Higham, Accuracy and Stability
  of Numerical Algorithms, Thm 10.3), also far below delta;
* U fixes the target, swaps Alice's dephasing axes H and V (the sides of
  pi/4) and flips exactly the Bell table's entries whose Alice factor is
  odd under a -> pi/2 - a (test_operator_mirrors_in_alice_angle), so
  mirrored points have the same margins and slopes. The grid's a-axis is
  the first (n_a + 1) // 2 angles of linspace(0, pi/2, n_a); each other
  grid row is pi/2 - a of one of them to within 2.5e-16, which moves the
  operator by about 1e-15 (1 + s), again far below delta and VERIFY_TOL;
* every remaining point, which includes every point with s_min >= s0 and
  every point where 1 - T leaks into the kernel of 1 - B, is solved
  exactly at its own angles.

The certificate is therefore the one a solve at every point of the half
grid gives for any guess at most its maximum; a poor guess only costs
time. Each refinement patch, its a-axis clipped at pi/4, is screened the
same way from the exact maximum over its sample {first, middle, last}^2,
which is at most the patch maximum, so that maximum and where it lies (the
next patch's centre) stay the same. The binding corner is named with
a <= pi/4. A final margin scan at I* over the solved meshgrids alone
confirms the certificate.

The exact work is batched as far as its data dependencies allow: a batched
slope call takes about 0.18 ms for one point and 7 us for each further one
(2-vCPU host), so the call costs more than the 2 to 18 points it holds
here, and the points of several meshgrids share a call. A refinement
level's patches depend only on the level before, so a level makes two
solves, both patches' samples and then every point their own screens
leave, with one LDL^T pass over both patches between them, and the final
scan is one call. The batching cannot move the certificate: each matrix comes from the
same elementwise arithmetic on its own angle pair wherever it sits, LAPACK
factors each 4x4 of a batch on its own, and ties break row-major within a
meshgrid and then in meshgrid order, a later meshgrid winning only with a
strictly larger value.

The same screen, at a certificate's own slope and intercept, lets
`verify_cutoff` re-verify it at any resolution in milliseconds. The
orthogonal U = (XZ) (x) (XZ) maps branch 0's target, twirl and B(a, b) to
branch 1's (``bell.relabel_branch1``) at the same (a, b), so one inequality
serves both branches; test_branch1_inequality_is_branch0_conjugated proves it.
"""

from __future__ import annotations

import math
import operator

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
# for each entry (i, j) of a symmetric 4x4 matrix, row-major, the place in
# the lower triangle of the entry it equals
_SYMMETRIC = np.array([max(i, j) * (max(i, j) + 1) // 2 + min(i, j)
                       for i in range(4) for j in range(4)])
_EYE = np.eye(4)
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


# ---------------------------------------------------------------------------
# operator-inequality verification


def _kind(theta: float, family: str) -> BellKind:
    if family not in ("new", "tilted"):
        raise DomainError(f"cutoffs exist only for 'new' and 'tilted', got {family!r}")
    return BellKind(family, theta)


class _MarginEvaluator:
    """Margins and pencil slopes of the operator inequality, vectorized.

    Precomputes everything that depends on (theta, family) alone: the
    target projector, its conjugations by the dephasing axes and the one
    table every operator is built from. Every operator involved is real, so
    the matrices are float64.
    """

    def __init__(self, theta: float, family: str):
        self.theta = float(theta)
        self.kind = _kind(theta, family)
        self.warp = quantum.bob_warp(theta, family)
        self.b_ideal = self.warp.b_ideal
        self.c2 = math.cos(theta) ** 2
        self._proj = quantum.projector(quantum.partial_entangled_state(theta)).real
        self._twirl = _LIFTS @ self._proj @ _LIFTS
        # the table [k, i, j] of the twirl (k = 0), the Bell operator (1) and
        # the identity (2) over the factors of ``factors``: the twirl's block
        # is i, j < 3, the Bell table's i, j >= 3 and the identity sits on
        # the product of the rows of ones
        c = np.zeros((3, 6, 6, 4, 4))
        c[0, :3, :3] = self._twirl
        c[1, 3:, 3:] = bell.BellTerms(self.kind).table
        c[2, 5, 5] = _EYE
        # kept as the ten lower-triangle entries of each matrix, in _LOWER order
        self._table = np.ascontiguousarray(c[..., _LOWER[0], _LOWER[1]])
        # the pencil (1 - T, 1 - B), its two tables side by side
        self._pencil = np.concatenate([self._table[2] - self._table[0],
                                       self._table[2] - self._table[1]], axis=-1)

    def factors(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Alice's six factors, shape (6,) + a.shape, and Bob's, (6,) + b.shape.

        Alice's are the twirl's three, (wa, (1 - wa) [a <= pi/4],
        (1 - wa) [a > pi/4]) with wa her dephasing weight, which select the
        dephasing axis on her side of pi/4, then ``bell.alice_factors``.
        Bob's are the twirl's three at his weight and b_ideal, then
        ``bell.bob_factors``, whose row of ones also carries the identity.
        """
        # both sides' twirl rows in one pass, Bob's weight being Alice's at warp(b)
        w = quantum.alice_dephasing_weight(np.concatenate([a.ravel(), self.warp(b).ravel()]))
        far = np.concatenate([a.ravel() > np.pi / 4, b.ravel() > self.b_ideal])
        rows = np.array([w, (1.0 - w) * ~far, (1.0 - w) * far])
        return (np.concatenate([rows[:, :a.size].reshape((3,) + a.shape), bell.alice_factors(a)]),
                np.concatenate([rows[:, a.size:].reshape((3,) + b.shape), bell.bob_factors(b)]))

    def coefficients(self, s: float, shift: float) -> np.ndarray:
        """The (6, 6, 10) table of T - s B - shift over ``factors``."""
        c0, c1, c2 = self._table
        return c0 - s * c1 - shift * c2

    def operators(self, c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The matrices of k tables at the angle pairs of a and b.

        c holds the tables side by side, shape (6, 6, 10 k). a and b are 2-D
        float arrays that broadcast against each other: a meshgrid passes
        a[:, None] and b[None, :], a point list two equal-length (n, 1)
        columns. Returns shape (k,) + broadcast + (4, 4); see
        ``bell.contract``.
        """
        x, y = self.factors(a, b)
        e = bell.contract(x, c, y)
        e = e.reshape((-1, 10) + e.shape[1:])[:, _SYMMETRIC]
        return e.reshape(e.shape[:1] + (4, 4) + e.shape[2:]).transpose(0, 3, 4, 1, 2)

    def margins(self, i_star: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Smallest eigenvalue of the bound operator at cutoff ``i_star``.

        Takes the angles as ``operators`` does.
        """
        s, mu = slope_and_intercept(self.theta, i_star)
        return np.linalg.eigvalsh(self.operators(self.coefficients(s, mu), a, b)[0])[..., 0]

    def slopes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Smallest slope s whose bound operator is PSD, per angle pair.

        That is the top eigenvalue of the pencil (Q, P) = (1 - T, 1 - B) on
        the range of P, after whitening Q there. Eigenvalues of P at
        roundoff level relative to its norm count as its kernel, where Q
        must vanish; any other kernel direction is a ChannelFamilyError
        that names the first such pair. Takes the angles as ``operators`` does.
        """
        q, p = self.operators(self._pencil, a, b)
        w, v = np.linalg.eigh(p)
        g = v.swapaxes(-1, -2) @ q @ v
        kernel = w <= _KERNEL_RTOL * w[..., -1:]
        if kernel.any():
            leak = kernel & (g.diagonal(0, -2, -1) > VERIFY_TOL)
            if leak.any():
                *at, _ = np.argwhere(leak)[0]
                a, b = (x[tuple(at)] for x in np.broadcast_arrays(a, b))
                raise ChannelFamilyError(
                    f"1 - T does not vanish on the kernel of 1 - B at "
                    f"(a={a:.6f}, b={b:.6f}); the extraction-channel family "
                    f"cannot certify {self.kind.family} at theta={self.theta}")
            # the kernel gets the whitening weight 1 / sqrt(inf) = 0
            w = np.where(kernel, np.inf, w)
        r = 1.0 / np.sqrt(w)
        return np.linalg.eigvalsh(r[..., :, None] * g * r[..., None, :])[..., -1]


def _check_grid(grid: tuple[int, int], refine_levels: int) -> tuple[int, int]:
    """The grid as two integers of at least 101, after checking the refinement depth.

    Raises a ValueError that names ``grid`` or ``refine_levels`` for anything
    but two integers (as ``operator.index`` takes them) of at least 101 and
    a nonnegative integer depth.
    """
    try:
        n_a, n_b = (operator.index(n) for n in grid)
    except (TypeError, ValueError):
        raise ValueError(f"grid must be two integers, got {grid!r}") from None
    if min(n_a, n_b) < 101:
        raise ValueError(f"grid {grid} too coarse: need at least 101 points per axis")
    try:
        depth = operator.index(refine_levels)
    except TypeError:
        raise ValueError(f"refine_levels must be an integer, got {refine_levels!r}") from None
    if depth < 0:
        raise ValueError(f"refine_levels must be nonnegative, got {refine_levels}")
    return n_a, n_b


def operator_margin(theta: float, family: str, i_star: float, a: float, b: float) -> float:
    """Smallest eigenvalue of the bound operator at one angle pair.

    Nonnegative margins at every (a, b) make the linear overlap bound with
    cutoff ``i_star`` valid. Raises DomainError for an angle outside
    [0, pi/2] or a cutoff outside (0, 1).
    """
    ev = _MarginEvaluator(theta, family)
    a, b = _check_range(a, 0.0, np.pi / 2, "a"), _check_range(b, 0.0, np.pi / 2, "b")
    return float(ev.margins(_check_cutoff(i_star), np.array([[a]]), np.array([[b]]))[0, 0])


Patch = tuple[np.ndarray, np.ndarray]
Peak = tuple[float, tuple[float, float]]


def _grid(n_a: int, n_b: int) -> Patch:
    """The grid's meshgrid on the half square: a-axis up to pi/4, b-axis to pi/2.

    The a-axis is the first (n_a + 1) // 2 angles of linspace(0, pi/2, n_a),
    the last of which may sit an ulp above pi/4; the grid's other rows
    mirror these (see the module docstring).
    """
    return np.linspace(0.0, np.pi / 2, n_a)[:(n_a + 1) // 2], np.linspace(0.0, np.pi / 2, n_b)


def _rows(n_b: int) -> int:
    """Grid rows per batched call when each row holds n_b matrices."""
    return max(1, _BLOCK_MATRICES // n_b)


def _peaks(f, meshgrids: list[Patch]) -> list[Peak]:
    """Largest value of f over each meshgrid, and where it is.

    f takes angles as ``_MarginEvaluator.operators`` does. The meshgrids'
    points, each meshgrid row-major and in the given order, go to f as one
    point list, ``_BLOCK_MATRICES`` points per call, which bounds the size
    of the temporary matrices; ties break as np.argmax over each meshgrid
    does.
    """
    pa = np.concatenate([a.repeat(len(b)) for a, b in meshgrids])[:, None]
    pb = np.concatenate([b for a, b in meshgrids for _ in a])[:, None]
    vals = np.concatenate([f(pa[i:i + _BLOCK_MATRICES], pb[i:i + _BLOCK_MATRICES])[:, 0]
                           for i in range(0, len(pa), _BLOCK_MATRICES)])
    peaks, start = [], 0
    for a, b in meshgrids:
        v = vals[start:start + len(a) * len(b)]
        start += len(v)
        k = int(np.argmax(v))
        peaks.append((float(v[k]), (float(a[k // len(b)]), float(b[k % len(b)]))))
    return peaks


def _patch_axis(center: float, h: float, hi: float) -> np.ndarray:
    """_REFINE_POINTS angles across center +- h in [0, hi], less clipped copies."""
    x = np.minimum(np.maximum(np.linspace(center - h, center + h, _REFINE_POINTS), 0.0), hi)
    # the axis ascends, so a copy is an angle equal to the one before it
    return x[np.concatenate([[True], x[1:] > x[:-1]])]


def _refine(peaks, best: float, best_at: tuple[float, float], n_a: int, n_b: int,
            refine_levels: int,
            b_ideal: float) -> tuple[float, tuple[float, float], list[Patch]]:
    """Raise the grid maximum ``best`` by local refinement patches.

    Refines around the running best cell and around the ideal point, one
    coarse cell wide, shrinking eightfold per level, with a clipped to
    [0, pi/4] and b to [0, pi/2]. A level's two patches depend only on the
    level before, so ``peaks(meshgrids)`` takes both at once and gives, per
    patch, its maximum, where it is and the meshgrid it solved to find it.
    The first patch's maximum is compared first and only a strictly larger
    value moves ``best``. Returns the solved meshgrids too, so a later scan
    can revisit the same points.
    """
    h_a = (np.pi / 2) / (n_a - 1)
    h_b = (np.pi / 2) / (n_b - 1)
    centers = [best_at, (np.pi / 4, b_ideal)]
    patches = []
    for _ in range(refine_levels):
        level = peaks([(_patch_axis(ca, h_a, np.pi / 4), _patch_axis(cb, h_b, np.pi / 2))
                       for ca, cb in centers])
        for value, at, solved in level:
            if value > best:
                best, best_at = value, at
            patches.append(solved)
        centers = [at for _, at, _ in level]
        h_a /= _REFINE_POINTS / 2.0
        h_b /= _REFINE_POINTS / 2.0
    return best, best_at, patches


def _pivots_positive(planes) -> np.ndarray:
    """Whether each symmetric 4x4 matrix given by its lower triangle is positive definite.

    ``planes`` holds the ten lower-triangle entries in ``_LOWER`` order,
    each a plane over the batch. Unpivoted LDL^T, entry by entry: a matrix
    passes when every pivot is positive. The computed factors of a passing
    matrix m are exact for m + E with ||E|| <= n gamma_(n+1) ||m + E||
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3),
    about 2.3e-15 ||m|| for n = 4, so a pass proves
    lambda_min(m) > -2.3e-15 ||m||.
    """
    l00, l10, l11, l20, l21, l22, l30, l31, l32, l33 = planes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c1, c2, c3 = l10 / l00, l20 / l00, l30 / l00
        l11, l21, l22 = _minus(l11, c1, l10), _minus(l21, c2, l10), _minus(l22, c2, l20)
        l31, l32, l33 = _minus(l31, c3, l10), _minus(l32, c3, l20), _minus(l33, c3, l30)
        c2, c3 = l21 / l11, l31 / l11
        l22, l32, l33 = _minus(l22, c2, l21), _minus(l32, c3, l21), _minus(l33, c3, l31)
        l33 = _minus(l33, l32 / l22, l32)
    # the smallest pivot, NaN if any pivot is
    pivot = np.minimum(np.minimum(l00, l11), np.minimum(l22, l33))
    return pivot > 0.0


def _minus(x: np.ndarray, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x - c y, written into the product's buffer to save a temporary."""
    update = c * y
    return np.subtract(x, update, out=update)


def _planes(x: np.ndarray, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lower-triangle planes (10, rows, cols) of a table c over a meshgrid block.

    x and y are the block's factors from ``_MarginEvaluator.factors``, x
    transposed to (rows, 6) and y as it is, (6, cols); c is a (6, 6, 10)
    table of lower triangles. Entry e of the lower triangle (in ``_LOWER``
    order) is the contiguous plane [e]. One contraction and one matrix
    product, which sum in an order of BLAS's choosing, so the planes match
    ``bell.contract``'s entries to roundoff only.
    """
    return np.einsum("ri,ije->erj", x, c) @ y


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


def _screen(ev: _MarginEvaluator, jobs: list[tuple[float, float, np.ndarray, np.ndarray]]
            ) -> list[Patch]:
    """Rows and columns of each meshgrid that the LDL^T screen leaves.

    A job (s, mu, a, b) screens the meshgrid of a and b: it returns the
    angles of a and of b, in order, whose rows and columns hold every point
    where LDL^T of T - s B - (mu + _SCREEN_RTOL (1 + s)) fails; both are
    empty if it fails nowhere. The LDL^T runs on the (10, rows, cols)
    planes of ev's table (``_planes``). Row blocks of the jobs in order,
    ``_rows(len(b))`` rows each, are factored together while they hold at
    most ``_BLOCK_MATRICES`` points, so a grid takes one pass per block and
    a refinement level's patches one pass in all.
    """
    # the factors of every job's rows and columns come from one call
    x, y = ev.factors(np.concatenate([a for _, _, a, _ in jobs]),
                      np.concatenate([b for *_, b in jobs]))
    x = np.ascontiguousarray(x.T)
    blocks, row, col = [], 0, 0
    for job, (s, mu, a, b) in enumerate(jobs):
        c = ev.coefficients(s, mu + _SCREEN_RTOL * (1.0 + s))
        xj, yj = x[row:row + len(a)], y[:, col:col + len(b)]
        row, col = row + len(a), col + len(b)
        rows = _rows(len(b))
        blocks += [(job, xj[i:i + rows], c, yj) for i in range(0, len(xj), rows)]
    batches, size = [[]], 0
    for block in blocks:
        points = len(block[1]) * block[3].shape[1]
        if batches[-1] and size + points > _BLOCK_MATRICES:
            batches.append([])
            size = 0
        batches[-1].append(block)
        size += points
    passed = [[] for _ in jobs]
    for batch in batches:
        planes = [_planes(*block[1:]) for block in batch]
        flat = [p.reshape(10, -1) for p in planes]
        ok = _pivots_positive(flat[0] if len(flat) == 1 else np.concatenate(flat, axis=1))
        start = 0
        for (job, *_), p in zip(batch, planes):
            passed[job].append(ok[start:start + p[0].size].reshape(p.shape[1:]))
            start += p[0].size
    left = []
    for (_, _, a, b), parts in zip(jobs, passed):
        fails = ~np.concatenate(parts)
        left.append((a[fails.any(axis=1)], b[fails.any(axis=0)]))
    return left


def _screened_peaks(ev: _MarginEvaluator, meshgrids: list[Patch],
                    guesses: list[Peak]) -> list[tuple[float, tuple[float, float], Patch]]:
    """Largest pencil slope over each meshgrid, solved sparsely and in one batch.

    Each guess is a slope, at most its meshgrid's maximum, and where it was
    found. Each meshgrid is screened at the slope s0 and intercept mu0 of
    the cutoff its own guess gives, since a cleared point has s_min below
    s0, all in one ``_screen`` call, and what the screens leave is solved in
    one ``_peaks`` call; ties break as np.argmax over each full meshgrid
    does. Returns, per meshgrid, the maximum, where it is and the solved
    meshgrid. Raises ChannelFamilyError if a screen clears every point,
    which only a guess above the maximum can cause.
    """
    solved = _screen(ev, [(*slope_and_intercept(ev.theta, _cutoff(ev, *guess)), a, b)
                          for (a, b), guess in zip(meshgrids, guesses)])
    for (a, b), guess, left in zip(meshgrids, guesses, solved):
        if not left[0].size:
            raise ChannelFamilyError(
                f"guess {guess[0]:.6g} exceeds the maximum slope: the screen clears all "
                f"{len(a)}x{len(b)} points for {ev.kind.family} at theta={ev.theta}")
    return [(*peak, left) for peak, left in zip(_peaks(ev.slopes, solved), solved)]


def _verified(ev: _MarginEvaluator, i_star: float, neg: float, at: tuple[float, float]) -> float:
    """The worst margin -neg, found at ``at``; ChannelFamilyError below -VERIFY_TOL."""
    if -neg < -VERIFY_TOL:
        raise ChannelFamilyError(
            f"cutoff {i_star!r} fails verification: margin {-neg:.3e} at "
            f"(a={at[0]:.6f}, b={at[1]:.6f}) for {ev.kind.family} at theta={ev.theta}")
    return -neg


def _screened_cutoff(ev: _MarginEvaluator, grid: tuple[int, int], refine_levels: int,
                     guess: Peak) -> LinearBoundCertificate:
    """Certificate of ``find_cutoff`` from a slope guess at most the grid maximum."""
    n_a, n_b = grid

    def level_peaks(meshgrids: list[Patch]):
        # the exact maximum over each patch's {first, middle, last}^2 is a
        # guess at most that patch's maximum
        samples = [(a[[0, len(a) // 2, -1]], b[[0, len(b) // 2, -1]]) for a, b in meshgrids]
        return _screened_peaks(ev, meshgrids, _peaks(ev.slopes, samples))

    s_grid, at, solved = _screened_peaks(ev, [_grid(n_a, n_b)], [guess])[0]
    s_max, (bind_a, bind_b), patches = _refine(level_peaks, s_grid, at, n_a, n_b,
                                               refine_levels, ev.b_ideal)
    i_star = _cutoff(ev, s_max, (bind_a, bind_b))
    # every screened-out point keeps a margin above delta at I*, so the
    # solved meshgrids hold the worst one
    worst = _verified(ev, i_star, *max(_peaks(lambda a, b: -ev.margins(i_star, a, b),
                                              [solved, *patches]), key=lambda peak: peak[0]))
    s, mu = slope_and_intercept(ev.theta, i_star)
    return LinearBoundCertificate(
        theta=ev.theta, family=ev.kind.family, i_star=i_star, slope=s, intercept=mu,
        grid_a=n_a, grid_b=n_b, refine_levels=refine_levels, tol=VERIFY_TOL,
        worst_margin=worst, worst_a=bind_a, worst_b=bind_b,
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
    first float whose slope covers that maximum; it serves both branches.
    Only the grid's rows with a <= pi/4 are needed, since the others
    mirror them (see the module docstring), so the maximum and the binding
    angle pair are taken on those.

    The pencil is solved at the two corners a = 0 for a guess s0 and then
    only where ``_screen`` at s0 leaves points. A refinement level
    takes two batched solves: the 3x3 samples of first, middle and last
    angles of both its patches (no angle repeated on their axes), then,
    with each patch screened from the exact maximum over its own sample,
    every point the two screens leave. The module docstring shows why the
    maximum, where it lies (ties broken in row-major order) and the
    certificate equal a solve's at every point. A final margin scan at I*,
    one batch over the points of every solved meshgrid, must find no
    margin below -VERIFY_TOL. Raises ChannelFamilyError if 1 - T fails to
    vanish on the kernel of 1 - B or the final scan fails, which indicates
    a broken channel family; ValueError, naming ``grid`` or
    ``refine_levels``, for a grid or depth it cannot use.
    """
    grid = _check_grid(grid, refine_levels)
    ev = _MarginEvaluator(theta, family)
    corners = (np.array([0.0]), np.array([0.0, np.pi / 2]))
    return _screened_cutoff(ev, grid, refine_levels, _peaks(ev.slopes, [corners])[0])


def verify_cutoff(cert: LinearBoundCertificate,
                  grid: tuple[int, int] | None = None) -> float:
    """Re-verify a certificate's operator inequality; return its worst margin.

    Scans the margins at the certificate's I*, both branches' margins (see
    the module docstring), over the grid (its own unless ``grid`` is given)
    and its refinement patches, on the rows with a <= pi/4 as
    ``find_cutoff`` does. Exact margins are taken where ``_screen``
    leaves points, or on all of a meshgrid it clears, in one batch per
    refinement level; a point it clears has a margin above delta less about
    6e-15 (1 + s), so a meshgrid's worst margin and where it lies (the next
    patch's centre) are a full scan's whenever that margin is below this,
    as it is for every ``find_cutoff`` certificate.
    Raises ChannelFamilyError, as ``find_cutoff``'s final scan does, for a
    worst margin below -VERIFY_TOL; DomainError for a ``delta_variant``
    other than the angle's, a ``tol`` other than VERIFY_TOL or an
    ``i_star`` outside (0, 1); ValueError as ``find_cutoff`` for the grid.
    """
    n_a, n_b = _check_grid(grid if grid is not None else (cert.grid_a, cert.grid_b),
                           cert.refine_levels)
    ev = _MarginEvaluator(cert.theta, cert.family)
    if ev.warp.variant != cert.delta_variant:
        raise DomainError(
            f"certificate records delta_variant={cert.delta_variant!r}, but "
            f"theta={cert.theta} gives {ev.warp.variant!r}")
    if cert.tol != VERIFY_TOL:
        raise DomainError(
            f"certificate records tol={cert.tol!r}, but certificates are verified "
            f"to VERIFY_TOL={VERIFY_TOL!r}")
    s, mu = slope_and_intercept(ev.theta, _check_cutoff(cert.i_star))

    def peaks(meshgrids: list[Patch]):
        left = _screen(ev, [(s, mu, a, b) for a, b in meshgrids])
        left = [kept if kept[0].size else whole for kept, whole in zip(left, meshgrids)]
        return [(*peak, kept) for peak, kept in
                zip(_peaks(lambda a, b: -ev.margins(cert.i_star, a, b), left), left)]

    neg, at, _ = peaks([_grid(n_a, n_b)])[0]
    neg, at, _ = _refine(peaks, neg, at, n_a, n_b, cert.refine_levels, ev.b_ideal)
    return _verified(ev, cert.i_star, neg, at)
