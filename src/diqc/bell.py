"""Bell expressions and operators for the certification tests.

Three expressions appear:

* CHSH, evaluated on a correlator table with the sign pattern
  (-1)^(k j) on the joint terms; classical bound 2, quantum bound 2 sqrt 2.
* The symmetric inequality used to self-test cos(theta)|00> + sin(theta)|11>,
  normalized so its quantum maximum is one.
* The normalized tilted-CHSH expression, for comparison; also with quantum
  maximum one.

Every expression has two evaluation routes: on a table of measured
correlators and as a 4x4 Bell operator at given measurement angles. The two
routes agree, Tr(B(a, b) rho) = value(correlators_from_state(rho, a, b)),
which the test suite checks against random states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .matrixcore import as_matrix, kron
# the family record, re-exported here
from .pipeline import BellKind
from .quantum import IDENTITY_2, SIGMA_X, SIGMA_Z, alice_observable, bob_observable


@dataclass(frozen=True)
class CorrelatorTable:
    """Expectation values of one Bell round.

    ``joint[k, j]`` is <A_k B_j>; ``marginal_a[k]`` is <A_k> and
    ``marginal_b[j]`` is <B_j>. All entries lie in [-1, 1].
    """

    joint: np.ndarray
    marginal_a: np.ndarray
    marginal_b: np.ndarray

    def __post_init__(self) -> None:
        joint = np.asarray(self.joint, dtype=float).reshape(2, 2).copy()
        ma = np.asarray(self.marginal_a, dtype=float).reshape(2).copy()
        mb = np.asarray(self.marginal_b, dtype=float).reshape(2).copy()
        for name, arr in (("joint", joint), ("marginal_a", ma), ("marginal_b", mb)):
            if np.max(np.abs(arr)) > 1.0 + 1e-9:
                raise ValueError(f"{name} has entries outside [-1, 1]")
        for arr in (joint, ma, mb):
            arr.setflags(write=False)
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "marginal_a", ma)
        object.__setattr__(self, "marginal_b", mb)


def correlators_from_state(rho: np.ndarray, a: float, b: float) -> CorrelatorTable:
    """Measure all eight expectation values of a two-qubit state."""
    rho = as_matrix(rho, "rho")
    if rho.shape != (4, 4):
        raise ValueError("rho must be a two-qubit (4x4) state")
    aa = [alice_observable(k, a) for k in (0, 1)]
    bb = [bob_observable(j, b) for j in (0, 1)]
    joint = np.empty((2, 2))
    for k, j in itertools.product(range(2), range(2)):
        joint[k, j] = np.trace(rho @ kron(aa[k], bb[j])).real
    ma = np.array([np.trace(rho @ kron(aa[k], IDENTITY_2)).real for k in (0, 1)])
    mb = np.array([np.trace(rho @ kron(IDENTITY_2, bb[j])).real for j in (0, 1)])
    return CorrelatorTable(joint, ma, mb)


def chsh_value(t: CorrelatorTable) -> float:
    """CHSH value <A0B0> + <A0B1> + <A1B0> - <A1B1>."""
    j = t.joint
    return float(j[0, 0] + j[0, 1] + j[1, 0] - j[1, 1])


def _new_coeffs(theta: float) -> tuple[float, float, float, float]:
    kind = BellKind.new(theta)
    bt, theta = kind.b_ideal, kind.theta
    return np.sin(bt), np.cos(bt), np.sin(2 * theta), np.cos(2 * theta)


def new_bell_value(t: CorrelatorTable, theta: float) -> float:
    """Symmetric Bell expression, quantum maximum one.

    (1/4) [ <A0(B0 - B1)>/sin(b_t) + sin(2 theta)/cos(b_t) <A1(B0 + B1)>
            + cos(2 theta) (<A0> + <B0 - B1>/(2 sin(b_t))) ]
    """
    sb, cb, s2, c2 = _new_coeffs(theta)
    j = t.joint
    return float(0.25 * ((j[0, 0] - j[0, 1]) / sb
                         + (s2 / cb) * (j[1, 0] + j[1, 1])
                         + c2 * (t.marginal_a[0]
                                 + (t.marginal_b[0] - t.marginal_b[1]) / (2 * sb))))


def tilted_bell_value(t: CorrelatorTable, theta: float) -> float:
    """Normalized tilted-CHSH value, quantum maximum one.

    In this package's observable convention (Bob's bisector along sigma_x)
    the marginal term pairs with A0 and the difference B0 - B1; the
    conventional form with B0 + B1 corresponds to parametrizing Bob's pair
    around sigma_z and never reaches its quantum maximum here.
    """
    alpha = BellKind.tilted(theta).alpha
    j = t.joint
    raw = (alpha * t.marginal_a[0]
           + (j[0, 0] - j[0, 1])
           + (j[1, 0] + j[1, 1]))
    return float(raw / np.sqrt(8.0 + 2.0 * alpha * alpha))


def bell_value(kind: BellKind, t: CorrelatorTable) -> float:
    """Evaluate the kind's Bell expression on a correlator table."""
    if kind.family == "new":
        return new_bell_value(t, kind.theta)
    return tilted_bell_value(t, kind.theta)


def new_bell_operator(theta: float, a: float, b: float) -> np.ndarray:
    """4x4 operator of the symmetric expression at angles (a, b)."""
    sb, cb, s2, c2 = _new_coeffs(theta)
    a0, a1 = alice_observable(0, a), alice_observable(1, a)
    b0, b1 = bob_observable(0, b), bob_observable(1, b)
    op = (kron(a0, b0 - b1) / sb
          + (s2 / cb) * kron(a1, b0 + b1)
          + c2 * (kron(a0, IDENTITY_2) + kron(IDENTITY_2, b0 - b1) / (2 * sb)))
    return op / 4.0


def tilted_operator(theta: float, a: float, b: float) -> np.ndarray:
    """4x4 operator of the normalized tilted-CHSH expression at (a, b)."""
    alpha = BellKind.tilted(theta).alpha
    a0, a1 = alice_observable(0, a), alice_observable(1, a)
    b0, b1 = bob_observable(0, b), bob_observable(1, b)
    op = (alpha * kron(a0, IDENTITY_2)
          + kron(a0, b0 - b1)
          + kron(a1, b0 + b1))
    return op / np.sqrt(8.0 + 2.0 * alpha * alpha)


def local_bound(kind: BellKind) -> float:
    """Closed-form local bound of the kind's expression, ``BellKind.local_bound``."""
    return kind.local_bound


def _deterministic_table(a0: int, a1: int, b0: int, b1: int) -> CorrelatorTable:
    # local deterministic behavior: joint terms factorize, marginals are the
    # assigned outcomes themselves
    joint = np.array([[a0 * b0, a0 * b1], [a1 * b0, a1 * b1]], dtype=float)
    return CorrelatorTable(joint, np.array([a0, a1], float), np.array([b0, b1], float))


def brute_force_local_strategy(kind: BellKind) -> tuple[tuple[int, int, int, int], float]:
    """Enumerate all 16 deterministic strategies; return the best and its value.

    Sufficient for the local bound because the expressions are affine over
    the local polytope, whose vertices are the deterministic strategies.
    """
    best_val = -np.inf
    best = (1, 1, 1, 1)
    for a0, a1, b0, b1 in itertools.product((1, -1), repeat=4):
        val = bell_value(kind, _deterministic_table(a0, a1, b0, b1))
        if val > best_val:
            best_val = val
            best = (a0, a1, b0, b1)
    return best, float(best_val)


def brute_force_local_bound(kind: BellKind) -> float:
    """Local bound by enumeration of deterministic strategies."""
    return brute_force_local_strategy(kind)[1]


def relabel_branch1(t: CorrelatorTable) -> CorrelatorTable:
    """Outcome relabeling that turns branch-1 data into the primed test.

    Bob exchanges the roles of his two settings and Alice flips the sign of
    her first observable's outcomes (flipping A1 instead does not work), so
    the value is Tr(B'(a,b) rho) with B' = (R x R) B(pi/2 - a, b) (R x R)^dag,
    R the pi rotation about x; also B'(a,b) = U B(a,b) U^T, U = (XZ) (x) (XZ).
    The map is an involution.
    """
    j = t.joint
    joint = np.array([[-j[0, 1], -j[0, 0]], [j[1, 1], j[1, 0]]])
    ma = np.array([-t.marginal_a[0], t.marginal_a[1]])
    mb = np.array([t.marginal_b[1], t.marginal_b[0]])
    return CorrelatorTable(joint, ma, mb)


# ---------------------------------------------------------------------------
# separable operator tables (numerical kernel used by the cutoff solver)

# every Pauli product that occurs is real, so the tables are float64
_X, _Z, _I = SIGMA_X.real, SIGMA_Z.real, IDENTITY_2.real
_ZZ = np.kron(_Z, _Z)
_XZ = np.kron(_X, _Z)
_ZX = np.kron(_Z, _X)
_XX = np.kron(_X, _X)
_ZI = np.kron(_Z, _I)
_XI = np.kron(_X, _I)
_IZ = np.kron(_I, _Z)
_SQRT2 = np.sqrt(2.0)


def alice_factors(a: np.ndarray) -> np.ndarray:
    """Alice's coefficient rows (p, q, 1) over the angle array a.

    Her observables are A_0 = p sz + q sx and A_1 = q sz + p sx with
    p = cos(a - pi/4) and q = -sin(a - pi/4); the row of ones carries the
    terms that act on Bob alone. Returns shape (3,) + a.shape.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    cos, sin = np.cos(a), np.sin(a)
    return np.array([(cos + sin) / _SQRT2, (cos - sin) / _SQRT2, np.ones_like(a)])


def bob_factors(b: np.ndarray) -> np.ndarray:
    """Bob's coefficient rows (sin b, cos b, 1) over the angle array b.

    B_0 - B_1 = 2 sin(b) sz and B_0 + B_1 = 2 cos(b) sx; the row of ones
    carries the terms that act on Alice alone. Returns shape (3,) + b.shape.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return np.array([np.sin(b), np.cos(b), np.ones_like(b)])


def contract(x: np.ndarray, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The entries sum_ij x[i] y[j] c[i, j] of a separable table c.

    x has shape (m,) + sa and y (n,) + sb, where sa and sb have the same
    length and broadcast (a meshgrid's (rows, 1) and (1, cols), or a point
    list's (k, 1) twice); c has shape (m, n) + e. Returns
    e + broadcast(sa, sb). Every product and sum is elementwise, the sums
    running in index order, so each entry's bits depend on its own angle
    pair alone, never on the points beside it, and no temporary holds more
    than n times the output.
    """
    c = c.reshape(c.shape + (1,) * (x.ndim - 1))
    xc = c[0] * x[0]
    for ci, xi in zip(c[1:], x[1:]):
        xc += ci * xi
    out = xc[0] * y[0]
    for xcj, yj in zip(xc[1:], y[1:]):
        out += xcj * yj
    return out


class BellTerms:
    """One kind's Bell operator as a table over Alice's and Bob's factors.

    B(a, b) = sum_ij alice_factors(a)[i] bob_factors(b)[j] table[i, j],
    where ``table`` is (3, 3, 4, 4) and each of its entries is a real Pauli
    product times one of the kind's ``bell_constants``: A_0 (x) sz under
    B_0 - B_1 in column 0, A_1 (x) sx under B_0 + B_1 in column 1,
    A_0 (x) identity in column 2 and, for 'new', identity (x) (B_0 - B_1) in
    row 2. At pi/4 the record's tie rule gives both kinds one table.
    """

    def __init__(self, kind: BellKind):
        diff, plus, marg, alone = kind.bell_constants
        zero = np.zeros((4, 4))
        self.table = np.array([[diff * _ZZ, plus * _XX, marg * _ZI],
                               [diff * _XZ, plus * _ZX, marg * _XI],
                               [alone * _IZ, zero, zero]])

    def operators(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bell operators at the angle pairs of a and b, which broadcast.

        a and b have the same number of dimensions. Returns a real array of
        the broadcast shape plus (4, 4), the table's ``contract`` with
        ``alice_factors(a)`` and ``bob_factors(b)``.
        """
        return np.moveaxis(contract(alice_factors(a), self.table, bob_factors(b)),
                           (0, 1), (-2, -1))


def bell_operator_grid(kind: BellKind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack of Bell operators over the meshgrid of angle arrays.

    Returns a real array of shape (len(a), len(b), 4, 4):
    ``BellTerms(kind).operators`` at a[:, None] and b[None, :]; agrees with
    the single-point constructors to machine precision.
    """
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return BellTerms(kind).operators(a[:, None], b[None, :])
