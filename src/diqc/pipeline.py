"""Scalar certification layer: the family record, cutoffs and the fidelity pipeline.

``BellKind`` is the one record of an inequality family at an angle: its
ideal angle, tilt, local bound, Bell-table constants, warp and vertex. A
CHSH value certifies the input state, each branch violation certifies its
output through the cutoff I*, and the two compose by the arccos triangle
inequality. These steps, the records and the closed forms they need use
the standard library alone, so a command served from the cutoff cache
never loads numpy. ``quantum``, ``bell`` and ``certify`` re-export them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# the instrument angles every cutoff, Bell expression and target state accept
THETA_RANGE = (0.05, math.pi / 4)
_ANGLE_SLACK = 1e-12

BETA_STAR = 2.0 * (8.0 + 7.0 * math.sqrt(2.0)) / 17.0
CHSH_QUANTUM_BOUND = 2.0 * math.sqrt(2.0)
TRIVIAL_INPUT_FIDELITY = 1.0 / math.sqrt(2.0)

DEFAULT_GRID = (201, 201)
DEFAULT_REFINE_LEVELS = 2
VERIFY_TOL = 1e-9
# names the solver in the CLI cache key; change it whenever a solver change
# changes the certificates, so cached ones from the old solver are not served
SOLVER_TAG = "vertex1"

LINEAR_WARP = "linear"
# the inequality families that have a cutoff, each a ``BellKind``
FAMILIES = ("new", "tilted")
# ulps that ``vertex_cutoff`` may step from its closed form
_MAX_ULP_STEPS = 8


class DomainError(ValueError):
    """An angle or parameter lies outside its admissible range."""


class NonQuantumValueError(ValueError):
    """An observed violation exceeds the quantum bound beyond tolerance."""


class ChannelFamilyError(RuntimeError):
    """No cutoff below one exists for this extraction-channel family."""


def _check_range(value: float, lo: float, hi: float, name: str) -> float:
    value = float(value)
    if not (lo - _ANGLE_SLACK <= value <= hi + _ANGLE_SLACK):
        raise DomainError(f"{name}={value!r} outside [{lo:.6g}, {hi:.6g}]")
    return value


def _check_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name}={value!r} is not a finite number")
    return value


def _check_cutoff(i_star: float) -> float:
    """The cutoff I* as a float, if it lies in (0, 1)."""
    i_star = float(i_star)
    if not 0.0 < i_star < 1.0:
        raise DomainError(f"i_star={i_star!r} outside (0, 1)")
    return i_star


def check_theta(theta: float) -> float:
    """The instrument angle as a float, if it lies in ``THETA_RANGE``."""
    return _check_range(theta, *THETA_RANGE, "theta")


@dataclass(frozen=True)
class BellKind:
    """One inequality family at one instrument angle, and every fact about it.

    ``family`` is 'new', the symmetric inequality that self-tests
    cos(theta)|00> + sin(theta)|11>, or 'tilted', tilted CHSH, both with
    quantum maximum one. The tie rule: within 1e-12 of pi/4 (``is_chsh``)
    both are CHSH/(2 sqrt 2) and share one tilt, Bell table and vertex,
    while the local bounds and ideal angles keep each family's own closed
    form. Raises DomainError for another family or theta outside THETA_RANGE.
    """

    family: str
    theta: float

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise DomainError(f"unknown Bell family {self.family!r}, expected one of {FAMILIES}")
        if self.theta is None:
            raise DomainError(f"{self.family} requires an angle")
        object.__setattr__(self, "theta", check_theta(self.theta))

    @classmethod
    def new(cls, theta: float) -> "BellKind":
        return cls("new", theta)

    @classmethod
    def tilted(cls, theta: float) -> "BellKind":
        return cls("tilted", theta)

    @property
    def is_chsh(self) -> bool:
        """Whether theta is pi/4 to within 1e-12, where both families are CHSH/(2 sqrt 2)."""
        return abs(self.theta - math.pi / 4) < 1e-12

    @property
    def b_ideal(self) -> float:
        """Half-angle between Bob's observables that makes the test maximal.

        arctan sqrt((1 + cos^2(2 theta)/2) / sin^2(2 theta)) for 'new' and,
        with Bob's bisector along sigma_x, arctan(1/sin(2 theta)) for
        'tilted'; both are pi/4 at theta = pi/4.
        """
        s2 = math.sin(2.0 * self.theta)
        if self.family == "new":
            c2 = math.cos(2.0 * self.theta)
            return math.atan(math.sqrt((1.0 + 0.5 * c2 * c2) / (s2 * s2)))
        return math.atan(1.0 / s2)

    @property
    def alpha(self) -> float:
        """Tilt 2/sqrt(1 + 2 tan^2(2 theta)) of tilted CHSH; 0 at the tie."""
        if self.is_chsh:
            return 0.0
        tan2 = math.tan(2 * self.theta)
        return 2.0 / math.sqrt(1.0 + 2.0 * tan2 * tan2)

    @property
    def local_bound(self) -> float:
        """Closed-form local bound beta_L, each family's own also at the tie.

        For 'new' (1/4) [c2 + (2 + c2) sqrt((7 - c4)/(5 + c4))] with
        c2 = cos(2 theta), c4 = cos(4 theta), attained by A0 = A1 = B0 = 1,
        B1 = -1; for 'tilted' (2 + alpha)/sqrt(8 + 2 alpha^2).
        """
        if self.family == "new":
            c2, c4 = math.cos(2 * self.theta), math.cos(4 * self.theta)
            return 0.25 * (c2 + (2.0 + c2) * math.sqrt((7.0 - c4) / (5.0 + c4)))
        alpha = self.alpha
        return (2.0 + alpha) / math.sqrt(8.0 + 2.0 * alpha * alpha)

    @property
    def bell_constants(self) -> tuple[float, float, float, float]:
        """The constants (diff, plus, marg, alone) of ``bell.BellTerms``' table.

        The tie takes tilted CHSH's, with alpha = 0, for both families.
        """
        if self.family == "new" and not self.is_chsh:
            b, two = self.b_ideal, 2 * self.theta
            sb, cb, s2, c2 = math.sin(b), math.cos(b), math.sin(two), math.cos(two)
            return 1.0 / (2.0 * sb), s2 / (2.0 * cb), c2 / 4.0, c2 / (4.0 * sb)
        alpha = self.alpha
        norm = math.sqrt(8.0 + 2.0 * alpha * alpha)
        return 2.0 / norm, 2.0 / norm, alpha / norm, 0.0

    @property
    def warp_variant(self) -> str:
        """Bob's angle warp: the identity where b_ideal is pi/4 to 1e-12, else linear.

        That window is about 1e-6 wide in theta, wider than the tie's.
        """
        return "identity" if abs(self.b_ideal - math.pi / 4) < 1e-12 else LINEAR_WARP

    @property
    def vertex(self) -> tuple[float, float, tuple[float, float]]:
        """The data (1 - beta_L, t*, corner) behind ``vertex_cutoff``.

        1 - beta_L comes from closed forms free of cancellation; t* is the
        local-bound strategy's overlap with the target at the corner, where
        it binds: cos^2 theta cos^2(pi/8) at (0, pi/2) for 'new' and
        cos^2(theta - pi/8)/2 at (0, 0) for 'tilted'. The tie takes 'new''s.
        """
        theta = self.theta
        if self.family == "new" or self.is_chsh:
            # 4 (1 - beta_L) = 3 (1 - r) + 2 sin^2 theta (1 + r), with
            # u = sin^2(2 theta) and r = sqrt((3 + u)/(3 - u)), regrouped
            sin2, u = math.sin(theta) ** 2, math.sin(2.0 * theta) ** 2
            r = math.sqrt((3.0 + u) / (3.0 - u))
            n = 12.0 * sin2 - 2.0 * u * u / (3.0 + math.sqrt(9.0 - u * u))
            gap = sin2 * n / (2.0 * (3.0 - u) * (1.0 + r))
            return gap, math.cos(theta) ** 2 * math.cos(math.pi / 8) ** 2, (0.0, math.pi / 2)
        # 1 - beta_L = (2 - alpha)^2 / (w (w + 2 + alpha)), w = sqrt(8 + 2 alpha^2),
        # with alpha = 2/q and 2 - alpha = 4 tan^2(2 theta) / (q (q + 1))
        tan2 = math.tan(2.0 * theta) ** 2
        q = math.sqrt(1.0 + 2.0 * tan2)
        w = math.sqrt(8.0 + 8.0 / (q * q))
        gap = (4.0 * tan2 / (q * (q + 1.0))) ** 2 / (w * (w + 2.0 + 2.0 / q))
        return gap, math.cos(theta - math.pi / 8) ** 2 / 2.0, (0.0, 0.0)


def vertex_cutoff(theta: float, family: str) -> tuple[float, tuple[float, float]]:
    """The cutoff I* of the dephasing channels, and the corner (a, b) where it binds.

    At a = 0 Alice's channel dephases fully onto H, and at b = 0 or pi/2
    Bob's onto his axis, so there T and B are diagonal in a product basis:
    B holds the Bell values beta_k of the 8 deterministic strategies and T
    their overlaps t_k with the target. The local-bound strategy gives the
    largest slope s* = (1 - t*)/(1 - beta_L) (Kaniewski, PRL 117, 070402
    (2016)), with 1 - beta_L, t* and the corner from ``BellKind.vertex``,
    which follows the record's tie rule at pi/4. 1 - I* = sin^2 theta / s*
    is never taken from 1. Returns the smallest float I* < 1 whose
    ``slope_and_intercept`` slope covers s*. Raises DomainError for theta
    outside ``THETA_RANGE`` or another family, and ChannelFamilyError,
    naming both, if that float lies more than 8 ulps from the closed form.
    """
    kind = BellKind(family, theta)
    theta, (gap, t_star, corner) = kind.theta, kind.vertex
    s = (1.0 - t_star) / gap
    i_star = 1.0 - math.sin(theta) ** 2 * gap / (1.0 - t_star)
    # the float slope is nondecreasing in I*, so step to the smallest I* that
    # covers s; the closed form lands within 2 ulps of it on every angle
    # tried, so a longer walk means the closed form is wrong
    for _ in range(_MAX_ULP_STEPS + 1):
        if slope_and_intercept(theta, i_star)[0] < s:
            i_star = math.nextafter(i_star, 1.0)
        elif slope_and_intercept(theta, math.nextafter(i_star, 0.0))[0] >= s:
            i_star = math.nextafter(i_star, 0.0)
        else:
            return i_star, corner
    raise ChannelFamilyError(
        f"the closed-form cutoff for {family!r} at theta={theta!r} lies more than "
        f"{_MAX_ULP_STEPS} ulps from the smallest I* whose slope covers s*={s!r}")


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class LinearBoundCertificate:
    """Accepted linear overlap bound for one inequality and angle.

    Stores what a solve decides: the angle, family and cutoff I*, and the
    grid, refinement depth and worst margin of its scan. ``slope`` and
    ``intercept`` follow from (theta, I*); the binding angle pair
    ``worst_a``, ``worst_b`` (where ``vertex_cutoff`` binds, so I* cannot
    be lowered there) and Bob's warp ``delta_variant`` from the family
    record. Raises DomainError for an angle or family without a cutoff, or
    an I* outside (0, 1).
    """

    theta: float
    family: str
    i_star: float
    grid_a: int
    grid_b: int
    refine_levels: int
    worst_margin: float

    def __post_init__(self) -> None:
        BellKind(self.family, self.theta)
        _check_cutoff(self.i_star)

    @property
    def kind(self) -> BellKind:
        """The certified inequality family at its angle."""
        return BellKind(self.family, self.theta)

    @property
    def slope(self) -> float:
        return slope_and_intercept(self.theta, self.i_star)[0]

    @property
    def intercept(self) -> float:
        return slope_and_intercept(self.theta, self.i_star)[1]

    @property
    def worst_a(self) -> float:
        """Alice's angle at the corner where ``vertex_cutoff`` binds."""
        return self.kind.vertex[2][0]

    @property
    def worst_b(self) -> float:
        """Bob's angle at the corner where ``vertex_cutoff`` binds."""
        return self.kind.vertex[2][1]

    @property
    def delta_variant(self) -> str:
        """Bob's angle warp, ``BellKind.warp_variant``."""
        return self.kind.warp_variant


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


# ---------------------------------------------------------------------------
# fidelity bounds


def input_fidelity_bound(beta: float, floor: bool = True) -> float:
    """Fidelity of the source state with phi+ certified by a CHSH value.

    sqrt(1/2 + (beta - beta*) / (2 (2 sqrt 2 - beta*))) with
    beta* = 2 (8 + 7 sqrt 2)/17 ~ 2.106. With ``floor`` the result is
    clamped below by 1/sqrt(2), the fidelity achievable with no violation
    at all; without it the raw value (down to 0) is returned. Raises
    DomainError for a beta that is not a finite number.
    """
    beta = _check_finite(beta, "beta")
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
    coefficient of the branch target. Raises DomainError naming ``i`` for
    one that is not a finite number, or ``theta`` for one outside
    ``THETA_RANGE``, where no certificate exists.
    """
    i, theta = _check_finite(i, "i"), check_theta(theta)
    if i > 1.0 + 1e-6:
        raise NonQuantumValueError(f"violation {i!r} exceeds the quantum bound 1")
    _check_cutoff(i_star)
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
# pipeline


def _pipeline(beta: float, i0: float, i1: float, p0: float, theta: float,
              cert: LinearBoundCertificate, floor: bool) -> FidelityCertificate:
    # input_fidelity_bound and combine_branches name beta and p0 themselves;
    # output_fidelity_bound would call either violation i
    for name, value in (("i0", i0), ("i1", i1)):
        _check_finite(value, name)
    # written so that a NaN theta fails it
    if not abs(cert.theta - theta) <= 1e-9:
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
    branches: U = (XZ) (x) (XZ) conjugates branch 0's operator inequality
    into branch 1's, as test_branch1_inequality_is_branch0_conjugated
    proves), the branches combine with square-root probability weights, and
    input and output compose through the arccos triangle inequality. The
    certificate must be for ``theta``.
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
