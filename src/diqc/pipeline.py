"""Scalar certification layer: angles, local bounds and the fidelity pipeline.

A CHSH value certifies the input state, each branch violation certifies its
output through the cutoff I*, and the two compose by the arccos triangle
inequality. These steps, the cutoff record and the closed forms they need
use the standard library alone, so a command served from the cutoff cache
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


def _check_family(family: str) -> str:
    if family not in ("new", "tilted"):
        raise DomainError(f"cutoffs exist only for 'new' and 'tilted', got {family!r}")
    return family


def check_theta(theta: float) -> float:
    """The instrument angle as a float, if it lies in ``THETA_RANGE``."""
    return _check_range(theta, *THETA_RANGE, "theta")


def bob_ideal_angle(theta: float, kind: str = "new") -> float:
    """Half-angle between Bob's observables that makes the test maximal.

    For the symmetric inequality this is arctan of
    sqrt((1 + cos^2(2 theta)/2) / sin^2(2 theta)). For the tilted-CHSH test,
    in the observable convention of ``quantum`` (Bob's bisector along
    sigma_x), the maximum sits at arctan(1/sin(2 theta)).  Both reduce to
    pi/4 at theta = pi/4, where either test is a rescaled CHSH.
    """
    theta = _check_range(theta, 0.0, math.pi / 4, "theta")
    two = 2.0 * theta
    if kind == "new":
        s2, c2 = math.sin(two), math.cos(two)
        if s2 < 1e-12:
            raise DomainError("theta too close to 0 for the symmetric inequality")
        return math.atan(math.sqrt((1.0 + 0.5 * c2 * c2) / (s2 * s2)))
    if kind == "tilted":
        s2 = math.sin(two)
        if s2 < 1e-12:
            raise DomainError("theta too close to 0 for the tilted inequality")
        return math.atan(1.0 / s2)
    if kind == "chsh":
        return math.pi / 4
    raise DomainError(f"unknown inequality kind {kind!r}")


def warp_variant(b_ideal: float) -> str:
    """Which reparametrization of Bob's angle the ideal angle b_ideal gives.

    The warp is the identity exactly when b_ideal = pi/4 (theta = pi/4, the
    CHSH case), and linear on either side of b_ideal otherwise.
    """
    return "identity" if abs(b_ideal - math.pi / 4) < 1e-12 else LINEAR_WARP


def tilted_alpha(theta: float) -> float:
    """Tilt parameter 2/sqrt(1 + 2 tan^2(2 theta)); zero at theta = pi/4."""
    theta = check_theta(theta)
    if abs(theta - math.pi / 4) < 1e-12:
        return 0.0
    tan2 = math.tan(2 * theta)
    return 2.0 / math.sqrt(1.0 + 2.0 * tan2 * tan2)


def local_bound_new(theta: float) -> float:
    """Closed-form local bound of the symmetric expression.

    (1/4) [ c2 + (2 + c2) sqrt((7 - c4)/(5 + c4)) ] with c2 = cos(2 theta),
    c4 = cos(4 theta); attained by the strategy A0 = A1 = B0 = 1, B1 = -1.
    """
    theta = check_theta(theta)
    c2, c4 = math.cos(2 * theta), math.cos(4 * theta)
    return 0.25 * (c2 + (2.0 + c2) * math.sqrt((7.0 - c4) / (5.0 + c4)))


def tilted_local_bound(theta: float) -> float:
    """Closed-form local bound (2 + alpha)/sqrt(8 + 2 alpha^2)."""
    alpha = tilted_alpha(theta)
    return (2.0 + alpha) / math.sqrt(8.0 + 2.0 * alpha * alpha)


def vertex_cutoff(theta: float, family: str) -> tuple[float, tuple[float, float]]:
    """The cutoff I* of the dephasing channels, and the corner (a, b) where it binds.

    At a = 0 Alice's channel dephases fully onto H, and at b = 0 or pi/2
    Bob's onto his axis, so there T and B are diagonal in a product basis:
    B holds the Bell values beta_k of the 8 deterministic strategies and T
    their overlaps t_k with the target. The local-bound strategy gives the
    largest slope s* = (1 - t*)/(1 - beta_L) (Kaniewski, PRL 117, 070402
    (2016)), with t* = cos^2 theta cos^2(pi/8) at (0, pi/2) for 'new' and
    cos^2(theta - pi/8)/2 at (0, 0) for 'tilted'. Where ``tilted_alpha``
    is 0 (theta = pi/4) both tests are CHSH/(2 sqrt 2), and 'tilted' takes
    'new''s expression and corner. 1 - beta_L comes from closed forms free
    of cancellation, and 1 - I* = sin^2 theta / s* is never taken from 1.
    Returns the smallest float I* < 1 whose ``slope_and_intercept`` slope
    covers s*. Raises DomainError for theta outside ``THETA_RANGE`` or
    another family.
    """
    theta, family = check_theta(theta), _check_family(family)
    sin2 = math.sin(theta) ** 2
    if family == "new" or tilted_alpha(theta) == 0.0:
        # 4 (1 - beta_L) = 3 (1 - r) + 2 sin^2 theta (1 + r), with
        # u = sin^2(2 theta) and r = sqrt((3 + u)/(3 - u)), regrouped
        u = math.sin(2.0 * theta) ** 2
        r = math.sqrt((3.0 + u) / (3.0 - u))
        n = 12.0 * sin2 - 2.0 * u * u / (3.0 + math.sqrt(9.0 - u * u))
        gap = sin2 * n / (2.0 * (3.0 - u) * (1.0 + r))
        t_star, corner = math.cos(theta) ** 2 * math.cos(math.pi / 8) ** 2, (0.0, math.pi / 2)
    else:
        # 1 - beta_L = (2 - alpha)^2 / (w (w + 2 + alpha)), w = sqrt(8 + 2 alpha^2),
        # with alpha = 2/q and 2 - alpha = 4 tan^2(2 theta) / (q (q + 1))
        tan2 = math.tan(2.0 * theta) ** 2
        q = math.sqrt(1.0 + 2.0 * tan2)
        w = math.sqrt(8.0 + 8.0 / (q * q))
        gap = (4.0 * tan2 / (q * (q + 1.0))) ** 2 / (w * (w + 2.0 + 2.0 / q))
        t_star, corner = math.cos(theta - math.pi / 8) ** 2 / 2.0, (0.0, 0.0)
    s = (1.0 - t_star) / gap
    i_star = 1.0 - sin2 * gap / (1.0 - t_star)
    # the float slope is nondecreasing in I*, so step to the smallest I* that covers s
    while slope_and_intercept(theta, math.nextafter(i_star, 0.0))[0] >= s:
        i_star = math.nextafter(i_star, 0.0)
    while slope_and_intercept(theta, i_star)[0] < s:
        i_star = math.nextafter(i_star, 1.0)
    return i_star, corner


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class LinearBoundCertificate:
    """Accepted linear overlap bound for one inequality and angle.

    Records the full verification metadata: grid resolution, refinement
    depth, the verification tolerance, the worst margin of the final scan,
    the binding angle pair ``worst_a``, ``worst_b`` (the corner where
    ``vertex_cutoff`` binds, so I* cannot be lowered there), and Bob's
    channel reparametrization (from the angle, see ``quantum.AngleWarp``).
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
    def kind(self):
        """The certified ``bell.BellKind``; importing it loads numpy."""
        from .bell import BellKind

        return BellKind(self.family, self.theta)


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
