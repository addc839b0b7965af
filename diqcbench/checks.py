"""Output checks computed apart from diqc.

Everything here is rebuilt from the formulas the package documents (the
observables, the two Bell expressions, the dephasing profile with the linear
warp of Bob's angle, the fidelity pipeline and the Choi-state oracle) with
plain numpy and scipy. Nothing calls into diqc, so a fault in the package's
vectorized kernel, its pointwise constructors or its pipeline cannot hide
itself here. Each check returns a list of error strings; empty means pass.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
ANCHOR = (8.0 + 7.0 * SQRT2) / (17.0 * SQRT2)
BETA_STAR = 2.0 * (8.0 + 7.0 * SQRT2) / 17.0
CHSH_MAX = 2.0 * SQRT2
MARGIN_TOL = 1e-9
SOUNDNESS_TOL = 1e-9
ORACLE_TOL = 3e-8

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
I2 = np.eye(2)
H = (Z + X) / SQRT2
V = (Z - X) / SQRT2
CORNERS = ((0.0, 0.0), (0.0, math.pi / 2), (math.pi / 2, 0.0), (math.pi / 2, math.pi / 2))


# ---------------------------------------------------------------------------
# Bell expressions and the bound operator


def _is_quarter_pi(theta: float) -> bool:
    return abs(theta - math.pi / 4) < 1e-12


def b_ideal(theta: float, family: str) -> float:
    """Bob's half-angle at which the expression reaches its maximum one."""
    s2, c2 = math.sin(2 * theta), math.cos(2 * theta)
    if family == "new":
        return math.atan(math.sqrt((1.0 + 0.5 * c2 * c2) / (s2 * s2)))
    return math.atan(1.0 / s2)


def tilt(theta: float) -> float:
    """alpha = 2 / sqrt(1 + 2 tan^2(2 theta)), zero at theta = pi/4."""
    if _is_quarter_pi(theta):
        return 0.0
    t = math.tan(2 * theta)
    return 2.0 / math.sqrt(1.0 + 2.0 * t * t)


def bell_value(theta: float, family: str, a0, a1, b0, b1, a0b0, a0b1, a1b0, a1b1):
    """Normalized expression on marginals and joint correlators."""
    if family == "new":
        bt = b_ideal(theta, "new")
        sb, cb = math.sin(bt), math.cos(bt)
        s2, c2 = math.sin(2 * theta), math.cos(2 * theta)
        return 0.25 * ((a0b0 - a0b1) / sb + (s2 / cb) * (a1b0 + a1b1)
                       + c2 * (a0 + (b0 - b1) / (2 * sb)))
    al = tilt(theta)
    return (al * a0 + (a0b0 - a0b1) + (a1b0 + a1b1)) / math.sqrt(8.0 + 2.0 * al * al)


def local_bound(theta: float, family: str) -> float:
    """Largest value over the 16 deterministic local strategies."""
    best = -math.inf
    for a0 in (1, -1):
        for a1 in (1, -1):
            for b0 in (1, -1):
                for b1 in (1, -1):
                    best = max(best, bell_value(theta, family, a0, a1, b0, b1,
                                                a0 * b0, a0 * b1, a1 * b0, a1 * b1))
    return best


def bell_operator(theta: float, family: str, a: float, b: float) -> np.ndarray:
    """The expression with each correlator replaced by its observable."""
    A0, A1 = math.cos(a) * H + math.sin(a) * V, math.cos(a) * H - math.sin(a) * V
    B0, B1 = math.cos(b) * X + math.sin(b) * Z, math.cos(b) * X - math.sin(b) * Z
    return bell_value(theta, family, np.kron(A0, I2), np.kron(A1, I2),
                      np.kron(I2, B0), np.kron(I2, B1), np.kron(A0, B0),
                      np.kron(A0, B1), np.kron(A1, B0), np.kron(A1, B1))


def profile(t: float) -> float:
    """g(t) = (1 + sqrt 2)(cos t + sin t - 1) on [0, pi/2], clipped to [0, 1]."""
    if not 0.0 <= t <= math.pi / 2:
        return 0.0
    return min(max((1.0 + SQRT2) * (math.cos(t) + math.sin(t) - 1.0), 0.0), 1.0)


def warp(b: float, bi: float) -> float:
    """Piecewise-linear map of [0, bi] onto [0, pi/4] and [bi, pi/2] onto [pi/4, pi/2]."""
    if abs(bi - math.pi / 4) < 1e-12:
        return b
    if b <= bi:
        return (math.pi / 4) * b / bi
    return math.pi / 4 + (math.pi / 4) * (b - bi) / (math.pi / 2 - bi)


def _dephase(rho: np.ndarray, weight: float, axis: np.ndarray) -> np.ndarray:
    return weight * rho + (1.0 - weight) * axis @ rho @ axis


def bound_margin(theta: float, family: str, i_star: float, a: float, b: float) -> float:
    """Smallest eigenvalue of (L_a x L_b)[|phi><phi|] - s B(a, b) - mu 1."""
    phi = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)])
    rho = np.outer(phi, phi)
    w_a = (1.0 + profile(a)) / 2.0
    rho = _dephase(rho, w_a, np.kron(H if a <= math.pi / 4 else V, I2))
    bi = b_ideal(theta, family)
    w_b = (1.0 + profile(warp(b, bi))) / 2.0
    rho = _dephase(rho, w_b, np.kron(I2, X if b <= bi else Z))
    c2 = math.cos(theta) ** 2
    s = (1.0 - c2) / (1.0 - i_star)
    mu = (c2 - i_star) / (1.0 - i_star)
    op = rho - s * bell_operator(theta, family, a, b) - mu * np.eye(4)
    return float(np.linalg.eigvalsh(op)[0])


def check_cutoff(cert, samples: np.ndarray) -> list[str]:
    """Margin, local-bound and anchor checks of one cutoff certificate.

    ``samples`` holds extra (a, b) points; the four corners of the square
    and the certificate's reported worst point are always checked.
    """
    tag = f"{cert.family} theta={cert.theta:.6g} i_star={cert.i_star:.9g}"
    errors = []
    points = list(CORNERS) + [(cert.worst_a, cert.worst_b)] + [tuple(p) for p in samples]
    worst, where = min((bound_margin(cert.theta, cert.family, cert.i_star, a, b), (a, b))
                       for a, b in points)
    if worst < -MARGIN_TOL:
        errors.append(f"{tag}: margin {worst:.3e} at (a={where[0]:.6f}, b={where[1]:.6f})")
    lb = local_bound(cert.theta, cert.family)
    if not lb < cert.i_star < 1.0:
        errors.append(f"{tag}: outside (local bound {lb:.9g}, 1)")
    if _is_quarter_pi(cert.theta) and not ANCHOR - 1e-9 <= cert.i_star <= ANCHOR + 1e-3:
        errors.append(f"{tag}: misses the anchor {ANCHOR:.9g}")
    return errors


def check_ordering(certs: list) -> list[str]:
    """I*(new) <= I*(tilted) at every angle where both families solved."""
    by_theta = {}
    for c in certs:
        by_theta.setdefault(c.theta, {})[c.family] = c.i_star
    return [f"theta={t:.6g}: I*(new) {f['new']:.9g} > I*(tilted) {f['tilted']:.9g}"
            for t, f in sorted(by_theta.items())
            if len(f) == 2 and f["new"] > f["tilted"]]


# ---------------------------------------------------------------------------
# the fidelity pipeline


def pipeline_bound(beta: float, i0: float, i1: float, p0: float, theta: float,
                   i_star: float) -> float:
    """Certified instrument fidelity with the trivial floors, from the formulas."""
    inner = 0.5 + 0.5 * (min(beta, CHSH_MAX) - BETA_STAR) / (CHSH_MAX - BETA_STAR)
    f_in = min(max(math.sqrt(max(inner, 0.0)), 1.0 / SQRT2), 1.0)
    c2 = math.cos(theta) ** 2

    def f_branch(i):
        raw = c2 + (1.0 - c2) * (min(i, 1.0) - i_star) / (1.0 - i_star)
        return min(max(math.sqrt(max(raw, 0.0)), math.cos(theta)), 1.0)

    f_out = math.sqrt(p0 / 2.0) * f_branch(i0) + math.sqrt((1.0 - p0) / 2.0) * f_branch(i1)
    angle = math.acos(f_in) + math.acos(min(f_out, 1.0))
    return 0.0 if angle >= math.pi / 2 else math.cos(angle)


def check_pipeline_row(row: dict, theta: float, i_star: float) -> list[str]:
    """A certify or simulate row matches the recomputed pipeline."""
    want = pipeline_bound(row["beta"], row["i0"], row["i1"], row["p0"], theta, i_star)
    if abs(row["bound"] - want) > 1e-12:
        return [f"theta={theta:.9g}: row bound {row['bound']!r}, recomputed {want!r}"]
    return []


def check_soundness(bound: float, oracle: float) -> list[str]:
    """A certified bound lies in [0, 1] and never exceeds its oracle fidelity."""
    if not 0.0 <= bound <= 1.0 or bound > oracle + SOUNDNESS_TOL:
        return [f"certified {bound!r} against oracle {oracle!r}"]
    return []


# ---------------------------------------------------------------------------
# the Choi-state oracle


def _kraus(theta: float, eta: float) -> list[list[np.ndarray]]:
    c, s = math.cos(theta), math.sin(theta)
    out = []
    for k in (np.diag([c, s]), np.diag([s, c])):
        if eta == 0.0:
            out.append([k])
        else:
            out.append([math.sqrt(1.0 - eta) * k, math.sqrt(eta / 2.0) * X @ k,
                        math.sqrt(eta / 2.0) * Z @ k])
    return out


def _embed(block: np.ndarray, label: int) -> np.ndarray:
    marker = np.zeros((2, 2))
    marker[label, label] = 1.0
    return np.kron(block, marker)


def oracle_fidelity(visibility: float, instrument_theta: float, eta: float,
                    theta: float) -> float:
    """Fidelity of the noisy run's Choi register with the reference one.

    The noisy register A is the dense block embedding of
    sum_K (1 x K) rho (1 x K)^T per outcome. The reference register is
    B = U U^T, whose columns are the embedded vectors (1 x K_l)|phi+>, so
    sqrt(A) B sqrt(A) and U^T A U share their nonzero spectrum and
    F = Tr sqrtm(U^T A U). That keeps sqrtm away from the six-fold null
    space of B, where it loses about 1e-8 to roundoff.
    """
    # imported here: scipy takes longer to import than diqc, and set-up
    # time should show the program's imports, not the checker's
    import scipy.linalg

    phi = np.array([1.0, 0.0, 0.0, 1.0]) / SQRT2
    source = visibility * np.outer(phi, phi) + (1.0 - visibility) * np.eye(4) / 4.0
    actual = sum(
        _embed(sum(np.kron(I2, k) @ source @ np.kron(I2, k).T for k in ops), label)
        for label, ops in enumerate(_kraus(instrument_theta, eta)))
    u = np.column_stack([np.kron(np.kron(I2, k) @ phi, I2[label])
                         for label, (k,) in enumerate(_kraus(theta, 0.0))])
    return float(np.trace(scipy.linalg.sqrtm(u.T @ actual @ u)).real)


# ---------------------------------------------------------------------------
# CLI output


def parse_output(text: str, fmt: str, header: list[str]) -> tuple[list[dict], list[str]]:
    """Rows of a command's output, checked against its documented header."""
    if fmt == "json":
        rows = json.loads(text)
        bad = [r for r in rows if list(r) != header]
        return rows, ([f"json keys {list(bad[0])} != {header}"] if bad else [])
    reader = csv.reader(io.StringIO(text))
    got = next(reader, [])
    if got != header:
        return [], [f"csv header {got} != {header}"]
    rows = []
    for values in reader:
        row = {}
        for key, val in zip(header, values):
            try:
                row[key] = float(val)
            except ValueError:
                row[key] = val
        rows.append(row)
    return rows, []


def check_fig5(rows: list[dict]) -> list[str]:
    """2500 cells, top corner one, monotone in both violations, some zeros."""
    if len(rows) != 2500:
        return [f"fig5 has {len(rows)} cells, expected 2500"]
    betas = sorted({r["beta"] for r in rows})
    vios = sorted({r["i_theta"] for r in rows})
    surface = {(r["beta"], r["i_theta"]): r["bound"] for r in rows}
    errors = []
    if abs(surface[(betas[-1], vios[-1])] - 1.0) > 1e-12:
        errors.append(f"fig5 top corner {surface[(betas[-1], vios[-1])]!r} != 1")
    grid = np.array([[surface[(bv, iv)] for iv in vios] for bv in betas])
    if np.any(np.diff(grid, axis=0) < -1e-12) or np.any(np.diff(grid, axis=1) < -1e-12):
        errors.append("fig5 surface falls as beta or I rises")
    if not np.any(grid == 0.0):
        errors.append("fig5 surface has no cell in the zero clamp")
    return errors
