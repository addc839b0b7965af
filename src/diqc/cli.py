"""Command-line surface: cutoffs, certification, simulation and sweeps.

Commands

    cutoff      solve for the self-testing cutoff of one inequality
    certify     compose a fidelity certificate from observed violations
    simulate    run the noisy recipe simulation end to end
    sweep-fig4  cutoff as a function of the instrument angle, both tests
    sweep-fig5  certified fidelity over a grid of (CHSH, Bell) violations

Output goes to stdout or ``--out``, as CSV (default) or JSON. Reals are
written with 17 significant digits so every serialized certificate
re-parses to the exact same value. Exit codes: 0 success, 1 usage error,
2 domain or infeasibility error.

Cutoff certificates are cached under ``--cache-dir`` (or the
``DIQC_CACHE_DIR`` environment variable, default ``~/.cache/diqc``), keyed
by angle, inequality, grid, refinement depth and solver tag, so sweeps do
not re-run the solver and a certificate written by another solver is never
served. An entry that cannot be parsed is solved again and rewritten;
entries are written atomically.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import bell, certify, experiment, quantum

FIG5_THETA = (2.0 * np.pi + 7.0) / 22.0

FIG4_HEADER = ["theta", "inequality", "i_star", "slope", "intercept",
               "worst_margin", "grid_n", "delta_variant"]
FIG5_HEADER = ["theta", "beta", "i_theta", "p0", "f_in", "f_out", "bound"]
CUTOFF_HEADER = ["theta", "inequality", "i_star", "slope", "intercept",
                 "worst_margin", "worst_a", "worst_b", "grid_a", "grid_b",
                 "refine_levels", "tol", "delta_variant"]
CERTIFY_HEADER = ["beta", "i0", "i1", "p0", "f_in", "f_out0", "f_out1",
                  "f_out", "bound"]
SIMULATE_HEADER = ["theta"] + CERTIFY_HEADER


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-3.9e-05" after a space for a flag, since its own
        # pattern for negative numbers has no exponent
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    # argparse exits with status 2 on bad arguments; the contract here is 1
    def error(self, message: str):
        raise _UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _positive_grid(text: str) -> int:
    n = int(text)
    if n < 101:
        raise argparse.ArgumentTypeError(f"grid must be at least 101, got {n}")
    return n


def _nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def default_cache_dir() -> Path:
    env = os.environ.get("DIQC_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "diqc"


# ---------------------------------------------------------------------------
# certificate (de)serialization and caching


def cutoff_to_row(cert: certify.LinearBoundCertificate) -> dict:
    return {
        "theta": cert.theta, "inequality": cert.family, "i_star": cert.i_star,
        "slope": cert.slope, "intercept": cert.intercept,
        "worst_margin": cert.worst_margin, "worst_a": cert.worst_a,
        "worst_b": cert.worst_b, "grid_a": cert.grid_a, "grid_b": cert.grid_b,
        "refine_levels": cert.refine_levels, "tol": cert.tol,
        "delta_variant": cert.delta_variant,
    }


def cutoff_from_row(row: dict) -> certify.LinearBoundCertificate:
    return certify.LinearBoundCertificate(
        theta=float(row["theta"]), family=str(row["inequality"]),
        i_star=float(row["i_star"]), slope=float(row["slope"]),
        intercept=float(row["intercept"]), grid_a=int(row["grid_a"]),
        grid_b=int(row["grid_b"]), refine_levels=int(row["refine_levels"]),
        tol=float(row["tol"]), worst_margin=float(row["worst_margin"]),
        worst_a=float(row["worst_a"]), worst_b=float(row["worst_b"]),
        delta_variant=str(row["delta_variant"]))


def _cache_path(cache_dir: Path, theta: float, family: str, grid: tuple[int, int],
                refine: int) -> Path:
    key = f"{family}|{theta:.17g}|{grid[0]}x{grid[1]}|r{refine}|{certify.SOLVER_TAG}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return cache_dir / f"cutoff-{family}-{digest}.json"


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` by ``text`` so readers see the old or the new file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_or_solve_cutoff(theta: float, family: str, grid: tuple[int, int],
                         refine: int, cache_dir: Path | None) -> certify.LinearBoundCertificate:
    """Fetch a cached cutoff certificate or run the solver and cache it.

    A cache entry that is truncated or does not parse as a certificate is
    solved again and overwritten.
    """
    path = None
    if cache_dir is not None:
        path = _cache_path(cache_dir, theta, family, grid, refine)
        if path.exists():
            try:
                return cutoff_from_row(json.loads(path.read_text(encoding="utf-8")))
            except (ValueError, KeyError, TypeError):
                pass
    cert = certify.find_cutoff(theta, family, grid=grid, refine_levels=refine)
    if path is not None:
        _write_atomic(path, json.dumps(cutoff_to_row(cert)))
    return cert


def emit_rows(header: list[str], rows: list[dict], fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in header])
        text = buf.getvalue()
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def parse_rows(text: str, fmt: str = "csv") -> list[dict]:
    """Inverse of emit_rows; numeric strings come back as floats."""
    if fmt == "json":
        return json.loads(text)
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        parsed = {}
        for key, val in row.items():
            try:
                parsed[key] = float(val)
            except ValueError:
                parsed[key] = val
        rows.append(parsed)
    return rows


# ---------------------------------------------------------------------------
# commands


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--cache-dir", default=None,
                   help="cutoff cache directory (env DIQC_CACHE_DIR overrides default)")
    p.add_argument("--no-cache", action="store_true", help="bypass the cutoff cache")


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--inequality", choices=("new", "tilted"), default="new")
    p.add_argument("--grid-n", type=_positive_grid, default=201,
                   help="angle grid points per axis (minimum 101)")
    p.add_argument("--refine", type=_nonnegative_int,
                   default=certify.DEFAULT_REFINE_LEVELS,
                   help="local refinement passes (at least 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diqc",
                     description="device-independent certification of qubit instruments")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("cutoff", help="solve for a self-testing cutoff")
    p.add_argument("--theta", type=float, required=True, help="instrument angle in radians")
    _add_solver_args(p)
    _add_io_args(p)

    p = sub.add_parser("certify", help="certificate from observed violations")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--beta", type=float, required=True, help="observed CHSH value")
    p.add_argument("--i0", type=float, required=True, help="branch-0 violation")
    p.add_argument("--i1", type=float, required=True, help="branch-1 violation")
    p.add_argument("--p0", type=float, required=True, help="branch-0 probability")
    _add_solver_args(p)
    _add_io_args(p)

    p = sub.add_parser("simulate", help="noisy recipe simulation, end to end")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--visibility", type=float, default=1.0)
    p.add_argument("--alice-offset", type=float, default=0.0)
    p.add_argument("--bob-offset", type=float, default=0.0)
    p.add_argument("--instrument-theta", type=float, default=None)
    p.add_argument("--depolarization", type=float, default=0.0)
    _add_solver_args(p)
    _add_io_args(p)

    p = sub.add_parser("sweep-fig4", help="cutoff versus instrument angle, both tests")
    p.add_argument("--theta-min", type=float, default=quantum.THETA_RANGE[0])
    p.add_argument("--theta-max", type=float, default=quantum.THETA_RANGE[1])
    p.add_argument("--points", type=_positive_int, default=25)
    _add_solver_args(p)
    _add_io_args(p)

    p = sub.add_parser("sweep-fig5", help="certified fidelity surface over violations")
    p.add_argument("--theta", type=float, default=FIG5_THETA)
    p.add_argument("--points", type=_positive_int, default=50)
    _add_solver_args(p)
    _add_io_args(p)

    return parser


def _cache_dir_of(args) -> Path | None:
    if args.no_cache:
        return None
    return Path(args.cache_dir) if args.cache_dir else default_cache_dir()


def _solve(args, theta: float, family: str) -> certify.LinearBoundCertificate:
    return load_or_solve_cutoff(theta, family, (args.grid_n, args.grid_n),
                                args.refine, _cache_dir_of(args))


def cmd_cutoff(args) -> int:
    cert = _solve(args, args.theta, args.inequality)
    emit_rows(CUTOFF_HEADER, [cutoff_to_row(cert)], args.format, args.out)
    return 0


def cmd_certify(args) -> int:
    cert = _solve(args, args.theta, args.inequality)
    fc = certify.certify_instrument(args.beta, args.i0, args.i1, args.p0,
                                    args.theta, cert)
    emit_rows(CERTIFY_HEADER, [dataclasses.asdict(fc)], args.format, args.out)
    return 0


def cmd_simulate(args) -> int:
    noise = experiment.NoiseModel(
        visibility=args.visibility, alice_angle_offset=args.alice_offset,
        bob_angle_offset=args.bob_offset, instrument_theta=args.instrument_theta,
        branch_depolarization=args.depolarization)
    experiment.check_simulated_family(args.inequality)
    cert = _solve(args, args.theta, args.inequality)
    fc = experiment.end_to_end(noise, args.theta, cert)
    row = {"theta": args.theta, **dataclasses.asdict(fc)}
    emit_rows(SIMULATE_HEADER, [row], args.format, args.out)
    return 0


def cmd_sweep_fig4(args) -> int:
    thetas = np.linspace(args.theta_min, args.theta_max, args.points)
    rows = []
    for family in ("new", "tilted"):
        for theta in thetas:
            cert = _solve(args, float(theta), family)
            row = {**cutoff_to_row(cert), "grid_n": cert.grid_a}
            rows.append({key: row[key] for key in FIG4_HEADER})
    rows.sort(key=lambda r: (r["inequality"], r["theta"]))
    emit_rows(FIG4_HEADER, rows, args.format, args.out)
    return 0


def cmd_sweep_fig5(args) -> int:
    theta = args.theta
    cert = _solve(args, theta, args.inequality)
    lb = bell.local_bound(bell.BellKind(args.inequality, theta))
    betas = np.linspace(2.0, certify.CHSH_QUANTUM_BOUND, args.points)
    # extend slightly below the local bound so the trivial region is visible
    i_lo = lb - 0.05 * (1.0 - lb)
    violations = np.linspace(i_lo, 1.0, args.points)
    rows = []
    for beta in betas:
        for i in violations:
            fc = certify.raw_pipeline_bound(float(beta), float(i), theta, cert)
            rows.append({"theta": theta, "beta": fc.beta, "i_theta": fc.i0,
                         "p0": fc.p0, "f_in": fc.f_in, "f_out": fc.f_out,
                         "bound": fc.bound})
    emit_rows(FIG5_HEADER, rows, args.format, args.out)
    return 0


_COMMANDS = {
    "cutoff": cmd_cutoff,
    "certify": cmd_certify,
    "simulate": cmd_simulate,
    "sweep-fig4": cmd_sweep_fig4,
    "sweep-fig5": cmd_sweep_fig5,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (quantum.DomainError, certify.NonQuantumValueError,
            certify.ChannelFamilyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
