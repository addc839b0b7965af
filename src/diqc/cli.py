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
2 domain or infeasibility error, or an ``--out`` file that cannot be
written (the message names its path).

Cutoff certificates are cached under ``--cache-dir`` (or the
``DIQC_CACHE_DIR`` environment variable, default ``~/.cache/diqc``), keyed
by inequality, angle and solver tag, so sweeps do not re-run the solver
and a certificate written by another solver is never served. An entry is
served only as a solve would return it: its angle and inequality are the
key's, its cutoff is ``pipeline.vertex_cutoff``'s, its grid and depth are
the defaults and each derived column follows from its stored fields. Any
other entry, or one that cannot be read, is solved again and rewritten,
atomically; one that cannot be written costs a warning on stderr, never
the result.

This module imports only the scalar layer, ``pipeline``, at start-up. The
solver is imported on a cache miss and the simulator by ``simulate``, and
only they load numpy: ``cutoff``, ``certify`` and ``sweep-fig5`` served
from the cache run on the standard library alone.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

from . import pipeline

FIG5_THETA = (2.0 * math.pi + 7.0) / 22.0

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


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``num`` evenly spaced floats from start to stop, bit for bit as ``np.linspace``."""
    if num == 1:
        return [start]
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _at_least(lo: int):
    """argparse type of the integers from ``lo`` up."""
    def integer(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n
    return integer


# ---------------------------------------------------------------------------
# certificate (de)serialization and caching


def cutoff_to_row(cert: pipeline.LinearBoundCertificate) -> dict:
    return {
        "theta": cert.theta, "inequality": cert.family, "i_star": cert.i_star,
        "slope": cert.slope, "intercept": cert.intercept,
        "worst_margin": cert.worst_margin, "worst_a": cert.worst_a,
        "worst_b": cert.worst_b, "grid_a": cert.grid_a, "grid_b": cert.grid_b,
        "refine_levels": cert.refine_levels, "tol": pipeline.VERIFY_TOL,
        "delta_variant": cert.delta_variant,
    }


def cutoff_from_row(row: dict) -> pipeline.LinearBoundCertificate:
    """The certificate whose fields a row stores, if it writes back as that row.

    Raises ValueError naming the first column, derived ones included, that
    differs from the certificate's, or DomainError as the certificate does.
    """
    cert = pipeline.LinearBoundCertificate(
        theta=float(row["theta"]), family=str(row["inequality"]),
        i_star=float(row["i_star"]), grid_a=int(row["grid_a"]),
        grid_b=int(row["grid_b"]), refine_levels=int(row["refine_levels"]),
        worst_margin=float(row["worst_margin"]))
    for column, value in cutoff_to_row(cert).items():
        if row[column] != value:
            raise ValueError(f"{column}={row[column]!r} disagrees with the stored "
                             f"fields, which give {value!r}")
    return cert


def _cache_path(cache_dir: Path, theta: float, family: str) -> Path:
    key = f"{family}|{theta:.17g}|{pipeline.SOLVER_TAG}"
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


def load_or_solve_cutoff(theta: float, family: str,
                         cache_dir: Path | None) -> pipeline.LinearBoundCertificate:
    """Fetch a cached cutoff certificate or run the solver and cache it.

    A cache entry that cannot be read, is truncated, does not parse as a
    certificate (see ``cutoff_from_row``) or is not the one a solve would
    return is solved again and overwritten. If the entry cannot be
    written, a warning naming its path goes to stderr and the solved
    certificate is returned all the same.
    """
    path = None
    if cache_dir is not None:
        path = _cache_path(cache_dir, theta, family)
        try:
            cert = cutoff_from_row(json.loads(path.read_text(encoding="utf-8")))
            solved = (theta, family, pipeline.vertex_cutoff(theta, family)[0],
                      *pipeline.DEFAULT_GRID, pipeline.DEFAULT_REFINE_LEVELS)
            if (cert.theta, cert.family, cert.i_star, cert.grid_a, cert.grid_b,
                    cert.refine_levels) == solved:
                return cert
        except (OSError, ValueError, KeyError, TypeError):
            pass
    # the solver loads numpy, which a cache hit never needs
    from . import certify

    cert = certify.find_cutoff(theta, family)
    if path is not None:
        try:
            _write_atomic(path, json.dumps(cutoff_to_row(cert)))
        except OSError as exc:
            print(f"warning: cannot write cache entry {path}: {exc}", file=sys.stderr)
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
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise OSError(f"cannot write {out_path}: {exc.strerror}") from exc
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


def _add_inequality_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--inequality", choices=pipeline.FAMILIES, default="new")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diqc",
                     description="device-independent certification of qubit instruments")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("cutoff", help="solve for a self-testing cutoff")
    p.add_argument("--theta", type=float, required=True, help="instrument angle in radians")
    _add_inequality_arg(p)
    _add_io_args(p)

    p = sub.add_parser("certify", help="certificate from observed violations")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--beta", type=float, required=True, help="observed CHSH value")
    p.add_argument("--i0", type=float, required=True, help="branch-0 violation")
    p.add_argument("--i1", type=float, required=True, help="branch-1 violation")
    p.add_argument("--p0", type=float, required=True, help="branch-0 probability")
    _add_inequality_arg(p)
    _add_io_args(p)

    p = sub.add_parser("simulate", help="noisy recipe simulation, end to end")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--visibility", type=float, default=1.0)
    p.add_argument("--alice-offset", type=float, default=0.0)
    p.add_argument("--bob-offset", type=float, default=0.0)
    p.add_argument("--instrument-theta", type=float, default=None)
    p.add_argument("--depolarization", type=float, default=0.0)
    _add_inequality_arg(p)
    _add_io_args(p)

    p = sub.add_parser("sweep-fig4", help="cutoff versus instrument angle, both tests")
    p.add_argument("--theta-min", type=float, default=pipeline.THETA_RANGE[0])
    p.add_argument("--theta-max", type=float, default=pipeline.THETA_RANGE[1])
    p.add_argument("--points", type=_at_least(1), default=25)
    _add_io_args(p)

    p = sub.add_parser("sweep-fig5", help="certified fidelity surface over violations")
    p.add_argument("--theta", type=float, default=FIG5_THETA)
    p.add_argument("--points", type=_at_least(1), default=50)
    _add_inequality_arg(p)
    _add_io_args(p)

    return parser


def _cache_dir_of(args) -> Path | None:
    if args.no_cache:
        return None
    chosen = args.cache_dir or os.environ.get("DIQC_CACHE_DIR")
    return Path(chosen) if chosen else Path.home() / ".cache" / "diqc"


def _solve(args, theta: float, family: str) -> pipeline.LinearBoundCertificate:
    return load_or_solve_cutoff(theta, family, _cache_dir_of(args))


def cmd_cutoff(args) -> int:
    cert = _solve(args, args.theta, args.inequality)
    emit_rows(CUTOFF_HEADER, [cutoff_to_row(cert)], args.format, args.out)
    return 0


def cmd_certify(args) -> int:
    cert = _solve(args, args.theta, args.inequality)
    fc = pipeline.certify_instrument(args.beta, args.i0, args.i1, args.p0,
                                     args.theta, cert)
    emit_rows(CERTIFY_HEADER, [dataclasses.asdict(fc)], args.format, args.out)
    return 0


def cmd_simulate(args) -> int:
    from . import experiment

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
    thetas = _linspace(args.theta_min, args.theta_max, args.points)
    rows = []
    for family in pipeline.FAMILIES:
        for theta in thetas:
            cert = _solve(args, theta, family)
            row = {**cutoff_to_row(cert), "grid_n": cert.grid_a}
            rows.append({key: row[key] for key in FIG4_HEADER})
    rows.sort(key=lambda r: (r["inequality"], r["theta"]))
    emit_rows(FIG4_HEADER, rows, args.format, args.out)
    return 0


def cmd_sweep_fig5(args) -> int:
    theta = args.theta
    cert = _solve(args, theta, args.inequality)
    lb = pipeline.BellKind(args.inequality, theta).local_bound
    betas = _linspace(2.0, pipeline.CHSH_QUANTUM_BOUND, args.points)
    # extend slightly below the local bound so the trivial region is visible
    i_lo = lb - 0.05 * (1.0 - lb)
    violations = _linspace(i_lo, 1.0, args.points)
    rows = []
    for beta in betas:
        for i in violations:
            fc = pipeline.raw_pipeline_bound(beta, i, theta, cert)
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
    except (pipeline.DomainError, pipeline.NonQuantumValueError,
            pipeline.ChannelFamilyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
