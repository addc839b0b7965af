"""One run of one workload, in a process of its own.

    python3 diqcbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only]

The worker imports diqc from the checkout's ``src``, builds its inputs from
the seed, does the workload's set-up and prints ``READY``. With
``--setup-only`` it stops there, so ``run.py`` can time set-up in fresh
processes. Otherwise it runs the timed phase, checks the outputs against
``checks`` and prints one JSON line: ``correct``, ``attempted``, ``failed``,
``errors`` and ``metrics``.

Load comes from this one process: a closed loop, one operation in flight.
Untraced, a run repeats whole rounds until ``--seconds`` have passed
(``fig4-sweep`` has exactly one round, see below). Traced, it runs a fixed
number of rounds twice, untraced and then with ``tracing.install``, so call
counts repeat exactly and ``trace.overhead_s`` is the difference of the two
timed phases.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import diqc  # noqa: E402
from diqc import certify, cli, experiment  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

QUARTER_PI = math.pi / 4


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


class Workload:
    """What ``run_rounds`` and ``main`` need from a workload, with defaults.

    A workload builds its inputs from the seed in ``__init__``, does its
    untimed preparation in ``setup``, hands out the operations of one round
    in ``round_ops`` and checks what they produced in ``check``. Traced
    command processes leave their spans in ``spans`` and ``import_times``.
    """

    expected_failures: tuple = ()
    max_rounds: int | None = None  # None: repeat rounds until --seconds pass
    trace_rounds = 1

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.traced = traced
        self.results = []
        self.spans = []
        self.import_times = []

    def setup(self) -> None:
        pass


class Fig4Sweep(Workload):
    """Cold cutoff solves over the sweep-fig4 angle grid, both families.

    The grid is every other point of ``diqc sweep-fig4``'s default
    ``linspace(0.05, pi/4, 25)``, which keeps a run near 25 s on a 2-vCPU host. It keeps
    theta = 0.05, where both families raise ChannelFamilyError today, and
    theta = pi/4, the anchor; it drops theta ~ 0.0806, where only the
    tilted family fails. The seed only orders the 26 solves and draws the
    extra points of the margin check. Each (theta, family) pair is solved
    once per process, so a memo cannot turn the sweep into lookups; that is
    also why a run is one round whatever ``--seconds`` says.
    """

    THETAS = np.linspace(0.05, QUARTER_PI, 13)
    REFERENCE = dict(visibility=0.99, branch_depolarization=0.01)
    expected_failures = (certify.ChannelFamilyError,)
    max_rounds = 1

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        super().__init__(seed, workdir, traced)
        rng = _rng(seed, 0)
        pairs = [(float(t), fam) for fam in ("new", "tilted") for t in self.THETAS]
        self.pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        self.samples = rng.uniform(0.0, math.pi / 2, size=(len(pairs), 16, 2))

    def round_ops(self, index: int) -> list:
        return [functools.partial(self._solve, t, fam) for t, fam in self.pairs]

    def _solve(self, theta: float, family: str) -> None:
        self.results.append(certify.find_cutoff(theta, family))

    def check(self) -> list[str]:
        errors = checks.check_ordering(self.results)
        for cert, pts in zip(self.results, self.samples):
            errors += checks.check_cutoff(cert, pts)
        return errors

    def fidelities(self) -> list[float]:
        noise = experiment.NoiseModel(**self.REFERENCE)
        return [experiment.end_to_end(noise, c.theta, c).bound
                for c in self.results if c.family == "new"]


class SoundnessSweep(Workload):
    """Simulate, certify and score one seeded noise model per operation.

    The noise box is acceptance criterion 07's, spread over three angles;
    the detuned instrument angle stays inside [0, pi/4]. The three cutoffs
    are solved in set-up, so the timed phase runs no solver.
    """

    THETAS = (0.3, float(cli.FIG5_THETA), QUARTER_PI)
    ORACLE_SUBSET = 24
    trace_rounds = 300

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        super().__init__(seed, workdir, traced)
        self.rng = _rng(seed, 1)

    def setup(self) -> None:
        self.certs = {t: certify.find_cutoff(t, "new") for t in self.THETAS}

    def round_ops(self, index: int) -> list:
        ops = []
        for theta in self.THETAS:
            u = [float(x) for x in self.rng.uniform(size=5)]
            params = dict(
                visibility=0.9 + 0.1 * u[0],
                alice_angle_offset=-0.05 + 0.1 * u[1],
                bob_angle_offset=-0.05 + 0.1 * u[2],
                instrument_theta=theta - 0.05 + min(0.1, QUARTER_PI - theta + 0.05) * u[3],
                branch_depolarization=0.1 * u[4])
            ops.append(functools.partial(self._sample, theta, params))
        return ops

    def _sample(self, theta: float, params: dict) -> None:
        noise = experiment.NoiseModel(**params)
        bound = experiment.end_to_end(noise, theta, self.certs[theta]).bound
        oracle = experiment.oracle_choi_fidelity(noise, theta)
        self.results.append((theta, params, bound, oracle))

    def check(self) -> list[str]:
        errors = []
        for _, _, bound, oracle in self.results:
            errors += checks.check_soundness(bound, oracle)
        pick = _rng(self.seed, 2).choice(len(self.results),
                                        min(self.ORACLE_SUBSET, len(self.results)),
                                        replace=False)
        for i in pick:
            theta, p, bound, oracle = self.results[i]
            mine = checks.oracle_fidelity(p["visibility"], p["instrument_theta"],
                                          p["branch_depolarization"], theta)
            if abs(mine - oracle) > checks.ORACLE_TOL:
                errors.append(f"oracle {oracle!r} != recomputed {mine!r} at {p}")
            errors += checks.check_soundness(bound, mine)
        for theta, cert in self.certs.items():
            ideal = experiment.end_to_end(experiment.NoiseModel(), theta, cert).bound
            if abs(ideal - 1.0) > 1e-9:
                errors.append(f"noiseless run at theta={theta!r} certifies {ideal!r}")
        return errors

    def fidelities(self) -> list[float]:
        return [bound for _, _, bound, _ in self.results]


class CommandError(RuntimeError):
    """A diqc command exited with a status other than 0."""


class CliSession(Workload):
    """A user's shell session of diqc commands, one fresh process each.

    A session draws two angles in [0.6, 0.7]. For each it runs ``cutoff``
    twice (a cache miss, then a hit that must return the same bytes), then
    six ``certify`` and six ``simulate`` commands with seeded inputs,
    alternating CSV and JSON. It ends with ``sweep-fig5`` at the first
    angle, a cache hit that writes 2,500 rows. Every session gets a fresh
    ``DIQC_CACHE_DIR``. Commands use default arguments only.
    """

    N_EACH = 6
    CONSOLE = "import sys; from diqc.cli import main; sys.exit(main(sys.argv[1:]))"

    def setup(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def round_ops(self, index: int) -> list:
        rng = _rng(self.seed, 100 + index)
        cache = self.workdir / f"cache-{index}-{int(self.traced)}"
        ops = []

        def add(kind, theta, fmt="csv", **values):
            # --key=value, because argparse takes "-3.9e-05" after a space for a flag
            argv = [kind, f"--theta={theta!r}"]
            argv += [f"--{k.replace('_', '-')}={float(v)!r}" for k, v in values.items()]
            ops.append(functools.partial(self._command, kind, theta, argv + ["--format", fmt],
                                         fmt, cache, values))

        thetas = [float(t) for t in rng.uniform(0.6, 0.7, size=2)]
        for theta in thetas:
            add("cutoff", theta)
            add("cutoff", theta)
            for j in range(self.N_EACH):
                fmt = ("csv", "json")[j % 2]
                u = rng.uniform(size=4)
                add("certify", theta, fmt, beta=2.3 + (checks.CHSH_MAX - 2.3) * u[0],
                    i0=0.9 + 0.1 * u[1], i1=0.9 + 0.1 * u[2], p0=0.3 + 0.4 * u[3])
                u = rng.uniform(size=5)
                add("simulate", theta, fmt, visibility=0.9 + 0.1 * u[0],
                    alice_offset=-0.05 + 0.1 * u[1], bob_offset=-0.05 + 0.1 * u[2],
                    instrument_theta=theta - 0.05 + 0.1 * u[3], depolarization=0.1 * u[4])
        add("sweep-fig5", thetas[0])
        return ops

    def _command(self, kind, theta, argv, fmt, cache, given) -> None:
        env = dict(self.env, DIQC_CACHE_DIR=str(cache))
        if self.traced:
            spans = self.workdir / f"spans-{len(self.results)}.json"
            env["DIQCBENCH_SPANS"] = str(spans)
            cmd = [sys.executable, str(HERE / "launcher.py"), *argv]
        else:
            cmd = [sys.executable, "-c", self.CONSOLE, *argv]
        proc = subprocess.run(cmd, env=env, cwd=self.workdir, capture_output=True,
                              timeout=120)
        if proc.returncode != 0:
            raise CommandError(f"{argv} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()}")
        self.results.append((kind, theta, argv, fmt, given, proc.stdout.decode()))
        if self.traced:
            record = json.loads(spans.read_text())
            offset = len(self.spans)
            self.spans += [[n, s, e, p + offset if p >= 0 else -1, x]
                           for n, s, e, p, x in record["spans"]]
            self.import_times.append(record["import_s"])

    def check(self) -> list[str]:
        errors = []
        headers = {"cutoff": cli.CUTOFF_HEADER, "certify": cli.CERTIFY_HEADER,
                   "simulate": cli.SIMULATE_HEADER, "sweep-fig5": cli.FIG5_HEADER}
        first_cutoff = {}
        i_star = {}
        self.bounds = []
        for kind, theta, argv, fmt, given, text in self.results:
            rows, errs = checks.parse_output(text, fmt, headers[kind])
            errors += [f"{' '.join(argv)}: {e}" for e in errs]
            if errs:
                continue
            if kind == "cutoff":
                if theta in first_cutoff and text != first_cutoff[theta]:
                    errors.append(f"cutoff at theta={theta!r}: cache hit differs from miss")
                first_cutoff.setdefault(theta, text)
                i_star[theta] = rows[0]["i_star"]
            elif kind == "sweep-fig5":
                errors += checks.check_fig5(rows)
            else:
                row = rows[0]
                for key in set(given) & set(row):
                    if row[key] != float(given[key]):
                        errors.append(f"{' '.join(argv)}: {key} echoed as {row[key]!r}")
                errors += checks.check_pipeline_row(row, theta, i_star[theta])
                self.bounds.append(row["bound"])
        return errors

    def fidelities(self) -> list[float]:
        return self.bounds


WORKLOADS = {"fig4-sweep": Fig4Sweep, "soundness-sweep": SoundnessSweep,
             "cli-session": CliSession}


def run_rounds(wl, seconds: float | None, rounds: int | None) -> dict:
    """Closed loop over whole rounds; failures counted, unexpected ones reported."""
    times, errors = [], []
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    while (rounds is None or index < rounds) and (
            seconds is None or index == 0 or time.perf_counter() - start < seconds):
        for op in wl.round_ops(index):
            attempted += 1
            t0 = time.perf_counter()
            try:
                op()
            except wl.expected_failures:
                failed += 1
                continue
            except Exception as exc:  # a failure the workload does not expect
                failed += 1
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
        index += 1
    return {"times": times, "wall": time.perf_counter() - start, "attempted": attempted,
            "failed": failed, "errors": errors}


def peak_rss_mb(wl) -> float:
    """Peak RSS so far of the worker, or of the largest command for cli-session."""
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliSession) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end_metrics(wl, res: dict, rss_mb: float) -> dict:
    times = res["times"]
    fids = wl.fidelities()
    values = {
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (statistics.quantiles(times, n=10, method="inclusive")[-1], "s"),
        "ops_per_s": (len(times) / res["wall"], "op/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "certified_fidelity.mean": (statistics.fmean(fids) if fids else 0.0, "fidelity"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if Path(diqc.__file__).resolve().parent != SRC / "diqc":
        print(f"diqc imported from {diqc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    (ROOT / ".diqcbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".diqcbench-work"))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if not args.trace:
            res = run_rounds(wl, args.seconds, wl.max_rounds)
            rss_mb = peak_rss_mb(wl)  # before the checks import scipy
            errors = res["errors"] + wl.check()
            metrics = end_to_end_metrics(wl, res, rss_mb)
        else:
            plain = run_rounds(wl, None, wl.trace_rounds)
            wl = WORKLOADS[args.workload](args.seed, workdir, traced=True)
            tracer = tracing.Tracer()
            with tracing.install(tracer):
                wl.setup()
                res = run_rounds(wl, None, wl.trace_rounds)
            metrics = tracing.layer_metrics(
                tracer.spans + wl.spans,
                statistics.median(wl.import_times) if wl.import_times else 0.0,
                res["wall"] - plain["wall"])
            errors = res["errors"] + wl.check()
        print(json.dumps({"correct": not errors, "attempted": res["attempted"],
                          "failed": res["failed"], "errors": errors[:20],
                          "metrics": metrics}), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
