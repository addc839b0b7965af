"""The diqc benchmark: one run of one workload, printed as one JSON line.

    python3 diqcbench/run.py --workload fig4-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``. The
run times set-up in fresh processes: two ``worker.py --setup-only`` probes and
the measured worker itself, each from spawn to its ``READY`` line, and
reports the median as ``setup_s``. With ``--trace 0`` the last line holds
every end-to-end metric; with ``--trace 1`` every per-layer metric. The
script exits 2 without a result when the checkout has no diqc sources, a
worker fails, or a run exceeds its time limit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig4-sweep", "soundness-sweep", "cli-session")
SETUP_PROBES = 2
LIMIT_S = 170.0


class RunError(RuntimeError):
    pass


def _worker(args, extra: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds from spawn to READY, its last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise RunError(f"worker did not reach READY: {ready!r}")
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "diqc" / "__init__.py").is_file():
        print(f"no diqc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + LIMIT_S
    try:
        setups = [] if args.trace else [
            _worker(args, ["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
        setup_s, line = _worker(args, [], deadline)
        result = json.loads(line)
    except (RunError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    for err in result.pop("errors"):
        print(f"check failed: {err}", file=sys.stderr)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups + [setup_s]),
                                        "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
