"""Tests of the benchmark's own checks, and smoke runs of each workload.

    python3 -m pytest -q diqcbench/selftest.py

The file name keeps these out of the package's default test collection;
they take about half a minute.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import worker
from diqc import bell, certify, experiment
from diqc.bell import BellKind

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def cutoff_06():
    return certify.find_cutoff(0.6, "new")


def test_margin_check_rejects_cutoff_below_the_true_one(cutoff_06):
    samples = np.random.default_rng(0).uniform(0.0, math.pi / 2, size=(16, 2))
    assert checks.check_cutoff(cutoff_06, samples) == []
    # the value --tol 1e6 yields at theta = 0.6
    unsound = dataclasses.replace(cutoff_06, i_star=0.88628)
    errors = checks.check_cutoff(unsound, samples)
    assert any("margin -9.97" in e and "a=0.000000, b=1.570796" in e for e in errors)


def test_anchor_and_ordering_checks():
    at_anchor = certify.LinearBoundCertificate(
        theta=math.pi / 4, family="new", i_star=checks.ANCHOR - 1e-6, slope=0.0,
        intercept=0.0, grid_a=201, grid_b=201, refine_levels=2, tol=1e-9,
        worst_margin=0.0, worst_a=0.0, worst_b=0.0, delta_variant="identity")
    assert any("anchor" in e for e in checks.check_cutoff(at_anchor, np.empty((0, 2))))
    tilted = dataclasses.replace(at_anchor, family="tilted", i_star=checks.ANCHOR - 1e-5)
    assert checks.check_ordering([at_anchor, tilted]) != []
    assert checks.check_ordering([tilted, dataclasses.replace(at_anchor, i_star=0.7)]) == []


def test_soundness_check_rejects_bound_above_oracle():
    assert checks.check_soundness(0.8, 0.9) == []
    assert checks.check_soundness(0.9, 0.9 - 1e-6) != []
    assert checks.check_soundness(-0.1, 0.5) != []


def test_independent_formulas_agree_with_the_package(cutoff_06):
    rng = np.random.default_rng(1)
    for theta, family in ((0.6, "new"), (0.3, "tilted"), (math.pi / 4, "new")):
        assert checks.local_bound(theta, family) == pytest.approx(
            bell.local_bound(BellKind(family, theta)), abs=1e-12)
        for a, b, i in rng.uniform((0, 0, 0.8), (math.pi / 2, math.pi / 2, 0.999), (4, 3)):
            assert checks.bound_margin(theta, family, i, a, b) == pytest.approx(
                certify.operator_margin(theta, family, i, a, b), abs=1e-12)
    noise = experiment.NoiseModel(visibility=0.95, instrument_theta=0.62,
                                  branch_depolarization=0.05)
    assert checks.oracle_fidelity(0.95, 0.62, 0.05, 0.6) == pytest.approx(
        experiment.oracle_choi_fidelity(noise, 0.6), abs=checks.ORACLE_TOL)
    fc = certify.certify_instrument(2.7, 0.97, 0.95, 0.45, 0.6, cutoff_06)
    assert checks.pipeline_bound(2.7, 0.97, 0.95, 0.45, 0.6, cutoff_06.i_star) == pytest.approx(
        fc.bound, abs=1e-12)


def test_pipeline_row_check_rejects_a_wrong_bound():
    row = {"beta": 2.7, "i0": 0.97, "i1": 0.95, "p0": 0.45}
    row["bound"] = checks.pipeline_bound(**row, theta=0.6, i_star=0.9134)
    assert checks.check_pipeline_row(row, 0.6, 0.9134) == []
    assert checks.check_pipeline_row(row, 0.6, 0.95) != []


class _TinyFig4(worker.Fig4Sweep):
    THETAS = np.array([0.05, math.pi / 4])


class _TinySoundness(worker.SoundnessSweep):
    THETAS = (math.pi / 4,)


class _TinyCli(worker.CliSession):
    N_EACH = 1


@pytest.mark.parametrize("cls, rounds, failed",
                         [(_TinyFig4, 1, 2), (_TinySoundness, 4, 0), (_TinyCli, 1, 0)])
def test_workload_smoke(cls, rounds, failed, tmp_path):
    wl = cls(7, tmp_path)
    wl.setup()
    res = worker.run_rounds(wl, None, rounds)
    assert res["errors"] + wl.check() == []
    assert res["failed"] == failed
    assert res["attempted"] == len(res["times"]) + failed
    metrics = worker.end_to_end_metrics(wl, res, worker.peak_rss_mb(wl))
    assert 0.0 < metrics["certified_fidelity.mean"]["value"] <= 1.0


def test_traced_cli_session_counts_hits_and_misses(tmp_path):
    wl = _TinyCli(7, tmp_path, traced=True)
    wl.setup()
    res = worker.run_rounds(wl, None, 1)
    assert res["errors"] + wl.check() == []
    metrics = tracing.layer_metrics(wl.spans, 0.1, 0.0)
    assert metrics["cli.main.calls"]["value"] == res["attempted"] == 9
    assert metrics["cli.cache.misses"]["value"] == 2
    assert metrics["cli.cache.hits"]["value"] == 7
    assert metrics["certify.find_cutoff.calls"]["value"] == 2
    assert metrics["certify.raw_pipeline_bound.calls"]["value"] == 2500


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable, *cmd[1:], "--workload", "fig4-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
