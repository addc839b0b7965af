"""Acceptance suite: one test per criterion, each printing a verdict line.

The slow ingredients (cutoff solves at the full 201x201 grid) are shared
through the session-scoped ``cutoffs`` fixture, so the anchor solve is
reused by the branch-symmetry and surface criteria.
"""

import json
import time

import numpy as np
import pytest

from diqc import bell, certify, cli, experiment, quantum
from diqc.bell import BellKind

QUARTER_PI = np.pi / 4
FIG5_THETA = cli.FIG5_THETA
ANCHOR = (8 + 7 * np.sqrt(2)) / (17 * np.sqrt(2))
FIG4_THETAS = (0.3, 0.45, 0.6, QUARTER_PI - 0.01)


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:02d}: {text} ... PASS", flush=True)


def test_criterion_01_local_bound_oracle():
    start = time.perf_counter()
    for theta in np.linspace(0.05, QUARTER_PI, 50):
        kind = BellKind.new(theta)
        closed = kind.local_bound
        strategy, brute = bell.brute_force_local_strategy(kind)
        assert abs(closed - brute) < 1e-12
        # the stated strategy A0 = A1 = B0 = 1, B1 = -1 attains the maximum
        stated = bell.CorrelatorTable(np.array([[1.0, -1.0], [1.0, -1.0]]),
                                      np.array([1.0, 1.0]), np.array([1.0, -1.0]))
        assert abs(bell.new_bell_value(stated, theta) - brute) < 1e-12
        assert strategy[0] == 1 and strategy[2] == 1 and strategy[3] == -1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"brute-force local bound matches closed form, 50 angles, {elapsed:.2f}s")


def test_criterion_02_quantum_bound():
    start = time.perf_counter()
    for theta in np.linspace(0.05, QUARTER_PI, 50):
        rho = quantum.projector(quantum.partial_entangled_state(theta, 0))
        a, b = quantum.ideal_settings(theta)
        value = bell.new_bell_value(bell.correlators_from_state(rho, a, b), theta)
        assert abs(value - 1.0) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"Bell value one at ideal settings, 50 angles, {elapsed:.2f}s")


def test_criterion_03_chsh_anchor(cutoffs):
    cert = cutoffs.get(QUARTER_PI, "new")
    elapsed = cutoffs.elapsed(QUARTER_PI, "new")
    assert abs(cert.i_star - ANCHOR) <= 1e-9
    assert abs(cutoffs.get(QUARTER_PI, "tilted").i_star - ANCHOR) <= 1e-9
    assert elapsed < 300.0
    _report(3, f"cutoff at theta=pi/4 is {cert.i_star:.12f} "
               f"(anchor {ANCHOR:.12f}), {elapsed:.1f}s at 201x201")


def test_criterion_04_cutoff_ordering(cutoffs):
    for theta in FIG4_THETAS:
        new = cutoffs.get(theta, "new")
        tilted = cutoffs.get(theta, "tilted")
        assert new.worst_margin >= -1e-9
        assert tilted.worst_margin >= -1e-9
        assert new.i_star <= tilted.i_star
    _report(4, "new-inequality cutoff below tilted cutoff at all four angles")


def test_criterion_05_branch_symmetry(cutoffs, branch1_margin):
    # branch 1's inequality is branch 0's conjugated by an orthogonal map,
    # which test_branch1_inequality_is_branch0_conjugated proves; here every
    # certificate re-verifies, and branch 1's margins from their physical
    # definition mirror branch 0's in Alice's angle
    rng = np.random.default_rng(2024)
    certs = [cutoffs.get(QUARTER_PI, "new"), cutoffs.get(FIG5_THETA, "new")]
    certs += [cutoffs.get(theta, "new") for theta in FIG4_THETAS]
    certs += [cutoffs.get(theta, "tilted") for theta in FIG4_THETAS]
    for cert in certs:
        assert certify.verify_cutoff(cert) >= -certify.VERIFY_TOL
        ev = certify._MarginEvaluator(cert.theta, cert.family)
        a = rng.uniform(0.0, np.pi / 2, size=100)
        b = rng.uniform(0.0, np.pi / 2, size=100)
        m1 = [branch1_margin(cert.theta, cert.family, cert.i_star, x, y) for x, y in zip(a, b)]
        m0 = ev.margins(cert.i_star, (np.pi / 2 - a)[:, None], b[:, None])[:, 0]
        assert np.max(np.abs(m1 - m0)) < 1e-9
    _report(5, f"re-verification and branch-1 mirror identity on {len(certs)} certificates")


def test_criterion_06_pipeline_endpoints(cutoffs):
    cert = cutoffs.get(FIG5_THETA, "new")
    perfect = certify.certify_instrument(2 * np.sqrt(2), 1.0, 1.0, 0.5,
                                         FIG5_THETA, cert)
    assert abs(perfect.bound - 1.0) < 1e-9
    at_cutoff = certify.certify_instrument(certify.BETA_STAR, 1.0, 1.0, 0.5,
                                           FIG5_THETA, cert)
    assert abs(at_cutoff.bound - 1 / np.sqrt(2)) < 1e-6
    _report(6, "pipeline endpoints: perfect statistics give 1, input cutoff gives 1/sqrt(2)")


def test_criterion_07_soundness_sweep(cutoffs):
    cert = cutoffs.get(FIG5_THETA, "new")
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    worst_gap = np.inf
    for _ in range(200):
        noise = experiment.NoiseModel(
            visibility=rng.uniform(0.9, 1.0),
            alice_angle_offset=rng.uniform(-0.05, 0.05),
            bob_angle_offset=rng.uniform(-0.05, 0.05),
            instrument_theta=FIG5_THETA + rng.uniform(-0.05, 0.05),
            branch_depolarization=rng.uniform(0.0, 0.1))
        certified = experiment.end_to_end(noise, FIG5_THETA, cert).bound
        oracle = experiment.oracle_choi_fidelity(noise, FIG5_THETA)
        worst_gap = min(worst_gap, oracle - certified)
        assert certified <= oracle + 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(7, f"200 noise samples sound (min oracle-certificate gap "
               f"{worst_gap:.4f}), {elapsed:.1f}s")


def test_criterion_08_fig5_surface(cutoffs, tmp_path, capsys):
    cert = cutoffs.get(FIG5_THETA, "new")
    cache = tmp_path / "cache"
    path = cli._cache_path(cache, FIG5_THETA, "new")
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(cli.cutoff_to_row(cert)))
    out_file = tmp_path / "fig5.csv"
    code = cli.main(["sweep-fig5", "--theta", repr(FIG5_THETA), "--points", "50",
                     "--cache-dir", str(cache), "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    rows = cli.parse_rows(out_file.read_text())
    assert len(rows) == 2500
    betas = sorted({r["beta"] for r in rows})
    violations = sorted({r["i_theta"] for r in rows})
    surface = {(r["beta"], r["i_theta"]): r["bound"] for r in rows}
    assert surface[(betas[-1], violations[-1])] == pytest.approx(1.0, abs=1e-12)
    for bv in betas:
        col = [surface[(bv, i)] for i in violations]
        assert all(y >= x - 1e-12 for x, y in zip(col, col[1:]))
    for iv in violations:
        row_vals = [surface[(bv, iv)] for bv in betas]
        assert all(y >= x - 1e-12 for x, y in zip(row_vals, row_vals[1:]))
    zeros = sum(1 for v in surface.values() if v == 0.0)
    assert zeros > 0
    _report(8, f"fidelity surface monotone, top corner one, {zeros} cells in the zero clamp")


def test_criterion_09_cheating_model(cutoffs):
    cert = cutoffs.get(FIG5_THETA, "new")
    stats = experiment.cheating_run(FIG5_THETA)
    assert abs(stats.i0 - 1.0) < 1e-9
    assert abs(stats.i1 - 1.0) < 1e-9
    assert stats.beta <= 2.0
    verdict = certify.certify_instrument(stats.beta, stats.i0, stats.i1,
                                         stats.p0, FIG5_THETA, cert)
    assert verdict.bound <= 1 / np.sqrt(2) + 1e-9
    _report(9, f"label-readout cheat: perfect step two, beta={stats.beta:.3f} <= 2, "
               f"certified bound only {verdict.bound:.4f}")


def test_criterion_10_property_bundle():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    # channels preserve trace and positivity on 50 random states
    for _ in range(50):
        a = rng.uniform(0, np.pi / 2)
        b = rng.uniform(0, np.pi / 2)
        theta = rng.uniform(0.05, QUARTER_PI)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        out = quantum.apply_one_sided(quantum.dephasing_alice(a), rho, "alice")
        out = quantum.apply_one_sided(quantum.dephasing_bob(b, theta), out, "bob")
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() > -1e-9

    # block fidelity equals the dense-embedding Uhlmann fidelity
    from diqc.matrixcore import block_fidelity, hermitian_eig, uhlmann_fidelity
    for _ in range(10):
        regs = []
        for _ in range(2):
            w = rng.uniform(0.2, 0.8)
            blocks = []
            for label, prob in ((0, w), (1, 1 - w)):
                g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                rho = g @ g.conj().T
                blocks.append((label, prob, rho / np.trace(rho).real))
            regs.append(quantum.RegisterState(tuple(blocks)))
        direct = block_fidelity(regs[0], regs[1])
        dense = uhlmann_fidelity(regs[0].dense_embedding(), regs[1].dense_embedding())
        assert abs(direct - dense) < 1e-8

    # operator and correlator routes agree
    for _ in range(20):
        theta = rng.uniform(0.05, QUARTER_PI)
        a, b = rng.uniform(0, np.pi / 2, size=2)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        t = bell.correlators_from_state(rho, a, b)
        op_val = np.trace(bell.new_bell_operator(theta, a, b) @ rho).real
        assert abs(op_val - bell.new_bell_value(t, theta)) < 1e-10

    # eigendecomposition reconstructs its input
    for dim in (2, 4, 8):
        for _ in range(10):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = g + g.conj().T
            vals, vecs = hermitian_eig(m)
            recon = (vecs * vals) @ vecs.conj().T
            assert np.max(np.abs(m - recon)) < 1e-10 * max(1.0, np.max(np.abs(m)))
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) < 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(10, f"property bundle green in {elapsed:.1f}s")
