import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from diqc import certify, cli

QUARTER_PI = "0.78539816339744828"
ANCHOR = (8 + 7 * np.sqrt(2)) / (17 * np.sqrt(2))


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


def run(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def cutoff_args(cache_dir, extra=()):
    return ["cutoff", "--theta", QUARTER_PI, "--grid-n", "101",
            "--cache-dir", str(cache_dir), *extra]


def test_cutoff_csv_roundtrip(cache_dir, capsys):
    code, out, err = run(cutoff_args(cache_dir), capsys)
    assert code == 0
    rows = cli.parse_rows(out)
    assert len(rows) == 1
    row = rows[0]
    assert out.splitlines()[0] == ",".join(cli.CUTOFF_HEADER)
    assert abs(row["i_star"] - 0.7445) < 0.01
    assert row["inequality"] == "new"
    # 17-significant-digit formatting reparses to the exact float
    cert = cli.cutoff_from_row(row)
    again = cli.cutoff_to_row(cert)
    for key, val in again.items():
        assert row[key] == val


def test_cutoff_json_roundtrip(cache_dir, capsys):
    code, out, _ = run(cutoff_args(cache_dir, ["--format", "json"]), capsys)
    assert code == 0
    rows = json.loads(out)
    cert = cli.cutoff_from_row(rows[0])
    assert cert.i_star == rows[0]["i_star"]


def test_cutoff_uses_cache(cache_dir, capsys):
    code, first, _ = run(cutoff_args(cache_dir), capsys)
    assert code == 0
    assert list(cache_dir.glob("cutoff-*.json"))
    code, second, _ = run(cutoff_args(cache_dir), capsys)
    assert code == 0
    assert first == second


def test_cache_dir_env_override(tmp_path, capsys, monkeypatch):
    env_cache = tmp_path / "envcache"
    monkeypatch.setenv("DIQC_CACHE_DIR", str(env_cache))
    code, _, _ = run(["cutoff", "--theta", QUARTER_PI, "--grid-n", "101"], capsys)
    assert code == 0
    assert list(env_cache.glob("cutoff-*.json"))


def test_malformed_theta_is_usage_error(cache_dir, capsys):
    code, _, err = run(["cutoff", "--theta", "not-a-number"], capsys)
    assert code == 1
    assert "usage" in err.lower() or "error" in err.lower()


def test_small_grid_is_usage_error(capsys):
    code, _, _ = run(["cutoff", "--theta", QUARTER_PI, "--grid-n", "51"], capsys)
    assert code == 1


def test_out_of_domain_theta_is_domain_error(cache_dir, capsys):
    code, _, err = run(cutoff_args(cache_dir)[:2] + ["0.01", "--grid-n", "101"], capsys)
    assert code == 2
    assert "theta" in err


def test_certify_perfect_row(cache_dir, capsys):
    # reuses the cached cutoff from the same parameters
    run(cutoff_args(cache_dir), capsys)
    code, out, _ = run(["certify", "--theta", QUARTER_PI, "--grid-n", "101",
                        "--beta", format(2 * np.sqrt(2), ".17g"), "--i0", "1",
                        "--i1", "1", "--p0", "0.5", "--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    assert out.splitlines()[0] == ",".join(cli.CERTIFY_HEADER)
    row = cli.parse_rows(out)[0]
    assert row["bound"] == pytest.approx(1.0, abs=1e-9)
    # 17-digit formatting round-trips every real field exactly
    for field, text in zip(cli.CERTIFY_HEADER, out.splitlines()[1].split(",")):
        assert float(text) == row[field]


def test_certify_rejects_superquantum_beta(cache_dir, capsys):
    run(cutoff_args(cache_dir), capsys)
    code, _, err = run(["certify", "--theta", QUARTER_PI, "--grid-n", "101",
                        "--beta", "3.0", "--i0", "1", "--i1", "1", "--p0", "0.5",
                        "--cache-dir", str(cache_dir)], capsys)
    assert code == 2
    assert "beta" in err


def test_certify_below_cutoff_still_emits(cache_dir, capsys):
    run(cutoff_args(cache_dir), capsys)
    code, out, _ = run(["certify", "--theta", QUARTER_PI, "--grid-n", "101",
                        "--beta", "2.6", "--i0", "0.5", "--i1", "0.5", "--p0", "0.5",
                        "--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    row = cli.parse_rows(out)[0]
    # branch fidelities clamp at the trivial floor cos(pi/4)
    assert row["f_out0"] == pytest.approx(np.cos(np.pi / 4), abs=1e-12)


def test_simulate_zero_noise(cache_dir, capsys):
    code, out, _ = run(["simulate", "--theta", QUARTER_PI, "--grid-n", "101",
                        "--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    row = cli.parse_rows(out)[0]
    assert row["bound"] == pytest.approx(1.0, abs=1e-6)


def test_simulate_rejects_tilted_inequality(cache_dir, capsys):
    code, out, err = run(["simulate", "--theta", "0.6", "--visibility", "0.95",
                          "--depolarization", "0.02", "--inequality", "tilted",
                          "--grid-n", "101", "--cache-dir", str(cache_dir)], capsys)
    assert code == 2
    assert out == ""
    assert "'new'" in err and "'tilted'" in err


def test_simulate_rejects_tilted_inequality_before_solving(cache_dir, capsys):
    code, _, _ = run(["simulate", "--theta", "0.6", "--visibility", "0.95",
                      "--inequality", "tilted", "--grid-n", "101",
                      "--cache-dir", str(cache_dir)], capsys)
    assert code == 2
    assert not cache_dir.exists() or not any(cache_dir.iterdir())


@pytest.mark.parametrize("value", ["-3.9e-05", "-1E-3", "-.5"])
def test_negative_value_after_a_space(value, cache_dir, capsys):
    base = ["simulate", "--theta", "0.6", "--grid-n", "101", "--cache-dir", str(cache_dir)]
    spaced = run(base + ["--bob-offset", value], capsys)
    joined = run(base + [f"--bob-offset={value}"], capsys)
    assert spaced[0] == 0
    assert spaced == joined


def test_sweep_fig4_row_count_and_header(cache_dir, capsys):
    code, out, _ = run(["sweep-fig4", "--points", "2", "--theta-min", "0.6",
                        "--grid-n", "101", "--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,inequality,i_star,slope,intercept,worst_margin,grid_n,delta_variant"
    rows = cli.parse_rows(out)
    assert len(rows) == 4  # 2 angles x 2 inequalities
    by_kind = {r["inequality"]: r for r in rows if abs(r["theta"] - 0.6) < 1e-12}
    assert by_kind["new"]["i_star"] <= by_kind["tilted"]["i_star"]


def test_sweep_fig5_shape(cache_dir, capsys):
    code, out, _ = run(["sweep-fig5", "--points", "6", "--theta", "0.6",
                        "--grid-n", "101", "--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,beta,i_theta,p0,f_in,f_out,bound"
    rows = cli.parse_rows(out)
    assert len(rows) == 36
    top = max(rows, key=lambda r: (r["beta"], r["i_theta"]))
    assert top["bound"] == pytest.approx(1.0, abs=1e-12)


def test_output_file(cache_dir, tmp_path, capsys):
    target = tmp_path / "cert.csv"
    code, out, _ = run(cutoff_args(cache_dir, ["--out", str(target)]), capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == ",".join(cli.CUTOFF_HEADER)


def test_missing_command_is_usage_error(capsys):
    code, _, _ = run([], capsys)
    assert code == 1


def test_tol_flag_is_gone(cache_dir, capsys):
    # a loose tolerance once produced an unsound certificate
    code, _, err = run(["cutoff", "--theta", "0.6", "--tol", "1e6",
                        "--cache-dir", str(cache_dir)], capsys)
    assert code == 1
    assert "--tol" in err


@pytest.mark.parametrize("args", [
    ["cutoff", "--theta", "0.6", "--refine", "-3"],
    ["sweep-fig4", "--points", "0"],
    ["sweep-fig5", "--points", "0"],
])
def test_bad_counts_are_usage_errors(args, cache_dir, capsys):
    code, out, _ = run(args + ["--cache-dir", str(cache_dir)], capsys)
    assert code == 1
    assert out == ""


def test_sweep_fig4_defaults_cover_smallest_angle(capsys):
    code, out, _ = run(["sweep-fig4", "--points", "2", "--no-cache"], capsys)
    assert code == 0
    rows = cli.parse_rows(out)
    assert len(rows) == 4
    assert {r["theta"] for r in rows} == {0.05, np.pi / 4}


def _cached_file(cache_dir):
    (path,) = cache_dir.glob("cutoff-*.json")
    return path


def test_corrupt_cache_entry_is_solved_again(cache_dir, capsys):
    code, first, _ = run(cutoff_args(cache_dir), capsys)
    assert code == 0
    path = _cached_file(cache_dir)
    path.write_text(path.read_text()[:40])
    code, second, _ = run(cutoff_args(cache_dir), capsys)
    assert code == 0
    assert second == first
    assert cli.cutoff_from_row(json.loads(path.read_text())).i_star == \
        cli.parse_rows(first)[0]["i_star"]


def test_cache_entry_of_old_solver_is_not_read(cache_dir, capsys):
    # key format of the bisection solver, which recorded its tolerance
    theta = float(QUARTER_PI)
    key = f"new|{theta:.17g}|101x101|r2|t{1e-9:.17g}|auto"
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    stale = cache_dir / f"cutoff-new-{digest}.json"
    cache_dir.mkdir()
    row = cli.cutoff_to_row(certify.LinearBoundCertificate(
        theta=theta, family="new", i_star=0.7445773, slope=1.0, intercept=0.0,
        grid_a=101, grid_b=101, refine_levels=2, tol=1e-9, worst_margin=0.0,
        worst_a=np.pi / 4, worst_b=np.pi / 4, delta_variant="identity"))
    stale.write_text(json.dumps(row))
    code, out, _ = run(cutoff_args(cache_dir), capsys)
    assert code == 0
    assert abs(cli.parse_rows(out)[0]["i_star"] - ANCHOR) < 1e-9
    assert cli._cache_path(cache_dir, theta, "new", (101, 101), 2) != stale


def test_cache_write_is_atomic(cache_dir, capsys, monkeypatch):
    replaced = []
    real_replace = os.replace

    def spy(src, dst):
        # the entry appears only once it is complete
        replaced.append(json.loads(Path(src).read_text()))
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", spy)
    code, _, _ = run(cutoff_args(cache_dir), capsys)
    assert code == 0
    assert len(replaced) == 1
    assert [p.name for p in cache_dir.iterdir()] == [_cached_file(cache_dir).name]

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", fail)
    with pytest.raises(OSError):
        cli._write_atomic(cache_dir / "other.json", "{}")
    assert [p.name for p in cache_dir.iterdir()] == [_cached_file(cache_dir).name]
