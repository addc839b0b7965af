import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diqc import certify, cli, pipeline

QUARTER_PI = "0.78539816339744828"
ANCHOR = (8 + 7 * np.sqrt(2)) / (17 * np.sqrt(2))
CERTIFY_06 = ["certify", "--theta", "0.6", "--beta", "2.7", "--i0", "0.97", "--i1", "0.96",
              "--p0", "0.5"]


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


def run(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


def cutoff_args(cache_dir, extra=()):
    return ["cutoff", "--theta", QUARTER_PI,
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
    code, _, _ = run(["cutoff", "--theta", QUARTER_PI], capsys)
    assert code == 0
    assert list(env_cache.glob("cutoff-*.json"))


def test_malformed_theta_is_usage_error(cache_dir, capsys):
    code, _, err = run(["cutoff", "--theta", "not-a-number"], capsys)
    assert code == 1
    assert "usage" in err.lower() or "error" in err.lower()


def test_out_of_domain_theta_is_domain_error(cache_dir, capsys):
    code, _, err = run(cutoff_args(cache_dir)[:2] + ["0.01"], capsys)
    assert code == 2
    assert "theta" in err


def test_certify_perfect_row(cache_dir, capsys):
    # reuses the cached cutoff from the same parameters
    run(cutoff_args(cache_dir), capsys)
    code, out, _ = run(["certify", "--theta", QUARTER_PI,
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
    code, _, err = run(["certify", "--theta", QUARTER_PI,
                        "--beta", "3.0", "--i0", "1", "--i1", "1", "--p0", "0.5",
                        "--cache-dir", str(cache_dir)], capsys)
    assert code == 2
    assert "beta" in err


def test_certify_below_cutoff_still_emits(cache_dir, capsys):
    run(cutoff_args(cache_dir), capsys)
    code, out, _ = run(["certify", "--theta", QUARTER_PI,
                        "--beta", "2.6", "--i0", "0.5", "--i1", "0.5", "--p0", "0.5",
                        "--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    row = cli.parse_rows(out)[0]
    # branch fidelities clamp at the trivial floor cos(pi/4)
    assert row["f_out0"] == pytest.approx(np.cos(np.pi / 4), abs=1e-12)


def test_simulate_zero_noise(cache_dir, capsys):
    code, out, _ = run(["simulate", "--theta", QUARTER_PI,
                        "--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    row = cli.parse_rows(out)[0]
    assert row["bound"] == pytest.approx(1.0, abs=1e-6)


def test_simulate_rejects_tilted_inequality(cache_dir, capsys):
    code, out, err = run(["simulate", "--theta", "0.6", "--visibility", "0.95",
                          "--depolarization", "0.02", "--inequality", "tilted",
                          "--cache-dir", str(cache_dir)], capsys)
    assert code == 2
    assert out == ""
    assert "'new'" in err and "'tilted'" in err


def test_simulate_rejects_tilted_inequality_before_solving(cache_dir, capsys):
    code, _, _ = run(["simulate", "--theta", "0.6", "--visibility", "0.95",
                      "--inequality", "tilted",
                      "--cache-dir", str(cache_dir)], capsys)
    assert code == 2
    assert not cache_dir.exists() or not any(cache_dir.iterdir())


@pytest.mark.parametrize("value", ["-3.9e-05", "-1E-3", "-.5"])
def test_negative_value_after_a_space(value, cache_dir, capsys):
    base = ["simulate", "--theta", "0.6", "--cache-dir", str(cache_dir)]
    spaced = run(base + ["--bob-offset", value], capsys)
    joined = run(base + [f"--bob-offset={value}"], capsys)
    assert spaced[0] == 0
    assert spaced == joined


def test_sweep_fig4_row_count_and_header(cache_dir, capsys):
    code, out, _ = run(["sweep-fig4", "--points", "2", "--theta-min", "0.6",
                        "--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,inequality,i_star,slope,intercept,worst_margin,grid_n,delta_variant"
    rows = cli.parse_rows(out)
    assert len(rows) == 4  # 2 angles x 2 inequalities
    by_kind = {r["inequality"]: r for r in rows if abs(r["theta"] - 0.6) < 1e-12}
    assert by_kind["new"]["i_star"] <= by_kind["tilted"]["i_star"]


def test_sweep_fig5_shape(cache_dir, capsys):
    code, out, _ = run(["sweep-fig5", "--points", "6", "--theta", "0.6",
                        "--cache-dir", str(cache_dir)], capsys)
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


GRIDLESS = [["cutoff", "--theta", "0.6"], CERTIFY_06, ["simulate", "--theta", "0.6"],
            ["sweep-fig4"], ["sweep-fig5"]]


@pytest.mark.parametrize("command", GRIDLESS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("flag", ["--grid-n=101", "--refine=2"])
def test_grid_and_refine_flags_are_gone(command, flag, cache_dir, capsys):
    # the closed form sets I*, so neither the grid nor the depth of the
    # scan that checks it moves a certificate
    code, out, err = run(command + [flag, "--cache-dir", str(cache_dir)], capsys)
    assert code == 1
    assert out == ""
    assert flag.split("=")[0] in err
    assert not cache_dir.exists()


@pytest.mark.parametrize("args", [
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
    # key format of the commands that took a grid and a depth, holding the
    # closed-form cutoff with a worst margin no scan gives, which would show
    # in the output if the entry were served
    theta = float(QUARTER_PI)
    key = f"new|{theta:.17g}|201x201|r2|{pipeline.SOLVER_TAG}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    stale = cache_dir / f"cutoff-new-{digest}.json"
    cache_dir.mkdir()
    i_star = pipeline.vertex_cutoff(theta, "new")[0]
    row = cli.cutoff_to_row(pipeline.LinearBoundCertificate(
        theta=theta, family="new", i_star=i_star, grid_a=201, grid_b=201, refine_levels=2,
        worst_margin=0.5))
    stale.write_text(json.dumps(row))
    code, out, _ = run(cutoff_args(cache_dir), capsys)
    assert code == 0
    solved = cli.parse_rows(out)[0]
    assert abs(solved["i_star"] - ANCHOR) < 1e-9
    assert solved["worst_margin"] != 0.5
    assert cli._cache_path(cache_dir, theta, "new") != stale
    assert json.loads(stale.read_text()) == row


def test_cache_entry_for_another_angle_is_solved_again(cache_dir, capsys):
    # an entry for theta = 0.6 copied under the key of theta = 0.65
    solve = ["cutoff", "--cache-dir", str(cache_dir)]
    assert run(solve + ["--theta", "0.6"], capsys)[0] == 0
    entry = _cached_file(cache_dir)
    other = cli._cache_path(cache_dir, 0.65, "new")
    other.write_text(entry.read_text())
    code, out, _ = run(solve + ["--theta", "0.65"], capsys)
    assert code == 0
    assert cli.parse_rows(out)[0]["theta"] == 0.65
    assert cli.cutoff_from_row(json.loads(other.read_text())).theta == 0.65
    code, _, _ = run(["certify", "--theta", "0.65", "--beta", "2.7", "--i0", "0.97",
                      "--i1", "0.96", "--p0", "0.5", *solve[1:]], capsys)
    assert code == 0


def test_cache_entry_with_edited_cutoff_is_solved_again(tmp_path, cache_dir, capsys):
    # i_star lowered to 0.5 while the slope and intercept stay those of the
    # solved cutoff would certify a bound far above the honest one
    args = ["certify", "--theta", "0.6", "--beta", "2.7", "--i0", "0.97", "--i1", "0.96",
            "--p0", "0.5"]
    code, honest, _ = run(args + ["--cache-dir", str(tmp_path / "fresh")], capsys)
    assert code == 0
    assert run(args + ["--cache-dir", str(cache_dir)], capsys)[0] == 0
    entry = _cached_file(cache_dir)
    row = json.loads(entry.read_text())
    entry.write_text(json.dumps({**row, "i_star": 0.5}))
    code, out, _ = run(args + ["--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    assert out == honest
    assert json.loads(entry.read_text()) == row


def test_cache_entry_with_consistently_lowered_cutoff_is_solved_again(tmp_path, cache_dir,
                                                                      capsys):
    # I* lowered to 0.9 with the slope and intercept that follow from it: a
    # well-formed certificate, but not the closed form's, and served it would
    # certify 0.70047762388752977 where the honest bound is 0.67110291231517438
    args = ["certify", "--theta", "0.6", "--beta", "2.7", "--i0", "0.93", "--i1", "0.93",
            "--p0", "0.5"]
    code, honest, _ = run(args + ["--cache-dir", str(tmp_path / "fresh")], capsys)
    assert code == 0
    assert cli.parse_rows(honest)[0]["bound"] == 0.67110291231517438
    entry = cli._cache_path(cache_dir, 0.6, "new")
    cache_dir.mkdir()
    solved = certify.find_cutoff(0.6, "new")
    lowered = cli.cutoff_to_row(dataclasses.replace(solved, i_star=0.9))
    assert lowered["slope"] != cli.cutoff_to_row(solved)["slope"]
    entry.write_text(json.dumps(lowered))
    code, out, _ = run(args + ["--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    assert out == honest
    assert cli.cutoff_from_row(json.loads(entry.read_text())) == solved
    assert solved.i_star == pipeline.vertex_cutoff(0.6, "new")[0]


certificates = st.builds(
    pipeline.LinearBoundCertificate, theta=st.floats(*pipeline.THETA_RANGE),
    family=st.sampled_from(pipeline.FAMILIES),
    i_star=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    grid_a=st.integers(101, 1001), grid_b=st.integers(101, 1001),
    refine_levels=st.integers(0, 5), worst_margin=st.floats(-1e-9, 1.0))


@settings(max_examples=50)
@given(cert=certificates)
def test_cutoff_row_round_trips_to_the_bit(cert):
    row = json.loads(json.dumps(cli.cutoff_to_row(cert)))
    assert cli.cutoff_from_row(row) == cert
    assert [x.hex() for x in (cert.theta, cert.i_star, cert.worst_margin)] == \
        [row[k].hex() for k in ("theta", "i_star", "worst_margin")]
    edits = {column: math.nextafter(row[column], math.inf)
             for column in ("slope", "intercept", "worst_a", "worst_b")}
    edits["tol"] = 2 * pipeline.VERIFY_TOL
    edits["delta_variant"] = ({"identity", "linear"} - {row["delta_variant"]}).pop()
    for column, value in edits.items():
        with pytest.raises(ValueError, match=f"^{column}="):
            cli.cutoff_from_row({**row, column: value})


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


@pytest.mark.parametrize("flag", ["beta", "i0", "i1", "p0"])
def test_certify_error_names_a_nan_input(flag, cache_dir, capsys):
    args = list(CERTIFY_06)
    args[args.index(f"--{flag}") + 1] = "nan"
    code, out, err = run(args + ["--cache-dir", str(cache_dir)], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {flag}=nan " in err


@pytest.mark.parametrize("flag, name", [("alice-offset", "alice_angle_offset"),
                                        ("bob-offset", "bob_angle_offset"),
                                        ("instrument-theta", "instrument_theta")])
def test_simulate_error_names_a_nan_angle(flag, name, cache_dir, capsys):
    code, out, err = run(["simulate", "--theta", "0.6", f"--{flag}=nan",
                          "--cache-dir", str(cache_dir)], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {name}=nan " in err


@pytest.mark.parametrize("flag, value, name", [("alice-offset", "5", "alice_angle_offset"),
                                               ("bob-offset", "-2", "bob_angle_offset"),
                                               ("instrument-theta", "2", "instrument_theta")])
def test_simulate_error_names_an_angle_out_of_range(flag, value, name, cache_dir, capsys):
    code, out, err = run(["simulate", "--theta", "0.6",
                          f"--{flag}={value}", "--cache-dir", str(cache_dir)], capsys)
    assert code == 2
    assert out == ""
    assert f"error: {name}={float(value)!r} " in err


def test_cache_dir_that_is_a_file_costs_a_warning_only(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    code, honest, _ = run(CERTIFY_06 + ["--no-cache"], capsys)
    assert code == 0
    monkeypatch.setenv("DIQC_CACHE_DIR", str(blocker))
    code, out, err = run(CERTIFY_06, capsys)
    assert code == 0
    assert out == honest
    assert err.startswith("warning: cannot write cache entry ")
    assert str(blocker) in err


def test_unreadable_cache_entry_is_a_miss(cache_dir, capsys):
    # a directory where the entry belongs can be neither read nor replaced
    entry = cli._cache_path(cache_dir, 0.6, "new")
    entry.mkdir(parents=True)
    code, honest, _ = run(CERTIFY_06 + ["--no-cache"], capsys)
    code, out, err = run(CERTIFY_06 + ["--cache-dir", str(cache_dir)], capsys)
    assert code == 0
    assert out == honest
    assert str(entry) in err
    assert [p.name for p in cache_dir.iterdir()] == [entry.name]


def test_unwritable_output_file_is_an_error(cache_dir, tmp_path, capsys):
    target = tmp_path / "missing" / "cert.csv"
    code, out, err = run(cutoff_args(cache_dir, ["--out", str(target)]), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write ")
    assert str(target) in err
    assert not target.parent.exists()
