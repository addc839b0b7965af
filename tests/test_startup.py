"""Which commands load numpy, and the names the package and the benchmark resolve."""

import contextlib
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diqc
from diqc import cli

SRC = Path(diqc.__file__).resolve().parents[1]

# runs the commands of argv[1] in one fresh interpreter and prints, per
# command, its status, its output and whether numpy had been loaded by then
PROBE = """
import contextlib, io, json, sys
import diqc
loaded = ["numpy" in sys.modules]
diqc.DomainError, diqc.LinearBoundCertificate, diqc.certify_instrument
import diqc.cli
loaded.append("numpy" in sys.modules)
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = diqc.cli.main(argv)
    runs.append([code, out.getvalue(), "numpy" in sys.modules])
print(json.dumps({"loaded": loaded, "runs": runs}))
"""

# every name the package exported when it imported its modules eagerly, by
# the module that defined it then
EXPORTS = {
    "matrixcore": ["EigenResult", "block_fidelity", "hermitian_eig", "kron", "psd_sqrt",
                   "uhlmann_fidelity"],
    "quantum": ["DegenerateInstrumentError", "DephasingChannel", "DomainError",
                "KrausInstrument", "RegisterState", "apply_instrument", "apply_one_sided",
                "dephasing_alice", "dephasing_bob", "ideal_settings",
                "instrument_choi", "partial_entangled_state", "partial_trace", "phi_plus",
                "reference_instrument"],
    "bell": ["BellKind", "CorrelatorTable", "brute_force_local_bound", "chsh_value",
             "correlators_from_state", "new_bell_operator", "new_bell_value",
             "relabel_branch1", "tilted_bell_value", "tilted_operator"],
    "certify": ["BETA_STAR", "ChannelFamilyError", "FidelityCertificate",
                "LinearBoundCertificate", "NonQuantumValueError", "certify_instrument",
                "combine_branches", "find_cutoff", "input_fidelity_bound",
                "instrument_fidelity_bound", "operator_margin", "output_fidelity_bound",
                "verify_cutoff"],
    "experiment": ["NoiseModel", "RunStatistics", "cheating_run", "end_to_end",
                   "noisy_instrument", "noisy_source", "oracle_choi_fidelity",
                   "simulate_run"],
}


def probe(commands):
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


def in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_cached_commands_load_no_numpy(tmp_path):
    cache = ["--cache-dir", str(tmp_path)]
    certify = ["certify", "--theta", "0.6", "--beta", "2.7", "--i0", "0.97", "--i1", "0.96",
               "--p0", "0.5", *cache]
    commands = [["cutoff", "--theta", "0.6", *cache],
                certify, certify + ["--format", "json"],
                ["sweep-fig5", *cache], ["sweep-fig5", "--inequality", "tilted", *cache]]
    expected = [in_process(argv) for argv in commands]  # solves, then fills the cache
    report = probe(commands)
    assert report["loaded"] == [False, False]
    assert [code for code, _, _ in report["runs"]] == [0] * len(commands)
    assert [out for _, out, _ in report["runs"]] == expected
    assert not any(numpy for _, _, numpy in report["runs"])


def test_solving_and_simulating_commands_still_run(tmp_path):
    cache = ["--cache-dir", str(tmp_path)]
    commands = [["cutoff", "--theta", "0.65", *cache],
                ["sweep-fig4", "--points", "2", "--no-cache"],
                ["simulate", "--theta", "0.65", "--visibility", "0.97", *cache]]
    report = probe(commands)
    assert [code for code, _, _ in report["runs"]] == [0] * len(commands)
    assert [numpy for _, _, numpy in report["runs"]] == [True] * len(commands)
    assert [out for _, out, _ in report["runs"]] == [in_process(argv) for argv in commands]


def test_vertex_cutoff_loads_no_numpy():
    # the closed-form cutoff, every property of the family record that a
    # certificate's ``kind`` gives and every property the certificate derives,
    # for both families
    code = ("import sys\n"
            "from diqc.pipeline import FAMILIES, BellKind, LinearBoundCertificate, vertex_cutoff\n"
            "def names(cls):\n"
            "    return [n for n, v in vars(cls).items() if isinstance(v, property)]\n"
            "certs = [LinearBoundCertificate(0.6, f, 0.9, 201, 201, 2, 0.0) for f in FAMILIES]\n"
            "facts = [vertex_cutoff(0.6, 'new')] + [getattr(c.kind, n) for c in certs\n"
            "                                       for n in names(BellKind)]\n"
            "facts += [getattr(c, n) for c in certs for n in names(LinearBoundCertificate)\n"
            "          if n != 'kind']\n"
            "print(repr(facts))\n"
            "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120, check=True)
    from diqc.pipeline import FAMILIES, BellKind, LinearBoundCertificate, vertex_cutoff
    names = [n for n, v in vars(BellKind).items() if isinstance(v, property)]
    derived = ["slope", "intercept", "worst_a", "worst_b", "delta_variant"]
    facts = [vertex_cutoff(0.6, "new")] + [getattr(BellKind(f, 0.6), n)
                                           for f in FAMILIES for n in names]
    facts += [getattr(LinearBoundCertificate(0.6, f, 0.9, 201, 201, 2, 0.0), n)
              for f in FAMILIES for n in derived]
    assert {"b_ideal", "alpha", "local_bound", "bell_constants", "vertex"} <= set(names)
    assert derived == [n for n, v in vars(LinearBoundCertificate).items()
                       if isinstance(v, property) and n != "kind"]
    assert proc.stdout.splitlines() == [repr(facts), "False"]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_package_names_are_their_home_objects(module):
    home = importlib.import_module(f"diqc.{module}")
    for name in EXPORTS[module]:
        assert getattr(diqc, name) is getattr(home, name), name


def test_unknown_package_name_is_an_attribute_error():
    assert diqc.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        diqc.no_such_name


def test_benchmark_trace_targets_resolve():
    # the benchmark's tracer getattr()s every target, so a name dropped from
    # the package makes a traced run die with AttributeError; once the tracer
    # records a missing target as absent (ROADMAP item 1), this guard and the
    # constraint it encodes go
    path = Path(__file__).resolve().parents[1] / "diqcbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("diqcbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{attr}" for mod, attr in tracing.TARGETS
               if not hasattr(importlib.import_module(f"diqc.{mod}"), attr)]
    assert tracing.TARGETS and missing == []
