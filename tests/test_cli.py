from __future__ import annotations

import errno
import gc
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import DEMO, REPO

from slvrate import cli, experiment, parallel, pipeline
from slvrate.cli import main, render_json
from slvrate.errors import DegenerateScoresError
from slvrate.mlst_io import parse_allele_fasta


def run(*argv):
    return main([str(a) for a in argv])


def dataset_args(tmp=None):
    return ["--profiles", DEMO / "profiles.tsv", "--alleles-dir", DEMO]


# -- JSON rendering -------------------------------------------------------------


def test_render_json_floats_and_inf():
    doc = {"a": 1.0 / 3.0, "b": float("inf"), "c": [1, 2.5], "d": None, "e": True}
    text = render_json(doc)
    assert '"a": 0.333333333333' in text
    assert '"b": "inf"' in text
    assert '"e": true' in text
    parsed = json.loads(text)
    assert parsed["b"] == "inf"
    assert abs(parsed["a"] - 1 / 3) < 1e-12


# -- extract ----------------------------------------------------------------------


def test_extract_demo_table(tmp_path, capsys):
    out = tmp_path / "slv.tsv"
    code = run("extract", *dataset_args(), "--out", out)
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "locus\tgroup_id\tst_a\tst_b\tx\tweight"
    body = [line.split("\t") for line in lines[1:]]
    assert len(body) == 4
    assert [row[0] for row in body] == ["glnA", "gltA", "gltA", "gltA"]
    assert [int(row[4]) for row in body] == [1, 5, 6, 1]
    assert body[0][5] == "1"
    w = 3 ** -0.5
    assert all(abs(float(row[5]) - w) < 1e-10 for row in body[1:])
    meta = json.loads((tmp_path / "slv.tsv.meta.json").read_text())
    assert meta["tool"] == "slvrate"
    assert set(meta["inputs"]) >= {str(DEMO / "profiles.tsv")}


def test_extract_missing_file_is_usage_error(tmp_path):
    code = run("extract", "--profiles", tmp_path / "nope.tsv", "--alleles-dir", DEMO)
    assert code == 1


def test_extract_empty_profile_is_data_error(tmp_path):
    (tmp_path / "profiles.tsv").write_text("\n")
    code = run("extract", "--profiles", tmp_path / "profiles.tsv", "--alleles-dir", DEMO,
               "--loci", "aspA,glnA")
    assert code == 2


def test_unknown_flag_exits_one():
    assert run("extract", "--bogus") == 1


# -- import-dist --------------------------------------------------------------------


def test_import_dist_single_locus_reproducible(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["import-dist", *dataset_args(), "--locus", "gltA", "--pa", "0.8",
            "-M", "2000", "--seed", "42"]
    assert run(*args, "--out", out1) == 0
    assert run(*args, "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["locus"] == "gltA"
    assert doc["m"] == 12
    assert len(doc["q"]) == 12
    assert abs(sum(doc["q"]) - 1.0) < 1e-9


def test_import_dist_all_loci(tmp_path):
    out = tmp_path / "dists"
    assert run("import-dist", *dataset_args(), "--locus", "all",
               "-M", "1000", "--out", out) == 0
    files = sorted(p.name for p in out.glob("*.dist.json"))
    assert files == ["aspA.dist.json", "glnA.dist.json", "gltA.dist.json"]


def test_import_dist_unknown_locus_exits_one_before_any_estimate(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return estimate(*args, **kwargs)

    estimate = pipeline.estimate_import_dist
    monkeypatch.setattr(pipeline, "estimate_import_dist", counting)
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)  # every call in this process
    assert run("import-dist", *dataset_args(), "--locus", "nope", "-M", "1000",
               "--out", tmp_path / "x.json") == 1
    assert "unknown locus 'nope'" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "x.json").exists()


def test_import_dist_named_locus_estimates_only_that_locus(tmp_path, monkeypatch):
    calls = []

    def counting(table, *args, **kwargs):
        calls.append(table.locus)
        return estimate(table, *args, **kwargs)

    estimate = pipeline.estimate_import_dist
    monkeypatch.setattr(pipeline, "estimate_import_dist", counting)
    monkeypatch.setattr(parallel, "usable_cores", lambda: 1)  # every call in this process
    args = ["import-dist", *dataset_args(), "-M", "2000", "--seed", "9"]
    assert run(*args, "--locus", "gltA", "--out", tmp_path / "gltA.json") == 0
    assert calls == ["gltA"]
    assert run(*args, "--locus", "all", "--out", tmp_path / "all") == 0
    assert calls == ["gltA", "aspA", "glnA", "gltA"]
    one, every = tmp_path / "gltA.json", tmp_path / "all" / "gltA.dist.json"
    assert one.read_bytes() == every.read_bytes()


def test_import_dist_bad_pa_exits_one(tmp_path):
    assert run("import-dist", *dataset_args(), "--pa", "1.5", "--out", tmp_path / "x.json") == 1


@pytest.mark.parametrize("command, option, value, message", [
    *[(command, option, value, message)
      for command in ("import-dist", "estimate", "joint", "test-variation")
      for option, value, message in (
          ("--pa", "2", "must be in [0, 1], got 2"),
          ("-M", "0", "must be >= 1, got 0"),
          ("--weighting", "zz", "must be one of by_st, by_isolate, got 'zz'"),
      )],
    *[(command, option, value, message)
      for command in ("estimate", "joint", "test-variation")
      for option, value, message in (
          ("--level", "1.5", "must be in (0, 1), got 1.5"),
          ("--level", "nan", "must be finite, got 'nan'"),
          ("--alpha", "zz", "must be one of common, per-locus, got 'zz'"),
          ("--theta-ratio", "zz", "must be one of length, pairwise, got 'zz'"),
      )],
    ("extract", "--mode", "zz", "must be one of strict, lenient, got 'zz'"),
    ("estimate", "--loci", "aspA,aspA,glnA", "locus 'aspA' is named twice"),
    ("extract", "--loci", ",", "names no locus: ','"),
])
def test_an_invalid_analysis_flag_exits_one_naming_it_before_any_work(
        tmp_path, capsys, monkeypatch, command, option, value, message):
    monkeypatch.setattr(cli, "_load_dataset", _no_work)
    assert run(command, *dataset_args(), option, value, "--out", tmp_path / "o" / "x") == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    usage, line = err.rstrip("\n").rsplit("\n", 1)
    assert usage.startswith(f"usage: slvrate {command}")
    flag = "-M/--draws" if option == "-M" else option
    assert line == f"slvrate {command}: error: argument {flag}: {message}"
    assert not (tmp_path / "o").exists()


# -- estimate / joint / test-variation ---------------------------------------------------


def test_estimate_consumes_dist_files(tmp_path):
    dists = tmp_path / "dists"
    assert run("import-dist", *dataset_args(), "-M", "3000", "--seed", "7", "--out", dists) == 0
    out = tmp_path / "est.json"
    assert run("estimate", *dataset_args(), "--dists", dists, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert [entry["locus"] for entry in doc["loci"]] == ["glnA", "gltA"]
    assert doc["skipped_loci"] == ["aspA"]
    for entry in doc["loci"]:
        assert set(entry) >= {"lambda_hat", "ci", "alpha", "sigma2", "I", "J",
                              "gamma", "n_pairs", "G", "cl_max", "boundary_flags"}
        lo, hi = entry["ci"]
        assert lo <= entry["lambda_hat"]
        assert hi == "inf" or entry["lambda_hat"] <= hi


def test_joint_and_variation(tmp_path):
    out = tmp_path / "joint.json"
    assert run("joint", *dataset_args(), "-M", "3000", "--out", out) == 0
    doc = json.loads(out.read_text())
    assert "lambda_hat" in doc and "gamma" in doc

    var_out = tmp_path / "var.json"
    forest = tmp_path / "forest.tsv"
    assert run("test-variation", *dataset_args(), "-M", "3000",
               "--out", var_out, "--forest-out", forest) == 0
    var = json.loads(var_out.read_text())
    assert var["df"] == 1
    assert 0.0 <= var["p_value"] <= 1.0
    lines = forest.read_text().strip().split("\n")
    assert lines[0] == "locus\tlambda_hat\tci_lo\tci_hi"
    assert [line.split("\t")[0] for line in lines[1:]] == ["glnA", "gltA", "_all_"]


def test_analysis_outputs_do_not_depend_on_the_usable_cores(tmp_path, monkeypatch):
    seen = []
    fork_map = pipeline.fork_map

    def spy(fn, n, workers):
        seen.append(workers)
        return fork_map(fn, n, workers)

    monkeypatch.setattr(pipeline, "fork_map", spy)
    outputs = {}
    for cores in (1, 3):
        monkeypatch.setattr(parallel, "usable_cores", lambda cores=cores: cores)
        out = tmp_path / str(cores)
        out.mkdir()
        assert run("import-dist", *dataset_args(), "--locus", "all", "-M", "2000",
                   "--out", out / "dists") == 0
        assert run("estimate", *dataset_args(), "-M", "2000", "--out", out / "est.json") == 0
        assert run("test-variation", *dataset_args(), "-M", "2000", "--out", out / "var.json",
                   "--forest-out", out / "forest.tsv") == 0
        outputs[cores] = {
            path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()
        }
    assert seen == [1, 1, 1, 3, 3, 3]
    assert len(outputs[1]) == 6
    assert outputs[3] == outputs[1]


def fresh_python(code, *argv):
    """Run ``code`` in a fresh interpreter that imports slvrate from this checkout."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src") + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=300)


def test_a_fresh_interpreter_writes_what_an_in_process_run_writes(tmp_path):
    # only a fresh interpreter runs main's start-up and the interpreter's exit; the
    # "openssl" run loads OpenSSL's _hashlib before the CLI can keep it out
    argv = ["test-variation", *map(str, dataset_args()), "-M", "2000"]
    runs = {"fresh": "import sys; from slvrate.cli import main; sys.exit(main())",
            "openssl": "import hashlib, sys; from slvrate.cli import main; sys.exit(main())"}
    for name, code in runs.items():
        out = tmp_path / name
        proc = fresh_python(code, *argv, "--out", out / "var.json", "--forest-out", out / "forest.tsv")
        assert proc.returncode == 0, proc.stderr
    here = tmp_path / "here"
    assert run(*argv, "--out", here / "var.json", "--forest-out", here / "forest.tsv") == 0
    for name in ("var.json", "forest.tsv"):
        assert (tmp_path / "fresh" / name).read_bytes() == (here / name).read_bytes()
        assert (tmp_path / "openssl" / name).read_bytes() == (here / name).read_bytes()
    inputs = json.loads((here / "var.json").read_text())["meta"]["inputs"]
    assert len(inputs) == 4
    for path, digest in inputs.items():
        assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()


# what a CLI process holds of OpenSSL once main returns: whether _hashlib is blocked,
# and the libcrypto mappings (None where there is no /proc/self/maps)
_OPENSSL_PROBE = """
import json, os, sys
from slvrate.cli import main
code = main()
maps = "/proc/self/maps"
libcrypto = [line.split()[-1] for line in open(maps) if "libcrypto" in line] if os.path.exists(maps) else None
print(json.dumps({"code": code, "blocked": "_hashlib" in sys.modules and sys.modules["_hashlib"] is None,
                  "libcrypto": libcrypto}))
"""


@pytest.mark.parametrize("command", ["experiment", "test-variation"])
def test_a_cli_process_never_loads_openssl(tmp_path, command):
    # the only hash the CLI takes is SHA-256, which CPython builds in
    if command == "experiment":  # forks a replicate worker
        cfg = {"design": "recovery", "replicates": 2, "lambda": 1.0,
               "loci": [{"name": "a", "length": 120}, {"name": "b", "length": 150}],
               "import_means": [8.0, 10.0], "n_pairs": 80, "seed": 5}
        (tmp_path / "exp.json").write_text(json.dumps(cfg))
        argv = ["experiment", "--config", tmp_path / "exp.json", "--out-dir", tmp_path / "out",
                "--threads", "2"]
    else:
        argv = ["test-variation", *dataset_args(), "-M", "2000", "--out", tmp_path / "var.json"]
    proc = fresh_python(_OPENSSL_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["code"] == 0
    assert probe["blocked"]
    if probe["libcrypto"] is not None:
        assert probe["libcrypto"] == []


def test_importing_the_library_keeps_openssl():
    if fresh_python("import _hashlib").returncode != 0:
        pytest.skip("this interpreter is built without OpenSSL's _hashlib")
    proc = fresh_python("import sys, slvrate.pipeline, hashlib; print(sys.modules['_hashlib'].__name__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["_hashlib"]


def test_only_the_first_main_call_in_a_process_freezes_the_heap():
    assert run("--version") == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0
    cycle = []
    cycle.append(cycle)  # garbage once deleted, which a second freeze would keep forever
    del cycle
    assert run("--version") == 0
    assert gc.get_freeze_count() == frozen


# -- simulate / experiment -----------------------------------------------------------------


def sim_config(tmp_path, **overrides):
    cfg = {
        "n_samples": 200,
        "loci": [{"name": "locA", "length": 150}, {"name": "locB", "length": 180},
                 {"name": "locC", "length": 150}],
        "theta": [4.0, 4.0, 4.0],
        "lambda": [1.0, 1.0, 1.0],
        "import": {"model": "complete", "p_a": 0.8},
        "seed": 11,
    }
    cfg.update(overrides)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_round_trips_through_parsers(tmp_path):
    cfg = sim_config(tmp_path)
    out = tmp_path / "sim_out"
    assert run("simulate", "--config", cfg, "--out-dir", out) == 0
    assert (out / "profiles.tsv").exists()
    truth = json.loads((out / "truth.json").read_text())
    assert truth["seed"] == 11
    assert truth["n_sts"] >= 2
    # the simulated files feed straight back into the analysis commands
    est = tmp_path / "est.json"
    assert run("estimate", "--profiles", out / "profiles.tsv", "--alleles-dir", out,
               "-M", "2000", "--out", est) == 0
    doc = json.loads(est.read_text())
    assert len(doc["loci"]) + len(doc["skipped_loci"]) == 3


def test_simulate_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  \"n_samples\": 100,\n  oops\n}")
    assert run("simulate", "--config", bad, "--out-dir", tmp_path / "o") == 1
    missing = tmp_path / "partial.json"
    missing.write_text(json.dumps({"n_samples": 100}))
    assert run("simulate", "--config", missing, "--out-dir", tmp_path / "o") == 1


RECOVERY_CONFIG = {
    "design": "recovery",
    "replicates": 3,
    "lambda": 1.0,
    "loci": [{"name": "a", "length": 120}, {"name": "b", "length": 150}],
    "import_means": [8.0, 10.0],
    "n_pairs": 80,
    "seed": 5,
}

NO_LENGTH_LOCI = [{"name": "locA", "length": 150}, {"name": "locB"}]


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("experiment", {"design": "coverage", "replicates": 2, "n_samples": "abc"}, "n_samples"),
        ("experiment", {"design": "coverage", "replicates": 0}, "replicates"),
        ("experiment", {**RECOVERY_CONFIG, "lambda": "x"}, "lambda"),
        ("simulate", {"loci": NO_LENGTH_LOCI}, "length"),
        ("experiment", {"design": "type1", "replicates": 2, "loci": NO_LENGTH_LOCI}, "length"),
        ("simulate", {"import": {"model": "geometric"}}, "mean"),
        ("experiment", {"design": "coverage", "replicates": 2, "analysis": {"level": "high"}},
         "level"),
        ("experiment", ["design", "coverage"], "JSON object"),
        ("simulate", [], "JSON object"),
        ("experiment", {"design": "coverage", "replicates": 2,
                        "analysis": {"seed": -5, "draws": 500}}, "analysis: seed"),
    ("experiment", {"design": "coverage", "replicates": 2, "analysis": {"pa": 2}},
     "analysis: pa: must be in [0, 1], got 2"),
    ("experiment", {"design": "coverage", "replicates": 2, "analysis": {"draws": 0}},
     "analysis: draws: must be >= 1, got 0"),
    ("experiment", {"design": "coverage", "replicates": 2, "analysis": {"level": 1.5}},
     "analysis: level: must be in (0, 1), got 1.5"),
    *[("experiment", {"design": "coverage", "replicates": 2, "analysis": {option: "zz"}},
       f"analysis: {option}: must be one of ") for option in
      ("alpha_mode", "weighting", "theta_method", "mode")],
    ("experiment", {**RECOVERY_CONFIG, "n_pairs": -3}, "n_pairs: must be >= 1, got -3"),
    ("experiment", {**RECOVERY_CONFIG, "n_pairs": 0}, "n_pairs: must be >= 1, got 0"),
    ("experiment", {**RECOVERY_CONFIG, "lambda": -1}, "lambda: must be >= 0, got -1"),
    ("experiment", {**RECOVERY_CONFIG, "level": 1.5}, "level: must be in (0, 1), got 1.5"),
    ("simulate", {"loci": [{"name": "a", "length": 150}, {"name": "a", "length": 180},
                           {"name": "c", "length": 150}]}, "loci: locus 'a' is named twice"),
    ("experiment", {**RECOVERY_CONFIG, "loci": [{"name": "a", "length": 120},
                                                {"name": "a", "length": 150}]},
     "loci: locus 'a' is named twice"),
    ],
)
def test_malformed_config_exits_one_naming_the_key(tmp_path, capsys, command, cfg, key):
    if isinstance(cfg, dict) and cfg.get("design") != "recovery":
        cfg = {**json.loads(sim_config(tmp_path).read_text()), **cfg}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(command, "--config", path, "--out-dir", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(f"slvrate: config {path}: ")
    assert key in err


def test_full_pipeline_smoke(tmp_path):
    cfg = sim_config(tmp_path)
    sim_out = tmp_path / "data"
    assert run("simulate", "--config", cfg, "--out-dir", sim_out) == 0
    ds = ["--profiles", sim_out / "profiles.tsv", "--alleles-dir", sim_out]
    assert run("extract", *ds, "--out", tmp_path / "slv.tsv") == 0
    assert run("import-dist", *ds, "-M", "2000", "--out", tmp_path / "dists") == 0
    assert run("estimate", *ds, "--dists", tmp_path / "dists",
               "--out", tmp_path / "est.json") == 0
    assert run("test-variation", *ds, "--dists", tmp_path / "dists",
               "--out", tmp_path / "var.json") == 0
    var = json.loads((tmp_path / "var.json").read_text())
    assert 0.0 <= var["p_value"] <= 1.0


def test_experiment_command_and_thread_invariance(tmp_path):
    cfg = {
        "design": "recovery",
        "replicates": 3,
        "lambda": 1.0,
        "loci": [{"name": "a", "length": 120}, {"name": "b", "length": 150}],
        "import_means": [8.0, 10.0],
        "n_pairs": 80,
        "seed": 5,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    out1 = tmp_path / "run1"
    assert run("experiment", "--config", path, "--out-dir", out1, "--threads", "1") == 0
    for threads in (["--threads", "3"], ["--threads", "4"], []):  # [] is one per core
        out = tmp_path / f"run-{'-'.join(threads)}"
        assert run("experiment", "--config", path, "--out-dir", out, *threads) == 0
        assert (out1 / "report.json").read_bytes() == (out / "report.json").read_bytes()
        assert (out1 / "replicates.tsv").read_bytes() == (out / "replicates.tsv").read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["design"] == "recovery"
    assert "individual_rmse" in report["per_metric"]


def test_version_flag(capsys):
    assert run("--version") == 0


def test_estimate_pairwise_theta_and_lenient_mode(tmp_path):
    out = tmp_path / "est.json"
    code = run("estimate", *dataset_args(), "--theta-ratio", "pairwise",
               "--alpha", "per-locus", "--mode", "lenient",
               "-M", "2000", "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["config"]["theta_method"] == "pairwise"
    assert len(doc["loci"]) == 2


def test_pairwise_theta_names_itself_at_a_locus_with_one_usable_unit(tmp_path, capsys):
    # locus c refers to a missing allele in STs 2-4, so only ST 1 is usable there
    (tmp_path / "profiles.tsv").write_text(
        "ST\ta\tb\tc\n1\t1\t1\t1\n2\t2\t1\t2\n3\t1\t1\t2\n4\t1\t2\t2\n")
    (tmp_path / "a.fas").write_text(">a_1\nAAAAAAAAAAAA\n>a_2\nCAAAAAAAAAAA\n")
    (tmp_path / "b.fas").write_text(">b_1\nAAAAAAAAAAAA\n>b_2\nCCAAAAAAAAAA\n")
    (tmp_path / "c.fas").write_text(">c_1\nAAAAAAAAAAAA\n")
    argv = ["estimate", "--profiles", tmp_path / "profiles.tsv", "--alleles-dir", tmp_path,
            "--mode", "lenient", "-M", "2000"]
    out = tmp_path / "est.json"
    assert run(*argv, "--theta-ratio", "length", "--out", out) == 0
    doc = json.loads(out.read_text())
    assert [fit["locus"] for fit in doc["loci"]] == ["a", "b"]
    assert doc["skipped_loci"] == ["c"]
    capsys.readouterr()
    assert run(*argv, "--theta-ratio", "pairwise", "--out", tmp_path / "pairwise.json") == 2
    assert capsys.readouterr().err == (
        "slvrate: TooFewUnitsError: pairwise theta ratio: locus c has 1 usable units; "
        "need at least 2 at every locus\n")


def test_non_ascii_base_is_masked_in_lenient_mode_and_named_in_strict(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(DEMO, data)
    fasta = data / "aspA.fas"
    header, first, *rest = fasta.read_text(encoding="utf-8").split("\n")
    fasta.write_text("\n".join([header, first[:5] + "É" + first[6:], *rest]), encoding="utf-8")
    argv = ["estimate", "--profiles", data / "profiles.tsv", "--alleles-dir", data, "-M", "2000"]
    out = tmp_path / "est.json"
    assert run(*argv, "--mode", "lenient", "--out", out) == 0
    loci = json.loads(out.read_text())["loci"]
    assert [fit["locus"] for fit in loci] == ["glnA", "gltA"]
    assert all(math.isfinite(fit["lambda_hat"]) for fit in loci)
    capsys.readouterr()
    assert run(*argv, "--mode", "strict") == 2
    assert "DataError: allele aspA_1 contains non-ACGT characters ['É']" in capsys.readouterr().err


def test_lowercase_sharp_s_keeps_the_allele_length(tmp_path, capsys):
    # "ß".upper() is "SS"; only ASCII letters may be uppercased, or the
    # allele would grow by one base and be reported as off-length
    data = tmp_path / "data"
    shutil.copytree(DEMO, data)
    fasta = data / "aspA.fas"
    header, first, *rest = fasta.read_text(encoding="utf-8").split("\n")
    fasta.write_text("\n".join([header, "ß" + first[1:], *rest]), encoding="utf-8")
    (_ids, lengths, _codes), ambiguous = parse_allele_fasta(fasta)
    assert lengths[0] == len(first) and ambiguous == {1: ["ß"]}
    argv = ["--profiles", data / "profiles.tsv", "--alleles-dir", data]
    assert run("estimate", *argv, "-M", "2000") == 2
    assert "DataError: allele aspA_1 contains non-ACGT characters ['ß']" in capsys.readouterr().err
    out = tmp_path / "slv.tsv"
    assert run("extract", *argv, "--mode", "lenient", "--out", out) == 0
    repairs = json.loads((tmp_path / "slv.tsv.meta.json").read_text())["lenient_repairs"]
    assert "locus aspA: allele 1 has ambiguous bases ['ß']" in " ".join(repairs)
    assert not any("off-length" in line for line in repairs)


def test_joint_single_informative_locus_exits_two(tmp_path, capsys):
    # restricted to aspA (no SLV pairs) + glnA (one pair): only one locus
    # carries information, so the pooled estimate must refuse
    code = run("joint", *dataset_args(), "--loci", "aspA,glnA", "-M", "1000")
    assert code == 2


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"locus": "aspA"}, "missing required key 'q'"),
        ({"locus": "aspA", "m": "abc", "p_a": 0.8, "M": 10, "seed": 1, "K": 2, "q": [1.0]}, "m: "),
        ({"locus": "aspA", "m": 2, "p_a": 0.8, "M": 10, "seed": 1, "K": 2, "q": [0.2, 0.2]},
         "q: stored pmf sums to"),
        ('{"locus": "aspA",', "line 1: "),
        ({"locus": "aspA", "m": 2, "p_a": 0.8, "M": 10, "seed": 1, "K": 2, "q": [0.5, "nan"]},
         "q: must be finite"),
    ],
)
def test_malformed_dist_file_exits_one_naming_the_fault(tmp_path, capsys, doc, named):
    path = tmp_path / "bad.dist.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert run("estimate", *dataset_args(), "--dists", path) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(f"slvrate: dists {path}: {named}")


@pytest.mark.parametrize("means", [[8.0], [8.0, 10.0, 12.0]])
def test_recovery_design_needs_one_import_mean_per_locus(tmp_path, capsys, means):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({**RECOVERY_CONFIG, "import_means": means}))
    assert run("experiment", "--config", path, "--out-dir", tmp_path / "o") == 1
    assert capsys.readouterr().err == (
        f"slvrate: config {path}: import_means: expected 2 values, one per locus, "
        f"got {len(means)}\n"
    )


COVERAGE = {"design": "coverage", "replicates": 2, "analysis": {"draws": 1000}}
GEOMETRIC = {"model": "geometric"}


@pytest.mark.parametrize("command, cfg, code, key", [
    ("simulate", {"import": {**GEOMETRIC, "mean": "nan"}}, 1, "import: mean: must be finite"),
    ("simulate", {"import": {**GEOMETRIC, "mean": "inf"}}, 1, "import: mean: must be finite"),
    ("simulate", {"import": {**GEOMETRIC, "mean": 0.5}}, 1, "import: mean: "),
    ("simulate", {"theta": ["inf", 3.0, 3.0]}, 1, "theta: must be finite"),
    ("simulate", {"theta": ["nan", 3.0, 3.0]}, 1, "theta: must be finite"),
    ("simulate", {"lambda": ["nan", 1.0, 1.0]}, 1, "lambda: must be finite"),
    ("simulate", {"theta": [1e300, 3.0, 3.0]}, 2, "locus locA: theta = 1e+300"),
    ("experiment", {**COVERAGE, "theta": ["inf", 3.0, 3.0]}, 1, "theta: must be finite"),
    ("experiment", {**COVERAGE, "lambda": ["nan", 1.0, 1.0]}, 1, "lambda: must be finite"),
    ("experiment", {**COVERAGE, "theta": [1e300, 3.0, 3.0]}, 2, "locus locA: theta = 1e+300"),
    ("experiment", {**RECOVERY_CONFIG, "import_means": ["nan", 10.0]}, 1, "import_means: "),
    ("experiment", {**RECOVERY_CONFIG, "import_means": ["inf", 10.0]}, 1, "import_means: "),
    ("experiment", {**RECOVERY_CONFIG, "import_means": [0.5, 10.0]}, 1, "import_means: "),
    ("experiment", {**RECOVERY_CONFIG, "lambda": "nan"}, 1, "lambda: must be finite"),
    # (1 - 1/mean)^(m - 1) underflows on a 120-base locus: zero pmf entries
    ("experiment", {**RECOVERY_CONFIG, "import_means": [1.0, 10.0]}, 1, "import_means: locus a: "),
    ("experiment", {**RECOVERY_CONFIG, "import_means": [1.001, 10.0]}, 1, "import_means: locus a: "),
])
def test_non_finite_or_overflowing_rates_exit_with_one_line_naming_the_key(
        tmp_path, capsys, command, cfg, code, key):
    if cfg.get("design") != "recovery":
        cfg = {**json.loads(sim_config(tmp_path).read_text()), **cfg}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(command, "--config", path, "--out-dir", tmp_path / "o") == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("slvrate: ")
    assert key in err


def test_report_counts_failed_replicates_only_when_there_are_some(tmp_path, monkeypatch):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(RECOVERY_CONFIG))
    assert run("experiment", "--config", path, "--out-dir", tmp_path / "clean") == 0
    clean = json.loads((tmp_path / "clean" / "report.json").read_text())
    assert "failed_replicates" not in clean

    original = experiment._run_recovery_replicate

    def flaky(design, models, ridx):
        if ridx == 1:
            raise DegenerateScoresError("locus a: all scores identical")
        return original(design, models, ridx)

    monkeypatch.setattr(experiment, "_run_recovery_replicate", flaky)
    assert run("experiment", "--config", path, "--out-dir", tmp_path / "flaky") == 0
    report = json.loads((tmp_path / "flaky" / "report.json").read_text())
    assert report["replicates"] == 3
    assert report["failed_replicates"] == {"DegenerateScoresError": 1}
    rows = (tmp_path / "flaky" / "replicates.tsv").read_text().splitlines()
    assert {line.split("\t")[0] for line in rows[1:]} == {"0", "2"}


@pytest.mark.parametrize("value", ["0", "-2", "two"])
def test_threads_must_be_a_positive_int(tmp_path, capsys, value):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(RECOVERY_CONFIG))
    assert run("experiment", "--config", path, "--out-dir", tmp_path / "o",
               "--threads", value) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    usage, message = err.rstrip("\n").rsplit("\n", 1)
    assert usage.startswith("usage: slvrate experiment")
    assert message.startswith("slvrate experiment: error: argument --threads: ")
    assert not (tmp_path / "o").exists()


def test_unreadable_config_exits_one_naming_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert run("experiment", "--config", bad, "--out-dir", tmp_path / "o") == 1
    assert capsys.readouterr().err == (
        f"slvrate: config {bad}: not UTF-8 text (invalid start byte)\n"
    )
    assert run("simulate", "--config", tmp_path, "--out-dir", tmp_path / "o") == 1
    assert capsys.readouterr().err == f"slvrate: config {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("damaged, tail, reason", [
    ("profiles.tsv", b"\xff\n", "invalid start byte"),
    ("aspA.fas", b">aspA_99\n\xe9\xff\n", "invalid continuation byte"),
])
def test_non_utf8_data_file_is_a_parse_error_naming_it(tmp_path, capsys, damaged, tail, reason):
    data = tmp_path / "data"
    shutil.copytree(DEMO, data)
    path = data / damaged
    path.write_bytes(path.read_bytes() + tail)
    argv = ["--profiles", data / "profiles.tsv", "--alleles-dir", data, "-M", "1000"]
    assert run("estimate", *argv, "--loci", "aspA,glnA,gltA") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err == f"slvrate: ParseError: not UTF-8 text ({reason}) [{path}]\n"
    if damaged == "profiles.tsv":  # the header is read first when no loci are named
        assert run("estimate", *argv) == 2
        assert capsys.readouterr().err == err


BIG = "9" * 30


@pytest.mark.parametrize("damaged, edit, line, message", [
    ("profiles.tsv", lambda text: text.replace("\n1\t", f"\n{BIG}\t"), 2,
     f"NonIntegerAlleleError: ST value '{BIG}' is beyond int64"),
    ("profiles.tsv", lambda text: text + f"7\t1\t{BIG}\t1\n", 8,
     f"NonIntegerAlleleError: allele '{BIG}' in column 'glnA' is beyond int64"),
    ("aspA.fas", lambda text: text + f">aspA_{BIG}\nACGT\n", 5,
     f"MalformedHeaderError: allele id is beyond int64 in 'aspA_{BIG}'"),
])
@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_an_id_beyond_int64_is_a_parse_error_naming_its_line(tmp_path, capsys, damaged, edit,
                                                            line, message, mode):
    # both modes stop at the parse, before strict mode's referential check
    data = tmp_path / "data"
    shutil.copytree(DEMO, data)
    path = data / damaged
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    argv = ["--profiles", data / "profiles.tsv", "--alleles-dir", data, "--mode", mode]
    assert run("extract", *argv) == 2
    assert capsys.readouterr().err == f"slvrate: {message} [{path}:{line}]\n"


# more digits than Python's int() reads (sys.get_int_max_str_digits(), 4300 by default)
HUGE = "5" * 5000


@pytest.mark.parametrize("damaged, edit, line, message", [
    ("profiles.tsv", lambda text: text + f"7\t1\t{HUGE}\t1\n", 8,
     f"NonIntegerAlleleError: allele '{HUGE[:40]}'... in column 'glnA' is beyond int64"),
    ("profiles.tsv", lambda text: text + f"7\t1\t-{HUGE}\t1\n", 8,
     f"NonIntegerAlleleError: allele '-{HUGE[:39]}'... in column 'glnA' is beyond int64"),
    ("profiles.tsv", lambda text: text + f"7\t1\tx{HUGE}\t1\n", 8,
     f"NonIntegerAlleleError: allele 'x{HUGE[:39]}'... in column 'glnA' is not an integer"),
    ("aspA.fas", lambda text: text + f">aspA_{HUGE}\nACGT\n", 5,
     f"MalformedHeaderError: allele id is beyond int64 in 'aspA_{HUGE[:35]}'..."),
    ("aspA.fas", lambda text: text + f">aspA_{HUGE}x\nACGT\n", 5,
     f"MalformedHeaderError: header 'aspA_{HUGE[:35]}'... has no trailing allele number"),
])
def test_an_id_longer_than_int_reads_is_beyond_int64_in_a_short_line(tmp_path, capsys, damaged,
                                                                     edit, line, message):
    data = tmp_path / "data"
    shutil.copytree(DEMO, data)
    path = data / damaged
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    assert run("extract", "--profiles", data / "profiles.tsv", "--alleles-dir", data) == 2
    assert capsys.readouterr().err == f"slvrate: {message} [{path}:{line}]\n"


def test_a_directory_in_place_of_a_data_file_is_a_parse_error_naming_it(tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(DEMO, data)
    (data / "profiles.tsv").unlink()
    (data / "profiles.tsv").mkdir()
    argv = ["--profiles", data / "profiles.tsv", "--alleles-dir", data, "--loci", "aspA,glnA"]
    assert run("estimate", *argv) == 2
    assert capsys.readouterr().err == (
        f"slvrate: ParseError: cannot read the file (Is a directory) [{data / 'profiles.tsv'}]\n"
    )


# -- seeds and output paths ------------------------------------------------------------


@pytest.mark.parametrize("command", ["extract", "test-variation", "simulate"])
def test_an_output_that_cannot_be_written_is_one_line_naming_it(tmp_path, capsys, monkeypatch,
                                                                command):
    # the tests run as root, so a full disk stands in for a read-only directory
    def full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    out = tmp_path / "o" / "out.x"
    if command == "simulate":
        argv = ["--config", sim_config(tmp_path), "--out-dir", tmp_path / "o"]
        out = tmp_path / "o" / "profiles.tsv"
    elif command == "extract":
        argv = [*dataset_args(), "--out", out]
    else:
        argv = [*dataset_args(), "-M", "1000", "--out", out]
    monkeypatch.setattr(Path, "write_text", full)
    assert run(command, *argv) == 1
    assert capsys.readouterr().err == f"slvrate: cannot write {out}: No space left on device\n"

DATASET_COMMANDS = ("import-dist", "estimate", "joint", "test-variation")


@pytest.mark.parametrize("command", [*DATASET_COMMANDS, "simulate", "experiment"])
def test_a_negative_seed_flag_exits_one_naming_it(tmp_path, capsys, command):
    if command in DATASET_COMMANDS:
        argv = [command, *dataset_args(), "-M", "1000", "--out", tmp_path / "o" / "x.json"]
    else:
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(RECOVERY_CONFIG))
        argv = [command, "--config", cfg, "--out-dir", tmp_path / "o"]
    assert run(*argv, "--seed", "-1") == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.rstrip("\n").rsplit("\n", 1)[-1] == (
        f"slvrate {command}: error: argument --seed: must be >= 0, got -1"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, design", [
    ("simulate", None), ("experiment", "coverage"), ("experiment", "recovery"),
])
def test_a_negative_config_seed_exits_one_naming_the_key(tmp_path, capsys, command, design):
    if design == "recovery":
        cfg = dict(RECOVERY_CONFIG)
    else:
        cfg = json.loads(sim_config(tmp_path).read_text())
        if design:
            cfg.update(design=design, replicates=2, analysis={"draws": 1000})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "seed": -3}))
    assert run(command, "--config", path, "--out-dir", tmp_path / "o") == 1
    assert capsys.readouterr().err == f"slvrate: config {path}: seed: must be >= 0, got -3\n"
    assert not (tmp_path / "o").exists()
    # the flag overrides the key
    assert run(command, "--config", path, "--out-dir", tmp_path / "o", "--seed", "2") == 0


def test_a_negative_replicate_index_exits_one_naming_the_key(tmp_path, capsys):
    path = sim_config(tmp_path, replicate=-1)
    assert run("simulate", "--config", path, "--out-dir", tmp_path / "o") == 1
    assert capsys.readouterr().err == f"slvrate: config {path}: replicate: must be >= 0, got -1\n"


def _no_work(*args, **kwargs):
    raise AssertionError("the command started its work")


@pytest.mark.parametrize("argv, flag", [
    (["extract", "--out"], "--out"),
    (["import-dist", "--locus", "gltA", "--out"], "--out"),
    (["estimate", "--out"], "--out"),
    (["joint", "--out"], "--out"),
    (["test-variation", "--out"], "--out"),
    (["test-variation", "--out", "v.json", "--forest-out"], "--forest-out"),
], ids=["extract", "import-dist", "estimate", "joint", "test-variation", "forest-out"])
def test_a_directory_as_an_output_file_exits_one_before_any_work(tmp_path, capsys, monkeypatch,
                                                                 argv, flag):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_load_dataset", _no_work)
    (tmp_path / "taken").mkdir()
    assert run(argv[0], *dataset_args(), *argv[1:], "taken") == 1
    assert capsys.readouterr().err == f"slvrate: {flag} taken: is a directory\n"
    # under a file
    (tmp_path / "file").write_text("")
    assert run(argv[0], *dataset_args(), *argv[1:], "file/x") == 1
    assert capsys.readouterr().err == f"slvrate: {flag} file/x: file is not a directory\n"


@pytest.mark.parametrize("argv", [
    ["import-dist", *dataset_args(), "--locus", "all", "--out"],
    ["simulate", "--config", "cfg.json", "--out-dir"],
    ["experiment", "--config", "cfg.json", "--out-dir"],
], ids=["import-dist", "simulate", "experiment"])
def test_a_file_as_an_output_directory_exits_one_before_any_work(tmp_path, capsys, monkeypatch,
                                                                 argv):
    monkeypatch.chdir(tmp_path)
    for name in ("_load_dataset", "simulate", "run_experiment"):
        monkeypatch.setattr(cli, name, _no_work)
    (tmp_path / "cfg.json").write_text(json.dumps(RECOVERY_CONFIG))
    (tmp_path / "taken").write_text("")
    assert run(*argv, "taken") == 1
    assert capsys.readouterr().err == f"slvrate: {argv[-1]} taken: is not a directory\n"


def test_every_command_makes_the_missing_parents_of_its_outputs(tmp_path):
    new = tmp_path / "a" / "b"
    assert run("extract", *dataset_args(), "--out", new / "slv.tsv") == 0
    assert (new / "slv.tsv.meta.json").is_file()
    assert run("import-dist", *dataset_args(), "-M", "1000", "--locus", "gltA",
               "--out", new / "one" / "gltA.json") == 0
    assert run("import-dist", *dataset_args(), "-M", "1000", "--out", new / "all") == 0
    assert sorted(p.name for p in (new / "all").iterdir())[0] == "aspA.dist.json"
    assert run("estimate", *dataset_args(), "-M", "1000", "--out", new / "e" / "est.json") == 0
    assert run("joint", *dataset_args(), "-M", "1000", "--out", new / "j" / "joint.json") == 0
    assert run("test-variation", *dataset_args(), "-M", "1000", "--out", new / "v" / "var.json",
               "--forest-out", new / "f" / "forest.tsv") == 0
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(RECOVERY_CONFIG))
    assert run("experiment", "--config", cfg, "--out-dir", new / "exp", "--threads", "1") == 0
    assert run("simulate", "--config", sim_config(tmp_path), "--out-dir", new / "sim") == 0
    for path in ("e/est.json", "j/joint.json", "v/var.json", "f/forest.tsv",
                 "exp/report.json", "exp/replicates.tsv", "sim/truth.json", "sim/locA.fas"):
        assert (new / path).is_file()


def test_each_fasta_file_is_resolved_once(monkeypatch):
    seen = []
    resolve = cli._fasta_path

    def counting(alleles_dir, locus):
        seen.append(locus)
        return resolve(alleles_dir, locus)

    monkeypatch.setattr(cli, "_fasta_path", counting)
    assert run("extract", *dataset_args()) == 0
    # the header's clonal_complex column has no file and is skipped
    assert sorted(seen) == ["aspA", "clonal_complex", "glnA", "gltA"]


@pytest.mark.parametrize("loci", ["zzz", "aspA,zzz"])
def test_a_named_locus_without_a_fasta_file_is_named(capsys, loci):
    assert run("extract", *dataset_args(), "--loci", loci) == 1
    assert capsys.readouterr().err == f"slvrate: no FASTA file for locus 'zzz' under {DEMO}\n"
