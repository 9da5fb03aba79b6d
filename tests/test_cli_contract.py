"""The command line's contract, on generated argv and configs.

Whatever a user passes, ``main`` returns 0, 1 or 2 and never raises. A
failure writes one error line to stderr (after the usage, when argparse
rejects a flag). A flag value or config key that the parser must reject
exits with a nonzero status, with 1 and a line naming the flag or the key
where it is checked as it is parsed. No JSON output holds a NaN.

The dataset commands run on ``data/demo``, on damaged copies of it and on
paths that are missing, a directory or a file. ``main`` runs in process,
so each call forks at most the usable cores.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from conftest import DEMO
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from slvrate.cli import main

NAN, INF = math.nan, math.inf
CONTRACT = settings(max_examples=100, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


# -- inputs ---------------------------------------------------------------------------


def _rewrite(name, edit):
    def damage(data: Path) -> None:
        path = data / name
        path.write_bytes(edit(path.read_bytes()))
    return damage


def _replace_with_directory(name):
    def damage(data: Path) -> None:
        (data / name).unlink()
        (data / name).mkdir()
    return damage


DAMAGE = {
    "non_acgt": _rewrite("aspA.fas", lambda b: b.replace(b"AAAAAAAAAAAA", b"AAAAAXAAAAAA", 1)),
    "off_length": _rewrite("glnA.fas", lambda b: b + b">glnA_9\nACG\n"),
    "duplicate_allele": _rewrite("gltA.fas", lambda b: b + b.split(b"\n>")[0] + b"\n"),
    "missing_allele": _rewrite("profiles.tsv", lambda b: b + b"7\t1\t99\t1\n"),
    "duplicate_st": _rewrite("profiles.tsv", lambda b: b + b"6\t1\t3\t4\n"),
    "non_integer": _rewrite("profiles.tsv", lambda b: b + b"8\t1\tx\t1\n"),
    "header_only": _rewrite("profiles.tsv", lambda b: b.split(b"\n")[0] + b"\n"),
    "empty_fasta": _rewrite("glnA.fas", lambda b: b""),
    "not_utf8": _rewrite("gltA.fas", lambda b: b + b">gltA_9\n\xff\n"),
    "fasta_missing": lambda data: (data / "glnA.fas").unlink(),
    "fasta_is_directory": _replace_with_directory("gltA.fas"),
    "st_beyond_int64": _rewrite("profiles.tsv", lambda b: b.replace(b"\n1\t", b"\n" + b"9" * 30 + b"\t")),
    "allele_beyond_int64": _rewrite("profiles.tsv", lambda b: b + b"7\t1\t" + b"9" * 30 + b"\t1\n"),
    "fasta_id_beyond_int64": _rewrite("aspA.fas", lambda b: b + b">aspA_" + b"9" * 30 + b"\nACGT\n"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Data directories by name, a directory of stored import
    distributions, and paths that are missing, a directory or a file."""
    root = tmp_path_factory.mktemp("contract")
    data = {"demo": DEMO}
    for name, damage in DAMAGE.items():
        data[name] = root / name
        shutil.copytree(DEMO, data[name])
        damage(data[name])
    dists = root / "dists"
    assert main(["import-dist", "--profiles", str(DEMO / "profiles.tsv"), "--alleles-dir",
                 str(DEMO), "-M", "500", "--out", str(dists)]) == 0
    (root / "empty").mkdir()
    (root / "bad.dist.json").write_text('{"locus": "aspA", "q": [1.0]}')
    return {"root": root, "data": data, "dists": dists, "empty": root / "empty",
            "bad_dist": root / "bad.dist.json", "file": DEMO / "aspA.fas",
            "missing": root / "missing"}


# -- generated arguments ------------------------------------------------------------------

ABSENT = object()  # the flag or key is left out

# name -> (valid values, faults the parser must reject with exit 1 and a line
# naming the flag or key, other faults, which must exit 1 or 2). Each case
# takes valid values but for at most two names, which take a fault.
DATASET = {
    "--profiles": (["<data>/profiles.tsv"], [ABSENT], ["<missing>", "<empty>", "<file>"]),
    "--alleles-dir": (["<data>"], [ABSENT], ["<missing>", "<file>"]),
    "--mode": ([ABSENT, "strict", "lenient"], ["zz", ""], []),
    "--loci": ([ABSENT, "aspA,glnA,gltA", "glnA,gltA"], ["aspA,aspA,glnA", ","],
               ["zzz,glnA", "glnA"]),
    "--st-column": ([ABSENT, "ST"], [], ["zz"]),
    "--count-column": ([ABSENT], [], ["zz"]),
}
IMPORT = {
    "--pa": ([ABSENT, "0", "0.5", "1"], ["2", "-0.1", "nan", "inf", "x"], []),
    "-M": ([ABSENT, "300", "1000"], ["0", "-3", "1.5", "x"], []),
    "--seed": ([ABSENT, "0", "7"], ["-1", "x"], []),
    "--weighting": ([ABSENT, "by_st", "by_isolate"], ["zz"], []),
}
ANALYSIS = {
    "--theta-ratio": ([ABSENT, "length", "pairwise"], ["zz"], []),
    "--alpha": ([ABSENT, "common", "per-locus"], ["zz"], []),
    "--level": ([ABSENT, "0.9", "0.95"], ["0", "1", "1.5", "nan", "x"], []),
    "--dists": ([ABSENT, "<dists>"], [], ["<empty>", "<bad_dist>", "<missing>"]),
}
# output paths are relative to the run's own working directory, which holds
# a directory "taken" and a file "file"
OUT = {"--out": ([ABSENT, "new/out.x"], ["taken", "file/out.x"], [])}
COMMANDS = {
    "extract": {**DATASET, **OUT},
    "import-dist": {**DATASET, **IMPORT,
                    "--locus": ([ABSENT, "all", "gltA", "aspA"], [], ["zzz"]),
                    # --locus all writes into a directory, which may exist
                    "--out": ([ABSENT, "new/out"], ["file/out.x"], [])},
    "estimate": {**DATASET, **IMPORT, **ANALYSIS, **OUT},
    "joint": {**DATASET, **IMPORT, **ANALYSIS, **OUT},
    "test-variation": {**DATASET, **IMPORT, **ANALYSIS, **OUT,
                       "--forest-out": ([ABSENT, "new/forest.tsv"], ["taken", "file/out.x"], [])},
}

LOCI = [{"name": "a", "length": 60}, {"name": "b", "length": 80}]
SIMULATION = {
    "n_samples": ([40, 60], [ABSENT, "abc", [3], None, NAN, INF, True, 1, 20.5], [1, -5]),
    "loci": ([LOCI], [ABSENT, "ab", 5, [5], [{"name": "a", "length": NAN}, LOCI[1]],
                      [{"name": "a", "length": 60}, {"name": "a", "length": 80}],
                      [{"name": "a", "length": 50.7}, LOCI[1]],
                      [{"name": "a", "length": True}, LOCI[1]],
                      [{"name": "a", "length": 0}, LOCI[1]], LOCI[:1]],
             [[{"name": "a", "length": 0}, LOCI[1]]]),
    "theta": ([[3.0, 2.0]], [ABSENT, "x", [[1], 2.0], [NAN, 2.0], [INF, 2.0], [-3.0, 2.0], [3.0]],
              [[-1.0, 2.0]]),
    "lambda": ([[1.0, 0.5], [1.0, 1.0]],
               [ABSENT, "x", [NAN, 1.0], [1.0, INF], [1.0, -0.5], [1.0, 0.5, 0.5]],
               [[-1.0, 1.0]]),
    "import": ([{"model": "complete", "p_a": 0.8}, {"model": "geometric", "mean": 5},
                {"per_locus": {"a": {"model": "geometric", "mean": 3},
                               "b": {"model": "complete"}}}],
               [ABSENT, "complete", 3, {"model": "zz"}, {"model": "geometric", "mean": 0.5},
                {"model": "geometric", "mean": NAN}, {"model": "complete", "p_a": 2},
                {"model": "complete", "p_a": NAN}, {"per_locus": {"a": {"model": "complete"}}},
                {"model": "empirical", "pmf": [0.5, 0.2, 0.1, 0.1, 0.05]},
                {"per_locus": {"a": {"model": "empirical", "pmf": [0.2] * 5},
                               "b": {"model": "complete"}}}],
               []),
    "seed": ([ABSENT, 0, 3], ["x", [1], -2, NAN, 1.5, True], []),
}
CONFIG_FLAGS = {
    "--config": (["<config>"], [ABSENT], ["<missing>", "<empty>"]),
    "--out-dir": (["out"], [ABSENT, "file/out", "cfg.json"], []),
    "--seed": ([ABSENT, "2"], ["-1", "x"], []),
}
EXPERIMENT_FLAGS = {**CONFIG_FLAGS, "--threads": ([ABSENT, "1", "2"], ["0", "x"], [])}
REPLICATES = {"replicates": ([1, 2, 3], [ABSENT, "x", 0, -1, NAN, 2.5, True], [])}
CONFIGS = {
    "simulate": {**SIMULATION, "replicate": ([ABSENT, 0, 2], ["x", -1, NAN, 1.5], [])},
    "simulation design": {
        "design": (["coverage", "type1", "power"], [ABSENT, "zz", 5], []),
        **REPLICATES, **SIMULATION,
        "analysis": ([ABSENT, {"draws": 300},
                      {"draws": 300, "pa": 0.5, "weighting": "by_isolate",
                       "alpha_mode": "per-locus", "theta_method": "pairwise", "mode": "lenient",
                       "level": 0.9}],
                     ["x", {"draws": "x"}, {"draws": 0}, {"pa": 2}, {"pa": NAN},
                      {"level": 1.5}, {"level": INF}, {"mode": "zz"}, {"mode": 5},
                      {"alpha_mode": "zz"}, {"weighting": "zz"}, {"theta_method": "zz"},
                      {"seed": 1}, {"draws": 300.5}, {"draws": True}],
                     []),
    },
    "recovery design": {
        "design": (["recovery"], [ABSENT, "zz"], []),
        **REPLICATES,
        "lambda": ([1.0, 0.0], [ABSENT, "x", -1, NAN, INF], []),
        "loci": ([[{"name": "a", "length": 120}, {"name": "b", "length": 150}]],
                 [ABSENT, [{"name": "a", "length": 120}, {"name": "a", "length": 150}],
                  [{"name": "a", "length": 120}]], []),
        "import_means": ([[8.0, 10.0]],
                         [ABSENT, "x", [0.5, 10.0], [8.0], [NAN, 10.0], [1.001, 10.0]], []),
        "n_pairs": ([20, 40], [ABSENT, "x", 0, -3, NAN, 20.9, True], []),
        "level": ([ABSENT, 0.9], [1.5, 0, NAN], []),
        "seed": ([ABSENT, 0, 4], [-1, "x", 1.5], []),
    },
}


@st.composite
def _values(draw, table):
    """({name: value}, names that must exit 1 named, names that must fail)."""
    faults = [name for name, (_ok, named, failing) in table.items() if named or failing]
    faulty = draw(st.lists(st.sampled_from(faults), max_size=2, unique=True))
    values, named, failing = {}, [], []
    for name, (ok, named_faults, other_faults) in table.items():
        if name not in faulty:
            values[name] = draw(st.sampled_from(ok))
            continue
        kind = draw(st.sampled_from(["named"] * bool(named_faults)
                                    + ["failing"] * bool(other_faults)))
        values[name] = draw(st.sampled_from(named_faults if kind == "named" else other_faults))
        (named if kind == "named" else failing).append(name)
    return values, named, failing


def _argv(command, flags):
    argv = [command]
    for flag, value in flags.items():
        if value is not ABSENT:
            argv += [flag, value]
    return argv


@st.composite
def dataset_case(draw):
    """(data directory name, argv with placeholders, flags that must exit 1
    named, flags that must fail)."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags, named, failing = draw(_values(COMMANDS[command]))
    data = draw(st.sampled_from(["demo", "demo", *sorted(DAMAGE)]))
    order = draw(st.permutations(list(flags)))
    return data, _argv(command, {flag: flags[flag] for flag in order}), named, failing


@st.composite
def config_case(draw):
    """(config, argv with placeholders, keys and flags that must exit 1
    named, keys and flags that must fail)."""
    kind = draw(st.sampled_from(sorted(CONFIGS)))
    command = "simulate" if kind == "simulate" else "experiment"
    cfg, named, failing = draw(_values(CONFIGS[kind]))
    flags, flags_named, flags_failing = draw(
        _values(CONFIG_FLAGS if command == "simulate" else EXPERIMENT_FLAGS))
    if flags["--seed"] not in (ABSENT, "-1", "x") and "seed" in named:
        named.remove("seed")  # the flag overrides the key, which is not read
    cfg = {key: value for key, value in cfg.items() if value is not ABSENT}
    return cfg, _argv(command, flags), named + flags_named, failing + flags_failing


def _resolve(word, places):
    """A placeholder ``<place>`` or ``<place>/name`` as a path."""
    if not word.startswith("<"):
        return word
    place, _, rest = word[1:].partition(">")
    return str(places[place]) + rest


# -- the contract -------------------------------------------------------------------------


def _no_nan(value, where):
    if isinstance(value, dict):
        for key, item in value.items():
            _no_nan(item, f"{where}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _no_nan(item, f"{where}[{index}]")
    else:
        assert value != "nan" and not (isinstance(value, float) and math.isnan(value)), where


def _forbid(constant):
    raise AssertionError(f"JSON constant {constant}")


def _check_json(text, where):
    _no_nan(json.loads(text, parse_constant=_forbid), where)


def _run(argv, cwd):
    """``main(argv)`` in ``cwd``: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    before = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(before)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    return code, out.getvalue(), err.getvalue()


def _check(argv, code, out, err, cwd, must_name, must_fail):
    if must_name or must_fail:
        assert code in ((1,) if not must_fail else (1, 2)), (" ".join(argv), code, err)
    if code == 0:
        for path in cwd.rglob("*.json"):
            _check_json(path.read_text(encoding="utf-8"), str(path))
        if out.startswith("{"):
            _check_json(out, "stdout")
        return
    lines = err.rstrip("\n").split("\n")
    assert err.endswith("\n") and lines[-1].startswith("slvrate"), (argv, err)
    if err.startswith("usage: "):  # argparse: the usage, then one error line
        assert code == 1 and ": error: " in lines[-1], (argv, err)
    else:
        assert len(lines) == 1, (argv, err)
    if must_name and not must_fail:
        assert any(name in lines[-1] for name in must_name), (argv, err)


def _dataset_contract(inputs, data, argv, named, failing) -> int:
    """Run a dataset command on the data directory ``data``, check the
    contract, and return its status. A failure writes no file."""
    with tempfile.TemporaryDirectory(dir=inputs["root"]) as cwd:
        cwd = Path(cwd)
        (cwd / "taken").mkdir()
        (cwd / "file").write_text("")
        argv = [_resolve(word, {**inputs, "data": inputs["data"][data]}) for word in argv]
        code, out, err = _run(argv, cwd)
        _check(argv, code, out, err, cwd, named, failing)
        if code:
            assert sorted(p.name for p in cwd.iterdir()) == ["file", "taken"], argv
    return code


def _config_contract(inputs, cfg, argv, named, failing) -> int:
    """Run ``simulate`` or ``experiment`` on ``cfg``, check the contract,
    and return its status. A failure writes no output directory."""
    with tempfile.TemporaryDirectory(dir=inputs["root"]) as cwd:
        cwd = Path(cwd)
        (cwd / "file").write_text("")
        config = cwd / "cfg.json"
        # NaN and Infinity as Python's json writes them
        config.write_text(json.dumps({k: v for k, v in cfg.items() if v is not ABSENT}))
        argv = [_resolve(word, {**inputs, "config": config}) for word in argv]
        code, out, err = _run(argv, cwd)
        _check(argv, code, out, err, cwd, named, failing)
        if code:
            assert not (cwd / "out").exists(), argv
    return code


def _single_faults(table, rng):
    """One case per listed fault: its name takes it, and every other name a
    valid value that ``rng`` picks."""
    for name, (_ok, named_faults, other_faults) in table.items():
        for value, named in [*((v, True) for v in named_faults),
                             *((v, False) for v in other_faults)]:
            values = {key: rng.choice(ok) for key, (ok, _, _) in table.items()}
            values[name] = value
            yield values, [name] * named, [name] * (not named)


def _first_valid(table):
    return {name: ok[0] for name, (ok, _, _) in table.items()}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_listed_flag_fault_and_damaged_copy_keeps_the_contract(inputs, command):
    rng = random.Random(0)
    for flags, named, failing in _single_faults(COMMANDS[command], rng):
        _dataset_contract(inputs, "demo", _argv(command, flags), named, failing)
    for data in DAMAGE:
        _dataset_contract(inputs, data, _argv(command, _first_valid(COMMANDS[command])), [], [])


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_every_listed_config_fault_keeps_the_contract(inputs, kind):
    rng = random.Random(0)
    command = "simulate" if kind == "simulate" else "experiment"
    flags = CONFIG_FLAGS if command == "simulate" else EXPERIMENT_FLAGS
    argv = _argv(command, _first_valid(flags))
    for cfg, named, failing in _single_faults(CONFIGS[kind], rng):
        _config_contract(inputs, cfg, argv, named, failing)
    for values, named, failing in _single_faults(flags, rng):
        _config_contract(inputs, _first_valid(CONFIGS[kind]), _argv(command, values), named,
                         failing)


@CONTRACT
@given(case=dataset_case())
def test_generated_dataset_commands_keep_the_contract(inputs, case):
    data, argv, named, failing = case
    code = _dataset_contract(inputs, data, argv, named, failing)
    event(f"{argv[0]} exits {code}")


@CONTRACT
@given(case=config_case())
def test_generated_configs_keep_the_contract(inputs, case):
    cfg, argv, named, failing = case
    code = _config_contract(inputs, cfg, argv, named, failing)
    event(f"{argv[0]} exits {code}")


# -- faults across keys -------------------------------------------------------------------

SIX_BASES = [{"name": "a", "length": 6}, {"name": "b", "length": 6}]
SIX_BASE_SIMULATION = {"n_samples": 20, "loci": SIX_BASES, "theta": [1.0, 1.0],
                       "lambda": [1.0, 1.0], "import": {"model": "complete"}}
ONE_LOCUS_RECOVERY = {"design": "recovery", "replicates": 2, "lambda": 1.0,
                      "loci": [{"name": "a", "length": 120}], "import_means": [8.0], "n_pairs": 20}


@pytest.mark.parametrize("command, cfg, line", [
    ("simulate", {**SIX_BASE_SIMULATION, "theta": [1.0]},
     "theta: expected 2 values, one per locus, got 1"),
    ("simulate", {**SIX_BASE_SIMULATION, "loci": SIX_BASES[:1]},
     "loci: need at least 2 loci, got 1"),
    ("simulate", {**SIX_BASE_SIMULATION,
                  "import": {"model": "empirical", "pmf": [0.5, 0.2, 0.1, 0.05, 0.05, 0.05]}},
     "import: pmf: sums to 0.95, not 1"),
    ("simulate", {**SIX_BASE_SIMULATION, "import": {"model": "empirical", "pmf": [0.2] * 5}},
     "import: locus a: empirical pmf covers 1..5 but locus length is 6"),
    ("simulate", {**SIX_BASE_SIMULATION, "import": {"per_locus": {"a": {"model": "complete"}}}},
     "import: no import model for locus 'b'"),
    ("experiment", ONE_LOCUS_RECOVERY, "loci: need at least 2 loci, got 1"),
    ("simulate", {**SIX_BASE_SIMULATION, "import": {"per_locus": {
        "a": {"model": "complete"}, "b": {"model": "complete"},
        "zz": {"model": "geometric", "mean": 3}}}},
     "import: import model for unknown locus 'zz'"),
])
def test_a_fault_across_keys_exits_1_before_any_work_naming_its_key(inputs, command, cfg, line):
    with tempfile.TemporaryDirectory(dir=inputs["root"]) as cwd:
        config = Path(cwd) / "cfg.json"
        config.write_text(json.dumps(cfg))
        code, _out, err = _run([command, "--config", str(config), "--out-dir", "out"], cwd)
        assert (code, err) == (1, f"slvrate: config {config}: {line}\n")
        assert not (Path(cwd) / "out").exists()


@pytest.mark.parametrize("command", ["estimate", "joint", "test-variation"])
def test_stored_distributions_fit_their_loci_one_file_each(inputs, command):
    # a file's m must be its locus's length, and a second file of a locus
    # must not replace the first: either exits 1 before any fit
    stored = inputs["dists"] / "gltA.dist.json"
    doc = json.loads(stored.read_text())
    with tempfile.TemporaryDirectory(dir=inputs["root"]) as cwd:
        longer = Path(cwd) / "gltA.dist.json"
        longer.write_text(json.dumps({**doc, "m": 17, "q": [1 / 17] * 17}))
        twice = Path(cwd) / "twice"
        twice.mkdir()
        for name in ("a.json", "b.json"):
            shutil.copy(stored, twice / name)
        argv = [command, "--profiles", str(DEMO / "profiles.tsv"), "--alleles-dir", str(DEMO),
                "--out", "out.json", "--dists"]
        assert _run([*argv, str(longer)], cwd)[::2] == (
            1, f"slvrate: dists {longer}: m: 17, but locus 'gltA' is 12 bases long\n")
        assert _run([*argv, str(twice)], cwd)[::2] == (
            1, f"slvrate: dists {twice / 'a.json'} and {twice / 'b.json'} both hold locus 'gltA'\n")
        assert not (Path(cwd) / "out.json").exists()


@pytest.mark.parametrize("command", ["estimate", "joint", "test-variation"])
def test_stored_distributions_cover_every_locus_with_pairs_and_no_other(inputs, command):
    # glnA has one SLV pair and no file, and no locus of the dataset is 'zz':
    # either exits 1, naming the locus, and writes nothing
    stored = inputs["dists"] / "gltA.dist.json"
    with tempfile.TemporaryDirectory(dir=inputs["root"]) as cwd:
        only_glta = Path(cwd) / "only-gltA"
        only_glta.mkdir()
        shutil.copy(stored, only_glta)
        foreign = Path(cwd) / "zz.dist.json"
        foreign.write_text(json.dumps({**json.loads(stored.read_text()), "locus": "zz"}))
        argv = [command, "--profiles", str(DEMO / "profiles.tsv"), "--alleles-dir", str(DEMO),
                "--out", "out.json", "--dists"]
        assert _run([*argv, str(only_glta)], cwd)[::2] == (
            1, "slvrate: dists: locus 'glnA' has 1 SLV pair(s) but no import distribution\n")
        assert _run([*argv, str(foreign)], cwd)[::2] == (
            1, f"slvrate: dists {foreign}: unknown locus 'zz'; loci are aspA, glnA, gltA\n")
        assert not (Path(cwd) / "out.json").exists()


@pytest.mark.parametrize("edits, line", [
    ({"M": 20.9, "m": 12.7, "K": True}, "m: must be an integer, got 12.7"),
    ({"M": 20.9}, "M: must be an integer, got 20.9"),
    ({"K": True}, "K: must be an integer, got True"),
    ({"seed": 1.5}, "seed: must be an integer, got 1.5"),
    ({"seed": -1}, "seed: must be >= 0, got -1"),
])
def test_a_stored_distribution_s_integer_keys_take_no_fraction_or_bool(inputs, edits, line):
    stored = inputs["dists"] / "aspA.dist.json"
    with tempfile.TemporaryDirectory(dir=inputs["root"]) as cwd:
        edited = Path(cwd) / "aspA.dist.json"
        edited.write_text(json.dumps({**json.loads(stored.read_text()), **edits}))
        argv = ["estimate", "--profiles", str(DEMO / "profiles.tsv"), "--alleles-dir", str(DEMO),
                "--dists", str(edited)]
        assert _run(argv, cwd)[::2] == (1, f"slvrate: dists {edited}: {line}\n")
