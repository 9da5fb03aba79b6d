#!/usr/bin/env python3
"""slvrate benchmark: runs slvrate the way its users do and times it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload recovery --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Each op is one ``slvrate`` CLI command in a fresh interpreter, run in a
closed loop by a single client: the next op starts when the previous one
has ended, until ``--seconds`` have passed. The program sees only the
config and data files that set-up generates from ``--seed``, and every op
of a run uses the same inputs. The package is byte-compiled once before
set-up, outside its timing. Set-up writes the inputs (and, for
``cli_large``, simulates the dataset); it is repeated between ops and its
median is reported.

Every op's outputs are checked. At the default seed they are compared with
the stored reference outputs in ``perfbench/reference`` within the
tolerances documented in ``checks.py``; at every seed, every op must write
byte-identical outputs, the program's determinism promise. An op fails on a
non-zero exit or a failed check.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs the same op in process, with the tracer of ``tracer.py`` wrapped around
slvrate's public functions and ``--threads 1``, and reports the per-layer
metrics; its outputs must equal the untraced op's outputs byte for byte,
and its counters must repeat exactly from one traced op to the next.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the sample counts and any op errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1          # the seed whose outputs are stored in perfbench/reference
SETUP_REPEATS = 5         # set-up repeats before each of a run's first ops ...
SETUP_SHARE = 0.02        # ... and before later ones while it has taken less than this share of the run
STARTUP_REPEATS = 5
UNTRACED_OPS_IN_TRACE = 3
OP_TIMEOUT_S = 120.0

# what the `slvrate` console script runs
SLVRATE = [sys.executable, "-c", "import sys; from slvrate.cli import main; sys.exit(main())"]
STARTUP_PROBE = [
    sys.executable, "-c",
    "import time; t = time.perf_counter(); import slvrate.cli; print(time.perf_counter() - t)",
]

SEVEN_LOCI = 7


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the CLI command that every op of a run repeats."""

    name: str
    command: str                 # "experiment" or "test-variation"
    replicates: int              # replicates (analysed datasets) an op completes
    outputs: tuple[str, ...]     # files an op writes into its output directory
    config: dict                 # experiment config, or the simulate config of the dataset


def _seven(length: int) -> list[dict]:
    return [{"name": f"g{i}", "length": length} for i in range(SEVEN_LOCI)]


def workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` at ``seed``; ``tiny`` shrinks it for the self-tests."""
    if name == "recovery":
        # criterion 06's model-matched design: singleton pairs, no genealogy
        replicates = 1 if tiny else 4
        config = {
            "design": "recovery",
            "replicates": replicates,
            "lambda": 1.0,
            "loci": [{"name": f"g{i}", "length": 420 + 20 * i} for i in range(SEVEN_LOCI)],
            "import_means": [8.0 + 2.0 * i for i in range(SEVEN_LOCI)],
            "n_pairs": 40 if tiny else 400,
            "seed": seed,
        }
        return Workload(name, "experiment", replicates, ("report.json", "replicates.tsv"), config)
    if name == "sim_null":
        # criterion 07's null fixture: the whole simulate -> analyse chain
        replicates = 1 if tiny else 4
        config = {
            "design": "coverage",
            "replicates": replicates,
            "n_samples": 300 if tiny else 2000,
            "loci": _seven(450),
            "theta": [100.0 / SEVEN_LOCI] * SEVEN_LOCI,
            "lambda": [1.0] * SEVEN_LOCI,
            "import": {"model": "complete", "p_a": 0.8},
            "analysis": {"pa": 0.8, "draws": 2000 if tiny else 30_000},
            "seed": seed,
        }
        return Workload(name, "experiment", replicates, ("report.json", "replicates.tsv"), config)
    if name == "cli_large":
        # one large simulated dataset analysed by test-variation; one op is
        # one analysed dataset, so it counts as one replicate
        config = {
            "n_samples": 1500 if tiny else 50_000,
            "loci": _seven(450),
            "theta": [250.0 / SEVEN_LOCI] * SEVEN_LOCI,
            "lambda": [1.0] * SEVEN_LOCI,
            "import": {"model": "complete", "p_a": 0.8},
            "seed": seed,
        }
        return Workload(name, "test-variation", 1, ("variation.json", "forest.tsv"), config)
    raise ValueError(f"unknown workload {name!r}")


def op_argv(w: Workload, inputs: Path, out: Path, seed: int, threads: int, tiny: bool) -> list[str]:
    if w.command == "experiment":
        return ["experiment", "--config", str(inputs / "config.json"), "--out-dir", str(out),
                "--threads", str(threads)]
    data = inputs / "data"
    argv = ["test-variation", "--profiles", str(data / "profiles.tsv"), "--alleles-dir", str(data),
            "--seed", str(seed), "--out", str(out / "variation.json"),
            "--forest-out", str(out / "forest.tsv")]
    return argv + (["-M", "5000"] if tiny else [])


def _run_checked(argv: list[str]) -> str:
    proc = subprocess.run(argv, env=_env(), capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:3])}... exited {proc.returncode}: {proc.stderr[-500:]}")
    return proc.stdout


def compile_package() -> None:
    """Byte-compile slvrate, so that no op and no set-up pays for it."""
    _run_checked([sys.executable, "-m", "compileall", "-q", str(SRC / "slvrate")])


def setup(w: Workload, inputs: Path) -> str:
    """Write the workload's inputs; returns their digest."""
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    (inputs / "config.json").write_text(json.dumps(w.config, indent=1) + "\n", encoding="utf-8")
    if w.command == "test-variation":
        _run_checked(SLVRATE + ["simulate", "--config", str(inputs / "config.json"),
                                "--out-dir", str(inputs / "data")])
    digest = hashlib.sha256()
    for path in sorted(inputs.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(inputs).as_posix().encode() + path.read_bytes())
    return digest.hexdigest()


# -- one op ----------------------------------------------------------------------


@dataclass
class Op:
    wall_s: float
    rss_mib: float
    cpu_s: float
    error: str | None = None


def run_op(argv: list[str], out: Path, log: Path) -> Op:
    """Run one command in a fresh interpreter; rusage comes from ``os.wait4``."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    with log.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        op.error = f"exit {proc.returncode}: {' '.join(tail)}"
    return op


@dataclass
class OutputCheck:
    """Checks every op of one run against the reference and the run's first op."""

    outputs: tuple[str, ...]
    reference: dict[str, str] | None
    first: dict[str, bytes] | None = None

    def __call__(self, out: Path) -> str | None:
        from checks import compare

        missing = [name for name in self.outputs if not (out / name).is_file()]
        if missing:
            return f"missing outputs {missing}"
        got = {name: (out / name).read_bytes() for name in self.outputs}
        if self.first is None:
            self.first = got
        elif got != self.first:
            return "outputs differ from the first op of the run"
        if self.reference is not None:
            mismatches = compare({k: v.decode() for k, v in got.items()}, self.reference)
            if mismatches:
                return f"{len(mismatches)} values off the reference, first: {mismatches[0]}"
        return None


def checked_op(argv: list[str], base: Path, check: OutputCheck) -> Op:
    op = run_op(argv, base / "out", base / "stderr.txt")
    op.error = op.error or check(base / "out")
    return op


def load_reference(w: Workload, seed: int, tiny: bool) -> dict[str, str] | None:
    if tiny or seed != DEFAULT_SEED:
        return None
    return {name: (REFERENCE / w.name / name).read_text(encoding="utf-8") for name in w.outputs}


# -- measurement -------------------------------------------------------------------


@dataclass
class Run:
    metrics: dict[str, float]
    attempted: int
    failed: int
    record: dict
    errors: list[str]


def _tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten ops beyond it, and that percentile.

    With ten ops or fewer no percentile has ten beyond it; the slowest op
    is reported as the 100th percentile.
    """
    ordered = sorted(walls)
    at = len(ordered) - 10
    if at < 1:
        return ordered[-1], 100.0
    return ordered[at - 1], 100.0 * at / len(ordered)


def _run_dir(w: Workload, seed: int) -> Path:
    return WORK / f"{w.name}-{seed}-{os.getpid()}"


def end_to_end(w: Workload, seed: int, seconds: float, tiny: bool, threads: int) -> Run:
    base = _run_dir(w, seed)
    inputs, out = base / "inputs", base / "out"
    setup_times, digests = [], set()

    def timed_setup() -> float:
        start = time.perf_counter()
        digests.add(setup(w, inputs))
        setup_times.append(time.perf_counter() - start)
        return setup_times[-1]

    timed_setup()
    argv = SLVRATE + op_argv(w, inputs, out, seed, threads, tiny)
    check = OutputCheck(w.outputs, load_reference(w, seed, tiny))
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        # Set-up repeats between ops, rewriting the inputs in place, so that its
        # median samples the machine across the run as the op times do. The
        # repeats do not count against the run's time.
        if len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SHARE * seconds:
            deadline += timed_setup()
        ops.append(checked_op(argv, base, check))
    errors = [] if len(digests) == 1 else ["set-up wrote different inputs on repeat"]
    errors += [op.error for op in ops if op.error]

    good = [op for op in ops if op.error is None]
    walls = [op.wall_s for op in good] or [op.wall_s for op in ops]
    tail, percentile = _tail(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail,
        "replicates_per_s": w.replicates * len(good) / sum(op.wall_s for op in ops),
        "peak_rss_mib": statistics.median(op.rss_mib for op in (good or ops)),
    }
    failed = sum(op.error is not None for op in ops)
    record = {
        "op_tail_percentile": percentile,
        "op_samples": len(walls),
        "failed_frac": failed / len(ops),
        "setup_runs_s": [round(t, 6) for t in setup_times],
        "op_walls_s": [round(op.wall_s, 4) for op in ops],
    }
    return Run(metrics, len(ops), failed, record, errors)


def traced(w: Workload, seed: int, seconds: float, tiny: bool, threads: int) -> Run:
    """Per-layer metrics: untraced ops for reference, then traced ops in process.

    The untraced ops are timed like the end-to-end ops, in a fresh
    interpreter with the usable cores as threads; ``bench.untraced_op_s`` and
    ``experiment.cpu_per_wall`` (user+sys over wall, from their rusage) come
    from them.
    """
    from tracer import Tracer
    import slvrate.cli

    base = _run_dir(w, seed)
    inputs, out = base / "inputs", base / "out"
    deadline = time.perf_counter() + seconds
    setup(w, inputs)
    startup = [float(_run_checked(STARTUP_PROBE)) for _ in range(STARTUP_REPEATS)]

    check = OutputCheck(w.outputs, load_reference(w, seed, tiny))
    untraced_argv = SLVRATE + op_argv(w, inputs, out, seed, threads, tiny)
    untraced = [checked_op(untraced_argv, base, check) for _ in range(UNTRACED_OPS_IN_TRACE)]
    errors = [op.error for op in untraced if op.error]

    argv = op_argv(w, inputs, out, seed, 1, tiny)
    per_op: list[dict[str, float]] = []
    counts: dict[str, int] | None = None
    failed_traced = 0
    while len(per_op) + failed_traced < 2 or time.perf_counter() < deadline:
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        try:
            code = tracer.call(slvrate.cli.main, argv)
        except Exception as exc:  # a crash inside the program is a failed op
            code = f"{type(exc).__name__}: {exc}"
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - start
        error = f"traced op returned {code}" if code != 0 else check(out)
        layer = tracer.layer_metrics()
        op_counts = {k: v for k, v in layer.items() if not k.endswith("_s")}
        if error is None and counts is not None and op_counts != counts:
            diff = sorted(k for k in counts if counts[k] != op_counts[k])
            error = f"counters differ between traced ops: {diff}"
        if error is not None:
            failed_traced += 1
            errors.append(error)
            continue
        counts = counts or op_counts
        layer["bench.traced_op_s"] = wall
        per_op.append(layer)
    if per_op:
        tracer.dump(WORK / f"spans-{w.name}-{seed}.json")

    good = [op for op in untraced if op.error is None] or untraced
    metrics = {name: statistics.median(op[name] for op in per_op) for name in (per_op or [{}])[0]}
    metrics.update({
        "cli.startup_s": statistics.median(startup),
        "experiment.cpu_per_wall": statistics.median(op.cpu_s / op.wall_s for op in good),
        "bench.untraced_op_s": statistics.median(op.wall_s for op in good),
    })
    record = {"traced_ops": len(per_op), "traced_threads": 1, "untraced_ops": len(untraced)}
    failed = len(errors)
    return Run(metrics, len(untraced) + len(per_op) + failed_traced, failed, record, errors)


# -- reporting -----------------------------------------------------------------------


def write_reference(name: str) -> None:
    """Store one op's outputs at the default seed, ``meta`` blocks removed."""
    from checks import strip_meta

    w = workload(name, DEFAULT_SEED)
    base = _run_dir(w, DEFAULT_SEED)
    try:
        setup(w, base / "inputs")
        op = run_op(SLVRATE + op_argv(w, base / "inputs", base / "out", DEFAULT_SEED,
                                      usable_cores(), False), base / "out", base / "stderr.txt")
        if op.error:
            raise RuntimeError(f"{name}: {op.error}")
        target = REFERENCE / name
        target.mkdir(parents=True, exist_ok=True)
        for output in w.outputs:
            text = (base / "out" / output).read_text(encoding="utf-8")
            (target / output).write_text(
                strip_meta(text) if output.endswith(".json") else text, encoding="utf-8")
    finally:
        shutil.rmtree(base, ignore_errors=True)


def machine(threads: int) -> dict:
    import numpy

    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "usable_cores": usable_cores(),
        "threads": threads,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[Run, dict]:
    """One run of one workload; returns it with the units of its metrics."""
    spec = benchmark_spec()
    threads = usable_cores()
    w = workload(name, seed, tiny)
    compile_package()
    try:
        run = (traced if trace else end_to_end)(w, seed, seconds, tiny, threads)
    finally:
        shutil.rmtree(_run_dir(w, seed), ignore_errors=True)
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(run.metrics))
    if missing:
        run.errors.append(f"metrics not measured: {missing}")
    run.metrics = {k: run.metrics.get(k, 0.0) for k in units}
    run.record.update({"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                       "machine": machine(threads), "errors": run.errors[:5]})
    return run, units


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="recovery, sim_null, cli_large, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store the outputs of seed {DEFAULT_SEED} as the reference and exit")
    args = parser.parse_args(argv)

    if not (SRC / "slvrate" / "cli.py").is_file():
        print(f"slvrate sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    for name in names:
        workload(name, args.seed)  # rejects an unknown name before any work
    if args.write_reference:
        for name in names:
            write_reference(name)
        return 0

    results = []
    for name in names:
        run, units = measure(name, args.seed, seconds, bool(args.trace), args.tiny)
        for metric, value in run.metrics.items():
            print(f"{name:10s} {metric:36s} {value:14.6g} {units[metric]}")
        results.append((name, run, units))
    if len(results) == 1:
        _name, run, units = results[0]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in run.metrics.items()}
        print(json.dumps({"record": run.record}))
    else:
        metrics = {f"{name}.{k}": {"value": v, "unit": units[k]}
                   for name, run, units in results for k, v in run.metrics.items()}
        print(json.dumps({"record": [run.record for _n, run, _u in results]}))
    runs = [run for _n, run, _u in results]
    print(json.dumps({
        "correct": all(not run.errors for run in runs),
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
