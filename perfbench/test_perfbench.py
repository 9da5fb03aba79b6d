"""Self-tests of the benchmark at a tiny size.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from slvrate import locus_estimator  # noqa: E402
from slvrate.numerics import DEFAULT_TOL  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result, lines = _bench(workload, 0)
    assert result["correct"], lines[-2]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in _units("end_to_end").items():
        assert any(line.split()[1:2] == [name] and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_its_counters_repeat(workload):
    first, lines = _bench(workload, 1)
    second, _ = _bench(workload, 1)
    assert first["correct"] and second["correct"], lines[-2]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _units("per_layer")
    counters = [name for name, unit in _units("per_layer").items() if unit == "count"]
    assert {c: first["metrics"][c]["value"] for c in counters} == {
        c: second["metrics"][c]["value"] for c in counters
    }
    assert first["metrics"]["locus_estimator.loglik_calls"]["value"] > 0


def _with_t(lam: float, shift: float) -> float:
    t = lam / (1.0 + lam) + shift
    return t / (1.0 - t)


def test_output_check_rejects_a_perturbed_lambda_hat():
    ref = {name: (run.REFERENCE / "cli_large" / name).read_text(encoding="utf-8")
           for name in ("variation.json", "forest.tsv")}
    assert checks.compare(ref, ref) == []
    doc = json.loads(ref["variation.json"])
    lam = doc["joint_lambda"]
    for shift, accepted in ((0.5 * DEFAULT_TOL.opt_t, True), (10 * DEFAULT_TOL.opt_t, False)):
        doc["joint_lambda"] = _with_t(lam, shift)
        errors = checks.compare(dict(ref, **{"variation.json": json.dumps(doc)}), ref)
        assert (errors == []) == accepted, errors

    rows = (run.REFERENCE / "recovery" / "replicates.tsv").read_text(encoding="utf-8")
    report = (run.REFERENCE / "recovery" / "report.json").read_text(encoding="utf-8")
    ref = {"replicates.tsv": rows, "report.json": report}
    header, first, *rest = rows.splitlines()
    cells = first.split("\t")
    col = header.split("\t").index("lam_hat")
    cells[col] = f"{_with_t(float(cells[col]), 10 * DEFAULT_TOL.opt_t):.10g}"
    perturbed = "\n".join([header, "\t".join(cells), *rest]) + "\n"
    errors = checks.compare(dict(ref, **{"replicates.tsv": perturbed}), ref)
    assert len(errors) == 1 and "lam_hat" in errors[0]


def test_failed_ops_count_a_forced_nonzero_exit(monkeypatch):
    monkeypatch.setattr(run, "SLVRATE", [sys.executable, "-c", "import sys; sys.exit(3)"])
    result, _units = run.measure("recovery", 3, 1, trace=False, tiny=True)
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert result.record["failed_frac"] == 1.0
    assert "exit 3" in result.errors[0]


def test_traced_output_must_equal_the_untraced_output(monkeypatch):
    original = locus_estimator.maximize

    def nudged(cl, tol=DEFAULT_TOL):
        lam, value, boundary = original(cl, tol)
        return lam * (1.0 + 1e-6), value, boundary

    # only the in-process traced ops see the nudge; the untraced ops do not
    monkeypatch.setattr(locus_estimator, "maximize", nudged)
    result, _units = run.measure("recovery", 3, 1, trace=True, tiny=True)
    assert result.failed >= 2
    assert any("outputs differ" in error for error in result.errors)


def test_tracer_restores_every_binding():
    bindings = [tracer._resolve(module, attribute)
                for _span, pairs, _count in tracer.WRAPS for module, attribute in pairs]
    before = [getattr(owner, name) for owner, name in bindings]
    t = tracer.Tracer()
    t.install()
    assert all(getattr(owner, name) is not fn for (owner, name), fn in zip(bindings, before))
    t.uninstall()
    assert all(getattr(owner, name) is fn for (owner, name), fn in zip(bindings, before))
