from __future__ import annotations

import math
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from slvrate import experiment as ex
from slvrate import simulate as sim
from slvrate.errors import DegenerateScoresError
from slvrate.pipeline import AnalysisOptions

SMALL_LOCI = tuple((f"g{i}", 200) for i in range(4))


def small_sim_design(kind="coverage", replicates=4, lam=1.0, seed=3):
    return ex.SimDesign(
        kind=kind,
        replicates=replicates,
        sim=sim.SimConfig(
            n_samples=250,
            loci=SMALL_LOCI,
            theta=tuple(5.0 for _ in SMALL_LOCI),
            lam=tuple(lam for _ in SMALL_LOCI),
            import_model=sim.CompleteImport(p_a=0.8),
            seed=seed,
        ),
        analysis=AnalysisOptions(draws=4000),
    )


def test_coverage_design_smoke():
    report = ex.run_experiment(small_sim_design())
    assert report.design == "coverage"
    assert report.replicates == 4
    for key in ("individual_bias", "individual_rmse", "individual_coverage",
                "joint_rmse", "joint_coverage", "mean_sts", "mean_slvs"):
        assert key in report.metrics
    locus_rows = [r for r in report.rows if r["kind"] == "locus"]
    joint_rows = [r for r in report.rows if r["kind"] == "joint"]
    assert locus_rows and joint_rows
    for row in locus_rows:
        assert row["ci_lo"] <= row["lam_hat"] <= row["ci_hi"]
        assert row["covered"] in (0, 1)


def test_experiment_deterministic_and_thread_invariant():
    # replicates run serially; each draws from its own replicate stream, so
    # a replicate's rows do not depend on the replicates run before it
    a = ex.run_experiment(small_sim_design(seed=9))
    b = ex.run_experiment(small_sim_design(seed=9))
    assert a == b
    c = ex.run_experiment(small_sim_design(seed=9, replicates=2))
    assert c.rows == tuple(r for r in a.rows if r["replicate"] < 2)
    d = ex.run_experiment(small_sim_design(seed=10))
    assert d != a


def test_type1_design_reports_rejection_rate():
    report = ex.run_experiment(small_sim_design(kind="type1", replicates=3))
    assert "rejection_rate" in report.metrics
    assert 0.0 <= report.metrics["rejection_rate"].value <= 1.0


def test_recovery_design_smoke():
    design = ex.RecoveryDesign(
        replicates=4,
        lam=1.0,
        loci=(("a", 150), ("b", 180), ("c", 210)),
        import_means=(8.0, 10.0, 12.0),
        n_pairs=120,
        seed=5,
    )
    report = ex.run_experiment(design)
    assert report.design == "recovery"
    assert report.excluded_replicates == 0
    # singleton groups force gamma = 1 per locus and jointly
    for row in report.rows:
        assert abs(row["gamma"] - 1.0) < 1e-9
    est = [r["lam_hat"] for r in report.rows if r["kind"] == "joint"]
    assert 0.5 < float(np.mean(est)) < 2.0


def test_recovery_models_match_design():
    design = ex.RecoveryDesign(
        replicates=1,
        lam=0.5,
        loci=(("a", 100), ("b", 300)),
        import_means=(6.0, 9.0),
        n_pairs=10,
        seed=0,
    )
    models = ex.recovery_models(design)
    assert [m.q.locus for m in models] == ["a", "b"]
    assert abs(models[0].r - 0.25) < 1e-12
    assert abs(models[1].r - 0.75) < 1e-12
    for model, mean in zip(models, (6.0, 9.0)):
        got = float(np.dot(np.arange(1, model.q.m + 1), model.q.q))
        assert abs(got - mean) < 0.5  # truncation nudges it slightly


def test_geometric_pmf_normalized():
    pmf = ex.geometric_pmf(50, 7.0)
    assert abs(float(pmf.sum()) - 1.0) < 1e-12
    assert (pmf > 0).all()


def test_metric_helpers():
    rate = ex._rate_metric([True, False, True, True])
    assert abs(rate.value - 0.75) < 1e-12
    rmse = ex._rmse_metric([1.0, -1.0])
    assert abs(rmse.value - 1.0) < 1e-12
    empty = ex._mean_metric([])
    assert math.isnan(empty.value)


def _fit(locus, lam_hat, ci_lower, ci_upper, n_pairs=5):
    return SimpleNamespace(locus=locus, lam_hat=lam_hat, ci_lower=ci_lower, ci_upper=ci_upper,
                           gamma=1.5, n_pairs=n_pairs, at_boundary=False)


def _sim_output(ridx, fits, truth, joint, common, p_value, n_sts, n_slv, skipped):
    return {"rows": ex._fit_rows(ridx, fits, truth, joint, common, n_slv), "p_value": p_value,
            "n_sts": n_sts, "n_slv": n_slv, "informative": joint is not None,
            "skipped_loci": skipped}


def test_collect_aggregates_the_informative_replicates_that_finished():
    outputs = [
        {"error": DegenerateScoresError("locus a: all scores identical")},
        # one locus with pairs: no joint fit, so no p-value, and left out
        _sim_output(1, [_fit("a", 9.0, 8.0, 10.0)], {"a": 1.0}, None, 1.0, math.nan, 9, 2, 2),
        # a common rate of 1, which only locus b's interval misses
        _sim_output(2, [_fit("a", 1.5, 0.5, 2.5), _fit("b", 0.5, 0.6, 0.9)],
                    {"a": 1.0, "b": 1.0}, _fit("_all_", 1.2, 0.8, 1.6), 1.0, 0.01, 20, 7, 1),
        # rates differ, so the joint row has no true rate and counts in no metric
        _sim_output(3, [_fit("a", 2.5, 1.9, 3.0), _fit("b", 0.25, 0.1, 0.3)],
                    {"a": 2.0, "b": 0.5}, _fit("_all_", 1.0, 0.5, 1.5), math.nan, 0.2, 30, 11, 0),
    ]
    report = ex._collect("power", 0.95, outputs)
    assert report.design == "power" and report.replicates == 4
    assert report.failed_replicates == {"DegenerateScoresError": 1}
    assert report.excluded_replicates == 1
    assert report.rows == (*outputs[2]["rows"], *outputs[3]["rows"])
    assert [row["covered"] for row in report.rows] == [1, 0, 1, 1, 0, ""]
    nan = math.nan
    expected = {  # locus errors 0.5, -0.5, 0.5, -0.25; the one joint error 0.2
        "individual_bias": (0.0625, math.sqrt(0.796875 / 3) / 2),
        # delta method: the standard error of the mean square over twice the RMSE
        "individual_rmse": (math.sqrt(0.203125), 0.046875 / (2 * math.sqrt(0.203125))),
        "individual_coverage": (0.5, 0.25),
        "joint_bias": (0.2, nan),
        "joint_rmse": (0.2, nan),
        "joint_coverage": (1.0, 0.0),
        "rejection_rate": (0.5, math.sqrt(0.125)),
        "mean_sts": (25.0, 5.0),
        "mean_slvs": (9.0, 2.0),
        "mean_skipped_loci": (0.5, 0.5),
    }
    assert list(report.metrics) == list(expected)
    for name, (value, mc_stderr) in expected.items():
        got = report.metrics[name]
        assert got.value == pytest.approx(value, rel=1e-12, abs=1e-15), name
        assert got.mc_stderr == pytest.approx(mc_stderr, rel=1e-12, nan_ok=True), name


def _failing_on(calls_to_fail, original):
    """``original``, raising DegenerateScoresError on the given call indices."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 in calls_to_fail:
            raise DegenerateScoresError("locus g0: all scores identical")
        return original(*args, **kwargs)

    return wrapper


def test_failed_replicate_is_counted_and_the_others_go_on(monkeypatch):
    clean = ex.run_experiment(small_sim_design(replicates=3))
    monkeypatch.setattr(ex, "analyze_dataset", _failing_on({1}, ex.analyze_dataset))
    report = ex.run_experiment(small_sim_design(replicates=3))
    assert report.replicates == 3
    assert report.failed_replicates == {"DegenerateScoresError": 1}
    assert clean.failed_replicates == {}
    assert report.rows == tuple(r for r in clean.rows if r["replicate"] != 1)
    assert {r["replicate"] for r in report.rows} == {0, 2}
    # metrics come from the finished replicates only: a joint row carries
    # its replicate's SLV pair count
    joint_pairs = [r["n_pairs"] for r in report.rows if r["kind"] == "joint"]
    assert len(joint_pairs) == 2
    assert report.metrics["mean_slvs"].value == pytest.approx(float(np.mean(joint_pairs)))


def test_experiment_raises_the_first_error_when_every_replicate_fails(monkeypatch):
    monkeypatch.setattr(ex, "analyze_dataset", _failing_on({0, 1}, ex.analyze_dataset))
    with pytest.raises(DegenerateScoresError):
        ex.run_experiment(small_sim_design(replicates=2))


# -- forked workers ---------------------------------------------------------------------


def tiny_coverage_design(replicates=5):
    design = small_sim_design(replicates=replicates)
    return replace(design, sim=replace(design.sim, n_samples=300),
                   analysis=AnalysisOptions(draws=2000))


def tiny_recovery_design(replicates=5):
    return ex.RecoveryDesign(replicates=replicates, lam=1.0, loci=(("a", 150), ("b", 180)),
                             import_means=(8.0, 10.0), n_pairs=80, seed=5)


@pytest.mark.parametrize("design", [tiny_coverage_design(), tiny_recovery_design()],
                         ids=["coverage", "recovery"])
def test_report_does_not_depend_on_the_worker_count(design):
    serial = ex.run_experiment(design)
    for workers in (2, 3):
        forked = ex.run_experiment(design, workers=workers)
        assert forked.rows == serial.rows
        assert forked.metrics == serial.metrics
        assert forked.failed_replicates == serial.failed_replicates == {}


def test_a_failure_in_a_worker_is_counted_as_in_the_serial_run(monkeypatch):
    original = ex._run_sim_replicate

    def flaky(design, ridx):
        if ridx == 1:  # with two workers, replicate 1 runs in the child
            raise DegenerateScoresError("locus g0: all scores identical")
        return original(design, ridx)

    monkeypatch.setattr(ex, "_run_sim_replicate", flaky)
    design = tiny_coverage_design(replicates=3)
    serial = ex.run_experiment(design)
    forked = ex.run_experiment(design, workers=2)
    assert forked.failed_replicates == serial.failed_replicates == {"DegenerateScoresError": 1}
    assert forked.rows == serial.rows
    assert {r["replicate"] for r in forked.rows} == {0, 2}


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle this error")


@pytest.mark.parametrize(
    "failing, error, raised, match",
    [
        (0, RuntimeError("replicate 0 broke"), RuntimeError, "replicate 0 broke"),
        (1, RuntimeError("replicate 1 broke"), RuntimeError, "replicate 1 broke"),
        (1, _Unpicklable("odd"), RuntimeError, r"forked worker raised _Unpicklable\('odd'\)"),
    ],
    ids=["parent share", "child share", "unpicklable"],
)
def test_other_errors_propagate_and_no_worker_outlives_them(monkeypatch, failing, error,
                                                            raised, match):
    original = ex._run_recovery_replicate

    def broken(design, models, ridx):
        if ridx == failing:
            raise error
        return original(design, models, ridx)

    monkeypatch.setattr(ex, "_run_recovery_replicate", broken)
    with pytest.raises(raised, match=match):
        ex.run_experiment(tiny_recovery_design(replicates=3), workers=3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failing", [
    {1: RuntimeError, 2: RuntimeError},
    {2: RuntimeError, 3: RuntimeError},
    {3: RuntimeError},
    {0: RuntimeError, 3: RuntimeError},
    {1: RuntimeError, 2: RuntimeError, 3: RuntimeError},
    {0: DegenerateScoresError, 2: RuntimeError},  # a counted failure ends nothing
], ids=["1,2", "2,3", "3", "0,3", "1,2,3", "counted 0,2"])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_the_error_raised_is_the_lowest_failing_replicates(monkeypatch, failing, workers):
    # with two workers the parent runs replicates 0 and 2 and hits 2 before
    # the child reports 1: a serial loop raises replicate 1's error
    original = ex._run_recovery_replicate

    def broken(design, models, ridx):
        if ridx in failing:
            raise failing[ridx](f"replicate {ridx} broke")
        return original(design, models, ridx)

    monkeypatch.setattr(ex, "_run_recovery_replicate", broken)
    first = min(ridx for ridx, error in failing.items() if error is RuntimeError)
    with pytest.raises(RuntimeError, match=f"^replicate {first} broke$"):
        ex.run_experiment(tiny_recovery_design(replicates=4), workers=workers)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
