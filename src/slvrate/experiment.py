"""Simulation experiment harness.

Four designs:

* ``coverage``  - simulate under a common rate, fit everything, and measure
  bias, RMSE and confidence-interval coverage of per-locus and pooled
  estimates against the simulated truth.
* ``type1``     - same generation, but the reported metric is how often the
  rate-variation test rejects at the 5% level when rates are equal.
* ``power``     - per-locus rates differ; the metric is the rejection rate.
* ``recovery``  - no genealogy at all: difference counts are drawn straight
  from the inference model's pmf with every pair its own group, so the
  estimator sees exactly the data-generating process it assumes. This is
  the oracle-equivalence check for the estimation stack.

Replicates are independent. ``run_experiment`` can split them across
forked worker processes (``parallel.fork_map``); each replicate draws from
its own derived Philox stream (``numerics.derived_rng``) and the outputs
are put back in replicate order, so a report, or the error a run ends in,
is the same for every worker count and every run. A replicate analyses its
dataset in one process, since the replicates already fill the workers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .convert import choice, confidence_level, config_loci, integer, non_negative, per_locus, read
from .errors import DataError, ModelError, NumericsError
from .import_dist import ImportDistribution, Provenance
from .joint_inference import JointFit, joint_fit, variation_test
from .locus_estimator import CompositeLikelihood, LocusFit, fit_all_loci
from .numerics import SeedDomain, derived_rng, derived_seed
from .pair_likelihood import PairModel, pmf as model_pmf
from .parallel import fork_map
from .pipeline import AnalysisOptions, analysis_from, analyze_dataset
from .simulate import SimConfig, config_seed, geometric_mean, sim_config_from, simulate
from .slv import SlvPartition


@dataclass(frozen=True)
class MetricValue:
    value: float
    mc_stderr: float


@dataclass(frozen=True)
class SimDesign:
    kind: str                                   # coverage | type1 | power
    replicates: int
    sim: SimConfig                              # replicate r simulates sim at replicate=r
    analysis: AnalysisOptions = AnalysisOptions()


@dataclass(frozen=True)
class RecoveryDesign:
    replicates: int
    lam: float
    loci: tuple[tuple[str, int], ...]           # (name, length)
    import_means: tuple[float, ...]             # per-locus pmf means
    n_pairs: int
    seed: int = 0
    level: float = AnalysisOptions.level
    kind: ClassVar[str] = "recovery"


@dataclass(frozen=True)
class ExperimentReport:
    design: str
    replicates: int
    metrics: dict[str, MetricValue]
    rows: tuple[dict, ...]
    excluded_replicates: int
    failed_replicates: dict[str, int]   # error type -> replicates it ended


def _mean_metric(values: Sequence[float]) -> MetricValue:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return MetricValue(math.nan, math.nan)
    se = float(np.std(arr, ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else math.nan
    return MetricValue(float(arr.mean()), se)


def _rate_metric(hits: Sequence[bool]) -> MetricValue:
    arr = np.asarray(hits, dtype=float)
    if arr.size == 0:
        return MetricValue(math.nan, math.nan)
    p = float(arr.mean())
    return MetricValue(p, math.sqrt(max(p * (1.0 - p), 0.0) / arr.size))


def _rmse_metric(errors: Sequence[float]) -> MetricValue:
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        return MetricValue(math.nan, math.nan)
    sq = arr * arr
    rmse = math.sqrt(float(sq.mean()))
    if arr.size > 1 and rmse > 0.0:
        se = float(np.std(sq, ddof=1) / math.sqrt(sq.size)) / (2.0 * rmse)
    else:
        se = math.nan
    return MetricValue(rmse, se)


# the columns of a fit row, in the order replicates.tsv writes them
ROW_COLUMNS = ("replicate", "kind", "locus", "lam_true", "lam_hat", "ci_lo", "ci_hi",
               "covered", "gamma", "n_pairs", "boundary")


def _fit_rows(
    ridx: int,
    fits: Sequence[LocusFit],
    truth: Mapping[str, float],
    joint: JointFit | None,
    joint_truth: float,
    joint_pairs: int,
) -> list[dict]:
    """One row per locus fit, then the pooled fit's row when there is one.
    ``covered`` is left blank where the true rate is NaN (no common rate)."""
    entries = [("locus", fit.locus, truth[fit.locus], fit, fit.n_pairs) for fit in fits]
    if joint is not None:
        entries.append(("joint", "_all_", joint_truth, joint, joint_pairs))
    return [
        dict(zip(ROW_COLUMNS, (
            ridx, kind, locus, lam_true, fit.lam_hat, fit.ci_lower, fit.ci_upper,
            "" if math.isnan(lam_true) else int(fit.ci_lower <= lam_true <= fit.ci_upper),
            fit.gamma, n_pairs, int(fit.at_boundary),
        ), strict=True))
        for kind, locus, lam_true, fit, n_pairs in entries
    ]


def _run_sim_replicate(design: SimDesign, ridx: int) -> dict:
    sim = design.sim
    result = simulate(sim, replicate=ridx)
    opts = replace(design.analysis, seed=derived_seed(sim.seed, SeedDomain.ANALYSIS_SEED, ridx))
    analysis = analyze_dataset(result.dataset, opts)
    truth = {name: lam for (name, _), lam in zip(sim.loci, sim.lam)}
    n_slv = sum(cl.n_pairs for cl in analysis.likelihoods)
    common = sim.lam[0] if len(set(sim.lam)) == 1 else math.nan
    rows = _fit_rows(ridx, analysis.locus_fits, truth, analysis.joint, common, n_slv)
    return {
        "rows": rows,
        "p_value": analysis.variation.p_value if analysis.variation else math.nan,
        "n_sts": len(result.dataset.profile_arrays[0]),
        "n_slv": n_slv,
        "informative": analysis.joint is not None,
        "skipped_loci": len(analysis.skipped_loci),
    }


def geometric_pmf(m: int, mean: float) -> np.ndarray:
    """The geometric pmf of the given mean on 1..m, renormalised."""
    p = 1.0 / mean
    xs = np.arange(1, m + 1, dtype=float)
    raw = p * (1.0 - p) ** (xs - 1.0)
    return raw / raw.sum()


def _import_means(values, loci) -> tuple[float, ...]:
    """One geometric mean per locus, none so close to 1 that its pmf on the
    locus's 1..m underflows to a zero entry."""
    means = per_locus(geometric_mean, values, loci)
    for (name, m), mean in zip(loci, means):
        if not geometric_pmf(m, mean).all():
            raise ValueError(f"locus {name}: a mean of {mean:g} gives some of the sizes "
                             f"1..{m} a probability that underflows to 0")
    return means


def recovery_models(design: RecoveryDesign) -> list[PairModel]:
    """The exact models the recovery design both samples from and fits."""
    total = sum(m for _, m in design.loci)
    provenance = Provenance(p_a=1.0, draws=0, seed=design.seed, k=0)
    return [
        PairModel(m / total, ImportDistribution(name, m, geometric_pmf(m, mean), provenance))
        for (name, m), mean in zip(design.loci, design.import_means, strict=True)
    ]


def design_from(cfg: dict, seed_override: int | None) -> SimDesign | RecoveryDesign:
    """The one reader of an experiment config; a fault is a ConfigError naming its key."""
    kind = read(cfg, "design", choice("coverage", "type1", "power", "recovery"))
    replicates = read(cfg, "replicates", integer)
    if kind != "recovery":
        return SimDesign(kind, replicates, sim_config_from(cfg, seed_override),
                         read(cfg, "analysis", analysis_from, AnalysisOptions()))
    loci = read(cfg, "loci", config_loci)
    return RecoveryDesign(
        replicates=replicates,
        lam=read(cfg, "lambda", non_negative),
        loci=loci,
        import_means=read(cfg, "import_means", lambda values: _import_means(values, loci)),
        n_pairs=read(cfg, "n_pairs", integer),
        seed=config_seed(cfg, seed_override),
        level=read(cfg, "level", confidence_level, RecoveryDesign.level),
    )


def _singleton_partition(locus: str, xs: np.ndarray) -> SlvPartition:
    """Pair i is STs (2i+1, 2i+2), alone in group i."""
    index = np.arange(len(xs))
    return SlvPartition(
        locus,
        st_a=2 * index + 1,
        st_b=2 * index + 2,
        x=xs,
        group_id=index,
        group_size=np.full(len(xs), 2),
    )


def _run_recovery_replicate(design: RecoveryDesign, models: list[PairModel], ridx: int) -> dict:
    rng = derived_rng(design.seed, SeedDomain.RECOVERY, ridx)
    cls = []
    for model in models:
        probs = model_pmf(model, design.lam)
        xs = rng.choice(np.arange(1, model.q.m + 1), size=design.n_pairs, p=probs)
        cls.append(CompositeLikelihood(_singleton_partition(model.q.locus, xs), model))
    fits = fit_all_loci(cls, level=design.level, alpha_mode="common")
    joint = joint_fit(cls, fits, level=design.level)
    variation = variation_test(fits, joint)
    truth = {fit.locus: design.lam for fit in fits}
    rows = _fit_rows(ridx, fits, truth, joint, design.lam, design.n_pairs * len(models))
    return {"rows": rows, "p_value": variation.p_value, "informative": True}


def _collect(design_kind: str, level: float, replicate_outputs: list[dict]) -> ExperimentReport:
    """Aggregate the replicates that finished with a joint fit; an output
    holding an ``error`` is counted under its type and adds nothing else."""
    failed = Counter(type(out["error"]).__name__ for out in replicate_outputs if "error" in out)
    kept = [out for out in replicate_outputs if out.get("informative")]
    rows = [row for out in kept for row in out["rows"]]
    metrics: dict[str, MetricValue] = {}
    for kind, name in (("locus", "individual"), ("joint", "joint")):
        scored = [row for row in rows if row["kind"] == kind and not math.isnan(row["lam_true"])]
        errs = [row["lam_hat"] - row["lam_true"] for row in scored]
        metrics[f"{name}_bias"] = _mean_metric(errs)
        metrics[f"{name}_rmse"] = _rmse_metric(errs)
        metrics[f"{name}_coverage"] = _rate_metric([bool(row["covered"]) for row in scored])
    p_values = [out["p_value"] for out in kept if not math.isnan(out["p_value"])]
    if p_values:
        metrics["rejection_rate"] = _rate_metric([p < 1.0 - level for p in p_values])
    if kept and "n_sts" in kept[0]:  # simulation designs only
        for key, name in (("n_sts", "mean_sts"), ("n_slv", "mean_slvs"),
                          ("skipped_loci", "mean_skipped_loci")):
            metrics[name] = _mean_metric([out[key] for out in kept])
    return ExperimentReport(
        design=design_kind,
        replicates=len(replicate_outputs),
        metrics=metrics,
        rows=tuple(rows),
        excluded_replicates=len(replicate_outputs) - sum(failed.values()) - len(kept),
        failed_replicates=dict(failed),
    )


def run_experiment(design: SimDesign | RecoveryDesign, workers: int = 1) -> ExperimentReport:
    """Run all replicates and aggregate them.

    With ``workers`` > 1 (and ``os.fork`` available) ``parallel.fork_map``
    splits the replicates across ``workers - 1`` forked processes and this
    one. The report does not depend on ``workers``, and neither does the
    error raised.

    A replicate that raises a data, model or numerics error is counted
    under its error type and left out of the metrics; the others go on.
    When every replicate fails, replicate 0's error is raised. Any other
    exception ends the run: the one of the lowest-numbered replicate that
    raised one is raised, once every worker has stopped.
    """
    if isinstance(design, RecoveryDesign):
        models = recovery_models(design)
        run = lambda ridx: _run_recovery_replicate(design, models, ridx)
        level = design.level
    else:
        run = lambda ridx: _run_sim_replicate(design, ridx)
        level = design.analysis.level

    def replicate(ridx: int) -> dict:
        try:
            return run(ridx)
        except (DataError, ModelError, NumericsError) as err:
            return {"error": err}

    outputs = fork_map(replicate, design.replicates, workers)
    if all("error" in out for out in outputs):
        raise outputs[0]["error"]
    return _collect(design.kind, level, outputs)

