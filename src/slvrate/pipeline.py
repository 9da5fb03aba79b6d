"""End-to-end analysis of one dataset: SLV extraction, import-distribution
estimation, per-locus fits, the pooled fit and the rate-variation test.

Loci that yield no SLV pairs (or fewer than two sequence types with usable
data) carry no information about the rate ratio; they are skipped and
reported, and the cross-locus test runs on the remainder with its degrees
of freedom reduced accordingly.

The import distributions are estimated one locus at a time, each from its
own derived seed, so ``workers`` > 1 splits the loci across forked
processes (``parallel.fork_map``) with the same result, and the same first
error, as one process. The children read the dataset their parent built
whole (``MlstDataset``), so nothing is primed before the fork. The CLI's
analysis commands pass the usable cores; the default is one process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Mapping

from .convert import confidence_level, integer, json_object, non_negative_int, probability, read
from .errors import ConfigError, TooFewUnitsError
from .import_dist import (
    DEFAULT_DRAWS,
    DEFAULT_PA,
    WEIGHTINGS,
    ImportDistribution,
    estimate_import_dist,
    pairwise_diffs,
)
from .joint_inference import JointFit, VariationTestResult, joint_fit, variation_test
from .locus_estimator import ALPHA_MODES, CompositeLikelihood, LocusFit, fit_all_loci
from .mlst_io import MODES, MlstDataset
from .numerics import SeedDomain, derived_seed
from .pair_likelihood import THETA_METHODS, PairModel, theta_ratios
from .parallel import fork_map
from .slv import extract_slv


@dataclass(frozen=True)
class AnalysisOptions:
    """Analysis settings: the one home of their defaults and of the converter
    that reads each from its flag and its experiment ``analysis`` key."""

    p_a: float = field(default=DEFAULT_PA, metadata={"convert": probability})
    draws: int = field(default=DEFAULT_DRAWS, metadata={"convert": integer})
    seed: int = field(default=0, metadata={"convert": non_negative_int})
    weighting: str = field(default="by_st", metadata={"convert": WEIGHTINGS})
    theta_method: str = field(default="length", metadata={"convert": THETA_METHODS})
    alpha_mode: str = field(default="common", metadata={"convert": ALPHA_MODES})
    level: float = field(default=0.95, metadata={"convert": confidence_level})
    mode: str = field(default="strict", metadata={"convert": MODES})


def analysis_from(sub) -> AnalysisOptions:
    """The ``analysis`` block: each field read by its declared converter from
    its name (``pa`` for ``p_a``); no ``seed``, as each replicate derives one."""
    if "seed" in json_object(sub):
        raise ConfigError("seed: each replicate derives its analysis seed from the config's 'seed'")
    return AnalysisOptions(**{
        f.name: read(sub, "pa" if f.name == "p_a" else f.name, f.metadata["convert"], f.default)
        for f in fields(AnalysisOptions)
    })


@dataclass(frozen=True)
class AnalysisResult:
    locus_fits: tuple[LocusFit, ...]
    joint: JointFit | None
    variation: VariationTestResult | None
    skipped_loci: tuple[str, ...]
    likelihoods: tuple[CompositeLikelihood, ...]   # one per fitted locus


def locus_import_dist(
    dataset: MlstDataset, opts: AnalysisOptions, index: int
) -> ImportDistribution | None:
    """The import pmf of the locus at ``index`` in the dataset, from the
    seed derived for that index, so that it does not depend on which other
    loci are estimated; None when it has under two usable units."""
    meta = dataset.loci[index]
    try:
        table = pairwise_diffs(dataset, meta.name, weighting=opts.weighting)
    except TooFewUnitsError:
        return None
    return estimate_import_dist(
        table,
        m=meta.length,
        p_a=opts.p_a,
        draws=opts.draws,
        seed=derived_seed(opts.seed, SeedDomain.IMPORT_SEED, index),
    )


def build_import_dists(
    dataset: MlstDataset, opts: AnalysisOptions, workers: int = 1
) -> dict[str, ImportDistribution]:
    """Estimate the import pmf for every locus with at least two usable
    units, with the loci split across ``workers`` processes. When loci
    fail, the first failing locus's error is raised."""
    dists = fork_map(partial(locus_import_dist, dataset, opts), len(dataset.loci), workers)
    return {meta.name: dist for meta, dist in zip(dataset.loci, dists) if dist is not None}


def fit_loci(
    dataset: MlstDataset,
    opts: AnalysisOptions = AnalysisOptions(),
    dists: Mapping[str, ImportDistribution] | None = None,
    workers: int = 1,
) -> AnalysisResult:
    """Per-locus fits of the loci with SLV pairs; ``joint`` and ``variation``
    are left None. ``workers`` processes estimate the import pmfs when
    ``dists`` is None; given ``dists`` must hold every locus with pairs."""
    if dists is None:
        dists = build_import_dists(dataset, opts, workers)
    ratios = theta_ratios(dataset, opts.theta_method)
    cls: list[CompositeLikelihood] = []
    skipped: list[str] = []
    for meta in dataset.loci:
        partition = extract_slv(dataset, meta.name, mode=opts.mode)
        if partition.n_pairs == 0:
            skipped.append(meta.name)
        elif meta.name not in dists:
            raise ConfigError(f"dists: locus {meta.name!r} has {partition.n_pairs} SLV pair(s) "
                              "but no import distribution")
        else:
            cls.append(CompositeLikelihood(partition, PairModel(ratios[meta.name], dists[meta.name])))
    fits = fit_all_loci(cls, level=opts.level, alpha_mode=opts.alpha_mode)
    return AnalysisResult(
        locus_fits=tuple(fits),
        joint=None,
        variation=None,
        skipped_loci=tuple(skipped),
        likelihoods=tuple(cls),
    )


def analyze_dataset(
    dataset: MlstDataset,
    opts: AnalysisOptions = AnalysisOptions(),
    dists: Mapping[str, ImportDistribution] | None = None,
    workers: int = 1,
) -> AnalysisResult:
    """Per-locus fits, then the pooled fit and the variation test when at
    least two loci carry information."""
    result = fit_loci(dataset, opts, dists, workers)
    cls, fits = result.likelihoods, result.locus_fits
    if len(cls) < 2:
        return result
    joint = joint_fit(cls, fits, level=opts.level)
    return replace(result, joint=joint, variation=variation_test(fits, joint))
