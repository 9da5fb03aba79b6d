"""Conditional likelihood for the difference count of one SLV pair.

Given that two sequence types are an SLV pair at a locus, the probability
of seeing x nucleotide differences there is proportional to a two-part
mixture: a truncated-geometric term for histories where only mutation
acted, plus the import distribution q(x) weighted by a coefficient that
grows from zero with the relative recombination rate lam:

    f(lam, x) = (r / (1+lam))^x + c(lam) * q(x)
    c(lam)    = r/(1-r) - r/(1+lam-r)

where r is the locus's share of the total mutation rate. The pmf is the
normalization of f over x = 1..m (a locus of m bases cannot show more
than m differences; the tail beyond m is O(r^m) and dropped). All heavy
lifting happens on log scale so large x and large lam cannot underflow.

The score (d/d lam of the log pmf) is computed analytically; per-x
mass-ratio derivatives are combined through the pmf so the score
identity E[u] = 0 holds to rounding by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .convert import checked, choice
from .errors import DegenerateRatioError, InvalidParamsError, TooFewUnitsError
from .import_dist import ImportDistribution, pairwise_diffs
from .mlst_io import MlstDataset

THETA_METHODS = choice("length", "pairwise")
R_CAP = 0.9  # the model assumes many loci; a single locus carrying more
             # than 90% of the mutation rate is outside its remit


def theta_ratios(dataset: MlstDataset, method: str = "length") -> dict[str, float]:
    """Per-locus share of the total mutation rate.

    ``length`` divides by sequence length (mutation rate per base assumed
    constant); ``pairwise`` divides by mean pairwise differences at each
    locus, so it needs two usable units at every locus.
    """
    if checked(InvalidParamsError, "method", THETA_METHODS, method) == "length":
        weights = {meta.name: float(meta.length) for meta in dataset.loci}
    else:
        weights = {}
        for meta in dataset.loci:
            try:
                table = pairwise_diffs(dataset, meta.name)
            except TooFewUnitsError as err:
                raise TooFewUnitsError(f"pairwise theta ratio: {err} at every locus") from None
            counts = np.bincount(table.allele_index, minlength=table.allele_dist.shape[0])
            total = float(counts @ table.allele_dist @ counts)  # ordered pairs, diagonal is 0
            k = table.k
            mean = total / (k * (k - 1))
            if mean <= 0.0:
                raise DegenerateRatioError(f"locus {meta.name} has zero mean pairwise differences")
            weights[meta.name] = mean
    denom = sum(weights.values())
    ratios = {name: w / denom for name, w in weights.items()}
    for name, r in ratios.items():
        if r > R_CAP:
            raise DegenerateRatioError(
                f"rate share for {name} is {r:.4f} > {R_CAP}; "
                "the SLV model needs the focal locus to be a small part of the genome sample"
            )
    return ratios


@dataclass(frozen=True)
class PairModel:
    """The pair likelihood of one locus: its rate share r and its import
    pmf q, which also names the locus and its length m."""

    r: float
    q: ImportDistribution
    # constants of every evaluation, built once in __post_init__
    xs: np.ndarray = field(init=False, repr=False, compare=False)      # x = 1..m as floats
    log_r: float = field(init=False, repr=False, compare=False)
    log_q: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise DegenerateRatioError(f"rate share for {self.q.locus} is {self.r}, not in (0,1)")
        object.__setattr__(self, "xs", np.arange(1, self.q.m + 1, dtype=float))
        object.__setattr__(self, "log_r", math.log(self.r))
        object.__setattr__(self, "log_q", np.log(self.q.q))


def mixture_coeff(r: float, lam: float) -> float:
    """c(lam): weight on the import distribution; 0 at lam=0, nondecreasing."""
    return r / (1.0 - r) - r / (1.0 + lam - r)


def mixture_coeff_deriv(r: float, lam: float) -> float:
    return r / (1.0 + lam - r) ** 2


def _check_lam(lam: float) -> None:
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise InvalidParamsError(f"lam must be finite and >= 0, got {lam}")


def _check_x(model: PairModel, x: int) -> None:
    if not 1 <= x <= model.q.m:
        raise InvalidParamsError(f"x must be in 1..{model.q.m}, got {x}")


def _log_mutation_term(model: PairModel, lam: float) -> np.ndarray:
    """log (r / (1+lam))^x for x = 1..m."""
    return model.xs * (model.log_r - math.log1p(lam))


def log_mass_vector(model: PairModel, lam: float) -> np.ndarray:
    """log f(lam, x) for x = 1..m, stable for any magnitudes."""
    _check_lam(lam)
    log_mut = _log_mutation_term(model, lam)
    c = mixture_coeff(model.r, lam)
    if c <= 0.0:
        return log_mut
    return np.logaddexp(log_mut, math.log(c) + model.log_q)


def _log_normaliser(logf: np.ndarray) -> float:
    mx = float(logf.max())
    return mx + math.log(float(np.exp(logf - mx).sum()))


def log_pmf(model: PairModel, lam: float) -> np.ndarray:
    logf = log_mass_vector(model, lam)
    return logf - _log_normaliser(logf)


def pmf(model: PairModel, lam: float) -> np.ndarray:
    return np.exp(log_pmf(model, lam))


def score_vector(model: PairModel, lam: float) -> np.ndarray:
    """u(lam, x) for x = 1..m: the mass ratio f'/f centered by its pmf mean.

    Both mixture terms are scaled by the larger one before the ratio is
    taken, so it survives even when the mutation term has log-mass -3000.
    The mean E[f'/f] is taken as sum_x f'(x) / Z on the log scale, Z being
    the normaliser of f. Weighting the ratios by the pmf instead fails at
    lam = 0, where the import term switches on against r^x: the ratio
    overflows to inf at large x while its pmf weight underflows to 0.
    """
    _check_lam(lam)
    log_mut = _log_mutation_term(model, lam)
    c = mixture_coeff(model.r, lam)
    log_rec = math.log(c) + model.log_q if c > 0.0 else np.full(model.q.m, -math.inf)
    log_z = _log_normaliser(np.logaddexp(log_mut, log_rec))  # the one pass over log f
    top = np.maximum(log_mut, log_rec)
    wa = np.exp(log_mut - top)
    wb = np.exp(log_rec - top)
    c_dash = mixture_coeff_deriv(model.r, lam)
    with np.errstate(over="ignore"):
        rec_num = np.exp(math.log(c_dash) + model.log_q - top)
    mut_slope = -model.xs / (1.0 + lam)  # d/dlam log of the mutation term
    mut_mean = float(np.dot(mut_slope, np.exp(log_mut - log_z)))
    rec_mean = c_dash * float(np.sum(np.exp(model.log_q - log_z)))
    return (mut_slope * wa + rec_num) / (wa + wb) - (mut_mean + rec_mean)


def score(model: PairModel, lam: float, x: int) -> float:
    _check_x(model, x)
    return float(score_vector(model, lam)[x - 1])
