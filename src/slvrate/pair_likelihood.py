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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRatioError, InvalidParamsError
from .import_dist import ImportDistribution, pairwise_diffs
from .mlst_io import MlstDataset

R_CAP = 0.9  # the model assumes many loci; a single locus carrying more
             # than 90% of the mutation rate is outside its remit


@dataclass(frozen=True)
class ThetaRatio:
    locus: str
    r: float
    method: str

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise DegenerateRatioError(f"rate share for {self.locus} is {self.r}, not in (0,1)")
        if self.r > R_CAP:
            raise DegenerateRatioError(
                f"rate share for {self.locus} is {self.r:.4f} > {R_CAP}; "
                "the SLV model needs the focal locus to be a small part of the genome sample"
            )


def theta_ratios(dataset: MlstDataset, method: str = "length") -> dict[str, ThetaRatio]:
    """Per-locus share of the total mutation rate.

    ``length`` divides by sequence length (mutation rate per base assumed
    constant); ``pairwise`` divides by mean pairwise differences at each
    locus.
    """
    if method == "length":
        weights = {meta.name: float(meta.length) for meta in dataset.loci}
    elif method == "pairwise":
        weights = {}
        for meta in dataset.loci:
            table = pairwise_diffs(dataset, meta.name)
            counts = np.bincount(table.allele_index, minlength=table.allele_dist.shape[0])
            total = float(counts @ table.allele_dist @ counts)  # ordered pairs, diagonal is 0
            k = table.k
            mean = total / (k * (k - 1))
            if mean <= 0.0:
                raise DegenerateRatioError(f"locus {meta.name} has zero mean pairwise differences")
            weights[meta.name] = mean
    else:
        raise InvalidParamsError(f"method must be length or pairwise, got {method!r}")
    denom = sum(weights.values())
    return {name: ThetaRatio(locus=name, r=w / denom, method=method) for name, w in weights.items()}


@dataclass(frozen=True)
class PairModel:
    locus: str
    r: float
    q: ImportDistribution
    m: int

    def __post_init__(self):
        if self.q.m != self.m:
            raise InvalidParamsError(
                f"import pmf supports 1..{self.q.m} but locus length is {self.m}"
            )
        if not 0.0 < self.r < 1.0:
            raise DegenerateRatioError(f"r={self.r} out of (0,1)")

    @classmethod
    def from_parts(cls, ratio: ThetaRatio, q: ImportDistribution) -> "PairModel":
        return cls(locus=ratio.locus, r=ratio.r, q=q, m=q.m)


def mixture_coeff(r: float, lam: float) -> float:
    """c(lam): weight on the import distribution; 0 at lam=0, nondecreasing."""
    return r / (1.0 - r) - r / (1.0 + lam - r)


def mixture_coeff_deriv(r: float, lam: float) -> float:
    return r / (1.0 + lam - r) ** 2


def unnormalized_mass(model: PairModel, lam: float, x: int) -> float:
    """f(lam, x) in linear space; fine for moderate x, tests and display."""
    _check_lam(lam)
    _check_x(model, x)
    return (model.r / (1.0 + lam)) ** x + mixture_coeff(model.r, lam) * model.q.q[x - 1]


def _check_lam(lam: float) -> None:
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise InvalidParamsError(f"lam must be finite and >= 0, got {lam}")


def _check_x(model: PairModel, x: int) -> None:
    if not 1 <= x <= model.m:
        raise InvalidParamsError(f"x must be in 1..{model.m}, got {x}")


def _log_mutation_term(model: PairModel, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """x = 1..m as floats and log (r / (1+lam))^x."""
    xs = np.arange(1, model.m + 1, dtype=float)
    return xs, xs * (math.log(model.r) - math.log1p(lam))


def log_mass_vector(model: PairModel, lam: float) -> np.ndarray:
    """log f(lam, x) for x = 1..m, stable for any magnitudes."""
    _check_lam(lam)
    _, log_mut = _log_mutation_term(model, lam)
    c = mixture_coeff(model.r, lam)
    if c <= 0.0:
        return log_mut
    log_rec = math.log(c) + np.log(model.q.q)
    return np.logaddexp(log_mut, log_rec)


def _log_normaliser(logf: np.ndarray) -> float:
    mx = float(np.max(logf))
    return mx + math.log(float(np.sum(np.exp(logf - mx))))


def log_pmf(model: PairModel, lam: float) -> np.ndarray:
    logf = log_mass_vector(model, lam)
    return logf - _log_normaliser(logf)


def pmf(model: PairModel, lam: float) -> np.ndarray:
    return np.exp(log_pmf(model, lam))


def loglik(model: PairModel, lam: float, x: int) -> float:
    _check_x(model, x)
    return float(log_pmf(model, lam)[x - 1])


def _mass_ratio_vector(model: PairModel, lam: float) -> np.ndarray:
    """f'(lam, x) / f(lam, x) for x = 1..m, computed without underflow.

    Both mixture terms are scaled by the larger one before dividing, so
    the ratio survives even when the mutation term has log-mass -3000.
    """
    xs, log_mut = _log_mutation_term(model, lam)
    c = mixture_coeff(model.r, lam)
    c_dash = mixture_coeff_deriv(model.r, lam)
    mut_slope = -xs / (1.0 + lam)  # d/dlam log of the mutation term
    if c <= 0.0:
        log_rec = np.full(model.m, -math.inf)
    else:
        log_rec = math.log(c) + np.log(model.q.q)
    top = np.maximum(log_mut, log_rec)
    wa = np.exp(log_mut - top)
    wb = np.exp(log_rec - top) if c > 0.0 else np.zeros(model.m)
    with np.errstate(over="ignore"):
        rec_num = np.exp(math.log(c_dash) + np.log(model.q.q) - top)
    return (mut_slope * wa + rec_num) / (wa + wb)


def score_vector(model: PairModel, lam: float) -> np.ndarray:
    """u(lam, x) for x = 1..m: per-x mass ratio centered by its pmf mean.

    The mean E[f'/f] is taken as sum_x f'(x) / Z on the log scale, Z being
    the normaliser of f. Weighting the ratios by the pmf instead fails at
    lam = 0, where the import term switches on against r^x: the ratio
    overflows to inf at large x while its pmf weight underflows to 0.
    """
    _check_lam(lam)
    ratios = _mass_ratio_vector(model, lam)
    log_z = _log_normaliser(log_mass_vector(model, lam))
    xs, log_mut = _log_mutation_term(model, lam)
    mut_mean = float(np.dot(-xs / (1.0 + lam), np.exp(log_mut - log_z)))
    rec_mean = mixture_coeff_deriv(model.r, lam) * float(np.sum(np.exp(np.log(model.q.q) - log_z)))
    return ratios - (mut_mean + rec_mean)


def score(model: PairModel, lam: float, x: int) -> float:
    _check_x(model, x)
    return float(score_vector(model, lam)[x - 1])
