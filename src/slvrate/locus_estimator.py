"""Per-locus estimation of the recombination-to-mutation rate ratio.

The estimator maximizes a weighted sum of per-pair log-likelihoods (a
composite likelihood) over the compact coordinate t = lam/(1+lam).
Because pairs within a dependence group share events, the usual
likelihood asymptotics are rescaled: with sigma^2 the per-pair score
variance and alpha the within-group score correlation, the expected
information is I = sigma^2 * sum w_i while the score variance is
J = sigma^2 * (G + alpha * sum_g (k_g - 1)). The deviance scaled by
gamma = J/I is asymptotically chi-squared(1), which gives confidence
intervals where the scaled deviance crosses the chi-squared quantile on
each side of the maximum. Each crossing is found by Brent's bracketed
root finder on the signed root of the deviance, to within ci_t/2 in t
and half the endpoint slack ci_w_slack in deviance.

alpha and sigma^2 come from a compound-symmetry Gaussian model of the
per-pair scores at the fitted maximum, maximized in closed form over
sigma^2 and numerically over alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .convert import checked, choice, confidence_level
from .errors import (
    AlphaUnidentifiableError,
    DegenerateScoresError,
    EmptyPartitionError,
    InvalidParamsError,
    ModelError,
    NonFiniteError,
    NonMonotoneDevianceError,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    chi2_quantile,
    lam_to_t,
    maximize_scalar,
    t_to_lam,
)
from .pair_likelihood import PairModel, log_pmf, score_vector
from .slv import SlvPartition

ALPHA_MODES = choice("common", "per-locus")


@dataclass(frozen=True)
class GroupedScores:
    """Per-pair scores with a dense group index.

    Every group in 0..G-1 holds at least one score. The per-group sums
    the compound-symmetry model needs (pair count k, score sum s1 and sum
    of squared scores s2) do not depend on alpha, so they are built once
    and cached.
    """

    u: np.ndarray
    group: np.ndarray

    @property
    def n(self) -> int:
        return len(self.u)

    @cached_property
    def k(self) -> np.ndarray:
        return np.bincount(self.group).astype(float)

    @cached_property
    def s1(self) -> np.ndarray:
        return np.bincount(self.group, weights=self.u)

    @cached_property
    def s2(self) -> np.ndarray:
        return np.bincount(self.group, weights=self.u * self.u)


@dataclass(frozen=True)
class CompositeLikelihood:
    """Per-pair log-likelihood of one locus, each pair weighted by its
    partition weight ``partition.w``. The partition and the model's import
    pmf must be of the same locus."""

    partition: SlvPartition
    model: PairModel

    def __post_init__(self):
        if self.partition.locus != self.model.q.locus:
            raise ModelError(
                f"partition of locus {self.partition.locus!r} paired with the import pmf "
                f"of locus {self.model.q.locus!r}"
            )
        xs = self.partition.x
        outside = np.flatnonzero((xs < 1) | (xs > self.model.q.m))
        if outside.size:
            raise InvalidParamsError(
                f"pair {self._pair_label(int(outside[0]))} has x={int(xs[outside[0]])} "
                f"outside 1..{self.model.q.m}"
            )
        index = xs - 1
        index.flags.writeable = False
        # built once here; every likelihood and score evaluation reads it
        object.__setattr__(self, "_index", index)

    def _pair_label(self, i: int) -> str:
        return f"({int(self.partition.st_a[i])},{int(self.partition.st_b[i])})"

    @property
    def locus(self) -> str:
        return self.partition.locus

    @property
    def n_pairs(self) -> int:
        return self.partition.n_pairs

    def loglik(self, lam: float) -> float:
        if self.n_pairs == 0:
            raise EmptyPartitionError(f"locus {self.locus} has no SLV pairs")
        logp = log_pmf(self.model, lam)
        return float(np.dot(self.partition.w, logp[self._index]))

    def scores_by_group(self, lam: float) -> GroupedScores:
        """Unweighted per-pair scores at lam, grouped by dependence group.

        Only groups that contribute at least one pair appear. A score beyond
        float range (at lam = 0, x near m) raises NonFiniteError naming the
        first such pair, instead of giving sigma^2 = inf downstream.
        """
        if self.n_pairs == 0:
            raise EmptyPartitionError(f"locus {self.locus} has no SLV pairs")
        u = score_vector(self.model, lam)[self._index]
        bad = np.flatnonzero(~np.isfinite(u))
        if bad.size:
            i = int(bad[0])
            raise NonFiniteError(
                f"locus {self.locus}: score at lam={lam!r} is {u[i]} for pair "
                f"{self._pair_label(i)} with x={int(self.partition.x[i])}"
            )
        return GroupedScores(u, self.partition.group_index)


def maximize(
    cl: CompositeLikelihood, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, float, bool]:
    """(lam_hat, maximized value, boundary flag). The package always
    passes DEFAULT_TOL; the benchmark's self-tests call ``maximize(cl, tol)``."""
    t_max = lam_to_t(tol.lambda_max)
    res = maximize_scalar(lambda t: cl.loglik(t_to_lam(t)), 0.0, t_max, tol=tol.opt_t)
    lam_hat = t_to_lam(res.argmax)
    return lam_hat, res.value, res.at_boundary


# -- compound-symmetry score model ---------------------------------------------


def _quad_form(g: GroupedScores, alpha: float) -> float:
    """sigma^2-free quadratic form of the compound-symmetry Gaussian."""
    a = 1.0 / (1.0 - alpha)
    b = -alpha / ((1.0 - alpha) * (1.0 + (g.k - 1.0) * alpha))
    return float(np.sum(a * g.s2 + b * g.s1 * g.s1))


def _log_det(g: GroupedScores, alpha: float) -> float:
    """Sum over groups of log det of the unit-variance correlation matrix."""
    return float(np.sum((g.k - 1.0) * math.log(1.0 - alpha) + np.log1p((g.k - 1.0) * alpha)))


def sigma2_given_alpha(g: GroupedScores, alpha: float) -> float:
    """Closed-form maximizer of the Gaussian likelihood in sigma^2."""
    q = _quad_form(g, alpha)
    if q <= 0.0:
        raise DegenerateScoresError("score quadratic form is not positive")
    return q / g.n


@dataclass(frozen=True)
class AlphaSigmaFit:
    alpha: float
    sigma2: float


def fit_alpha_sigma(g: GroupedScores) -> AlphaSigmaFit:
    """Maximize the compound-symmetry Gaussian likelihood over (alpha, sigma^2).

    sigma^2 is profiled out in closed form, leaving a 1-D bounded search
    over alpha in [0, 1). Deterministic for identical inputs.
    """
    n = g.n
    if n == 0 or float(g.k.max()) < 2:
        raise AlphaUnidentifiableError(
            "every group contributes a single pair; within-group correlation drops out"
        )
    if float(g.u.max()) == float(g.u.min()):
        raise DegenerateScoresError("all scores identical")

    def profile(alpha: float) -> float:
        # the Gaussian log-likelihood, additive constants dropped, at sigma^2 = q/n
        q = _quad_form(g, alpha)
        if q <= 0.0:
            return -math.inf  # not reachable for alpha in [0, 1), guards rounding
        return -0.5 * (n * (math.log(q / n) + 1.0) + _log_det(g, alpha))

    alpha = maximize_scalar(profile, 0.0, DEFAULT_TOL.alpha_cap, tol=1e-10).argmax
    return AlphaSigmaFit(alpha=alpha, sigma2=sigma2_given_alpha(g, alpha))


# -- information quantities ------------------------------------------------------


def godambe(
    partition: SlvPartition, alpha: float, sigma2: float
) -> tuple[float, float, float]:
    """(I, J, gamma): expected information, score variance, and their ratio.

    Computed from the pairs actually present; on a clean partition this
    is I = sigma^2 * sum_g sqrt(k_g) and
    J = sigma^2 * (G + alpha * sum_g (k_g - 1)) with k_g the per-group
    pair count. gamma does not depend on sigma^2.
    """
    if partition.n_pairs == 0:
        raise EmptyPartitionError(f"locus {partition.locus} has no SLV pairs")
    w, group = partition.w, partition.group_index
    sum_w = np.bincount(group, weights=w)
    sum_w2 = np.bincount(group, weights=w * w)
    i_unit = float(np.sum(sum_w))
    j_unit = float(np.sum(sum_w2 + alpha * (sum_w * sum_w - sum_w2)))
    return sigma2 * i_unit, sigma2 * j_unit, j_unit / i_unit


# -- confidence interval ----------------------------------------------------------


def _zeroin(f, a: float, b: float, xtol: float, accept) -> float:
    """Root of f in the bracket [a, b] by Brent's zeroin.

    f(a) and f(b) must have opposite signs. Each step is a secant or
    inverse quadratic interpolation when that lands well inside the
    bracket and shrinks it fast enough, and a bisection otherwise (Brent,
    1973, Algorithms for Minimization without Derivatives, ch. 4).
    Returns the bracket end with the smaller |f| once the bracket is at
    most ``xtol`` wide and ``accept`` holds there. While ``accept`` fails,
    the bracket keeps shrinking, down to adjacent floats.
    """
    fa, fb = f(a), f(b)
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half = 0.5 * (c - b)
        narrow = abs(c - b) <= xtol
        if fb == 0.0 or (narrow and accept(b)) or b + half in (b, c):
            return b
        # the shortest step; once the bracket is narrow, one float
        step_min = math.ulp(b) if narrow else 0.5 * xtol
        if abs(e) >= step_min and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(step_min * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > step_min else math.copysign(step_min, half)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    return b


def deviance_ci(
    loglik: Callable[[float], float],
    locus: str,
    lam_hat: float,
    cl_max: float,
    gamma: float,
    level: float = 0.95,
) -> tuple[float, float]:
    """Confidence interval from the scaled deviance of the objective
    ``loglik`` of lam: one locus's composite log-likelihood, or the sum
    over loci for the joint fit. ``locus`` labels the error messages.

    Each endpoint is the crossing of W(t) = (2/gamma)(cl_max - loglik(t))
    with the chi-squared quantile between t_hat and a search edge. It is
    found as the root of the signed-root deviance sqrt(W) - sqrt(quantile),
    which has the same sign as W - quantile but is close to linear in t,
    so Brent's interpolation needs few evaluations. Returns (lower, upper);
    the lower bound clamps to 0 and the upper is math.inf when the
    deviance never reaches the quantile before the search ceiling.
    """
    checked(InvalidParamsError, "level", confidence_level, level)
    threshold = chi2_quantile(level, 1)
    root_threshold = math.sqrt(threshold)
    t_max = lam_to_t(DEFAULT_TOL.lambda_max)
    t_hat = min(lam_to_t(lam_hat), t_max)
    # W per evaluated t: the edge checks below feed the root finder, and W is
    # 0 at t_hat by definition of cl_max, so that point is never evaluated
    memo = {t_hat: 0.0}

    def deviance(t: float) -> float:
        if t not in memo:
            memo[t] = (2.0 / gamma) * (cl_max - loglik(t_to_lam(t)))
        return memo[t]

    def excess(t: float) -> float:
        return deviance(t) - threshold

    def signed_root(t: float) -> float:
        return math.sqrt(max(deviance(t), 0.0)) - root_threshold

    def locate(side_lo: float, side_hi: float, side: str) -> float:
        # stop once the bracket around the returned end is at most ci_t/2
        # wide (so the end is within ci_t/2 of the crossing) AND the
        # deviance there is within half the endpoint slack; a steep deviance
        # needs refinement past ci_t to honor the second contract
        lo_val, hi_val = excess(side_lo), excess(side_hi)
        if lo_val == 0.0:
            return side_lo
        if hi_val == 0.0:
            return side_hi
        if (lo_val > 0.0) == (hi_val > 0.0):
            raise NonMonotoneDevianceError(
                f"locus {locus}: no deviance crossing on the {side} side "
                f"(t in [{side_lo:.6g}, {side_hi:.6g}], "
                f"excess {lo_val:.3g} and {hi_val:.3g})"
            )
        t = _zeroin(
            signed_root,
            side_lo,
            side_hi,
            xtol=0.5 * DEFAULT_TOL.ci_t,
            accept=lambda t: abs(excess(t)) <= 0.5 * DEFAULT_TOL.ci_w_slack,
        )
        off = abs(excess(t))
        if off > DEFAULT_TOL.ci_w_slack:
            raise NonMonotoneDevianceError(
                f"locus {locus}: {side} deviance crossing off by {off:.3g} "
                f"(> {DEFAULT_TOL.ci_w_slack}); deviance may be non-monotone"
            )
        return t

    if t_hat <= 0.0 or excess(0.0) <= 0.0:
        lower = 0.0
    else:
        lower = t_to_lam(locate(0.0, t_hat, "lower"))
    if t_hat >= t_max or excess(t_max) <= 0.0:
        upper = math.inf
    else:
        upper = t_to_lam(locate(t_hat, t_max, "upper"))
    return lower, upper


# -- per-locus fits --------------------------------------------------------------


@dataclass(frozen=True)
class LocusFit:
    locus: str
    lam_hat: float
    cl_max: float
    alpha: float
    sigma2: float
    info_i: float
    info_j: float
    gamma: float
    ci_lower: float
    ci_upper: float
    n_pairs: int
    n_groups: int
    at_boundary: bool
    alpha_source: str           # locus | common | fallback


def _at_locus(locus: str, fit, *args):
    """Call an (alpha, sigma^2) fit step; a degenerate-scores error names the locus."""
    try:
        return fit(*args)
    except DegenerateScoresError as err:
        raise DegenerateScoresError(f"locus {locus}: {err}") from err


def fit_all_loci(
    cls: Sequence[CompositeLikelihood],
    level: float = 0.95,
    alpha_mode: str = "common",
) -> list[LocusFit]:
    """Fit every locus, sharing the within-group correlation across loci.

    ``common`` averages the locus-specific correlation estimates and
    refits each locus with the average; ``per-locus`` keeps each locus's
    own estimate. Either way, a locus with no identifiable correlation
    (no group bigger than one pair) inherits the cross-locus average,
    or zero when no locus can estimate it.
    """
    checked(InvalidParamsError, "alpha_mode", ALPHA_MODES, alpha_mode)
    maxima: list[tuple[float, float, bool]] = []
    scores: list[GroupedScores] = []
    for cl in cls:
        maxima.append(maximize(cl))
        scores.append(cl.scores_by_group(maxima[-1][0]))
    own: list[AlphaSigmaFit | None] = []
    for cl, g in zip(cls, scores):
        try:
            own.append(_at_locus(cl.locus, fit_alpha_sigma, g))
        except AlphaUnidentifiableError:
            own.append(None)
    alphas = [fit.alpha for fit in own if fit is not None]
    common_alpha = sum(alphas) / len(alphas) if alphas else 0.0

    results: list[LocusFit] = []
    for cl, (lam_hat, cl_max, at_boundary), g, own_fit in zip(cls, maxima, scores, own):
        if alpha_mode == "per-locus" and own_fit is not None:
            alpha, sigma2, source = own_fit.alpha, own_fit.sigma2, "locus"
        else:
            alpha = common_alpha
            sigma2 = _at_locus(cl.locus, sigma2_given_alpha, g, alpha)
            source = "common" if own_fit is not None or alphas else "fallback"
        info_i, info_j, gamma = godambe(cl.partition, alpha, sigma2)
        lower, upper = deviance_ci(cl.loglik, cl.locus, lam_hat, cl_max, gamma, level)
        results.append(LocusFit(
            locus=cl.locus,
            lam_hat=lam_hat,
            cl_max=cl_max,
            alpha=alpha,
            sigma2=sigma2,
            info_i=info_i,
            info_j=info_j,
            gamma=gamma,
            ci_lower=lower,
            ci_upper=upper,
            n_pairs=cl.n_pairs,
            n_groups=cl.partition.n_groups,
            at_boundary=at_boundary,
            alpha_source=source,
        ))
    return results
