"""Cross-locus inference: a common rate estimate and a test for variation.

Under independence across loci, the joint composite log-likelihood is the
sum of the per-locus ones; the common-rate estimate maximizes that sum
and its deviance is rescaled by the ratio of summed score variances to
summed informations.

The variation test compares the sum of per-locus maxima against the
constrained maximum. Under the null of a common rate its statistic is
asymptotically a weighted sum of L-1 independent chi-squared(1) variables,
the law of a likelihood-ratio test under a misspecified (composite)
likelihood (Varin, Reid & Firth, 2011, "An overview of composite
likelihood methods", Stat. Sinica). Each locus contributes a scalar
information I_l and score variance J_l, so the weights have a closed form:
they are the nonzero eigenvalues of diag(d) - z z^T with d_l = J_l / I_l
and z_l^2 = J_l / sum(I), and their mean is

    nu1 = (sum(J_l / I_l) - sum(J) / sum(I)) / (L - 1).

Dividing the statistic by nu1 and referring it to a chi-squared with L-1
degrees of freedom gives the reported p-value.

A diagonal matrix minus a rank-one term has its eigenvalues at the roots
of the secular equation 1 - sum_l z_l^2 / (d_l - mu) = 0, one in each gap
between the sorted d (Bunch, Nielsen & Sorensen, 1978, Numer. Math. 31).
With z_l^2 = d_l w_l and w_l = I_l / sum(I), its left side is
-mu * sum_l w_l / (d_l - mu): the zero root (eigenvector proportional to
I/sqrt(J)) factors out, and the weights are the roots of
sum_l w_l / (d_l - mu) = 0. They are found by bisection down to adjacent
floats, with no call to LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ModelError, NonFiniteError, NonPositiveInfoError, TooFewLociError
from .locus_estimator import CompositeLikelihood, LocusFit, deviance_ci
from .numerics import DEFAULT_TOL, chi2_sf, lam_to_t, maximize_scalar, t_to_lam


@dataclass(frozen=True)
class JointFit:
    lam_hat: float
    cl_max: float
    gamma: float
    ci_lower: float
    ci_upper: float
    n_loci: int
    at_boundary: bool


def joint_maximize(cls: Sequence[CompositeLikelihood]) -> tuple[float, float, bool]:
    """Maximize the summed composite log-likelihood; (lam_hat, value, boundary)."""
    if len(cls) < 2:
        raise TooFewLociError(f"joint fit needs >= 2 loci with data, got {len(cls)}")
    t_max = lam_to_t(DEFAULT_TOL.lambda_max)
    res = maximize_scalar(
        lambda t: sum(cl.loglik(t_to_lam(t)) for cl in cls), 0.0, t_max, tol=DEFAULT_TOL.opt_t
    )
    return t_to_lam(res.argmax), res.value, res.at_boundary


def joint_fit(
    cls: Sequence[CompositeLikelihood],
    fits: Sequence[LocusFit],
    level: float = 0.95,
) -> JointFit:
    """Common-rate estimate with a deviance interval.

    gamma pools the per-locus information estimates:
    sum of J over sum of I.
    """
    if len(cls) != len(fits):
        raise ModelError("per-locus fits do not match likelihood objects")
    lam_hat, cl_max, at_boundary = joint_maximize(cls)
    total_i = sum(f.info_i for f in fits)
    total_j = sum(f.info_j for f in fits)
    if total_i <= 0.0 or total_j <= 0.0:
        raise NonPositiveInfoError("pooled information is not positive")
    gamma = total_j / total_i
    lower, upper = deviance_ci(
        lambda lam: sum(cl.loglik(lam) for cl in cls), "joint", lam_hat, cl_max, gamma, level
    )
    return JointFit(
        lam_hat=lam_hat,
        cl_max=cl_max,
        gamma=gamma,
        ci_lower=lower,
        ci_upper=upper,
        n_loci=len(cls),
        at_boundary=at_boundary,
    )


@dataclass(frozen=True)
class VariationTestResult:
    lr_star: float
    nu1: float
    lr: float
    df: int
    p_value: float
    eta: tuple[float, ...]            # eigenvalue diagnostics


def variation_weights(
    info_i: Sequence[float], info_j: Sequence[float]
) -> tuple[float, np.ndarray]:
    """Weights of the variation test's chi-squared(1) mixture from per-locus I and J.

    Returns ``(nu1, eta)``: the L-1 weights ``eta`` in ascending order and
    their mean ``nu1``. The k-th weight is the root of g(mu) = sum(w / (d - mu))
    between the k-th and (k+1)-th smallest d, where g rises from -inf to
    +inf. All brackets are halved together until no midpoint lies strictly
    inside its bracket, so each weight is a float at which g changes sign;
    a tied pair of ratios is itself a weight and is returned exactly.
    """
    i_arr = np.asarray(info_i, dtype=float)
    j_arr = np.asarray(info_j, dtype=float)
    n_loci = i_arr.size
    if n_loci < 2:
        raise TooFewLociError(f"need at least 2 loci, got {n_loci}")
    if not (np.all(np.isfinite(i_arr)) and np.all(np.isfinite(j_arr))):
        raise NonFiniteError("per-locus information is not finite")
    bad = (i_arr <= 0.0) | (j_arr <= 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NonPositiveInfoError(
            f"non-positive information at locus {k}: I={i_arr[k]:.3g}, J={j_arr[k]:.3g}"
        )
    ratio = j_arr / i_arr
    total_i = float(i_arr.sum())
    nu1 = (float(ratio.sum()) - float(j_arr.sum()) / total_i) / (n_loci - 1)
    order = np.argsort(ratio)
    d, w = ratio[order], (i_arr / total_i)[order]
    lo, hi = d[:-1].copy(), d[1:].copy()
    while True:
        mid = 0.5 * (lo + hi)
        inside = np.flatnonzero((lo < mid) & (mid < hi))
        if inside.size == 0:
            return nu1, mid
        m = mid[inside]
        above = (w / (d - m[:, None])).sum(axis=1) < 0.0
        lo[inside[above]] = m[above]
        hi[inside[~above]] = m[~above]


def variation_test(fits: Sequence[LocusFit], joint: JointFit) -> VariationTestResult:
    """Likelihood-ratio test of a common rate across loci.

    ``joint`` is the ``joint_fit`` of the same loci; its constrained
    maximum is the null side of the test. Loci enter in the order given;
    callers should have excluded loci with no SLV pairs (they carry no
    information, which ``variation_weights`` rejects).
    """
    n_loci = len(fits)
    if n_loci < 2:
        raise TooFewLociError(f"variation test needs >= 2 loci with data, got {n_loci}")
    sum_max = sum(f.cl_max for f in fits)
    lr_star = 2.0 * (sum_max - joint.cl_max)
    if lr_star < -DEFAULT_TOL.lr_negative_slack:
        raise ModelError(
            f"constrained maximum exceeds per-locus maxima by {-lr_star:.3g}; "
            "optimizer tolerances are inconsistent"
        )
    lr_star = max(lr_star, 0.0)

    nu1, eta = variation_weights([f.info_i for f in fits], [f.info_j for f in fits])
    lr = lr_star / nu1
    return VariationTestResult(
        lr_star=lr_star,
        nu1=nu1,
        lr=lr,
        df=n_loci - 1,
        p_value=chi2_sf(lr, n_loci - 1),
        eta=tuple(float(v) for v in eta),
    )
