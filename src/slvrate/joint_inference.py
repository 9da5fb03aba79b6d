"""Cross-locus inference: a common rate estimate and a test for variation.

Under independence across loci, the joint composite log-likelihood is the
sum of the per-locus ones; the common-rate estimate maximizes that sum
and its deviance is rescaled by the ratio of summed score variances to
summed informations.

The variation test compares the sum of per-locus maxima against the
constrained maximum. Its statistic is asymptotically a weighted sum of
independent chi-squared(1) variables; the weights are the eigenvalues of
H^-1 G built from two arrowhead matrices that encode per-locus
information under the "first locus free, others offsets" parameterization.
Mean-matching the weighted sum to a chi-squared with L-1 degrees of
freedom gives the reported p-value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ModelError,
    NonPositiveInfoError,
    SingularMatrixError,
    SingularInfoError,
    TooFewLociError,
)
from .locus_estimator import CompositeLikelihood, LocusFit, deviance_ci
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    chi2_sf,
    gen_eigen_spd,
    invert,
    lam_to_t,
    maximize_scalar,
    t_to_lam,
)


@dataclass(frozen=True)
class JointFit:
    lam_hat: float
    cl_max: float
    gamma: float
    ci_lower: float
    ci_upper: float
    n_loci: int
    at_boundary: bool


@dataclass(frozen=True)
class ArrowheadInfo:
    """Arrowhead matrix assembled from per-locus information values.

    Entry (0,0) is the total across loci; the first row/column and the
    remaining diagonal repeat the values of loci 2..L; everything else
    is zero.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise TooFewLociError(f"need at least 2 loci, got {len(self.values)}")
        if any(v <= 0.0 for v in self.values):
            raise NonPositiveInfoError(f"non-positive information among {self.values}")

    @property
    def dim(self) -> int:
        return len(self.values)

    def matrix(self) -> np.ndarray:
        vals = np.asarray(self.values, dtype=float)
        mat = np.zeros((self.dim, self.dim))
        mat[0, 0] = float(vals.sum())
        mat[0, 1:] = vals[1:]
        mat[1:, 0] = vals[1:]
        mat[np.arange(1, self.dim), np.arange(1, self.dim)] = vals[1:]
        return mat


def build_arrowhead(values: Sequence[float]) -> ArrowheadInfo:
    return ArrowheadInfo(values=tuple(float(v) for v in values))


class _SummedCl:
    """Adapter exposing the cross-locus sum with the per-locus interface."""

    locus = "joint"

    def __init__(self, cls: Sequence[CompositeLikelihood]):
        self._cls = list(cls)

    def loglik(self, lam: float) -> float:
        return sum(cl.loglik(lam) for cl in self._cls)


def joint_maximize(
    cls: Sequence[CompositeLikelihood], tol: Tolerances = DEFAULT_TOL
) -> tuple[float, float, bool]:
    """Maximize the summed composite log-likelihood; (lam_hat, value, boundary)."""
    if len(cls) < 2:
        raise TooFewLociError(f"joint fit needs >= 2 loci with data, got {len(cls)}")
    summed = _SummedCl(cls)
    t_max = lam_to_t(tol.lambda_max)
    res = maximize_scalar(lambda t: summed.loglik(t_to_lam(t)), 0.0, t_max, tol=tol.opt_t)
    return t_to_lam(res.argmax), res.value, res.at_boundary


def joint_fit(
    cls: Sequence[CompositeLikelihood],
    fits: Sequence[LocusFit],
    level: float = 0.95,
    tol: Tolerances = DEFAULT_TOL,
) -> JointFit:
    """Common-rate estimate with a deviance interval.

    gamma pools the per-locus information estimates:
    sum of J over sum of I.
    """
    if len(cls) != len(fits):
        raise ModelError("per-locus fits do not match likelihood objects")
    lam_hat, cl_max, at_boundary = joint_maximize(cls, tol)
    total_i = sum(f.info_i for f in fits)
    total_j = sum(f.info_j for f in fits)
    if total_i <= 0.0 or total_j <= 0.0:
        raise NonPositiveInfoError("pooled information is not positive")
    gamma = total_j / total_i
    lower, upper = deviance_ci(_SummedCl(cls), lam_hat, cl_max, gamma, level, tol)
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
    per_locus_lambda: tuple[float, ...]
    joint_lambda: float


def variation_test(
    cls: Sequence[CompositeLikelihood],
    fits: Sequence[LocusFit],
    joint: JointFit,
    tol: Tolerances = DEFAULT_TOL,
) -> VariationTestResult:
    """Likelihood-ratio test of a common rate across loci.

    ``joint`` is the ``joint_fit`` of the same loci; its constrained
    maximum is the null side of the test. Loci enter in the order given;
    callers should have excluded loci with no SLV pairs (they carry no
    information and would make the information matrices singular).
    """
    if len(cls) != len(fits):
        raise ModelError("per-locus fits do not match likelihood objects")
    n_loci = len(cls)
    if n_loci < 2:
        raise TooFewLociError(f"variation test needs >= 2 loci with data, got {n_loci}")
    sum_max = sum(f.cl_max for f in fits)
    lr_star = 2.0 * (sum_max - joint.cl_max)
    if lr_star < -tol.lr_negative_slack:
        raise ModelError(
            f"constrained maximum exceeds per-locus maxima by {-lr_star:.3g}; "
            "optimizer tolerances are inconsistent"
        )
    lr_star = max(lr_star, 0.0)

    i_phi = build_arrowhead([f.info_i for f in fits]).matrix()
    j_phi = build_arrowhead([f.info_j for f in fits]).matrix()
    try:
        h = invert(i_phi, tol)[1:, 1:]
        mid = i_phi @ invert(j_phi, tol) @ i_phi
        g = invert(mid, tol)[1:, 1:]
        nu1 = float(np.trace(invert(h, tol) @ g)) / (n_loci - 1)
        eta = gen_eigen_spd(g, h, tol)
    except SingularMatrixError as err:
        raise SingularInfoError(f"information matrices are singular: {err}") from err
    lr = lr_star / nu1
    return VariationTestResult(
        lr_star=lr_star,
        nu1=nu1,
        lr=lr,
        df=n_loci - 1,
        p_value=chi2_sf(lr, n_loci - 1),
        eta=tuple(float(v) for v in eta),
        per_locus_lambda=tuple(f.lam_hat for f in fits),
        joint_lambda=joint.lam_hat,
    )
