"""Shared numeric kernels.

Everything estimation-critical funnels through here: bounded scalar
maximization, the regularized incomplete gamma function (chi-squared
CDF/quantile), small dense matrix inversion, and the symmetric-definite
eigenvalue reduction used by the cross-locus test.

All kernels are pure functions with no global state. numpy is used as the
array carrier only; the algorithms themselves are implemented here so that
accuracy and failure behavior are pinned by this module's tests rather
than by whatever LAPACK happens to be linked.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    NonFiniteError,
    NotSPDError,
    SingularMatrixError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "OptResult",
    "maximize_scalar",
    "reg_inc_gamma",
    "reg_inc_gamma_upper",
    "chi2_cdf",
    "chi2_sf",
    "chi2_quantile",
    "invert",
    "cholesky_lower",
    "jacobi_eigenvalues",
    "gen_eigen_spd",
    "lam_to_t",
    "t_to_lam",
]


@dataclass(frozen=True)
class Tolerances:
    """Central tolerance configuration; every module cites these defaults."""

    opt_t: float = 1e-8          # maximizer bracket width on t = lam/(1+lam)
    ci_t: float = 1e-6           # CI endpoint bisection tolerance on t
    ci_w_slack: float = 1e-4     # allowed |W(endpoint) - threshold| at a CI bound
    lambda_max: float = 1e4      # search ceiling for lam
    alpha_cap: float = 1.0 - 1e-9
    pivot_eps: float = 1e-12     # relative pivot threshold for inversion
    lr_negative_slack: float = 1e-9
    max_matrix_dim: int = 16


DEFAULT_TOL = Tolerances()

_INVPHI2 = 0.3819660112501051  # 2 - golden ratio


def lam_to_t(lam: float) -> float:
    """Map a rate ratio in [0, inf) to the compact coordinate t = lam/(1+lam)."""
    return lam / (1.0 + lam)


def t_to_lam(t: float) -> float:
    return t / (1.0 - t)


@dataclass(frozen=True)
class OptResult:
    argmax: float
    value: float
    iterations: int
    at_boundary: bool


def maximize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL.opt_t,
    max_iter: int = 500,
) -> OptResult:
    """Maximize a unimodal-ish function on [lo, hi].

    Golden-section/parabolic hybrid (Brent). Exits once the bracketing
    interval is narrower than ``tol``. Never evaluates outside [lo, hi].
    The endpoints are checked explicitly, so for a monotone function the
    boundary is returned with ``at_boundary`` set.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")

    def g(point: float) -> float:
        val = float(f(point))
        if not math.isfinite(val):
            raise NonFiniteError(f"objective is {val!r} at {point!r}")
        return -val

    a, b = float(lo), float(hi)
    x = w = v = a + _INVPHI2 * (b - a)
    gx = gw = gv = g(x)
    d = e = 0.0
    n_iter = 0
    while (b - a) > tol and n_iter < max_iter:
        n_iter += 1
        mid = 0.5 * (a + b)
        step_min = 0.25 * tol + 1e-15 * abs(x)
        take_golden = True
        if abs(e) > step_min:
            # parabola through (v, gv), (w, gw), (x, gx)
            r = (x - w) * (gx - gv)
            q = (x - v) * (gx - gw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if (u - a) < 2.0 * step_min or (b - u) < 2.0 * step_min:
                    d = step_min if x < mid else -step_min
                take_golden = False
        if take_golden:
            e = (b - x) if x < mid else (a - x)
            d = _INVPHI2 * e
        u = x + d if abs(d) >= step_min else x + (step_min if d > 0 else -step_min)
        u = min(max(u, a), b)
        gu = g(u)
        if gu <= gx:
            if u >= x:
                a = x
            else:
                b = x
            v, gv = w, gw
            w, gw = x, gx
            x, gx = u, gu
        else:
            if u < x:
                a = u
            else:
                b = u
            if gu <= gw or w == x:
                v, gv = w, gw
                w, gw = u, gu
            elif gu <= gv or v == x or v == w:
                v, gv = u, gu

    best_x, best_f = x, -gx
    for edge in (lo, hi):
        f_edge = -g(edge)
        if f_edge > best_f:
            best_x, best_f = edge, f_edge
    at_boundary = (best_x - lo) <= tol or (hi - best_x) <= tol
    return OptResult(argmax=best_x, value=best_f, iterations=n_iter, at_boundary=at_boundary)


# -- regularized incomplete gamma --------------------------------------------

_GAMMA_EPS = 1e-16
_GAMMA_ITMAX = 800
_FPMIN = 1e-300


def _gamma_series(s: float, x: float) -> float:
    """Lower regularized incomplete gamma P(s, x) via power series (x < s+1)."""
    term = 1.0 / s
    total = term
    denom = s
    for _ in range(_GAMMA_ITMAX):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _gamma_cf(s: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(s, x) via continued fraction (x >= s+1)."""
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return math.exp(-x + s * math.log(x) - math.lgamma(s)) * h


def reg_inc_gamma(s: float, x: float) -> float:
    """Lower regularized incomplete gamma P(s, x), absolute error <= 1e-12."""
    if s <= 0.0:
        raise ValueError(f"shape must be positive, got {s}")
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _gamma_series(s, x)
    return 1.0 - _gamma_cf(s, x)


def reg_inc_gamma_upper(s: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(s, x) = 1 - P(s, x).

    Computed by the continued fraction directly for x >= s+1, so small
    upper-tail values keep relative accuracy.
    """
    if s <= 0.0:
        raise ValueError(f"shape must be positive, got {s}")
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_series(s, x)
    return _gamma_cf(s, x)


def chi2_cdf(x: float, df: float) -> float:
    return reg_inc_gamma(0.5 * df, 0.5 * x)


def chi2_sf(x: float, df: float) -> float:
    return reg_inc_gamma_upper(0.5 * df, 0.5 * x)


@functools.lru_cache(maxsize=64)
def chi2_quantile(p: float, df: float) -> float:
    """Inverse chi-squared CDF by bisection on the incomplete gamma.

    Cached: every confidence interval asks for the same few thresholds.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    hi = df + 10.0
    while chi2_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:
            raise NonFiniteError("chi2_quantile failed to bracket")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * (1.0 + hi):
            break
    return 0.5 * (lo + hi)


# -- small dense matrices -----------------------------------------------------


def _as_square(mat: np.ndarray, max_dim: int) -> np.ndarray:
    a = np.array(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] > max_dim:
        raise ValueError(f"dimension {a.shape[0]} exceeds supported maximum {max_dim}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix has non-finite entries")
    return a


def invert(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Invert a small dense matrix by Gauss-Jordan with partial pivoting.

    Raises SingularMatrixError when the best available pivot falls below
    ``tol.pivot_eps`` relative to the matrix scale.
    """
    a = _as_square(mat, tol.max_matrix_dim)
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    aug = np.hstack([a, np.eye(n)])
    for col in range(n):
        piv = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[piv, col]) <= tol.pivot_eps * scale:
            raise SingularMatrixError(f"pivot {aug[piv, col]:.3e} below threshold at column {col}")
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def cholesky_lower(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Lower-triangular Cholesky factor; raises NotSPDError if not SPD."""
    a = _as_square(mat, tol.max_matrix_dim)
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > 1e-8 * scale:
        raise NotSPDError("matrix is not symmetric")
    low = np.zeros_like(a)
    for i in range(n):
        for j in range(i + 1):
            acc = a[i, j] - float(np.dot(low[i, :j], low[j, :j]))
            if i == j:
                if acc <= tol.pivot_eps * scale:
                    raise NotSPDError(f"non-positive pivot {acc:.3e} at index {i}")
                low[i, j] = math.sqrt(acc)
            else:
                low[i, j] = acc / low[j, j]
    return low


def jacobi_eigenvalues(mat: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi sweeps, ascending."""
    a = _as_square(mat, tol.max_matrix_dim)
    n = a.shape[0]
    a = 0.5 * (a + a.T)
    if n == 1:
        return a[0, :1].copy()
    for _ in range(100):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2)))
        if off <= 1e-14 * max(1.0, float(np.max(np.abs(np.diag(a))))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                a = 0.5 * (a + a.T)
    return np.sort(np.diag(a))


def _solve_lower(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve low @ x = rhs for lower-triangular low (rhs may be a matrix)."""
    n = low.shape[0]
    x = np.array(rhs, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    out = np.zeros_like(x)
    for i in range(n):
        out[i] = (x[i] - low[i, :i] @ out[:i]) / low[i, i]
    return out


def gen_eigen_spd(g: np.ndarray, h: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of H^-1 G for symmetric G and SPD H, ascending.

    Uses triangular whitening: with H = L L^T the eigenvalues of H^-1 G
    equal those of the symmetric matrix L^-1 G L^-T.
    """
    g_arr = _as_square(g, tol.max_matrix_dim)
    h_arr = _as_square(h, tol.max_matrix_dim)
    if g_arr.shape != h_arr.shape:
        raise ValueError("G and H must have matching shapes")
    low = cholesky_lower(h_arr, tol)
    half = _solve_lower(low, g_arr)          # L^-1 G
    white = _solve_lower(low, half.T).T      # (L^-1 (L^-1 G)^T)^T = L^-1 G L^-T
    return jacobi_eigenvalues(0.5 * (white + white.T), tol)
