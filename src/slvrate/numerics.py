"""Shared scalar numerics.

Everything estimation-critical funnels through here: the central
tolerances, the random streams and seeds derived from a user seed,
bounded scalar maximization, the chi-squared tail probabilities and the
chi-squared(1) quantile behind every deviance interval. Both have closed
forms: the tails are the regularized incomplete gamma function, which at
the half-integer shapes s = df/2 (the only ones supported) is a finite sum,
and the quantile is a squared normal quantile. The cross-locus test needs
no matrix kernel of its own: its weights have a closed form (see
``joint_inference``).

All functions are pure, with no global state, and each is checked against
an independent oracle (scipy or closed forms) in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import InvalidParamsError, NonFiniteError

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "SeedDomain",
    "derived_rng",
    "derived_seed",
    "OptResult",
    "maximize_scalar",
    "reg_inc_gamma",
    "reg_inc_gamma_upper",
    "chi2_sf",
    "chi2_quantile",
    "lam_to_t",
    "t_to_lam",
]


@dataclass(frozen=True)
class Tolerances:
    """The estimators' tolerances, fixed, not a per-call option: every
    module reads ``DEFAULT_TOL``."""

    opt_t: float = 1e-8          # maximizer bracket width on t = lam/(1+lam)
    ci_t: float = 1e-6           # CI endpoint tolerance on t (root-finder bracket)
    ci_w_slack: float = 1e-4     # allowed |W(endpoint) - threshold| at a CI bound
    lambda_max: float = 1e4      # search ceiling for lam
    alpha_cap: float = 1.0 - 1e-9
    lr_negative_slack: float = 1e-9


DEFAULT_TOL = Tolerances()


class SeedDomain(IntEnum):
    """Spawn-key domains: every random stream or seed derived from a user
    seed is SeedSequence(seed, spawn_key=(domain, index)), so streams of
    different domains never overlap and each index gets its own."""

    IMPORT_SEED = 3      # per-locus seed of the import-distribution sampler
    ANALYSIS_SEED = 5    # per-replicate analysis seed of a simulation experiment
    IMPORT_DRAWS = 7     # per-block stream of import-distribution draws
    SIMULATION = 11      # per-replicate stream of the simulator
    RECOVERY = 13        # per-replicate stream of the recovery design's draws


def derived_rng(seed: int, domain: SeedDomain, index: int) -> np.random.Generator:
    """Philox stream number ``index`` of ``domain`` under ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, index))
    return np.random.Generator(np.random.Philox(ss))


def derived_seed(seed: int, domain: SeedDomain, index: int) -> int:
    """Non-negative 63-bit seed number ``index`` of ``domain`` under ``seed``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(domain, index))
    state = ss.generate_state(2, dtype=np.uint64)
    return int(state[0] ^ (state[1] << 1)) & 0x7FFFFFFFFFFFFFFF

_INVPHI2 = 0.3819660112501051  # 2 - golden ratio
_MAX_ITER = 500                # iteration cap of maximize_scalar


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
) -> OptResult:
    """Maximize a unimodal-ish function on [lo, hi].

    Golden-section/parabolic hybrid (Brent). Exits once the bracketing
    interval is narrower than ``tol``, or after ``_MAX_ITER`` iterations.
    Never evaluates outside [lo, hi].
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
    while (b - a) > tol and n_iter < _MAX_ITER:
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


def reg_inc_gamma_upper(s: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(s, x) for s in {1/2, 1, 3/2, ...}.

    Integrating by parts down to s = 1/2 or 1 leaves a finite sum,

        Q(s, x) = [erfc(sqrt(x)) if 2s is odd] + sum_k e^-x x^k / Gamma(k+1)

    over k = s-1, s-2, ... down to 0 or 1/2. Every term is positive and is
    taken on the log scale, so small upper tails keep relative accuracy.
    These are the only shapes in use: chi-squared tails have s = df/2.
    """
    if not (s > 0.0 and (2.0 * s).is_integer()):
        raise InvalidParamsError(f"shape must be a positive multiple of 1/2, got {s}")
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    log_x = math.log(x)
    ks = (s - 1.0 - i for i in range(math.floor(s)))  # s-1, s-2, ..., 0 or 1/2
    terms = [math.exp(-x + k * log_x - math.lgamma(k + 1.0)) for k in ks]
    if s % 1.0:  # 2s is odd
        terms.append(math.erfc(math.sqrt(x)))
    return math.fsum(terms)


def reg_inc_gamma(s: float, x: float) -> float:
    """Lower regularized incomplete gamma P(s, x) = 1 - Q(s, x), for the
    shapes of ``reg_inc_gamma_upper``; absolute error <= 1e-12."""
    return 1.0 - reg_inc_gamma_upper(s, x)


def chi2_sf(x: float, df: float) -> float:
    return reg_inc_gamma_upper(0.5 * df, 0.5 * x)


def chi2_quantile(p: float, df: float) -> float:
    """Inverse chi-squared(1) CDF.

    A chi-squared(1) variable is the square of a standard normal, so its
    p-quantile is the square of the normal (1+p)/2-quantile. Only df = 1
    is supported: every deviance interval is one-dimensional.
    """
    if df != 1:
        raise InvalidParamsError(f"chi2_quantile supports df = 1 only, got {df}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return NormalDist().inv_cdf(0.5 * (1.0 + p)) ** 2
