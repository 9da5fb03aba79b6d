"""Shared fabrication helpers and per-pair oracles for the tests."""

from __future__ import annotations

import itertools
import math

import numpy as np

from slvrate import pair_likelihood as pl
from slvrate.errors import InvalidParamsError
from slvrate.import_dist import ImportDistribution, PairwiseDiffTable, Provenance
from slvrate.slv import SlvPartition


def make_q(values, locus="loc"):
    q = np.asarray(values, dtype=float)
    q = q / q.sum()
    return ImportDistribution(locus=locus, m=len(q), q=q, provenance=Provenance(0.8, 1, 0, 1))


def make_model(r, qvals, locus="loc"):
    q = make_q(qvals, locus)
    return pl.PairModel(locus=locus, r=r, q=q, m=q.m)


def random_q(m, seed):
    rng = np.random.default_rng(seed)
    return make_q(rng.random(m) + 0.01)


def partition_from_groups(locus, groups):
    """Partition from per-group (member count, pair x list) entries; the
    pairs are the first member combinations in lexicographic order, so a
    group may keep fewer than all of its pairs."""
    st = 1
    cols = {"st_a": [], "st_b": [], "x": [], "group_id": []}
    for gid, (n, xs) in enumerate(groups):
        members = range(st, st + n)
        st += n
        for (a, b), x in zip(itertools.combinations(members, 2), xs):
            cols["st_a"].append(a)
            cols["st_b"].append(b)
            cols["x"].append(int(x))
            cols["group_id"].append(gid)
    return SlvPartition(locus, group_size=[n for n, _ in groups], **cols)


def make_partition(locus, groups_x):
    """Fabricate a partition from per-group pair x lists (pair order =
    lexicographic member combinations)."""
    groups = []
    for xs in groups_x:
        k = len(xs)
        n = round((1 + math.sqrt(1 + 8 * k)) / 2)
        assert n * (n - 1) // 2 == k, f"{k} pairs is not a full clique"
        groups.append((n, xs))
    return partition_from_groups(locus, groups)


def singleton_partition(locus, xs):
    return make_partition(locus, [[x] for x in xs])


# -- per-pair oracles ------------------------------------------------------------


def unnormalized_mass(model, lam, x):
    """f(lam, x) in linear space; fine for moderate x."""
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise InvalidParamsError(f"lam must be finite and >= 0, got {lam}")
    if not 1 <= x <= model.m:
        raise InvalidParamsError(f"x must be in 1..{model.m}, got {x}")
    return (model.r / (1.0 + lam)) ** x + pl.mixture_coeff(model.r, lam) * model.q.q[x - 1]


def loglik(model, lam, x):
    """Log pmf of one pair's difference count."""
    if not 1 <= x <= model.m:
        raise InvalidParamsError(f"x must be in 1..{model.m}, got {x}")
    return float(pl.log_pmf(model, lam)[x - 1])


def diff_matrix(table: PairwiseDiffTable) -> np.ndarray:
    """The dense K x K difference table of a factored one."""
    idx = table.allele_index
    return table.allele_dist[np.ix_(idx, idx)]


def table_from_matrix(locus, units, x) -> PairwiseDiffTable:
    """A table whose units are all distinct alleles with distances ``x``."""
    x = np.asarray(x, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] != len(units):
        raise InvalidParamsError("difference matrix shape does not match units")
    if np.any(x != x.T) or np.any(np.diag(x) != 0) or np.any(x < 0):
        raise InvalidParamsError("difference matrix must be symmetric with zero diagonal")
    return PairwiseDiffTable(
        locus=locus, units=tuple(units), allele_index=np.arange(len(units)), allele_dist=x
    )
