"""Single-locus-variant extraction, dependence grouping and pair weights.

Two sequence types form an SLV pair at a focal locus when their allele ids
agree at every other locus but differ at the focal one. Agreement at all
non-focal loci is an equivalence relation, so the sequence types involved
in SLV pairs split into groups: within a group every pair is an SLV pair,
across groups none is. Groups are the dependence unit for downstream
variance estimation, and each pair in a group of n_g sequence types gets
weight {n_g(n_g-1)/2}^(-1/2).

A partition is columnar: one read-only int64 array per pair field
(``st_a``, ``st_b``, ``x``, ``group_id``) and the member count of every
group (``group_size``). The likelihood, the score model and the
``extract`` table read these arrays; nothing holds per-pair objects.

Extraction is a few array passes over the dataset's (STs x loci)
allele-id matrix, with no loop over STs or pairs. Grouping reads the
dataset's exact rest labels (``MlstDataset.rest_labels``: one label per
ST and focal locus, equal exactly when the other loci agree), built once
per dataset in O(n L log n) for n STs and L loci; each locus then costs
one two-key ``lexsort`` (ST id the last key), O(n log n). The pairs of
all groups come from ``repeat``/``cumsum`` index arithmetic, and their
difference counts from one comparison of the two alleles' code rows
(``MlstDataset.allele_codes``), O(P m) for P pairs of m-base alleles.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ZeroDifferencePairError
from .mlst_io import MlstDataset, _frozen
from .mlst_io import hamming  # noqa: F401  (the benchmark tracer binds slv.hamming)

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class SlvPartition:
    """SLV pairs of one focal locus, as columns.

    Pairs are ordered by (group_id, st_a, st_b). ``group_id`` indexes
    ``group_size``; a group may hold no pair when lenient mode dropped
    its zero-difference pairs. Every array is copied to int64 and made
    read-only on construction.
    """

    locus: str
    st_a: np.ndarray          # (P,) smaller ST id of each pair
    st_b: np.ndarray          # (P,) larger ST id
    x: np.ndarray             # (P,) focal-locus nucleotide differences
    group_id: np.ndarray      # (P,) index into group_size
    group_size: np.ndarray    # (G,) member count of each group

    def __post_init__(self):
        for name in ("st_a", "st_b", "x", "group_id", "group_size"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=np.int64)))

    @property
    def n_pairs(self) -> int:
        return len(self.x)

    @property
    def n_groups(self) -> int:
        return len(self.group_size)

    @cached_property
    def group_index(self) -> np.ndarray:
        """Dense group index per pair: the rank of the pair's group among
        the groups that hold at least one pair, in group_id order."""
        return _frozen(np.unique(self.group_id, return_inverse=True)[1].astype(np.int64))

    @cached_property
    def w(self) -> np.ndarray:
        """Pair weights {n_g(n_g-1)/2}^(-1/2), one Python pow per group."""
        per_group = [(n * (n - 1) // 2) ** -0.5 for n in self.group_size.tolist()]
        return _frozen(np.array(per_group, dtype=float)[self.group_id])


# pairs whose focal alleles are compared per batch: bounds the (pairs, m)
# temporaries when one group is large
_PAIR_BATCH = 4096


def _groups(st_ids: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of every group of two or more rows with one label, group after
    group, and the group sizes. Groups are ordered by their smallest ST
    id, members by ascending ST id, whatever the row order."""
    order = np.lexsort((st_ids, labels))  # ST id last: a group is one run
    labels = labels[order]
    starts = np.flatnonzero(np.r_[True, labels[1:] != labels[:-1]])
    sizes = np.diff(np.r_[starts, len(order)])
    starts, sizes = starts[sizes >= 2], sizes[sizes >= 2]
    by_smallest = np.argsort(st_ids[order[starts]], kind="stable")
    starts, sizes = starts[by_smallest], sizes[by_smallest]
    rank = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return order[np.repeat(starts, sizes) + rank], sizes


def _pairs(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, group) of every within-group pair a < b of members laid out
    group after group: member r of a group of n pairs with the n - 1 - r
    members after it, so the pairs come out in (group, a, b) order."""
    rank = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    later = np.repeat(sizes, sizes) - 1 - rank
    a = np.repeat(np.arange(len(rank)), later)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
    return a, b, np.repeat(np.repeat(np.arange(len(sizes)), sizes), later)


def extract_slv(dataset: MlstDataset, locus: str, mode: str = "strict") -> SlvPartition:
    """Extract the SLV partition of a dataset at one focal locus.

    Grouping is by exact match of the allele-id vector at all non-focal
    loci (pubmlst semantics: allele ids are the curated identity).
    Nucleotide difference counts come from the focal-locus sequences.
    Sequence types without usable focal-locus data are left out
    (``MlstDataset.usable_mask``). A pair of distinct alleles with no
    difference raises ZeroDifferencePairError in strict mode; lenient mode
    logs a warning and drops it. Output ordering is deterministic: groups
    by ascending smallest member, pairs by (group_id, st_a, st_b).
    """
    focal = dataset.locus_index(locus)
    st_ids, alleles, _counts = dataset.profile_arrays
    usable = dataset.usable_mask(locus)
    st_ids, alleles = st_ids[usable], alleles[usable]
    members, sizes = _groups(st_ids, dataset.rest_labels[usable, focal])
    member_st, member_allele = st_ids[members], alleles[members, focal]
    a, b, gid = _pairs(sizes)
    st_a, st_b = member_st[a], member_st[b]
    allele_a, allele_b = member_allele[a], member_allele[b]

    # x as in mlst_io.hamming: mismatches at positions valid on both sides
    ids, _lengths, codes = dataset.allele_codes[locus]
    row = np.searchsorted(ids, member_allele)
    row_a, row_b = row[a], row[b]
    x = np.empty(len(a), dtype=np.int64)
    for lo in range(0, len(a), _PAIR_BATCH):
        ca, cb = codes[row_a[lo : lo + _PAIR_BATCH]], codes[row_b[lo : lo + _PAIR_BATCH]]
        x[lo : lo + _PAIR_BATCH] = np.count_nonzero((ca != cb) & (ca != 255) & (cb != 255), axis=1)

    zero = x == 0
    for i in np.flatnonzero(zero).tolist():
        message = (f"locus {locus}: alleles {allele_a[i]} and {allele_b[i]} "
                   f"have distinct ids but identical sequences (STs {st_a[i]}, {st_b[i]})")
        if mode == "strict":
            raise ZeroDifferencePairError(message)
        logger.warning("%s; pair dropped", message)
    return SlvPartition(
        locus=locus,
        st_a=st_a[~zero],
        st_b=st_b[~zero],
        x=x[~zero],
        group_id=gid[~zero],
        group_size=sizes,
    )
