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
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, ZeroDifferencePairError
from .mlst_io import MlstDataset, hamming

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


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def extract_slv(dataset: MlstDataset, locus: str, mode: str = "strict") -> SlvPartition:
    """Extract the SLV partition of a dataset at one focal locus.

    Grouping is by exact match of the allele-id vector at all non-focal
    loci (pubmlst semantics: allele ids are the curated identity).
    Nucleotide difference counts come from the focal-locus sequences.
    Sequence types without usable focal-locus data are left out. Output
    ordering is deterministic: groups by ascending smallest member, pairs
    by (group_id, st_a, st_b).
    """
    focal = dataset.locus_index(locus)
    classes: dict[tuple[int, ...], list[int]] = {}
    for prof in dataset.profiles:
        if not dataset.usable_at(locus, prof.st_id):
            continue
        reduced = prof.alleles[:focal] + prof.alleles[focal + 1 :]
        classes.setdefault(reduced, []).append(prof.st_id)

    allele_of = {prof.st_id: prof.alleles[focal] for prof in dataset.profiles}
    member_lists = sorted(
        (sorted(sts) for sts in classes.values() if len(sts) >= 2),
        key=lambda sts: sts[0],
    )

    st_a_col: list[int] = []
    st_b_col: list[int] = []
    x_col: list[int] = []
    gid_col: list[int] = []
    for gid, members in enumerate(member_lists):
        focal_ids = [allele_of[st] for st in members]
        if len(set(focal_ids)) != len(focal_ids):
            # same focal allele plus identical elsewhere would be one ST
            raise DataError(
                f"locus {locus}: sequence types {members} repeat a focal allele; "
                "allele vectors are not unique"
            )
        for i, st_a in enumerate(members):
            for st_b in members[i + 1 :]:
                seq_a = dataset.allele(locus, allele_of[st_a])
                seq_b = dataset.allele(locus, allele_of[st_b])
                assert seq_a is not None and seq_b is not None
                x = hamming(seq_a, seq_b)
                if x == 0:
                    msg = (
                        f"locus {locus}: alleles {allele_of[st_a]} and {allele_of[st_b]} "
                        f"have distinct ids but identical sequences (STs {st_a}, {st_b})"
                    )
                    if mode == "strict":
                        raise ZeroDifferencePairError(msg)
                    logger.warning("%s; pair dropped", msg)
                    continue
                st_a_col.append(st_a)
                st_b_col.append(st_b)
                x_col.append(x)
                gid_col.append(gid)
    return SlvPartition(
        locus=locus,
        st_a=st_a_col,
        st_b=st_b_col,
        x=x_col,
        group_id=gid_col,
        group_size=[len(members) for members in member_lists],
    )
