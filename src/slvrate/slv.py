"""Single-locus-variant extraction, dependence grouping and pair weights.

Two sequence types form an SLV pair at a focal locus when their allele ids
agree at every other locus but differ at the focal one. Agreement at all
non-focal loci is an equivalence relation, so the sequence types involved
in SLV pairs split into groups: within a group every pair is an SLV pair,
across groups none is. Groups are the dependence unit for downstream
variance estimation, and each pair in a group of n_g sequence types gets
weight {n_g(n_g-1)/2}^(-1/2).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, ZeroDifferencePairError
from .mlst_io import MlstDataset, hamming

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SlvPair:
    locus: str
    st_a: int
    st_b: int
    x: int          # nucleotide differences at the focal locus
    group_id: int


@dataclass(frozen=True)
class SlvGroup:
    locus: str
    group_id: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def pair_count(self) -> int:
        n = len(self.members)
        return n * (n - 1) // 2


@dataclass(frozen=True)
class SlvPartition:
    locus: str
    groups: tuple[SlvGroup, ...]
    pairs: tuple[SlvPair, ...]

    def weight(self, pair: SlvPair) -> float:
        return self.groups[pair.group_id].pair_count ** -0.5

    # Per-pair arrays, built once and read-only: the likelihood and the
    # group-level score model evaluate over these, never over the pair tuple.

    @cached_property
    def x(self) -> np.ndarray:
        """Focal-locus nucleotide differences, one per pair (int64)."""
        return _frozen(np.array([p.x for p in self.pairs], dtype=np.int64))

    @cached_property
    def group_index(self) -> np.ndarray:
        """Dense group index per pair: the rank of the pair's group among
        the groups that hold at least one pair, in group_id order."""
        ids = np.array([p.group_id for p in self.pairs], dtype=np.int64)
        return _frozen(np.unique(ids, return_inverse=True)[1].astype(np.int64))

    @cached_property
    def w(self) -> np.ndarray:
        """Pair weights {n_g(n_g-1)/2}^(-1/2), as ``weight`` gives them."""
        per_group = [g.pair_count ** -0.5 for g in self.groups]
        return _frozen(np.array([per_group[p.group_id] for p in self.pairs], dtype=float))

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(self.w.tolist())

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def n_groups(self) -> int:
        return len(self.groups)


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

    groups: list[SlvGroup] = []
    pairs: list[SlvPair] = []
    for gid, members in enumerate(member_lists):
        focal_ids = [allele_of[st] for st in members]
        if len(set(focal_ids)) != len(focal_ids):
            # same focal allele plus identical elsewhere would be one ST
            raise DataError(
                f"locus {locus}: sequence types {members} repeat a focal allele; "
                "allele vectors are not unique"
            )
        kept = []
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
                kept.append(SlvPair(locus=locus, st_a=st_a, st_b=st_b, x=x, group_id=gid))
        groups.append(SlvGroup(locus=locus, group_id=gid, members=tuple(members)))
        pairs.extend(kept)
    return SlvPartition(locus=locus, groups=tuple(groups), pairs=tuple(pairs))


def partition_summary(partition: SlvPartition) -> tuple[int, tuple[int, ...], int]:
    """(number of groups, group sizes, total SLV pair count)."""
    sizes = tuple(g.size for g in partition.groups)
    return len(partition.groups), sizes, len(partition.pairs)
