from __future__ import annotations

import dataclasses
import itertools
import logging
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slvrate import mlst_io, slv
from slvrate.errors import DataError, DuplicateVectorError, ZeroDifferencePairError

from helpers import (
    StProfile,
    allele,
    allele_records,
    build_from_records,
    locus_arrays,
    profile_records,
    random_lenient_dataset,
    reference_slv,
    usable_at,
    with_profiles,
)


def test_demo_dataset_matches_known_pairs(demo_dataset):
    asp = slv.extract_slv(demo_dataset, "aspA")
    gln = slv.extract_slv(demo_dataset, "glnA")
    glt = slv.extract_slv(demo_dataset, "gltA")

    assert asp.n_pairs == 0
    assert _rows(gln) == [(2, 3, 1)]
    assert _rows(glt) == [(4, 5, 5), (4, 6, 6), (5, 6, 1)]
    assert gln.w.tolist() == [1.0]
    assert glt.w.tolist() == [3 ** -0.5] * 3


def _rows(part):
    return list(zip(part.st_a.tolist(), part.st_b.tolist(), part.x.tolist()))


def _summary(part):
    """(number of groups, group sizes, total SLV pair count)."""
    return part.n_groups, tuple(part.group_size.tolist()), part.n_pairs


def test_partition_summary_demo(demo_dataset):
    glt = slv.extract_slv(demo_dataset, "gltA")
    assert _summary(glt) == (1, (3,), 3)
    asp = slv.extract_slv(demo_dataset, "aspA")
    assert _summary(asp) == (0, (), 0)


def _dataset_from_vectors(vectors, seqs_per_locus):
    """vectors: list of allele-id tuples; seqs_per_locus: locus -> {id: seq}."""
    loci = list(seqs_per_locus)
    profiles = [StProfile(i + 1, tuple(v)) for i, v in enumerate(vectors)]
    alleles = {
        locus: [mlst_io.AlleleSequence(locus, aid, seq) for aid, seq in ids.items()]
        for locus, ids in seqs_per_locus.items()
    }
    dataset, _ = build_from_records(profiles, alleles, mode="strict")
    return dataset


def test_all_unique_vectors_give_empty_partition():
    vectors = [(1, 1), (2, 2), (3, 3)]
    seqs = {
        "locA": {1: "AAAA", 2: "CCCC", 3: "GGGG"},
        "locB": {1: "AAAA", 2: "CCCC", 3: "GGGG"},
    }
    dataset = _dataset_from_vectors(vectors, seqs)
    for locus in ("locA", "locB"):
        part = slv.extract_slv(dataset, locus)
        assert part.n_pairs == 0 and part.n_groups == 0


def test_four_st_group_enumerates_six_pairs():
    # 4 STs identical at locB, four distinct alleles at locA
    vectors = [(1, 1), (2, 1), (3, 1), (4, 1)]
    seqs = {
        "locA": {1: "AAAA", 2: "CCCC", 3: "GGGG", 4: "TTTT"},
        "locB": {1: "AAAA"},
    }
    dataset = _dataset_from_vectors(vectors, seqs)
    part = slv.extract_slv(dataset, "locA")
    assert _summary(part) == (1, (4,), 6)
    expected_pairs = list(itertools.combinations([1, 2, 3, 4], 2))
    assert list(zip(part.st_a.tolist(), part.st_b.tolist())) == expected_pairs
    assert all(abs(w - 6 ** -0.5) < 1e-15 for w in part.w.tolist())


def test_pair_arrays_follow_the_pairs():
    # group 1 lost its only pair (lenient mode drops zero-difference pairs),
    # so the dense index skips it
    part = slv.SlvPartition(
        "l",
        st_a=[1, 1, 2, 6],
        st_b=[2, 3, 3, 7],
        x=[5, 6, 1, 4],
        group_id=[0, 0, 0, 2],
        group_size=[3, 2, 2],
    )
    assert part.x.dtype == np.int64
    assert part.x.tolist() == [5, 6, 1, 4]
    assert part.group_index.tolist() == [0, 0, 0, 1]
    assert (part.n_pairs, part.n_groups) == (4, 3)
    assert part.w.tolist() == [3 ** -0.5] * 3 + [1.0]


def test_pair_arrays_are_cached_and_read_only(demo_dataset):
    glt = slv.extract_slv(demo_dataset, "gltA")
    for name in ("st_a", "st_b", "x", "group_id", "group_size", "group_index", "w"):
        arr = getattr(glt, name)
        assert arr is getattr(glt, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_weights_for_small_groups():
    part = slv.SlvPartition("l", st_a=[1], st_b=[2], x=[3], group_id=[0], group_size=[2])
    assert part.w.tolist() == [1.0]
    assert abs(3 ** -0.5 - 0.5773502691896258) < 1e-15


def test_two_groups_pair_count():
    vectors = [(1, 1), (2, 1), (3, 1), (4, 2), (5, 2)]
    seqs = {
        "locA": {1: "AAAA", 2: "CCCC", 3: "GGGG", 4: "TTTT", 5: "ACGT"},
        "locB": {1: "AAAA", 2: "CCCC"},
    }
    dataset = _dataset_from_vectors(vectors, seqs)
    part = slv.extract_slv(dataset, "locA")
    n_groups, sizes, n_pairs = _summary(part)
    assert n_groups == 2 and sizes == (3, 2) and n_pairs == 3 + 1


def test_zero_difference_pair_strict_and_lenient():
    vectors = [(1, 1), (2, 1)]
    seqs = {"locA": {1: "AAAA", 2: "AAAA"}, "locB": {1: "CCCC"}}
    dataset = _dataset_from_vectors(vectors, seqs)
    with pytest.raises(ZeroDifferencePairError):
        slv.extract_slv(dataset, "locA", mode="strict")
    part = slv.extract_slv(dataset, "locA", mode="lenient")
    assert part.n_pairs == 0
    assert part.n_groups == 1


def test_sum_squared_weights_equals_group_count():
    vectors = [(1, 1), (2, 1), (3, 1), (4, 2), (5, 2), (6, 3), (7, 3), (8, 3), (9, 3)]
    seqs = {
        "locA": {i: base * 4 for i, base in zip(range(1, 10), "ACGTACGTA")},
        "locB": {1: "AAAA", 2: "CCCC", 3: "GGGG"},
    }
    # make locA alleles distinct
    seqs["locA"] = {
        1: "AAAA", 2: "CCCC", 3: "GGGG", 4: "TTTT", 5: "ACGT",
        6: "TGCA", 7: "AACC", 8: "GGTT", 9: "ATAT",
    }
    dataset = _dataset_from_vectors(vectors, seqs)
    part = slv.extract_slv(dataset, "locA")
    total = sum(w * w for w in part.w.tolist())
    assert abs(total - part.n_groups) < 1e-12


def _per_pair_columns(dataset, locus, mode):
    """x, dense group index and weight of every SLV pair, computed one pair
    at a time from the definitions."""
    focal = dataset.locus_index(locus)
    usable = sorted(
        (p for p in profile_records(dataset) if usable_at(dataset, locus, p.st_id)),
        key=lambda p: p.st_id,
    )

    def rest(prof):
        return prof.alleles[:focal] + prof.alleles[focal + 1 :]

    groups = []  # in order of smallest member
    for prof in usable:
        members = [q for q in usable if rest(q) == rest(prof)]
        if len(members) >= 2 and members[0] is prof:
            groups.append(members)
    xs, gids, ws = [], [], []
    for gid, members in enumerate(groups):
        n = len(members)
        for a, b in itertools.combinations(members, 2):
            x = mlst_io.hamming(
                allele(dataset, locus, a.alleles[focal]), allele(dataset, locus, b.alleles[focal])
            )
            if x == 0 and mode == "lenient":
                continue
            xs.append(x)
            gids.append(gid)
            ws.append((n * (n - 1) // 2) ** -0.5)
    dense = [sorted(set(gids)).index(g) for g in gids]
    return np.array(xs, dtype=np.int64), np.array(dense, dtype=np.int64), np.array(ws)


def _lenient_dataset():
    # locA: allele 3 repeats allele 2's sequence, 6 repeats 5's, 4 carries an
    # ambiguous base; ST 8 names a missing allele and is left out at locA
    seqs = {
        "locA": {1: "AAAAAAAA", 2: "AAAAAAAC", 3: "AAAAAAAC", 4: "NAAAAACC",
                 5: "CCCCAAAA", 6: "CCCCAAAA"},
        "locB": {1: "AAAA", 2: "CCCC", 3: "GGGG"},
    }
    vectors = [(1, 1), (2, 1), (3, 1), (4, 1), (5, 2), (6, 2), (1, 3), (99, 3), (5, 3)]
    profiles = [StProfile(i + 1, v) for i, v in enumerate(vectors)]
    alleles = {
        locus: [mlst_io.AlleleSequence(locus, aid, seq) for aid, seq in ids.items()]
        for locus, ids in seqs.items()
    }
    dataset, repairs = build_from_records(profiles, alleles, mode="lenient")
    assert repairs
    return dataset


def test_columns_match_per_pair_reference(demo_dataset):
    lenient = _lenient_dataset()
    cases = [(demo_dataset, locus, "strict") for locus in demo_dataset.locus_names]
    cases += [(lenient, locus, "lenient") for locus in lenient.locus_names]
    for dataset, locus, mode in cases:
        part = slv.extract_slv(dataset, locus, mode=mode)
        x, group_index, w = _per_pair_columns(dataset, locus, mode)
        assert np.array_equal(part.x, x)
        assert np.array_equal(part.group_index, group_index)
        assert np.array_equal(part.w, w)
    # the lenient locus keeps 6 of 8 pairs: two zero-difference pairs go,
    # and with them the whole (5, 6) group, which the dense index skips
    part = slv.extract_slv(lenient, "locA", mode="lenient")
    assert _rows(part) == [(1, 2, 1), (1, 3, 1), (1, 4, 2), (2, 4, 1), (3, 4, 1), (7, 9, 4)]
    assert part.group_id.tolist() == [0] * 5 + [2]
    assert part.group_index.tolist() == [0] * 5 + [1]


def _random_dataset(rng: random.Random):
    n_loci = rng.randint(2, 4)
    loci = [f"loc{i}" for i in range(n_loci)]
    n_alleles = rng.randint(1, 6)
    seq_len = rng.randint(3, 10)
    seqs = {}
    for locus in loci:
        ids = {}
        attempts = 0
        while len(ids) < n_alleles and attempts < 80:
            attempts += 1
            s = "".join(rng.choice("ACGT") for _ in range(seq_len))
            if s not in ids.values():
                ids[len(ids) + 1] = s
        seqs[locus] = ids
    vectors = set()
    target = rng.randint(2, 200)
    attempts = 0
    while len(vectors) < target and attempts < 2000:
        attempts += 1
        vectors.add(tuple(rng.randint(1, len(seqs[locus])) for locus in loci))
    if len(vectors) < 2:
        return None, None
    return _dataset_from_vectors(sorted(vectors), seqs), loci


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000_000))
def test_groups_match_bruteforce_slv_relation(seed):
    rng = random.Random(seed)
    dataset, loci = _random_dataset(rng)
    if dataset is None:
        return
    for locus in loci:
        focal = dataset.locus_index(locus)
        try:
            part = slv.extract_slv(dataset, locus)
        except ZeroDifferencePairError:
            continue  # random alleles may repeat sequences across ids
        # brute force: SLV iff identical everywhere except focal
        expected = set()
        for a, b in itertools.combinations(profile_records(dataset), 2):
            va = a.alleles[:focal] + a.alleles[focal + 1 :]
            vb = b.alleles[:focal] + b.alleles[focal + 1 :]
            if va == vb and a.alleles[focal] != b.alleles[focal]:
                expected.add((a.st_id, b.st_id))
        got = set(zip(part.st_a.tolist(), part.st_b.tolist()))
        assert got == expected
        # clique structure: a group of n members holds all n(n-1)/2 pairs,
        # every one an SLV pair, so its members are those of its pairs
        allele_of = {p.st_id: p.alleles[focal] for p in profile_records(dataset)}
        for gid, size in enumerate(part.group_size.tolist()):
            in_group = part.group_id == gid
            members = set(part.st_a[in_group].tolist()) | set(part.st_b[in_group].tolist())
            assert len(members) == size
            assert int(in_group.sum()) == size * (size - 1) // 2
            # focal alleles pairwise distinct within groups
            ids = [allele_of[m] for m in members]
            assert len(set(ids)) == len(ids)


def test_relabeling_invariance(demo_dataset):
    # relabel STs 1..6 -> 11..16 in reverse; partition identical up to labels
    mapping = {st: 17 - st for st in range(1, 7)}
    profiles = [
        StProfile(mapping[p.st_id], p.alleles) for p in profile_records(demo_dataset)
    ]
    alleles = {
        locus: list(allele_records(demo_dataset, locus).values())
        for locus in demo_dataset.locus_names
    }
    relabeled, _ = build_from_records(profiles, alleles, mode="strict")
    part = slv.extract_slv(relabeled, "gltA")
    original = slv.extract_slv(demo_dataset, "gltA")
    got = {(mapping[a], mapping[b], x) for a, b, x in _rows(original)}
    # canonical st_a < st_b ordering flips under the reversal
    got = {(min(a, b), max(a, b), x) for a, b, x in got}
    assert set(_rows(part)) == got


class _Messages(logging.Handler):
    """Collects the messages of the records the SLV module logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []
        self.logger = logging.getLogger(slv.__name__)

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        self.logger.addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        self.logger.removeHandler(self)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_extraction_matches_per_pair_reference(seed):
    dataset = random_lenient_dataset(np.random.default_rng(seed))
    assume(dataset is not None)
    for locus in dataset.locus_names:
        for mode in ("strict", "lenient"):
            warnings = []
            try:
                want = reference_slv(dataset, locus, mode, warnings)
            except DataError as err:
                with _Messages() as seen, pytest.raises(DataError) as got:
                    slv.extract_slv(dataset, locus, mode)
                assert (type(got.value), str(got.value)) == (type(err), str(err))
                assert seen == warnings
                continue
            with _Messages() as seen:
                part = slv.extract_slv(dataset, locus, mode)
            for name, column in want.items():
                assert np.array_equal(getattr(part, name), column), name
            assert seen == warnings


def test_typed_errors_keep_their_messages():
    seqs = {
        "locA": {1: "AAAA", 2: "AAAA", 3: "ACGT", 4: "ACGA"},
        "locB": {1: "CCCC", 2: "GGGG"},
    }
    dataset = _dataset_from_vectors([(1, 1), (2, 1), (3, 2), (4, 2)], seqs)
    zero = "locus locA: alleles 1 and 2 have distinct ids but identical sequences (STs 1, 2)"
    with pytest.raises(ZeroDifferencePairError) as err:
        slv.extract_slv(dataset, "locA", mode="strict")
    assert str(err.value) == zero
    with _Messages() as seen:
        part = slv.extract_slv(dataset, "locA", mode="lenient")
    assert seen == [f"{zero}; pair dropped"]
    assert _rows(part) == [(3, 4, 1)] and part.group_size.tolist() == [2, 2]
    # ST 5 repeats ST 3's allele vector: refused at every locus and in
    # either mode, before any pair
    twin = with_profiles(dataset, [*profile_records(dataset), StProfile(5, (3, 2))])
    for locus, mode in itertools.product(("locA", "locB"), ("strict", "lenient")):
        with _Messages() as seen, pytest.raises(DuplicateVectorError) as err:
            slv.extract_slv(twin, locus, mode=mode)
        assert str(err.value) == "ST 5 and ST 3 share an allele vector"
        assert seen == []
    # an ST whose focal allele is off-length (ST 4) or not held (ST 6) is
    # left out of the groups at that locus
    short = dataclasses.replace(
        dataset,
        allele_codes={**dataset.allele_codes, "locA": locus_arrays(
            {**allele_records(dataset, "locA"), 4: mlst_io.AlleleSequence("locA", 4, "ACG")}.values()
        )[0]},
    )
    stray = with_profiles(dataset, [*profile_records(dataset), StProfile(6, (9, 2))])
    for left_out, groups in ((short, [2]), (stray, [2, 2])):
        part = slv.extract_slv(left_out, "locA", mode="lenient")
        assert _rows(part) == ([] if left_out is short else [(3, 4, 1)])
        assert part.group_size.tolist() == groups
