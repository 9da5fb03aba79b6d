from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slvrate import mlst_io, slv
from slvrate.errors import ZeroDifferencePairError


def test_demo_dataset_matches_known_pairs(demo_dataset):
    asp = slv.extract_slv(demo_dataset, "aspA")
    gln = slv.extract_slv(demo_dataset, "glnA")
    glt = slv.extract_slv(demo_dataset, "gltA")

    assert asp.pairs == ()
    assert [(p.st_a, p.st_b, p.x) for p in gln.pairs] == [(2, 3, 1)]
    assert [(p.st_a, p.st_b, p.x) for p in glt.pairs] == [(4, 5, 5), (4, 6, 6), (5, 6, 1)]
    assert gln.weights == (1.0,)
    assert glt.weights == (3 ** -0.5,) * 3


def test_partition_summary_demo(demo_dataset):
    glt = slv.extract_slv(demo_dataset, "gltA")
    assert slv.partition_summary(glt) == (1, (3,), 3)
    asp = slv.extract_slv(demo_dataset, "aspA")
    assert slv.partition_summary(asp) == (0, (), 0)


def _dataset_from_vectors(vectors, seqs_per_locus):
    """vectors: list of allele-id tuples; seqs_per_locus: locus -> {id: seq}."""
    loci = list(seqs_per_locus)
    profiles = [mlst_io.StProfile(i + 1, tuple(v)) for i, v in enumerate(vectors)]
    alleles = {
        locus: [mlst_io.AlleleSequence(locus, aid, seq) for aid, seq in ids.items()]
        for locus, ids in seqs_per_locus.items()
    }
    dataset, _ = mlst_io.build_dataset(profiles, alleles, mode="strict")
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
        assert part.pairs == () and part.groups == ()


def test_four_st_group_enumerates_six_pairs():
    # 4 STs identical at locB, four distinct alleles at locA
    vectors = [(1, 1), (2, 1), (3, 1), (4, 1)]
    seqs = {
        "locA": {1: "AAAA", 2: "CCCC", 3: "GGGG", 4: "TTTT"},
        "locB": {1: "AAAA"},
    }
    dataset = _dataset_from_vectors(vectors, seqs)
    part = slv.extract_slv(dataset, "locA")
    assert slv.partition_summary(part) == (1, (4,), 6)
    expected_pairs = list(itertools.combinations([1, 2, 3, 4], 2))
    assert [(p.st_a, p.st_b) for p in part.pairs] == expected_pairs
    assert all(abs(w - 6 ** -0.5) < 1e-15 for w in part.weights)


def test_pair_arrays_follow_the_pairs():
    # group 1 lost its only pair (lenient mode drops zero-difference pairs),
    # so the dense index skips it
    groups = (
        slv.SlvGroup("l", 0, (1, 2, 3)),
        slv.SlvGroup("l", 1, (4, 5)),
        slv.SlvGroup("l", 2, (6, 7)),
    )
    pairs = (
        slv.SlvPair("l", 1, 2, 5, 0),
        slv.SlvPair("l", 1, 3, 6, 0),
        slv.SlvPair("l", 2, 3, 1, 0),
        slv.SlvPair("l", 6, 7, 4, 2),
    )
    part = slv.SlvPartition("l", groups, pairs)
    assert part.x.dtype == np.int64
    assert part.x.tolist() == [5, 6, 1, 4]
    assert part.group_index.tolist() == [0, 0, 0, 1]
    assert part.w.tolist() == [part.weight(p) for p in pairs]
    assert part.weights == (3 ** -0.5,) * 3 + (1.0,)


def test_pair_arrays_are_cached_and_read_only(demo_dataset):
    glt = slv.extract_slv(demo_dataset, "gltA")
    for name in ("x", "group_index", "w"):
        arr = getattr(glt, name)
        assert arr is getattr(glt, name)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_weights_for_small_groups():
    assert slv.SlvGroup("l", 0, (1, 2)).pair_count == 1
    assert abs(3 ** -0.5 - 0.5773502691896258) < 1e-15


def test_two_groups_pair_count():
    vectors = [(1, 1), (2, 1), (3, 1), (4, 2), (5, 2)]
    seqs = {
        "locA": {1: "AAAA", 2: "CCCC", 3: "GGGG", 4: "TTTT", 5: "ACGT"},
        "locB": {1: "AAAA", 2: "CCCC"},
    }
    dataset = _dataset_from_vectors(vectors, seqs)
    part = slv.extract_slv(dataset, "locA")
    n_groups, sizes, n_pairs = slv.partition_summary(part)
    assert n_groups == 2 and sizes == (3, 2) and n_pairs == 3 + 1


def test_zero_difference_pair_strict_and_lenient():
    vectors = [(1, 1), (2, 1)]
    seqs = {"locA": {1: "AAAA", 2: "AAAA"}, "locB": {1: "CCCC"}}
    dataset = _dataset_from_vectors(vectors, seqs)
    with pytest.raises(ZeroDifferencePairError):
        slv.extract_slv(dataset, "locA", mode="strict")
    part = slv.extract_slv(dataset, "locA", mode="lenient")
    assert part.pairs == ()
    assert len(part.groups) == 1


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
    total = sum(w * w for w in part.weights)
    assert abs(total - part.n_groups) < 1e-12


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
        for a, b in itertools.combinations(dataset.profiles, 2):
            va = a.alleles[:focal] + a.alleles[focal + 1 :]
            vb = b.alleles[:focal] + b.alleles[focal + 1 :]
            if va == vb and a.alleles[focal] != b.alleles[focal]:
                expected.add((a.st_id, b.st_id))
        got = {(p.st_a, p.st_b) for p in part.pairs}
        assert got == expected
        # clique structure: every in-group pair is an SLV pair
        for g in part.groups:
            for st_a, st_b in itertools.combinations(g.members, 2):
                assert (st_a, st_b) in expected
        # focal alleles pairwise distinct within groups
        allele_of = {p.st_id: p.alleles[focal] for p in dataset.profiles}
        for g in part.groups:
            ids = [allele_of[m] for m in g.members]
            assert len(set(ids)) == len(ids)


def test_relabeling_invariance(demo_dataset):
    # relabel STs 1..6 -> 11..16 in reverse; partition identical up to labels
    mapping = {st: 17 - st for st in range(1, 7)}
    profiles = [
        mlst_io.StProfile(mapping[p.st_id], p.alleles) for p in demo_dataset.profiles
    ]
    alleles = {
        locus: [seq for (loc, _), seq in demo_dataset.alleles.items() if loc == locus]
        for locus in demo_dataset.locus_names
    }
    relabeled, _ = mlst_io.build_dataset(profiles, alleles, mode="strict")
    part = slv.extract_slv(relabeled, "gltA")
    original = slv.extract_slv(demo_dataset, "gltA")
    got = {(mapping[p.st_a], mapping[p.st_b], p.x) for p in original.pairs}
    # canonical st_a < st_b ordering flips under the reversal
    got = {(min(a, b), max(a, b), x) for a, b, x in got}
    assert {(p.st_a, p.st_b, p.x) for p in part.pairs} == got
