from __future__ import annotations

import random

import pytest
from helpers import usable_at
from hypothesis import given, settings
from hypothesis import strategies as st

from slvrate import mlst_io
from slvrate.errors import (
    DuplicateAlleleError,
    DuplicateStError,
    EmptyFileError,
    LengthMismatchError,
    MalformedHeaderError,
    MissingColumnError,
    NonIntegerAlleleError,
    ReferentialIntegrityError,
    TooFewLociError,
)

SEVEN = ["aspA", "glnA", "gltA", "glyA", "pgm", "tkt", "uncA"]


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_parse_profiles_seven_loci(tmp_path):
    lines = ["ST\t" + "\t".join(SEVEN)]
    for st_id in range(1, 5):
        lines.append(f"{st_id}\t" + "\t".join(str(st_id + i) for i in range(7)))
    path = write(tmp_path, "profiles.tsv", "\n".join(lines) + "\n")
    profiles = mlst_io.parse_profiles(path, SEVEN)
    assert len(profiles) == 4
    assert all(len(p.alleles) == 7 for p in profiles)
    assert profiles[0].alleles == (1, 2, 3, 4, 5, 6, 7)


def test_parse_profiles_duplicate_st(tmp_path):
    path = write(tmp_path, "p.tsv", "ST\tlocA\tlocB\n17\t1\t2\n17\t3\t4\n")
    with pytest.raises(DuplicateStError):
        mlst_io.parse_profiles(path, ["locA", "locB"])


def test_parse_profiles_missing_column(tmp_path):
    path = write(tmp_path, "p.tsv", "ST\tlocA\n1\t1\n")
    with pytest.raises(MissingColumnError):
        mlst_io.parse_profiles(path, ["locA", "locB"])


def test_parse_profiles_non_integer(tmp_path):
    path = write(tmp_path, "p.tsv", "ST\tlocA\tlocB\n1\t1\tx\n")
    with pytest.raises(NonIntegerAlleleError):
        mlst_io.parse_profiles(path, ["locA", "locB"])


def test_parse_profiles_empty(tmp_path):
    path = write(tmp_path, "p.tsv", "\n")
    with pytest.raises(EmptyFileError):
        mlst_io.parse_profiles(path, ["locA"])
    path2 = write(tmp_path, "p2.tsv", "ST\tlocA\tlocB\n")
    with pytest.raises(EmptyFileError):
        mlst_io.parse_profiles(path2, ["locA", "locB"])


def test_parse_profiles_ignores_extra_columns(demo_dataset):
    # demo profiles.tsv carries a clonal_complex column that must be ignored
    assert len(demo_dataset.profiles) == 6
    assert len(demo_dataset.loci) == 3


def test_parse_fasta_concatenation(tmp_path):
    path = write(tmp_path, "a.fas", ">aspA_1\nACGT\nACGT\n")
    records = mlst_io.parse_allele_fasta(path, "aspA")
    assert len(records) == 1
    assert records[0].allele_id == 1
    assert records[0].sequence == "ACGTACGT"


def test_parse_fasta_duplicate(tmp_path):
    path = write(tmp_path, "a.fas", ">glnA_3\nACGT\n>glnA_3\nACGA\n")
    with pytest.raises(DuplicateAlleleError):
        mlst_io.parse_allele_fasta(path, "glnA")


def test_parse_fasta_bare_id_and_case(tmp_path):
    path = write(tmp_path, "a.fas", ">2\nacgt\n")
    records = mlst_io.parse_allele_fasta(path, "locX")
    assert records[0].allele_id == 2
    assert records[0].sequence == "ACGT"


def test_parse_fasta_malformed_header(tmp_path):
    path = write(tmp_path, "a.fas", ">aspA_one\nACGT\n")
    with pytest.raises(MalformedHeaderError):
        mlst_io.parse_allele_fasta(path, "aspA")


def _toy_inputs():
    profiles = [
        mlst_io.StProfile(1, (1, 1)),
        mlst_io.StProfile(2, (1, 2)),
    ]
    alleles = {
        "locA": [mlst_io.AlleleSequence("locA", 1, "ACGT")],
        "locB": [
            mlst_io.AlleleSequence("locB", 1, "AAAA"),
            mlst_io.AlleleSequence("locB", 2, "AAAT"),
        ],
    }
    return profiles, alleles


def test_build_dataset_referential_integrity():
    profiles, alleles = _toy_inputs()
    profiles[1] = mlst_io.StProfile(2, (99, 2))
    with pytest.raises(ReferentialIntegrityError):
        mlst_io.build_dataset(profiles, alleles, mode="strict")
    dataset, report = mlst_io.build_dataset(profiles, alleles, mode="lenient")
    assert report
    assert not usable_at(dataset, "locA", 2)
    assert usable_at(dataset, "locB", 2)


def test_build_dataset_too_few_loci():
    profiles, alleles = _toy_inputs()
    with pytest.raises(TooFewLociError):
        mlst_io.build_dataset(
            [mlst_io.StProfile(1, (1,)), mlst_io.StProfile(2, (2,))],
            {"locB": alleles["locB"]},
        )


def test_build_dataset_strict_rejects_off_length():
    profiles, alleles = _toy_inputs()
    alleles["locB"].append(mlst_io.AlleleSequence("locB", 3, "AAATTT"))
    with pytest.raises(LengthMismatchError):
        mlst_io.build_dataset(profiles, alleles, mode="strict")


def test_hamming_basics():
    a = mlst_io.AlleleSequence("loc", 1, "ACGT")
    b = mlst_io.AlleleSequence("loc", 2, "ACGA")
    c = mlst_io.AlleleSequence("loc", 3, "ACGT")
    assert mlst_io.hamming(a, a) == 0
    assert mlst_io.hamming(a, b) == 1
    assert mlst_io.hamming(a, c) == 0
    all_a = mlst_io.AlleleSequence("loc", 4, "AAAA")
    all_t = mlst_io.AlleleSequence("loc", 5, "TTTT")
    assert mlst_io.hamming(all_a, all_t) == 4


def test_hamming_length_mismatch():
    a = mlst_io.AlleleSequence("loc", 1, "ACGT")
    b = mlst_io.AlleleSequence("loc", 2, "ACGTA")
    with pytest.raises(LengthMismatchError):
        mlst_io.hamming(a, b)


def test_hamming_masks_ambiguity():
    a = mlst_io.AlleleSequence("loc", 1, "ANGT")
    b = mlst_io.AlleleSequence("loc", 2, "ACGA")
    # position 2 ignored (N), position 4 counts
    assert mlst_io.hamming(a, b) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 3_000_000))
def test_hamming_is_a_metric(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    seqs = ["".join(rng.choice("ACGT") for _ in range(n)) for _ in range(3)]
    a, b, c = (mlst_io.AlleleSequence("loc", i + 1, s) for i, s in enumerate(seqs))
    dab = mlst_io.hamming(a, b)
    dba = mlst_io.hamming(b, a)
    dac = mlst_io.hamming(a, c)
    dcb = mlst_io.hamming(c, b)
    assert dab >= 0
    assert dab == dba
    assert (dab == 0) == (seqs[0] == seqs[1])
    assert dab <= dac + dcb


def test_round_trip(tmp_path, demo_dataset):
    mlst_io.write_profiles(demo_dataset, tmp_path / "profiles.tsv")
    for locus in demo_dataset.locus_names:
        mlst_io.write_allele_fasta(demo_dataset, locus, tmp_path / f"{locus}.fas")
    profiles = mlst_io.parse_profiles(tmp_path / "profiles.tsv", demo_dataset.locus_names)
    alleles = {
        locus: mlst_io.parse_allele_fasta(tmp_path / f"{locus}.fas", locus)
        for locus in demo_dataset.locus_names
    }
    rebuilt, report = mlst_io.build_dataset(profiles, alleles, mode="strict")
    assert not report
    assert rebuilt.loci == demo_dataset.loci
    assert rebuilt.profiles == demo_dataset.profiles
    assert rebuilt.alleles == demo_dataset.alleles


def test_build_order_independent(demo_dataset):
    profiles = list(demo_dataset.profiles)
    rng = random.Random(5)
    rng.shuffle(profiles)
    alleles = {}
    for locus in reversed(demo_dataset.locus_names):
        # same locus key order must be preserved; records within may shuffle
        recs = [seq for (loc, _), seq in demo_dataset.alleles.items() if loc == locus]
        rng.shuffle(recs)
        alleles[locus] = recs
    alleles = {locus: alleles[locus] for locus in demo_dataset.locus_names}
    rebuilt, _ = mlst_io.build_dataset(profiles, alleles, mode="strict")
    assert rebuilt.profiles == demo_dataset.profiles
    assert rebuilt.alleles == demo_dataset.alleles
