from __future__ import annotations

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from helpers import (
    allele_records,
    build_from_records,
    dataset_summary,
    StProfile,
    locus_arrays,
    profile_arrays,
    profile_records,
    random_inputs,
    reference_build_dataset,
    reference_parse_allele_fasta,
    reference_parse_profiles,
    same_alleles,
    usable_at,
    with_profiles,
)
from hypothesis import event, given, settings
from hypothesis import strategies as st

from slvrate import mlst_io
from slvrate import simulate as sim
from slvrate.errors import (
    DataError,
    DuplicateAlleleError,
    DuplicateStError,
    EmptyFileError,
    LengthMismatchError,
    MalformedHeaderError,
    MissingColumnError,
    NonIntegerAlleleError,
    ParseError,
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
    st_ids, alleles, counts = mlst_io.parse_profiles(path, SEVEN)
    assert st_ids.tolist() == [1, 2, 3, 4] and counts.tolist() == [1] * 4
    assert alleles.shape == (4, 7) and alleles.dtype == np.int64
    assert alleles[0].tolist() == [1, 2, 3, 4, 5, 6, 7]


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


def test_a_file_that_is_not_utf8_is_rejected_before_its_rows_are_checked(tmp_path):
    # line 3 repeats ST 1, but the file is not UTF-8: that is the fault named
    rows = "".join(f"{st_id}\t1\t1\n" for st_id in range(1, 3000))
    path = tmp_path / "p.tsv"
    path.write_bytes(b"ST\tlocA\tlocB\n1\t1\t1\n" + rows.encode() + b"\xff\n")
    with pytest.raises(ParseError) as info:
        mlst_io.parse_profiles(path, ["locA", "locB"])
    assert str(info.value) == f"not UTF-8 text (invalid start byte) [{path}]"


def test_parse_profiles_ignores_extra_columns(demo_dataset):
    # demo profiles.tsv carries a clonal_complex column that must be ignored
    assert len(profile_records(demo_dataset)) == 6
    assert len(demo_dataset.loci) == 3


def test_parse_fasta_concatenation(tmp_path):
    path = write(tmp_path, "a.fas", ">aspA_1\nACGT\nACGT\n")
    (ids, lengths, codes), ambiguous = mlst_io.parse_allele_fasta(path)
    assert ids.tolist() == [1] and lengths.tolist() == [8]
    assert mlst_io.decode_sequence(codes[0]) == "ACGTACGT"
    assert ambiguous == {}


def test_parse_fasta_duplicate(tmp_path):
    path = write(tmp_path, "a.fas", ">glnA_3\nACGT\n>glnA_3\nACGA\n")
    with pytest.raises(DuplicateAlleleError):
        mlst_io.parse_allele_fasta(path)


def test_parse_fasta_bare_id_and_case(tmp_path):
    path = write(tmp_path, "a.fas", ">2\nacgt\n>1\nAcgN\n")
    (ids, lengths, codes), ambiguous = mlst_io.parse_allele_fasta(path)
    assert ids.tolist() == [1, 2]
    assert [mlst_io.decode_sequence(row) for row in codes] == ["ACGN", "ACGT"]
    assert ambiguous == {1: ["N"]}


def test_parse_fasta_malformed_header(tmp_path):
    path = write(tmp_path, "a.fas", ">aspA_one\nACGT\n")
    with pytest.raises(MalformedHeaderError):
        mlst_io.parse_allele_fasta(path)


def _toy_inputs():
    profiles = [
        StProfile(1, (1, 1)),
        StProfile(2, (1, 2)),
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
    profiles[1] = StProfile(2, (99, 2))
    with pytest.raises(ReferentialIntegrityError):
        build_from_records(profiles, alleles, mode="strict")
    dataset, repairs = build_from_records(profiles, alleles, mode="lenient")
    assert repairs
    assert not usable_at(dataset, "locA", 2)
    assert usable_at(dataset, "locB", 2)


def test_build_dataset_too_few_loci():
    profiles, alleles = _toy_inputs()
    with pytest.raises(TooFewLociError):
        build_from_records(
            [StProfile(1, (1,)), StProfile(2, (2,))],
            {"locB": alleles["locB"]},
        )


def test_build_dataset_strict_rejects_off_length():
    profiles, alleles = _toy_inputs()
    alleles["locB"].append(mlst_io.AlleleSequence("locB", 3, "AAATTT"))
    with pytest.raises(LengthMismatchError):
        build_from_records(profiles, alleles, mode="strict")


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
    (tmp_path / "profiles.tsv").write_text(mlst_io.profiles_text(demo_dataset))
    for locus in demo_dataset.locus_names:
        (tmp_path / f"{locus}.fas").write_text(mlst_io.allele_fasta_text(demo_dataset, locus))
    profiles = mlst_io.parse_profiles(tmp_path / "profiles.tsv", demo_dataset.locus_names)
    alleles = {
        locus: mlst_io.parse_allele_fasta(tmp_path / f"{locus}.fas")
        for locus in demo_dataset.locus_names
    }
    rebuilt, repairs = mlst_io.build_dataset(profiles, alleles, mode="strict")
    assert repairs == ()
    assert rebuilt.loci == demo_dataset.loci
    assert profile_records(rebuilt) == profile_records(demo_dataset)
    assert same_alleles(rebuilt, demo_dataset)


def test_build_order_independent(demo_dataset):
    profiles = list(profile_records(demo_dataset))
    rng = random.Random(5)
    rng.shuffle(profiles)
    alleles = {}
    for locus in reversed(demo_dataset.locus_names):
        # same locus key order must be preserved; records within may shuffle
        recs = list(allele_records(demo_dataset, locus).values())
        rng.shuffle(recs)
        alleles[locus] = recs
    alleles = {locus: alleles[locus] for locus in demo_dataset.locus_names}
    rebuilt, _ = build_from_records(profiles, alleles, mode="strict")
    assert profile_records(rebuilt) == profile_records(demo_dataset)
    assert same_alleles(rebuilt, demo_dataset)


# -- parsers of whole files against the line-by-line references ------------------

_NEWLINES = ["\n", "\r\n", "\r"]
_BLANKS = ["", " ", "\t", "  \t", "\x0c", "　"]


def _bytes(rng, lines) -> bytes:
    """The lines joined with one line end, or a mix of all three, maybe
    without a final line end and maybe with bytes that are not UTF-8."""
    mixed = rng.random() < 0.3
    newline = rng.choice(_NEWLINES)
    text = "".join(line + (rng.choice(_NEWLINES) if mixed else newline) for line in lines)
    if lines and rng.random() < 0.3:
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if rng.random() < 0.05:
        cut = rng.randrange(len(data) + 1)
        data = data[:cut] + rng.choice([b"\xff", b"\xe9\xff", b"\xc3"]) + data[cut:]
    return data


def _fasta_lines(rng) -> list[str]:
    clean = rng.random() < 0.5  # well-formed records with distinct ids, maybe blank space
    lines = []
    if not clean and rng.random() < 0.2:
        lines.append(rng.choice(["ACGT", "#comment", "  acgt"]))  # data before any header
    for aid in rng.sample(range(1, 9), rng.randrange(int(clean), 6)):
        pad = rng.choice(["", "", "", " ", "\t"])
        token = rng.choice(["aspA_{}", "{}", "x_y_{}", "aspA_{} descr", " aspA_{}\tmore"])
        if not clean and rng.random() < 0.3:
            token = rng.choice(["aspA_one", "", "aspA_-{}", "aspA_0", "{}",
                                "aspA_9223372036854775807", "aspA_9223372036854775808"])
            aid = rng.randrange(0, 4)
        lines.append(f"{pad}>{token.format(aid)}")
        for _ in range(rng.randrange(int(clean), 4)):
            kind = rng.random()
            if kind < 0.15:
                lines.append(rng.choice(_BLANKS))
            elif not clean and kind < 0.3:
                lines.append(rng.choice(["AC GT", "AC-GT", "ACG*", "AC1T", "#", "ACGT>AC"]))
            else:
                bases = "".join(rng.choices("ACGTACGTacgtNnßÉ", k=rng.randrange(1, 9)))
                pad, tail = rng.choice(["", "", " ", "\t"]), rng.choice(["", "", " ", "\x0b"])
                lines.append(pad + bases + tail)
    return lines


def _profile_lines(rng) -> tuple[list[str], list[str], str | None]:
    loci = ["locA", "locB"][: rng.randrange(1, 3)]
    count = rng.choice([None, None, "count"])
    header = ["ST", *loci] + ([count] if count else []) + ["clonal_complex"] * rng.randrange(0, 2)
    rng.shuffle(header)
    if rng.random() < 0.1:
        header.remove(rng.choice(header))  # a missing column
    lines = []
    for _ in range(rng.randrange(0, 3)):
        lines.append(rng.choice(_BLANKS + ["# comment", "  # indented"]))
    lines.append("\t".join(rng.choice(["{}", "{}", " {} "]).format(name) for name in header))
    clean = rng.random() < 0.5  # every cell well formed
    ragged = rng.random() < 0.3  # rows of more than one width
    st_ids = rng.sample(range(1, 40), rng.randrange(0, 7))
    if st_ids and rng.random() < 0.15:
        st_ids.insert(rng.randrange(len(st_ids) + 1), rng.choice(st_ids))  # a duplicate ST
    for st_id in st_ids:
        if not clean and rng.random() < 0.15:
            lines.append(rng.choice(_BLANKS + ["# comment", " #x"]))
        cells = []
        for name in header:
            value = str(st_id) if name == "ST" else str(rng.randrange(1, 6))
            if name == "clonal_complex":
                value = rng.choice(["CC1", "", "x y"])
            if not clean and rng.random() < 0.1:
                value = rng.choice(["0", "-2", "x", "", "3.0", " 4 ", "\x1c5", "+2", "٣",
                                    "1_0", "5" * 5000, "3", "3", "9" * 30, "-" + "9" * 30,
                                    "9223372036854775807", "9223372036854775808"])
            cells.append(value)
        if ragged and rng.random() < 0.3:  # a short row, or one with a cell more
            cells = cells[: rng.randrange(len(cells))] if rng.random() < 0.5 else cells + ["7"]
        lines.append("\t".join(cells))
    return lines, loci, count


def _plain(value):
    """Arrays as lists, also inside tuples, so that outcomes compare with ==."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


def _outcome(parse, path, *args, **kwargs):
    """What a parser returns, or the type, text and line of its ParseError."""
    try:
        return _plain(parse(path, *args, **kwargs))
    except ParseError as err:
        return type(err), str(err), err.line


def _reference_profiles(path, *args, int64):
    """The line-by-line reference's records, as the parser's arrays."""
    return profile_arrays(reference_parse_profiles(path, *args, int64=int64))


def _reference_fasta(path, int64):
    """The line-by-line reference's records, as the parser's arrays."""
    return locus_arrays(reference_parse_allele_fasta(path, "aspA", int64=int64))


def _expected(reference, path, *args):
    """What the parsers must return: the reference's outcome, except that

    * a file which is not UTF-8 is rejected as such before any record is
      checked. The line-by-line reference decodes 8 KiB at a time, so it
      reports a fault in the text before the chunk that holds the bad byte;
    * an ST id, allele id or count that int64 does not hold is a ParseError
      at its line, where the reference reads any integer: the parsers hold
      them in int64 arrays. So the reference is run in its int64 mode, in
      which a token of more digits than ``int`` reads is beyond int64 too."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        return ParseError, f"not UTF-8 text ({err.reason}) [{path}]", None
    return _outcome(reference, path, *args, int64=True)


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_fasta_parser_matches_the_line_by_line_reference(tmp_path_factory, rng):
    path = tmp_path_factory.mktemp("fasta") / "a.fas"
    path.write_bytes(_bytes(rng, _fasta_lines(rng)))
    expected = _expected(_reference_fasta, path)
    assert _outcome(mlst_io.parse_allele_fasta, path) == expected


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False))
def test_profile_parser_matches_the_line_by_line_reference(tmp_path_factory, rng):
    lines, loci, count = _profile_lines(rng)
    path = tmp_path_factory.mktemp("profiles") / "p.tsv"
    path.write_bytes(_bytes(rng, lines))
    expected = _expected(_reference_profiles, path, loci, "ST", count)
    assert _outcome(mlst_io.parse_profiles, path, loci, "ST", count) == expected


def test_a_replaced_dataset_holds_the_views_of_its_new_fields(demo_dataset):
    ds = demo_dataset
    ds.rest_labels  # noqa: B018  (fill the old dataset's cached labels)
    # profiles: without ST 1, only STs 2 and 3 agree at all loci but glnA
    fewer = with_profiles(ds, profile_records(ds)[1:])
    st_ids, alleles, counts = fewer.profile_arrays
    assert st_ids.tolist() == [2, 3, 4, 5, 6]
    assert alleles.shape == (5, 3) and counts.tolist() == [1] * 5
    assert fewer.rest_labels.shape == (5, 3)
    labels = fewer.rest_labels[:, 1].tolist()
    assert labels[0] == labels[1] and len(set(labels)) == 4
    # alleles: a new glnA allele 9 and a changed allele 1
    gln = allele_records(ds, "glnA")
    changed = mlst_io.AlleleSequence("glnA", 1, "T" * len(gln[1].sequence))
    more = dataclasses.replace(ds, allele_codes={
        **ds.allele_codes, "glnA": locus_arrays(
            {**gln, 1: changed, 9: mlst_io.AlleleSequence("glnA", 9, "ACGT")}.values()
        )[0],
    })
    ids, lengths, codes = more.allele_codes["glnA"]
    assert ids.tolist() == [*gln, 9]
    assert lengths[-1] == 4 and (codes[0] == 3).all()
    assert ds.allele_codes["glnA"][0].tolist() == list(gln)
    # usable STs follow the alleles: ST 4 alone names gltA_2, which is
    # then cut short or left out
    assert ds.usable_mask("gltA").all()
    glt = allele_records(ds, "gltA")
    short = {**glt, 2: mlst_io.AlleleSequence("gltA", 2, glt[2].sequence[:-1])}
    gone = {aid: rec for aid, rec in glt.items() if aid != 2}
    for records in (short, gone):
        masked = dataclasses.replace(
            ds, allele_codes={**ds.allele_codes, "gltA": locus_arrays(records.values())[0]}
        )
        assert masked.usable_mask("gltA").tolist() == [True, True, True, False, True, True]
        assert masked.usable_mask("glnA").all()
    for arr in (*more.profile_arrays, *more.allele_codes["glnA"], more.rest_labels):
        assert not arr.flags.writeable


# -- the array builder against the record-based reference --------------------------


def _write_inputs(directory, profiles, alleles, rng):
    """A profile table with a count column and one FASTA file per locus,
    rows and records in a shuffled order."""
    loci = list(alleles)
    rows = ["\t".join(["ST", *loci, "count"])]
    rows += ["\t".join(map(str, [p.st_id, *p.alleles, p.isolate_count])) for p in profiles]
    (directory / "profiles.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    for locus, records in alleles.items():
        text = "".join(f">{locus}_{records[i].allele_id}\n{records[i].sequence}\n"
                       for i in rng.permutation(len(records)))
        (directory / f"{locus}.fas").write_text(text, encoding="utf-8")


def _built(build, profiles, alleles, mode):
    """The dataset, with its usable rows per locus, and repair messages of a
    build, or the type, text and line of its first error."""
    try:
        dataset, messages, *usable = build(profiles, alleles, mode)
    except (DataError, ParseError) as err:
        return type(err), str(err), getattr(err, "line", None)
    return dataset_summary(dataset, *usable), messages


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_array_builder_matches_the_record_reference(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    profiles, alleles = random_inputs(rng, damaged_alleles=rng.random() < 0.5)
    data = tmp_path_factory.mktemp("data")
    _write_inputs(data, profiles, alleles, rng)
    loci = list(alleles)
    table = data / "profiles.tsv"
    reference = (
        reference_parse_profiles(table, loci, "ST", "count"),
        {locus: reference_parse_allele_fasta(data / f"{locus}.fas", locus) for locus in loci},
    )
    parsed = (
        mlst_io.parse_profiles(table, loci, "ST", "count"),
        {locus: mlst_io.parse_allele_fasta(data / f"{locus}.fas") for locus in loci},
    )
    for mode in ("strict", "lenient"):
        want = _built(reference_build_dataset, *reference, mode)
        assert _built(mlst_io.build_dataset, *parsed, mode) == want
        event(f"{mode}: {want[0].__name__ if isinstance(want[0], type) else 'built'}")


def test_loading_keeps_no_record_per_allele_or_sequence_type(tmp_path):
    # 1195 STs and 2107 alleles of 450 bases at 7 loci: holding every
    # allele and ST record until the dataset was built peaked at 2.66 MiB;
    # parsed straight into arrays, one file at a time, the load peaks at
    # 1.37 MiB, of which the 0.9 MiB of code matrices is the dataset itself
    config = sim.SimConfig(
        n_samples=5000,
        loci=tuple((f"g{i}", 450) for i in range(7)),
        theta=tuple(250.0 / 7 for _ in range(7)),
        lam=tuple(1.0 for _ in range(7)),
        import_model=sim.CompleteImport(p_a=0.8),
        seed=1,
    )
    simulated = sim.simulate(config).dataset
    (tmp_path / "profiles.tsv").write_text(mlst_io.profiles_text(simulated), encoding="utf-8")
    for locus in simulated.locus_names:
        (tmp_path / f"{locus}.fas").write_text(
            mlst_io.allele_fasta_text(simulated, locus), encoding="utf-8")
    loci = simulated.locus_names
    del simulated
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        profiles = mlst_io.parse_profiles(tmp_path / "profiles.tsv", loci)
        alleles = {locus: mlst_io.parse_allele_fasta(tmp_path / f"{locus}.fas") for locus in loci}
        dataset, repairs = mlst_io.build_dataset(profiles, alleles)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert repairs == () and len(dataset.profile_arrays[0]) == 1195
    assert sum(len(ids) for ids, _, _ in dataset.allele_codes.values()) == 2107
    assert peak < 1.8 * 2**20
