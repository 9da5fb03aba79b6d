"""Shared fabrication helpers and per-pair oracles for the tests."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from collections import Counter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from slvrate import locus_estimator as le
from slvrate import mlst_io
from slvrate import pair_likelihood as pl
from slvrate.errors import (
    DataError,
    DuplicateAlleleError,
    DuplicateStError,
    DuplicateVectorError,
    EmptyFileError,
    EmptySequenceError,
    InvalidParamsError,
    LengthMismatchError,
    MalformedHeaderError,
    MissingColumnError,
    NonIntegerAlleleError,
    ParseError,
    ReferentialIntegrityError,
    TooFewLociError,
    TooFewStsError,
    ZeroDifferencePairError,
)
from slvrate.import_dist import ImportDistribution, PairwiseDiffTable, Provenance
from slvrate.slv import SlvPartition


@dataclasses.dataclass(frozen=True)
class StProfile:
    """A sequence type's profile row as a record."""

    st_id: int
    alleles: tuple[int, ...]
    isolate_count: int = 1


def profile_arrays(profiles):
    """The (st_ids, alleles, isolate_counts) int64 arrays of profile
    records, in their order, as ``mlst_io.parse_profiles`` returns them."""
    profiles = list(profiles)
    return (
        np.array([p.st_id for p in profiles], dtype=np.int64),
        np.array([p.alleles for p in profiles], dtype=np.int64).reshape(len(profiles), -1),
        np.array([p.isolate_count for p in profiles], dtype=np.int64),
    )


def profile_records(dataset):
    """The dataset's profile rows as records, in its row order."""
    st_ids, alleles, counts = (arr.tolist() for arr in dataset.profile_arrays)
    return [StProfile(*row) for row in zip(st_ids, map(tuple, alleles), counts)]


def with_profiles(dataset, profiles):
    """A copy of the dataset that holds the profile records ``profiles``."""
    return dataclasses.replace(dataset, profile_arrays=profile_arrays(profiles))


def allele_records(dataset, locus):
    """id -> allele record of every allele at ``locus``, ids ascending,
    decoded from its code rows (a masked base reads N)."""
    ids, lengths, codes = dataset.allele_codes[locus]
    return {
        aid: mlst_io.AlleleSequence(locus, aid, mlst_io.decode_sequence(row[:length]))
        for aid, length, row in zip(ids.tolist(), lengths.tolist(), codes)
    }


def allele(dataset, locus, allele_id):
    """The allele record of ``allele_id`` at ``locus``, or None."""
    return allele_records(dataset, locus).get(allele_id)


def locus_arrays(records):
    """What ``mlst_io.parse_allele_fasta`` returns for the allele records
    of one locus, kept in their order: their (ids, lengths, codes) arrays,
    and the sorted non-ACGT characters of each allele that has any."""
    records = list(records)
    arrays = mlst_io._code_matrix([rec.allele_id for rec in records],
                                  [rec.sequence for rec in records])
    ambiguous = {rec.allele_id: sorted(set(rec.sequence) - set("ACGT")) for rec in records}
    return arrays, {aid: chars for aid, chars in ambiguous.items() if chars}


def build_from_records(profiles, alleles_by_locus, mode="strict"):
    """``mlst_io.build_dataset`` on profile records and allele records per locus."""
    return mlst_io.build_dataset(
        profile_arrays(profiles),
        {locus: locus_arrays(recs) for locus, recs in alleles_by_locus.items()},
        mode,
    )


def same_alleles(a, b):
    """Whether two datasets hold equal allele arrays at the same loci."""
    return a.allele_codes.keys() == b.allele_codes.keys() and all(
        np.array_equal(x, y)
        for locus in a.allele_codes
        for x, y in zip(a.allele_codes[locus], b.allele_codes[locus])
    )


def usable_at(dataset, locus, st_id):
    """Whether the ST can be analysed with ``locus`` as the focal locus:
    whether the allele record it names there exists and has the locus's
    modal length."""
    prof = next(p for p in profile_records(dataset) if p.st_id == st_id)
    rec = allele(dataset, locus, prof.alleles[dataset.locus_index(locus)])
    return rec is not None and len(rec.sequence) == dataset.locus_meta(locus).length


def make_q(values, locus="loc"):
    q = np.asarray(values, dtype=float)
    q = q / q.sum()
    return ImportDistribution(locus=locus, m=len(q), q=q, provenance=Provenance(0.8, 1, 0, 1))


def make_model(r, qvals, locus="loc"):
    q = make_q(qvals, locus)
    return pl.PairModel(r=r, q=q)


def random_q(m, seed, locus="loc"):
    rng = np.random.default_rng(seed)
    return make_q(rng.random(m) + 0.01, locus)


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


def grouped_scores(groups) -> le.GroupedScores:
    """Grouped scores from one non-empty score array per group."""
    sizes = [len(v) for v in groups]
    return le.GroupedScores(np.concatenate(groups), np.repeat(np.arange(len(groups)), sizes))


def loglik_alpha_sigma(g: le.GroupedScores, alpha: float, sigma2: float) -> float:
    """Compound-symmetry Gaussian log-likelihood of grouped scores, additive
    constants dropped, from the estimator's own log det and quadratic form."""
    return -0.5 * (g.n * math.log(sigma2) + le._log_det(g, alpha) + le._quad_form(g, alpha) / sigma2)


# -- per-pair oracles ------------------------------------------------------------


def unnormalized_mass(model, lam, x):
    """f(lam, x) in linear space; fine for moderate x."""
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise InvalidParamsError(f"lam must be finite and >= 0, got {lam}")
    if not 1 <= x <= model.q.m:
        raise InvalidParamsError(f"x must be in 1..{model.q.m}, got {x}")
    return (model.r / (1.0 + lam)) ** x + pl.mixture_coeff(model.r, lam) * model.q.q[x - 1]


def loglik(model, lam, x):
    """Log pmf of one pair's difference count."""
    if not 1 <= x <= model.q.m:
        raise InvalidParamsError(f"x must be in 1..{model.q.m}, got {x}")
    return float(pl.log_pmf(model, lam)[x - 1])


def diff_matrix(table: PairwiseDiffTable) -> np.ndarray:
    """The dense K x K difference table of a factored one."""
    idx = table.allele_index
    return table.allele_dist[np.ix_(idx, idx)]


def table_from_matrix(locus, x) -> PairwiseDiffTable:
    """A table whose units are all distinct alleles with distances ``x``."""
    x = np.asarray(x, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InvalidParamsError("difference matrix must be square")
    if np.any(x != x.T) or np.any(np.diag(x) != 0) or np.any(x < 0):
        raise InvalidParamsError("difference matrix must be symmetric with zero diagonal")
    return PairwiseDiffTable(locus=locus, allele_index=np.arange(len(x)), allele_dist=x)


def reference_slv(dataset, locus, mode, warnings):
    """SLV columns built pair by pair: a dict of reduced allele tuples for
    the grouping and ``mlst_io.hamming`` for every pair.

    Returns a dict of int64 arrays (st_a, st_b, x, group_id, group_size).
    The message of every zero-difference pair lenient mode drops is
    appended to ``warnings``. The first profile that repeats an earlier
    one's allele vector raises, whether or not either is usable.
    """
    focal = dataset.locus_index(locus)
    classes = {}
    profiles = profile_records(dataset)
    first_with = {}
    for prof in profiles:
        if prof.alleles in first_with:
            raise DuplicateVectorError(
                f"ST {prof.st_id} and ST {first_with[prof.alleles]} share an allele vector"
            )
        first_with[prof.alleles] = prof.st_id
    for prof in profiles:
        if usable_at(dataset, locus, prof.st_id):
            reduced = prof.alleles[:focal] + prof.alleles[focal + 1 :]
            classes.setdefault(reduced, []).append(prof.st_id)
    allele_of = {prof.st_id: prof.alleles[focal] for prof in profiles}
    groups = sorted((sorted(sts) for sts in classes.values() if len(sts) >= 2), key=lambda g: g[0])
    cols = {"st_a": [], "st_b": [], "x": [], "group_id": []}
    for gid, members in enumerate(groups):
        for st_a, st_b in itertools.combinations(members, 2):
            x = mlst_io.hamming(
                allele(dataset, locus, allele_of[st_a]), allele(dataset, locus, allele_of[st_b])
            )
            if x == 0:
                msg = (
                    f"locus {locus}: alleles {allele_of[st_a]} and {allele_of[st_b]} "
                    f"have distinct ids but identical sequences (STs {st_a}, {st_b})"
                )
                if mode == "strict":
                    raise ZeroDifferencePairError(msg)
                warnings.append(f"{msg}; pair dropped")
                continue
            for name, value in zip(cols, (st_a, st_b, x, gid)):
                cols[name].append(value)
    cols["group_size"] = [len(members) for members in groups]
    return {name: np.array(v, dtype=np.int64) for name, v in cols.items()}


def reference_units(dataset, locus, weighting="by_st"):
    """(units, allele_index) of a pairwise difference table, one profile at
    a time: a unit per usable ST (per isolate under ``by_isolate``) whose
    focal allele has the modal length, indexing the sorted modal alleles."""
    modal = dataset.locus_meta(locus).length
    all_ids, lengths, _ = dataset.allele_codes[locus]
    ids = all_ids[lengths == modal].tolist()
    focal = dataset.locus_index(locus)
    units, index = [], []
    for prof in profile_records(dataset):
        aid = prof.alleles[focal]
        if usable_at(dataset, locus, prof.st_id):
            copies = prof.isolate_count if weighting == "by_isolate" else 1
            units += [prof.st_id] * copies
            index += [ids.index(aid)] * copies
    return tuple(units), np.array(index, dtype=np.int64)


def random_inputs(rng, damaged_alleles=True):
    """(profiles, allele records by locus) of a small damaged dataset.

    Alleles carry ambiguous bases (one of them non-ASCII) and some are
    off-length, unless ``damaged_alleles`` is false; some repeat another
    id's sequence. Some profiles name missing alleles or repeat another's
    allele vector. Isolate counts vary and the profiles are out of ST order.
    """
    bases = list("ACGTACGTACGTNRÉ" if damaged_alleles else "ACGT")
    n_loci = int(rng.integers(2, 5))
    loci = [f"loc{i}" for i in range(n_loci)]
    alleles = {}
    for locus in loci:
        length = int(rng.integers(3, 12))
        seqs = []
        for _ in range(int(rng.integers(1, 7))):
            if seqs and rng.random() < 0.15:
                seqs.append(seqs[int(rng.integers(len(seqs)))])
                continue
            size = length + 1 if rng.random() < 0.1 and damaged_alleles else length
            seqs.append("".join(rng.choice(bases, size=size)))
        alleles[locus] = [
            mlst_io.AlleleSequence(locus, aid, seq) for aid, seq in enumerate(seqs, start=1)
        ]
    n_sts = int(rng.integers(2, 60))
    profiles = [
        StProfile(
            st_id,
            tuple(int(rng.integers(1, len(alleles[locus]) + 2)) for locus in loci),
            isolate_count=int(rng.integers(1, 4)),
        )
        for st_id in rng.permutation(np.arange(1, n_sts + 1) * 3).tolist()
    ]
    return profiles, alleles


def random_lenient_dataset(rng):
    """A small lenient dataset that exercises every extraction path: that
    of ``random_inputs``, whose zero-difference pairs, off-length alleles
    and missing alleles (both left out at that locus) extraction meets.
    Its profiles are shuffled out of ST order.
    Sometimes a second ST repeats a profile's allele vector, which only a
    dataset assembled without ``build_dataset`` can hold, and which
    extraction refuses. Returns None when fewer than two STs survive
    validation.
    """
    profiles, alleles = random_inputs(rng)
    n_sts = len(profiles)
    try:
        dataset, _ = build_from_records(profiles, alleles, mode="lenient")
    except TooFewStsError:
        return None
    profiles = profile_records(dataset)
    profiles = [profiles[i] for i in rng.permutation(len(profiles))]
    if rng.random() < 0.2:
        twin = profiles[int(rng.integers(len(profiles)))]
        profiles.append(StProfile(3 * n_sts + 1, twin.alleles, twin.isolate_count))
    return with_profiles(dataset, profiles)


def reference_build_dataset(profiles, alleles_by_locus, mode="strict"):
    """Reference for ``mlst_io.build_dataset``: the dataset assembled from
    profile and allele records, each record checked in turn, its repair
    messages, and per locus which of its profile rows may be analysed there
    (neither missing nor off-length)."""
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be strict or lenient, got {mode!r}")
    locus_names = list(alleles_by_locus)
    if len(locus_names) < 2:
        raise TooFewLociError(f"need at least 2 loci, got {len(locus_names)}")
    if len(profiles) < 2:
        raise TooFewStsError(f"need at least 2 sequence types, got {len(profiles)}")

    messages: list[str] = []
    alleles: dict[str, dict[int, mlst_io.AlleleSequence]] = {}  # per locus, ids ascending
    modal_len: dict[str, int] = {}
    off_length: dict[str, set[int]] = {name: set() for name in locus_names}

    for name in locus_names:
        records = sorted(alleles_by_locus[name], key=lambda a: a.allele_id)
        if not records:
            raise DataError(f"locus {name!r} has no alleles")
        lengths = Counter(len(rec.sequence) for rec in records)
        # modal length; ties broken toward the shorter for determinism
        modal = min(
            (length for length, cnt in lengths.items() if cnt == max(lengths.values())),
        )
        modal_len[name] = modal
        by_id = alleles[name] = {}
        for rec in records:
            if rec.allele_id in by_id:
                raise DuplicateAlleleError(f"allele {rec.allele_id} duplicated at locus {name}")
            if len(rec.sequence) != modal:
                if mode == "strict":
                    raise LengthMismatchError(
                        f"allele {name}_{rec.allele_id} has length {len(rec.sequence)}, "
                        f"modal length is {modal}"
                    )
                off_length[name].add(rec.allele_id)
                messages.append(
                    f"locus {name}: allele {rec.allele_id} off-length "
                    f"({len(rec.sequence)} vs modal {modal})"
                )
            bad = set(rec.sequence) - set("ACGT")
            if bad:
                if mode == "strict":
                    raise DataError(
                        f"allele {name}_{rec.allele_id} contains non-ACGT characters {sorted(bad)}"
                    )
                messages.append(
                    f"locus {name}: allele {rec.allele_id} has ambiguous bases "
                    f"{sorted(bad)}; positions masked in comparisons"
                )
            by_id[rec.allele_id] = rec

    # per-profile checks
    kept: list[StProfile] = []
    seen_ids: set[int] = set()
    seen_vectors: dict[tuple[int, ...], int] = {}
    excluded: dict[str, set[int]] = {name: set() for name in locus_names}
    for prof in sorted(profiles, key=lambda p: p.st_id):
        if prof.st_id in seen_ids:
            raise DuplicateStError(f"duplicate ST {prof.st_id}")
        seen_ids.add(prof.st_id)
        if len(prof.alleles) != len(locus_names):
            raise DataError(
                f"ST {prof.st_id} has {len(prof.alleles)} alleles for {len(locus_names)} loci"
            )
        if prof.alleles in seen_vectors:
            if mode == "strict":
                raise DuplicateVectorError(
                    f"ST {prof.st_id} and ST {seen_vectors[prof.alleles]} share an allele vector"
                )
            messages.append(
                f"ST {prof.st_id} dropped: allele vector duplicates ST {seen_vectors[prof.alleles]}"
            )
            continue
        seen_vectors[prof.alleles] = prof.st_id
        for name, aid in zip(locus_names, prof.alleles):
            missing = aid not in alleles[name]
            if missing and mode == "strict":
                raise ReferentialIntegrityError(
                    f"ST {prof.st_id} references allele {name}_{aid} absent from FASTA"
                )
            if missing or aid in off_length[name]:
                excluded[name].add(prof.st_id)
                if missing:
                    messages.append(f"ST {prof.st_id} excluded at locus {name}: allele {aid} missing")
        kept.append(prof)
    if len(kept) < 2:
        raise TooFewStsError(f"only {len(kept)} sequence types survive validation")

    dataset = mlst_io.MlstDataset(
        loci=tuple(mlst_io.LocusMeta(name=name, length=modal_len[name]) for name in locus_names),
        allele_codes={name: locus_arrays(by_id.values())[0] for name, by_id in alleles.items()},
        profile_arrays=profile_arrays(kept),
    )
    usable = {name: [prof.st_id not in excluded[name] for prof in kept] for name in locus_names}
    return dataset, tuple(messages), usable


def dataset_summary(dataset, usable=None):
    """Everything a dataset holds, as plain values that compare with ==, and
    per locus which profile rows may be analysed there: ``usable``, else
    the dataset's own ``usable_mask``."""
    return (
        dataset.loci,
        {locus: [arr.tolist() for arr in arrays] for locus, arrays in dataset.allele_codes.items()},
        [arr.tolist() for arr in dataset.profile_arrays],
        usable or {locus: dataset.usable_mask(locus).tolist() for locus in dataset.locus_names},
    )


# -- line-by-line reference parsers -------------------------------------------------


def _in_int64(value: int) -> bool:
    return -(2**63) <= value < 2**63


def _quoted(token: str) -> str:
    """A token as the parsers echo it: quoted, and cut to 40 characters."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}..."


def _reference_int(token: str, int64: bool) -> int | None:
    """``int(token)``, or None for a token that is not an integer. In
    ``int64`` mode a token of optionally signed ASCII digits that ``int``
    refuses (more digits than Python's limit) reads as 2**63."""
    try:
        return int(token)
    except ValueError:
        return 2**63 if int64 and re.fullmatch(r"[+-]?[0-9]+", token) else None


def _text_lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, line) of a UTF-8 text file, from line 1. A file that
    cannot be opened, or holds bytes that are not UTF-8, is a ParseError
    naming it."""
    try:
        fh = path.open("r", encoding="utf-8")
    except OSError as err:
        raise ParseError(f"cannot read the file ({err.strerror})", str(path)) from None
    with fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as err:
            raise ParseError(f"not UTF-8 text ({err.reason})", str(path)) from None


def reference_parse_profiles(
    path: str | Path,
    locus_columns: Sequence[str],
    st_column: str = "ST",
    count_column: str | None = None,
    int64: bool = False,
) -> list[StProfile]:
    """Reference for ``mlst_io.parse_profiles``: the file read a line at a
    time, and every row checked cell by cell as it is read. Any integer
    is read, or with ``int64`` only one that int64 holds."""
    path = Path(path)
    col_index: dict[str, int] | None = None

    def cell(fields: list[str], col: str, lineno: int) -> str:
        idx = col_index[col]
        if idx >= len(fields):
            raise NonIntegerAlleleError(f"row too short for column {col!r}", str(path), lineno)
        return fields[idx].strip()

    profiles: list[StProfile] = []
    seen: set[int] = set()
    for lineno, raw in _text_lines(path):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if col_index is None:  # the header
            col_index = {}
            for idx, name in enumerate(fields):
                col_index.setdefault(name.strip(), idx)
            for needed in [st_column, *locus_columns] + ([count_column] if count_column else []):
                if needed not in col_index:
                    raise MissingColumnError(f"column {needed!r} not in header", str(path), lineno)
            continue
        st_tok = cell(fields, st_column, lineno)
        st_id = _reference_int(st_tok, int64)
        if st_id is None:
            raise NonIntegerAlleleError(f"ST value {_quoted(st_tok)} is not an integer", str(path),
                                        lineno)
        if int64 and not _in_int64(st_id):
            raise NonIntegerAlleleError(f"ST value {_quoted(st_tok)} is beyond int64", str(path),
                                        lineno)
        if st_id in seen:
            raise DuplicateStError(f"duplicate ST {st_id}", str(path), lineno)
        seen.add(st_id)
        allele_ids = []
        for col in locus_columns:
            tok = cell(fields, col, lineno)
            aid = _reference_int(tok, int64)
            if aid is None:
                raise NonIntegerAlleleError(
                    f"allele {_quoted(tok)} in column {col!r} is not an integer", str(path), lineno
                )
            if int64 and not _in_int64(aid):
                raise NonIntegerAlleleError(
                    f"allele {_quoted(tok)} in column {col!r} is beyond int64", str(path), lineno
                )
            if aid <= 0:
                raise NonIntegerAlleleError(
                    f"allele id must be positive, got {aid} in column {col!r}", str(path), lineno
                )
            allele_ids.append(aid)
        count = 1
        if count_column:
            tok = cell(fields, count_column, lineno)
            count = _reference_int(tok, int64)
            if count is None:
                raise NonIntegerAlleleError(f"count {_quoted(tok)} is not an integer", str(path),
                                            lineno)
            if int64 and not _in_int64(count):
                raise NonIntegerAlleleError(f"count {_quoted(tok)} is beyond int64", str(path),
                                            lineno)
            if count <= 0:
                raise NonIntegerAlleleError(f"count must be positive, got {count}", str(path), lineno)
        profiles.append(StProfile(st_id=st_id, alleles=tuple(allele_ids), isolate_count=count))
    if col_index is None:
        raise EmptyFileError("profile file has no content", str(path))
    if not profiles:
        raise EmptyFileError("profile file has a header but no data rows", str(path))
    profiles.sort(key=lambda p: p.st_id)
    return profiles


def reference_parse_allele_fasta(
    path: str | Path, locus: str, int64: bool = False
) -> list[mlst_io.AlleleSequence]:
    """Reference for ``mlst_io.parse_allele_fasta``: the file read a line at
    a time, and every sequence line checked as it is read. Any allele
    number is read, or with ``int64`` only one that int64 holds."""
    path = Path(path)
    records: list[mlst_io.AlleleSequence] = []
    seen: set[int] = set()
    header_tok: str | None = None
    header_line = 0
    chunks: list[str] = []

    def flush() -> None:
        if header_tok is None:
            return
        seq = "".join(chunks)
        shown = _quoted(header_tok)
        if not seq:
            raise EmptySequenceError(f"record {shown} has no sequence", str(path), header_line)
        aid = _reference_int(header_tok.rsplit("_", 1)[-1], int64)
        if aid is None:
            raise MalformedHeaderError(
                f"header {shown} has no trailing allele number", str(path), header_line
            )
        if aid <= 0:
            raise MalformedHeaderError(f"allele id must be positive in {shown}", str(path), header_line)
        if int64 and not _in_int64(aid):
            raise MalformedHeaderError(f"allele id is beyond int64 in {shown}", str(path), header_line)
        if aid in seen:
            raise DuplicateAlleleError(f"allele {aid} appears twice", str(path), header_line)
        seen.add(aid)
        records.append(mlst_io.AlleleSequence(locus=locus, allele_id=aid, sequence=seq))

    for lineno, raw in _text_lines(path):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header_tok = line[1:].split()[0] if line[1:].split() else ""
            if not header_tok:
                raise MalformedHeaderError("empty FASTA header", str(path), lineno)
            header_line = lineno
            chunks = []
        else:
            if header_tok is None:
                raise MalformedHeaderError("sequence data before any header", str(path), lineno)
            up = line.translate(mlst_io._ASCII_UPPER)
            if not up.isalpha():
                raise ParseError(f"invalid sequence characters in {up!r}", str(path), lineno)
            chunks.append(up)
    flush()
    if not records:
        raise EmptyFileError("FASTA file has no records", str(path))
    records.sort(key=lambda a: a.allele_id)
    return records
