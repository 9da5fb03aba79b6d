"""Parsing and validation of MLST profile tables and per-locus allele FASTA.

File conventions follow pubmlst.org exports: a tab-separated profile table
(one row per sequence type, one column per locus) and one FASTA file per
locus with headers like ``>aspA_1`` or plain ``>1``. The result of
:func:`build_dataset` is immutable and built whole: it holds each locus's
alleles as arrays only (ids, lengths, code matrix; in id order), and every
array it holds is read-only, so it is safe to share across threads and
forked workers, with nothing to prime first. :class:`AlleleSequence` is
only the parser's output and the builder's input.

Each input file is decoded in one read, so a file that is not UTF-8 is
rejected before any of its lines is checked; its lines are then checked
one at a time, and the first faulty line raises.

Two validation modes:

* ``strict`` rejects anything suspect (missing alleles, off-length
  sequences, non-ACGT characters, duplicate allele vectors).
* ``lenient`` keeps going: a sequence type missing usable data at a locus
  is excluded from analyses focused on that locus, ambiguous bases are
  masked out of Hamming comparisons, and every repair is reported.
"""

from __future__ import annotations

import string
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import (
    DataError,
    DuplicateAlleleError,
    DuplicateStError,
    DuplicateVectorError,
    EmptyFileError,
    EmptySequenceError,
    LengthMismatchError,
    MalformedHeaderError,
    MissingColumnError,
    NonIntegerAlleleError,
    ParseError,
    ReferentialIntegrityError,
    TooFewLociError,
    TooFewStsError,
)

_ACGT = frozenset("ACGT")

# nucleotide byte codes used throughout: A=0 C=1 G=2 T=3, anything else = 255
_ENCODE = np.full(256, 255, dtype=np.uint8)
for _i, _b in enumerate(b"ACGT"):
    _ENCODE[_b] = _i
_DECODE = np.frombuffer(b"ACGT".ljust(256, b"N"), dtype=np.uint8)
_ASCII_UPPER = str.maketrans(string.ascii_lowercase, string.ascii_uppercase)


@dataclass(frozen=True)
class LocusMeta:
    name: str
    length: int          # modal allele length in bases


@dataclass(frozen=True)
class AlleleSequence:
    locus: str
    allele_id: int
    sequence: str

    def encoded(self) -> np.ndarray:
        """Sequence as uint8 codes (A=0 C=1 G=2 T=3, other=255)."""
        return _ENCODE[np.frombuffer(_ascii(self.sequence), dtype=np.uint8)]


def _ascii(sequence: str) -> bytes:
    """One byte per character; each non-ASCII character becomes '?', which
    is not a base, so it is masked like any other non-ACGT character."""
    return sequence.encode("ascii", "replace")


@dataclass(frozen=True)
class StProfile:
    st_id: int
    alleles: tuple[int, ...]
    isolate_count: int = 1


@dataclass(frozen=True, eq=False)
class MlstDataset:
    """An immutable dataset, built whole, its alleles as arrays only:
    ``__post_init__`` makes the arrays it is given read-only and derives the
    profile arrays, so a ``dataclasses.replace`` copy holds its own fields'
    views. Datasets compare by identity, as arrays have no truth value."""

    loci: tuple[LocusMeta, ...]
    # locus name -> (ids, lengths, codes) of its alleles in id order, loci in
    # ``loci`` order; ``codes`` is an (alleles, longest) uint8 matrix: A=0 C=1
    # G=2 T=3, anything else 255, and 255 past the end of a shorter allele, so
    # a comparison between two equal-length alleles never sees the padding
    allele_codes: Mapping[str, tuple[np.ndarray, np.ndarray, np.ndarray]]
    profiles: tuple[StProfile, ...]
    # st_ids that cannot be analysed with the given locus as the focal one
    excluded_at: Mapping[str, frozenset[int]] = field(default_factory=dict)
    # (st_ids, alleles, isolate_counts) of the profiles, in profile order, as
    # int64 arrays; ``alleles`` is (STs, loci)
    profile_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False)

    def __post_init__(self):
        n = len(self.profiles)
        object.__setattr__(self, "profile_arrays", (
            _frozen(np.array([p.st_id for p in self.profiles], dtype=np.int64)),
            _frozen(np.array([p.alleles for p in self.profiles], dtype=np.int64)
                    .reshape(n, len(self.loci))),
            _frozen(np.array([p.isolate_count for p in self.profiles], dtype=np.int64)),
        ))
        for arrays in self.allele_codes.values():
            for arr in arrays:
                _frozen(arr)

    @property
    def locus_names(self) -> tuple[str, ...]:
        return tuple(meta.name for meta in self.loci)

    def locus_meta(self, locus: str) -> LocusMeta:
        return self.loci[self.locus_index(locus)]

    def locus_index(self, locus: str) -> int:
        for i, meta in enumerate(self.loci):
            if meta.name == locus:
                return i
        raise KeyError(f"unknown locus {locus!r}")

    @cached_property
    def rest_labels(self) -> np.ndarray:
        """(STs, loci) int64 labels: column f labels each profile row by its
        allele ids at every locus but f, so two rows share a label in column
        f exactly when they agree at all other loci.

        Exact and O(n L log n) for n STs and L loci in all: label column f
        pairs the dense label of the loci before f with that of the loci
        after it, and both chains are built one locus at a time.
        """
        alleles = self.profile_arrays[1]
        n, n_loci = alleles.shape
        ranks = [np.unique(col, return_inverse=True)[1] for col in alleles.T]

        def chain(columns):
            labels = [np.zeros(n, dtype=np.int64)]
            for rank in columns:  # every label and rank is below n
                labels.append(np.unique(labels[-1] * n + rank, return_inverse=True)[1])
            return labels

        before, after = chain(ranks), chain(ranks[::-1])
        return _frozen(np.stack(
            [before[f] * n + after[n_loci - 1 - f] for f in range(n_loci)], axis=1
        ))

    def usable_mask(self, locus: str) -> np.ndarray:
        """Per profile row: may the ST be analysed with ``locus`` as focal?"""
        return ~np.isin(self.profile_arrays[0], list(self.excluded_at.get(locus, ())))


def _code_matrix(records: Sequence[AlleleSequence]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lengths = np.array([len(rec.sequence) for rec in records], dtype=np.int64)
    width = int(lengths.max(initial=0))
    raw = b"".join(_ascii(rec.sequence).ljust(width, b"N") for rec in records)
    return (
        _frozen(np.array([rec.allele_id for rec in records], dtype=np.int64)),
        _frozen(lengths),
        _frozen(_ENCODE[np.frombuffer(raw, dtype=np.uint8)].reshape(len(records), width)),
    )


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a shared array read-only: every caller gets the same one."""
    arr.flags.writeable = False
    return arr


# -- parsing ------------------------------------------------------------------


@contextmanager
def _text_file(path: Path) -> Iterator[TextIO]:
    """A UTF-8 text file opened for reading, CRLF and CR line ends read as
    LF. A file that cannot be opened or read, or holds bytes that are not
    UTF-8, is a ParseError naming it."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            yield fh
    except OSError as err:
        raise ParseError(f"cannot read the file ({err.strerror})", str(path)) from None
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text ({err.reason})", str(path)) from None


def _lines(path: Path) -> Iterator[tuple[int, str]]:
    """(line number, line) of the whole file, from line 1, without line ends."""
    with _text_file(path) as fh:
        text = fh.read()
    return enumerate(text.split("\n"), start=1)


def _is_content(line: str) -> bool:
    """A profile-table line is read unless it is blank or starts with '#'."""
    return bool(line.strip()) and not line.lstrip().startswith("#")


def _cells(line: str) -> list[str]:
    """The tab-separated cells of a line, stripped."""
    return [tok.strip() for tok in line.split("\t")]


def profile_header(path: Path) -> list[str]:
    """The column names of a profile table: the cells of its first line
    that is read, stripped; [] when it has none. Reads no further."""
    with _text_file(path) as fh:
        for line in fh:
            if _is_content(line):
                return _cells(line)
    return []


def parse_profiles(
    path: str | Path,
    locus_columns: Sequence[str],
    st_column: str = "ST",
    count_column: str | None = None,
) -> list[StProfile]:
    """Parse a tab-separated profile table into sequence-type profiles.

    Columns not named are ignored (pubmlst exports carry extras such as
    clonal_complex). Blank lines and lines starting with '#' are skipped.
    Each row is checked in turn, and the first faulty row raises.
    """
    path = Path(path)
    col_index: dict[str, int] | None = None

    def cell(fields: list[str], col: str, lineno: int) -> str:
        idx = col_index[col]
        if idx >= len(fields):
            raise NonIntegerAlleleError(f"row too short for column {col!r}", str(path), lineno)
        return fields[idx].strip()

    profiles: list[StProfile] = []
    seen: set[int] = set()
    for lineno, line in _lines(path):
        if not _is_content(line):
            continue
        if col_index is None:  # the header
            col_index = {}
            for idx, name in enumerate(_cells(line)):
                col_index.setdefault(name, idx)
            for needed in [st_column, *locus_columns] + ([count_column] if count_column else []):
                if needed not in col_index:
                    raise MissingColumnError(f"column {needed!r} not in header", str(path), lineno)
            continue
        fields = line.split("\t")
        st_tok = cell(fields, st_column, lineno)
        try:
            st_id = int(st_tok)
        except ValueError:
            raise NonIntegerAlleleError(f"ST value {st_tok!r} is not an integer", str(path), lineno)
        if st_id in seen:
            raise DuplicateStError(f"duplicate ST {st_id}", str(path), lineno)
        seen.add(st_id)
        allele_ids = []
        for col in locus_columns:
            tok = cell(fields, col, lineno)
            try:
                aid = int(tok)
            except ValueError:
                raise NonIntegerAlleleError(
                    f"allele {tok!r} in column {col!r} is not an integer", str(path), lineno
                )
            if aid <= 0:
                raise NonIntegerAlleleError(
                    f"allele id must be positive, got {aid} in column {col!r}", str(path), lineno
                )
            allele_ids.append(aid)
        count = 1
        if count_column:
            tok = cell(fields, count_column, lineno)
            try:
                count = int(tok)
            except ValueError:
                raise NonIntegerAlleleError(f"count {tok!r} is not an integer", str(path), lineno)
            if count <= 0:
                raise NonIntegerAlleleError(f"count must be positive, got {count}", str(path), lineno)
        profiles.append(StProfile(st_id=st_id, alleles=tuple(allele_ids), isolate_count=count))
    if col_index is None:
        raise EmptyFileError("profile file has no content", str(path))
    if not profiles:
        raise EmptyFileError("profile file has a header but no data rows", str(path))
    profiles.sort(key=lambda p: p.st_id)
    return profiles


def parse_allele_fasta(path: str | Path, locus: str) -> list[AlleleSequence]:
    """Parse one locus's allele FASTA.

    Headers may be ``>{locus}_{allele_id}`` or bare ``>{allele_id}``; the
    allele id is the trailing integer of the first header token. Sequences
    have their ASCII letters uppercased (which never changes a line's
    length) and multi-line records concatenated.
    """
    path = Path(path)
    records: list[AlleleSequence] = []
    seen: set[int] = set()
    header_tok: str | None = None
    header_line = 0
    chunks: list[str] = []

    def flush() -> None:
        if header_tok is None:
            return
        seq = "".join(chunks)
        if not seq:
            raise EmptySequenceError(f"record {header_tok!r} has no sequence", str(path), header_line)
        tail = header_tok.rsplit("_", 1)[-1]
        try:
            aid = int(tail)
        except ValueError:
            raise MalformedHeaderError(
                f"header {header_tok!r} has no trailing allele number", str(path), header_line
            )
        if aid <= 0:
            raise MalformedHeaderError(f"allele id must be positive in {header_tok!r}", str(path), header_line)
        if aid in seen:
            raise DuplicateAlleleError(f"allele {aid} appears twice", str(path), header_line)
        seen.add(aid)
        records.append(AlleleSequence(locus=locus, allele_id=aid, sequence=seq))

    for lineno, raw in _lines(path):
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
            up = line.translate(_ASCII_UPPER)
            if not up.isalpha():
                raise ParseError(f"invalid sequence characters in {up!r}", str(path), lineno)
            chunks.append(up)
    flush()
    if not records:
        raise EmptyFileError("FASTA file has no records", str(path))
    records.sort(key=lambda a: a.allele_id)
    return records


# -- dataset construction ------------------------------------------------------


def build_dataset(
    profiles: Sequence[StProfile],
    alleles_by_locus: Mapping[str, Sequence[AlleleSequence]],
    mode: str = "strict",
) -> tuple[MlstDataset, tuple[str, ...]]:
    """Assemble and validate an immutable dataset.

    Locus order is the key order of ``alleles_by_locus`` and must match the
    positional order of each profile's allele list. Returns the dataset and
    a message per lenient-mode repair (none when strict succeeds).
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be strict or lenient, got {mode!r}")
    locus_names = list(alleles_by_locus)
    if len(locus_names) < 2:
        raise TooFewLociError(f"need at least 2 loci, got {len(locus_names)}")
    if len(profiles) < 2:
        raise TooFewStsError(f"need at least 2 sequence types, got {len(profiles)}")

    messages: list[str] = []
    alleles: dict[str, dict[int, AlleleSequence]] = {}  # per locus, ids ascending
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
            if rec.locus != name:
                raise DataError(f"allele tagged {rec.locus!r} supplied under locus {name!r}")
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
            if _ascii(rec.sequence).translate(None, b"ACGT"):
                bad = set(rec.sequence) - _ACGT
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

    dataset = MlstDataset(
        loci=tuple(LocusMeta(name=name, length=modal_len[name]) for name in locus_names),
        allele_codes={name: _code_matrix(list(by_id.values())) for name, by_id in alleles.items()},
        profiles=tuple(kept),
        excluded_at={name: frozenset(ids) for name, ids in excluded.items() if ids},
    )
    return dataset, tuple(messages)


def hamming(a: AlleleSequence, b: AlleleSequence) -> int:
    """Nucleotide differences between two equal-length alleles of one locus.

    Positions where either side carries a non-ACGT character are ignored
    (lenient ambiguity handling; strict datasets never contain them).
    """
    if a.locus != b.locus:
        raise DataError(f"cannot compare alleles across loci ({a.locus} vs {b.locus})")
    if len(a.sequence) != len(b.sequence):
        raise LengthMismatchError(
            f"{a.locus}_{a.allele_id} and {a.locus}_{b.allele_id} differ in length "
            f"({len(a.sequence)} vs {len(b.sequence)})"
        )
    ea = a.encoded()
    eb = b.encoded()
    valid = (ea != 255) & (eb != 255)
    return int(np.count_nonzero((ea != eb) & valid))


# -- formatters (round-trip + simulator output) ---------------------------------

_FASTA_WIDTH = 60  # bases per line of a formatted FASTA record


def profiles_text(dataset: MlstDataset) -> str:
    """The profile table of a dataset, as ``parse_profiles`` reads it."""
    rows = [["ST", *dataset.locus_names]]
    rows += [[str(prof.st_id), *map(str, prof.alleles)] for prof in dataset.profiles]
    return "".join("\t".join(row) + "\n" for row in rows)


def allele_fasta_text(dataset: MlstDataset, locus: str) -> str:
    """One locus's alleles as FASTA in id order, as ``parse_allele_fasta``
    reads it: a ``>{locus}_{id}`` header, then lines of 60 bases. A masked
    code is written as N."""
    lines = []
    for aid, length, codes in zip(*dataset.allele_codes[locus]):
        lines.append(f">{locus}_{aid}")
        seq = decode_sequence(codes[:length])
        lines += [seq[start : start + _FASTA_WIDTH] for start in range(0, len(seq), _FASTA_WIDTH)]
    return "".join(line + "\n" for line in lines)


def decode_sequence(codes: np.ndarray) -> str:
    """Inverse of AlleleSequence.encoded, with N for a masked code (255)."""
    return _DECODE[codes].tobytes().decode("ascii")
