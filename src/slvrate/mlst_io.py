"""Parsing and validation of MLST profile tables and per-locus allele FASTA.

File conventions follow pubmlst.org exports: a tab-separated profile table
(one row per sequence type, one column per locus) and one FASTA file per
locus with headers like ``>aspA_1`` or plain ``>1``. The parsers output
arrays: :func:`parse_profiles` the (st_ids, alleles, counts) int64 arrays
of the table, and :func:`parse_allele_fasta` its locus's (ids, lengths,
code matrix) with the non-ACGT characters of each allele that has any, so
no allele record or sequence-type object outlives its file. The result of
:func:`build_dataset` is immutable and built whole from those arrays: it
holds them only, and every array it holds is read-only, so it is safe to
share across threads and forked workers, with nothing to prime first.
:class:`AlleleSequence` is only the argument of :func:`hamming`.

Each input file is decoded in one read, so a file that is not UTF-8 is
rejected before any of its lines is checked; its lines are then checked
one at a time, and the first faulty line raises.

Two validation modes:

* ``strict`` rejects anything suspect (missing alleles, off-length
  sequences, non-ACGT characters, duplicate allele vectors).
* ``lenient`` keeps going: ambiguous bases are masked out of Hamming
  comparisons, a sequence type that repeats another's allele vector is
  dropped, and every repair is reported. A locus's analyses use a sequence
  type only where its allele is held and has the locus's modal length
  (``MlstDataset.usable_mask``), so one whose allele is missing or
  off-length there is left out of them.
"""

from __future__ import annotations

import re
import string
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from .convert import checked, choice
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
_Arrays = tuple[np.ndarray, np.ndarray, np.ndarray]
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # every id and count is held as int64
_DIGITS = re.compile(r"[+-]?[0-9]+")  # int() refuses such a token only for its length
MODES = choice("strict", "lenient")


def _shown(token: str) -> str:
    """``token`` quoted for a message, cut to its first 40 characters."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}..."


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


@dataclass(frozen=True, eq=False)
class MlstDataset:
    """An immutable dataset, built whole, as arrays only: ``__post_init__``
    makes the arrays it is given read-only, so a ``dataclasses.replace``
    copy holds its own fields' views. What the analyses read besides the
    arrays (rest labels, usable STs) is derived from them. Datasets compare
    by identity, as arrays have no truth value."""

    loci: tuple[LocusMeta, ...]
    # locus name -> (ids, lengths, codes) of its alleles in id order, loci in
    # ``loci`` order; ``codes`` is an (alleles, longest) uint8 matrix: A=0 C=1
    # G=2 T=3, anything else 255, and 255 past the end of a shorter allele, so
    # a comparison between two equal-length alleles never sees the padding
    allele_codes: Mapping[str, _Arrays]
    # (st_ids, alleles, isolate_counts) of the sequence types as int64
    # arrays, one row each (``build_dataset`` puts them in ST order);
    # ``alleles`` is (STs, loci), its columns in ``loci`` order
    profile_arrays: _Arrays

    def __post_init__(self):
        for arrays in (self.profile_arrays, *self.allele_codes.values()):
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
        after it, and both chains are built one locus at a time. Two STs
        that share an allele vector raise DuplicateVectorError, naming the
        first row that repeats an earlier one, and that earlier row.
        """
        st_ids, alleles, _counts = self.profile_arrays
        n, n_loci = alleles.shape
        ranks = [np.unique(col, return_inverse=True)[1] for col in alleles.T]

        def chain(columns):
            labels = [np.zeros(n, dtype=np.int64)]
            for rank in columns:  # every label and rank is below n
                labels.append(np.unique(labels[-1] * n + rank, return_inverse=True)[1])
            return labels

        before, after = chain(ranks), chain(ranks[::-1])
        whole = before[-1]  # the dense label of the whole allele vector
        if whole.max(initial=-1) + 1 < n:
            first = np.unique(whole, return_index=True)[1][whole]
            row = np.flatnonzero(first != np.arange(n))[0]
            raise DuplicateVectorError(
                f"ST {st_ids[row]} and ST {st_ids[first[row]]} share an allele vector"
            )
        return _frozen(np.stack(
            [before[f] * n + after[n_loci - 1 - f] for f in range(n_loci)], axis=1
        ))

    def modal_alleles(self, locus: str) -> np.ndarray:
        """Per allele of ``locus``, in ``allele_codes`` order: is its length
        the locus's modal length?"""
        return self.allele_codes[locus][1] == self.locus_meta(locus).length

    def usable_mask(self, locus: str) -> np.ndarray:
        """Per profile row: may the ST be analysed with ``locus`` as focal,
        that is, is its allele there held and of the locus's modal length?"""
        ids = self.allele_codes[locus][0][self.modal_alleles(locus)]
        return np.isin(self.profile_arrays[1][:, self.locus_index(locus)], ids)


def _code_matrix(ids: Sequence[int], sequences: Sequence[str]) -> _Arrays:
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    width = int(lengths.max(initial=0))
    raw = b"".join(_ascii(seq).ljust(width, b"N") for seq in sequences)
    return (
        np.array(ids, dtype=np.int64),
        lengths,
        _ENCODE[np.frombuffer(raw, dtype=np.uint8)].reshape(len(sequences), width),
    )


def _sorted_by(key: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``key`` and ``arrays`` in ascending ``key`` order (a stable sort),
    the arrays themselves when already in order."""
    if (np.diff(key) >= 0).all():
        return (key, *arrays)
    order = np.argsort(key, kind="stable")
    return (key[order], *(arr[order] for arr in arrays))


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
) -> _Arrays:
    """Parse a tab-separated profile table into the (st_ids, alleles,
    isolate_counts) int64 arrays of ``MlstDataset.profile_arrays``, in ST
    order; no row outlives the call.

    Columns not named are ignored (pubmlst exports carry extras such as
    clonal_complex). Blank lines and lines starting with '#' are skipped.
    Each row is checked in turn, and the first faulty row raises.
    """
    path = Path(path)
    col_index: dict[str, int] | None = None

    def integer(fields: list[str], col: str, lineno: int, what: str, where: str = "") -> int:
        """The int64 in column ``col``; a fault names the cell as ``what``,
        its token and ``where``."""
        idx = col_index[col]
        if idx >= len(fields):
            raise NonIntegerAlleleError(f"row too short for column {col!r}", str(path), lineno)
        tok = fields[idx].strip()
        try:
            value = int(tok)
        except ValueError:  # raised too for more digits than sys.get_int_max_str_digits()
            value = _INT64_MAX + 1 if _DIGITS.fullmatch(tok) else None
        if value is None or not _INT64_MIN <= value <= _INT64_MAX:
            fault = "is not an integer" if value is None else "is beyond int64"
            raise NonIntegerAlleleError(f"{what} {_shown(tok)}{where} {fault}", str(path), lineno)
        return value

    st_ids: list[int] = []
    alleles: list[int] = []  # every row's allele ids, row after row
    counts: list[int] = []
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
        st_id = integer(fields, st_column, lineno, "ST value")
        if st_id in seen:
            raise DuplicateStError(f"duplicate ST {st_id}", str(path), lineno)
        seen.add(st_id)
        for col in locus_columns:
            aid = integer(fields, col, lineno, "allele", f" in column {col!r}")
            if aid <= 0:
                raise NonIntegerAlleleError(
                    f"allele id must be positive, got {aid} in column {col!r}", str(path), lineno
                )
            alleles.append(aid)
        count = integer(fields, count_column, lineno, "count") if count_column else 1
        if count <= 0:
            raise NonIntegerAlleleError(f"count must be positive, got {count}", str(path), lineno)
        st_ids.append(st_id)
        counts.append(count)
    if col_index is None:
        raise EmptyFileError("profile file has no content", str(path))
    if not st_ids:
        raise EmptyFileError("profile file has a header but no data rows", str(path))
    return _sorted_by(
        np.array(st_ids, dtype=np.int64),
        np.array(alleles, dtype=np.int64).reshape(len(st_ids), len(locus_columns)),
        np.array(counts, dtype=np.int64),
    )


def parse_allele_fasta(path: str | Path) -> tuple[_Arrays, dict[int, list[str]]]:
    """Parse one locus's allele FASTA into its ``MlstDataset.allele_codes``
    arrays, in id order, and the sorted non-ACGT characters by allele id of
    each allele that has any; no record outlives the call.

    Headers may be ``>{locus}_{allele_id}`` or bare ``>{allele_id}``; the
    allele id is the trailing integer of the first header token. Sequences
    have their ASCII letters uppercased (which never changes a line's
    length) and multi-line records concatenated.
    """
    path = Path(path)
    sequences: dict[int, str] = {}  # by allele id, in file order
    ambiguous: dict[int, list[str]] = {}
    header_tok: str | None = None
    header_line = 0
    chunks: list[str] = []

    def flush() -> None:
        if header_tok is None:
            return
        seq = "".join(chunks)
        if not seq:
            raise EmptySequenceError(f"record {_shown(header_tok)} has no sequence",
                                     str(path), header_line)
        tail = header_tok.rsplit("_", 1)[-1]
        try:
            aid = int(tail)
        except ValueError:
            if not _DIGITS.fullmatch(tail):
                raise MalformedHeaderError(f"header {_shown(header_tok)} has no trailing allele "
                                           "number", str(path), header_line)
            aid = _INT64_MAX + 1  # more digits than sys.get_int_max_str_digits()
        if not 0 < aid <= _INT64_MAX:
            fault = "must be positive" if aid <= 0 else "is beyond int64"
            raise MalformedHeaderError(f"allele id {fault} in {_shown(header_tok)}",
                                       str(path), header_line)
        if aid in sequences:
            raise DuplicateAlleleError(f"allele {aid} appears twice", str(path), header_line)
        sequences[aid] = seq
        if _ascii(seq).translate(None, b"ACGT"):
            ambiguous[aid] = sorted(set(seq) - _ACGT)

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
    if not sequences:
        raise EmptyFileError("FASTA file has no records", str(path))
    ids = sorted(sequences)
    return _code_matrix(ids, [sequences[aid] for aid in ids]), ambiguous


# -- dataset construction ------------------------------------------------------


def build_dataset(
    profiles: _Arrays,
    alleles_by_locus: Mapping[str, tuple[_Arrays, Mapping[int, list[str]]]],
    mode: str = "strict",
) -> tuple[MlstDataset, tuple[str, ...]]:
    """Assemble and validate an immutable dataset.

    The profiles are as ``parse_profiles`` returns them and each locus's
    alleles as ``parse_allele_fasta`` does, rows and alleles in any order.
    Locus order is the key order of ``alleles_by_locus`` and must match the
    column order of the profiles' alleles. Returns the dataset and a message
    per lenient-mode repair (none when strict succeeds).
    """
    checked(ValueError, "mode", MODES, mode)
    locus_names = list(alleles_by_locus)
    if len(locus_names) < 2:
        raise TooFewLociError(f"need at least 2 loci, got {len(locus_names)}")
    if len(profiles[0]) < 2:
        raise TooFewStsError(f"need at least 2 sequence types, got {len(profiles[0])}")

    messages: list[str] = []
    allele_codes: dict[str, _Arrays] = {}
    modal_len: dict[str, int] = {}

    def repair(fault: DataError, message: str) -> None:
        """Strict mode raises ``fault``; lenient mode reports the repair."""
        if mode == "strict":
            raise fault
        messages.append(message)

    for name in locus_names:
        arrays, ambiguous = alleles_by_locus[name]
        if not len(arrays[0]):
            raise DataError(f"locus {name!r} has no alleles")
        ids, lengths, _codes = allele_codes[name] = _sorted_by(*arrays)
        repeated = ids[1:][ids[1:] == ids[:-1]]
        if repeated.size:
            raise DuplicateAlleleError(f"allele {repeated[0]} duplicated at locus {name}")
        # modal length; ties broken toward the shorter for determinism
        values, counts = np.unique(lengths, return_counts=True)
        modal = modal_len[name] = int(values[np.argmax(counts)])
        off = lengths != modal
        off_lengths = dict(zip(ids[off].tolist(), lengths[off].tolist()))
        for aid in sorted(off_lengths.keys() | ambiguous.keys()):
            if aid in off_lengths:
                repair(LengthMismatchError(f"allele {name}_{aid} has length {off_lengths[aid]}, "
                                           f"modal length is {modal}"),
                       f"locus {name}: allele {aid} off-length ({off_lengths[aid]} vs modal {modal})")
            if aid in ambiguous:
                repair(DataError(f"allele {name}_{aid} contains non-ACGT characters {ambiguous[aid]}"),
                       f"locus {name}: allele {aid} has ambiguous bases {ambiguous[aid]}; "
                       "positions masked in comparisons")

    # per-profile checks, in ST order; a repeated ST ends them in either mode
    st_ids, alleles, counts = _sorted_by(*profiles)
    n, n_loci = len(st_ids), len(locus_names)
    if alleles.shape[1] != n_loci:
        raise DataError(f"ST {st_ids[0]} has {alleles.shape[1]} alleles for {n_loci} loci")
    repeated = np.flatnonzero(st_ids[1:] == st_ids[:-1])
    stop = repeated[0] + 1 if repeated.size else n
    _, first, inverse = np.unique(alleles, axis=0, return_index=True, return_inverse=True)
    twin = first[inverse.reshape(-1)]  # the first row with the same allele vector
    dropped = twin != np.arange(n)
    missing = np.stack(
        [~np.isin(alleles[:, j], allele_codes[name][0]) for j, name in enumerate(locus_names)], axis=1
    )
    for row in np.flatnonzero(dropped[:stop] | missing[:stop].any(axis=1)).tolist():
        st_id = st_ids[row]
        if dropped[row]:
            repair(DuplicateVectorError(f"ST {st_id} and ST {st_ids[twin[row]]} share an allele vector"),
                   f"ST {st_id} dropped: allele vector duplicates ST {st_ids[twin[row]]}")
            continue
        for j in np.flatnonzero(missing[row]).tolist():
            name, aid = locus_names[j], alleles[row, j]
            repair(ReferentialIntegrityError(
                f"ST {st_id} references allele {name}_{aid} absent from FASTA"),
                f"ST {st_id} excluded at locus {name}: allele {aid} missing")
    if stop < n:
        raise DuplicateStError(f"duplicate ST {st_ids[stop]}")
    kept = ~dropped
    if kept.sum() < 2:
        raise TooFewStsError(f"only {kept.sum()} sequence types survive validation")
    dataset = MlstDataset(
        loci=tuple(LocusMeta(name=name, length=modal_len[name]) for name in locus_names),
        allele_codes=allele_codes,
        profile_arrays=(st_ids[kept], alleles[kept], counts[kept]),
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
    st_ids, alleles, _counts = dataset.profile_arrays
    rows = [["ST", *dataset.locus_names]]
    rows += [[str(st_id), *map(str, row)] for st_id, row in zip(st_ids.tolist(), alleles.tolist())]
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
