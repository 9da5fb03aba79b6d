"""Monte Carlo estimate of how many nucleotide differences one
recombination event introduces at a locus.

The sampling scheme draws two units (sequence types, optionally expanded
by isolate counts) uniformly with replacement, takes their pairwise
difference count, and with probability ``1 - p_a`` thins it binomially by
a fresh Uniform fraction, mimicking an event whose breakpoint falls
inside the locus. Tallies are add-one smoothed over the support 1..m so
every difference count keeps positive probability, and zero draws are
excluded (an SLV pair cannot show zero differences by definition).

Draws are generated in fixed-size blocks, each from its own
counter-derived Philox stream (``numerics.derived_rng`` in the
``SeedDomain.IMPORT_DRAWS`` domain),
so the tally is reproducible bit-for-bit whatever the execution order or
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convert import checked, choice, finite, integer, non_negative_int, probability, read
from .errors import ConfigError, InvalidParamsError, TooFewUnitsError
from .mlst_io import MlstDataset
from .numerics import SeedDomain, derived_rng

_BLOCK = 1 << 16

DEFAULT_PA = 0.8
DEFAULT_DRAWS = 100_000
WEIGHTINGS = choice("by_st", "by_isolate")


@dataclass(frozen=True)
class PairwiseDiffTable:
    """Pairwise nucleotide-difference counts between K sampled units.

    Stored in factored form: per-unit allele index plus an allele-level
    distance matrix, which is what the sampler needs; the dense K x K
    table is never materialized. The K units are the entries of
    ``allele_index``; no unit labels are kept. ``pairwise_diffs`` stores
    the index as int32 and the matrix in the narrowest unsigned type that
    holds the locus length (see ``allele_distance_matrix``).
    """

    locus: str
    allele_index: np.ndarray           # (K,) int32 index into allele_dist
    allele_dist: np.ndarray            # (A, A) symmetric unsigned int matrix

    @property
    def k(self) -> int:
        return len(self.allele_index)

    def max_diff(self) -> int:
        return int(self.allele_dist.max()) if self.allele_dist.size else 0


@dataclass(frozen=True)
class Provenance:
    p_a: float
    draws: int
    seed: int
    k: int


@dataclass(frozen=True)
class ImportDistribution:
    """Smoothed pmf q(x), x = 1..m, for one locus."""

    locus: str
    m: int
    q: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        if len(self.q) != self.m:
            raise InvalidParamsError(f"pmf has {len(self.q)} entries for m={self.m}")
        if np.any(self.q <= 0.0):
            raise InvalidParamsError("pmf entries must be strictly positive")
        if abs(float(self.q.sum()) - 1.0) > 1e-12:
            raise InvalidParamsError(f"pmf sums to {self.q.sum()!r}, not 1")

    def to_json_dict(self) -> dict:
        return {
            "locus": self.locus,
            "m": self.m,
            "p_a": self.provenance.p_a,
            "M": self.provenance.draws,
            "seed": self.provenance.seed,
            "K": self.provenance.k,
            "q": [float(v) for v in self.q],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ImportDistribution":
        """A stored ``import-dist`` output, each key read by its converter; a
        fault is a ConfigError naming the key (``q`` for a pmf ``cls`` rejects)."""
        q = read(doc, "q", _stored_pmf)
        locus, m = read(doc, "locus", str), read(doc, "m", integer)
        provenance = Provenance(read(doc, "p_a", probability), read(doc, "M", integer),
                                read(doc, "seed", non_negative_int), read(doc, "K", non_negative_int))
        return checked(ConfigError, "q", cls, locus, m, q, provenance)


def _stored_pmf(values) -> np.ndarray:
    """A stored pmf, rescaled to absorb its serialization rounding."""
    q = np.asarray(tuple(map(finite, values)), dtype=float)
    total = float(q.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"stored pmf sums to {total!r}")
    return q / total


_F32_EXACT = 1 << 24  # float32 holds every integer below this exactly
_ROWS = 256  # alleles per row block of the Gram products


def allele_distance_matrix(dataset: MlstDataset, locus: str) -> tuple[list[int], np.ndarray]:
    """Dense Hamming distances between all usable alleles at a locus.

    Only alleles of the locus's modal length participate, and positions
    carrying a non-ACGT code on either side are ignored. For alleles i, j
    the distance is (#positions valid in both) - (#positions with equal
    valid bases), which in matrix form is the Gram identity

        D = V V^T - sum_b H_b H_b^T,  V = (codes != 255),  H_b = (codes == b),

    over the bases b = A, C, G, T. When no allele holds a masked code,
    V V^T is m everywhere and is not computed. The products run as float32
    BLAS matmuls: every term is 0 or 1, so every partial sum is an integer
    no larger than the locus length m and is exact while m < 2**24. The
    result is therefore bit-exact whatever the BLAS blocking or thread
    count; longer loci raise InvalidParamsError.

    The distances are returned as ``np.min_scalar_type(m)``: uint8 below
    m = 256, uint16 below 65 536. The products accumulate in that matrix
    itself, one block of 256 rows at a time and only on and above the
    diagonal; the strict upper triangle is then mirrored below it. Every
    running value is an integer in 0..m, so each cast is exact. Besides
    the result, which takes 2 A**2 bytes at m >= 256, the kernel holds one
    (A, m) float32 indicator, one (256, A) float32 block and the (A, m)
    uint8 codes of the alleles it compares.
    """
    meta = dataset.locus_meta(locus)
    all_ids, _lengths, codes = dataset.allele_codes[locus]
    modal = dataset.modal_alleles(locus)
    ids = all_ids[modal].tolist()
    dtype = np.min_scalar_type(meta.length)
    if not ids:
        return [], np.zeros((0, 0), dtype=dtype)
    if meta.length >= _F32_EXACT:
        raise InvalidParamsError(
            f"locus {locus} has length {meta.length}; allele distances are exact "
            f"only below {_F32_EXACT}"
        )
    stack = codes[modal, : meta.length]
    n = len(ids)
    hot = np.empty(stack.shape, dtype=np.float32)
    block = np.empty(min(n, _ROWS) * n, dtype=np.float32)
    if (stack == 255).any():
        out = np.empty((n, n), dtype=dtype)
        np.not_equal(stack, 255, out=hot)
        for s, prod in _upper_blocks(hot, block):
            np.copyto(out[s : s + len(prod), s:], prod, casting="unsafe")
    else:
        out = np.full((n, n), meta.length, dtype=dtype)
    for base in range(4):
        np.equal(stack, base, out=hot)
        for s, prod in _upper_blocks(hot, block):
            upper = out[s : s + len(prod), s:]
            np.subtract(upper, prod, out=upper, casting="unsafe")
    for s in range(_ROWS, n, _ROWS):
        out[s:, s - _ROWS : s] = out[s - _ROWS : s, s:].T
    return ids, out


def _upper_blocks(hot: np.ndarray, block: np.ndarray):
    """Yield (s, hot[s:s+_ROWS] @ hot[s:].T) for each row block of ``hot``,
    each product written into the flat buffer ``block``. The block's
    diagonal square is its own ``syrk`` product, so the FLOPs stay those
    of one ``hot @ hot.T``."""
    n = len(hot)
    for s in range(0, n, _ROWS):
        rows = hot[s : s + _ROWS]
        k = len(rows)
        prod = block[: k * (n - s)].reshape(k, n - s)
        np.matmul(rows, rows.T, out=prod[:, :k])
        np.matmul(rows, hot[s + k :].T, out=prod[:, k:])
        yield s, prod


def pairwise_diffs(
    dataset: MlstDataset, locus: str, weighting: str = "by_st"
) -> PairwiseDiffTable:
    """Pairwise difference table over sampled units at one locus.

    ``by_st`` takes each usable sequence type once; ``by_isolate``
    repeats each by its isolate count.
    """
    checked(InvalidParamsError, "weighting", WEIGHTINGS, weighting)
    ids, dist = allele_distance_matrix(dataset, locus)
    _, alleles, counts = dataset.profile_arrays
    keep = dataset.usable_mask(locus)
    pos = np.searchsorted(ids, alleles[keep, dataset.locus_index(locus)])
    copies = counts[keep] if weighting == "by_isolate" else 1
    index = np.repeat(pos.astype(np.int32), copies)
    if len(index) < 2:
        raise TooFewUnitsError(f"locus {locus} has {len(index)} usable units; need at least 2")
    return PairwiseDiffTable(locus=locus, allele_index=index, allele_dist=dist)


def estimate_import_dist(
    table: PairwiseDiffTable,
    m: int,
    p_a: float = DEFAULT_PA,
    draws: int = DEFAULT_DRAWS,
    seed: int = 0,
) -> ImportDistribution:
    """Run the sampling scheme and return the smoothed difference pmf.

    Exactly ``draws`` samples are taken; drawing the same unit twice is
    allowed and lands in the excluded zero bin. Identical inputs
    reproduce the pmf bit-exactly.

    Unit indices are drawn as int32, half the bytes of int64. For a bound
    below 2**31 numpy's int32 and int64 bounded draws both take its 32-bit
    path, so they consume the stream alike and return the same values;
    ``binomial`` returns the same draws for an unsigned ``n`` as for an
    int64 one. The pmf is therefore the one int64 draws give.
    """
    checked(InvalidParamsError, "draws", integer, draws)
    checked(InvalidParamsError, "p_a", probability, p_a)
    checked(InvalidParamsError, "m", integer, m)
    if table.max_diff() > m:
        raise InvalidParamsError(
            f"m={m} is below the largest observed difference {table.max_diff()}"
        )
    k = table.k
    counts = np.zeros(m + 1, dtype=np.int64)
    done = 0
    block = 0
    while done < draws:
        nb = min(_BLOCK, draws - done)
        rng = derived_rng(seed, SeedDomain.IMPORT_DRAWS, block)
        # each temporary is freed once used, to keep peak memory flat; the
        # RNG calls keep their order, so the pmf is unchanged
        ai = table.allele_index[rng.integers(0, k, size=nb, dtype=np.int32)]
        aj = table.allele_index[rng.integers(0, k, size=nb, dtype=np.int32)]
        base = table.allele_dist[ai, aj]
        del ai, aj
        full = rng.random(nb) < p_a
        frac = rng.random(nb)  # one fresh thinning fraction per draw
        xs = rng.binomial(base, frac)
        del frac
        np.copyto(xs, base, where=full)
        counts += np.bincount(xs, minlength=m + 1)
        done += nb
        block += 1
    n0 = int(counts[0])
    q = (counts[1:].astype(float) + 1.0) / float(draws + m - n0)
    return ImportDistribution(
        locus=table.locus,
        m=m,
        q=q,
        provenance=Provenance(p_a=p_a, draws=draws, seed=seed, k=k),
    )
