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
counter-derived Philox stream (``SeedSequence(seed, spawn_key=(7, block))``),
so the tally is reproducible bit-for-bit whatever the execution order or
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, TooFewUnitsError
from .mlst_io import MlstDataset

_BLOCK = 1 << 16
_STREAM_DOMAIN = 7  # spawn-key namespace for import-distribution draws

DEFAULT_PA = 0.8
DEFAULT_DRAWS = 100_000


@dataclass(frozen=True)
class PairwiseDiffTable:
    """Pairwise nucleotide-difference counts between K sampled units.

    Stored in factored form: per-unit allele index plus an allele-level
    distance matrix, which is what the sampler needs; ``matrix()``
    materializes the dense K x K table.
    """

    locus: str
    units: tuple[int, ...]             # unit labels (st ids, repeated under by_isolate)
    allele_index: np.ndarray           # (K,) int index into allele_dist
    allele_dist: np.ndarray            # (A, A) symmetric int matrix

    @property
    def k(self) -> int:
        return len(self.units)

    def matrix(self) -> np.ndarray:
        idx = self.allele_index
        return self.allele_dist[np.ix_(idx, idx)]

    def max_diff(self) -> int:
        return int(self.allele_dist.max()) if self.allele_dist.size else 0

    @classmethod
    def from_matrix(cls, locus: str, units, x: np.ndarray) -> "PairwiseDiffTable":
        x = np.asarray(x, dtype=np.int64)
        if x.ndim != 2 or x.shape[0] != x.shape[1] or x.shape[0] != len(units):
            raise InvalidParamsError("difference matrix shape does not match units")
        if np.any(x != x.T) or np.any(np.diag(x) != 0) or np.any(x < 0):
            raise InvalidParamsError("difference matrix must be symmetric with zero diagonal")
        return cls(
            locus=locus,
            units=tuple(units),
            allele_index=np.arange(len(units)),
            allele_dist=x,
        )


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

    def mean(self) -> float:
        return float(np.dot(np.arange(1, self.m + 1), self.q))

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
        q = np.asarray(doc["q"], dtype=float)
        total = float(q.sum())
        if abs(total - 1.0) > 1e-6:
            raise InvalidParamsError(f"stored pmf sums to {total!r}")
        q = q / total  # absorb serialization rounding
        return cls(
            locus=doc["locus"],
            m=int(doc["m"]),
            q=q,
            provenance=Provenance(
                p_a=float(doc["p_a"]), draws=int(doc["M"]), seed=int(doc["seed"]), k=int(doc["K"])
            ),
        )


_F32_EXACT = 1 << 24  # float32 holds every integer below this exactly


def allele_distance_matrix(dataset: MlstDataset, locus: str) -> tuple[list[int], np.ndarray]:
    """Dense Hamming distances between all usable alleles at a locus.

    Only alleles of the locus's modal length participate, and positions
    carrying a non-ACGT code on either side are ignored. For alleles i, j
    the distance is (#positions valid in both) - (#positions with equal
    valid bases), which in matrix form is the Gram identity

        D = V V^T - sum_b H_b H_b^T,  V = (codes != 255),  H_b = (codes == b),

    over the bases b = A, C, G, T. Pure-ACGT and masked (lenient) data
    take this one path. The products run as float32 BLAS matmuls: every
    term is 0 or 1, so every partial sum is an integer no larger than the
    locus length m and is exact while m < 2**24. The result is therefore
    bit-exact whatever the BLAS blocking or thread count; longer loci
    raise InvalidParamsError. One (A, m) indicator buffer and one (A, A)
    product buffer are reused across the five products.
    """
    meta = dataset.locus_meta(locus)
    enc = dataset.encoded_alleles(locus)
    ids = sorted(aid for aid, codes in enc.items() if len(codes) == meta.length)
    if not ids:
        return [], np.zeros((0, 0), dtype=np.int64)
    if meta.length >= _F32_EXACT:
        raise InvalidParamsError(
            f"locus {locus} has length {meta.length}; allele distances are exact "
            f"only below {_F32_EXACT}"
        )
    stack = np.stack([enc[aid] for aid in ids])
    n = len(ids)
    hot = np.empty(stack.shape, dtype=np.float32)
    prod = np.empty((n, n), dtype=np.float32)
    np.not_equal(stack, 255, out=hot)
    acc = np.matmul(hot, hot.T)
    for base in range(4):
        np.equal(stack, base, out=hot)
        np.matmul(hot, hot.T, out=prod)
        acc -= prod
    del hot, prod  # free before the int64 copy to keep peak memory flat
    return ids, acc.astype(np.int64)


def pairwise_diffs(
    dataset: MlstDataset, locus: str, weighting: str = "by_st"
) -> PairwiseDiffTable:
    """Pairwise difference table over sampled units at one locus.

    ``by_st`` takes each usable sequence type once; ``by_isolate``
    repeats each by its isolate count.
    """
    if weighting not in ("by_st", "by_isolate"):
        raise InvalidParamsError(f"weighting must be by_st or by_isolate, got {weighting!r}")
    ids, dist = allele_distance_matrix(dataset, locus)
    pos = {aid: i for i, aid in enumerate(ids)}
    focal = dataset.locus_index(locus)
    units: list[int] = []
    index: list[int] = []
    for prof in dataset.profiles:
        aid = prof.alleles[focal]
        if aid not in pos or not dataset.usable_at(locus, prof.st_id):
            continue
        copies = prof.isolate_count if weighting == "by_isolate" else 1
        for _ in range(copies):
            units.append(prof.st_id)
            index.append(pos[aid])
    if len(units) < 2:
        raise TooFewUnitsError(f"locus {locus} has {len(units)} usable units; need at least 2")
    return PairwiseDiffTable(
        locus=locus,
        units=tuple(units),
        allele_index=np.asarray(index, dtype=np.int64),
        allele_dist=dist,
    )


def _block_rng(seed: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_STREAM_DOMAIN, block))
    return np.random.Generator(np.random.Philox(ss))


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
    """
    if draws < 1:
        raise InvalidParamsError(f"draws must be >= 1, got {draws}")
    if not 0.0 <= p_a <= 1.0:
        raise InvalidParamsError(f"p_a must be in [0, 1], got {p_a}")
    if m < 1:
        raise InvalidParamsError(f"m must be >= 1, got {m}")
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
        rng = _block_rng(seed, block)
        ii = rng.integers(0, k, size=nb)
        jj = rng.integers(0, k, size=nb)
        base = table.allele_dist[table.allele_index[ii], table.allele_index[jj]]
        full = rng.random(nb) < p_a
        frac = rng.random(nb)  # one fresh thinning fraction per draw
        thinned = rng.binomial(base, frac)
        xs = np.where(full, base, thinned)
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
