"""Clonal-frame coalescent simulator.

Samples a Kingman genealogy, then overlays two Poisson event streams per
locus on its branches: point mutations (rate theta_l / 2 per unit branch)
and recombination imports (rate lambda_l * theta_l / 2), where an import
changes a batch of D distinct sites at once, D drawn from a configurable
import model. The ancestry of imported material is not tracked; an event
only injects differences. Leaf sequences are materialized root-to-tip and
sequence types are assigned by exact sequence identity; written out, the
dataset parses back to the same one under strict validation.

Determinism: everything is driven by one numpy Philox generator per
replicate, and the draw order is fixed, so a seed pins the output
bit-for-bit:

1. the tree: per coalescence, one exponential waiting time, then two
   integers picking the merging pair;
2. the root sequence of each locus, in locus order;
3. the per-branch mutation counts, then import counts, locus by locus;
4. the event details of each busy (node, locus) cell, one that holds at
   least one event, node-major and then by locus: the offsets of its
   mutations, then of its imports, then per event from the oldest on
   (site and shift of a mutation, or D, sites and shifts of an import).

Cost: after the vectorised per-branch counts, the overlay does Python work
only per event and per busy cell, not per (node, locus) cell. A busy cell
keeps one m-byte shift, the sum mod 4 of its events' per-site changes, and
adds it to its anchor's sequence in one vectorised step. A node without
events shares its nearest eventful ancestor's sequences, stored as one
byte string per locus, and sequence types are looked up once per distinct
leaf anchor, that nearest eventful ancestor-or-self of a leaf. Each
locus's distinct byte strings are stacked straight into its code matrix:
no allele passes through text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence, Union

import numpy as np

from .convert import (
    bounded,
    checked,
    config_loci,
    integer,
    json_object,
    non_negative,
    non_negative_int,
    per_locus,
    probability,
    read,
)
from .errors import ConfigError, InvalidImportModelError, InvalidParamsError
from .import_dist import DEFAULT_PA
from .mlst_io import LocusMeta, MlstDataset
from .mlst_io import build_dataset  # noqa: F401  (the benchmark tracer binds simulate.build_dataset)
from .numerics import SeedDomain, derived_rng


# -- import models ---------------------------------------------------------------


geometric_mean = bounded(lambda x: x >= 1.0, ">= 1")  # of an import size


def _import_pmf(values) -> tuple[float, ...]:
    """An empirical import pmf over 1..len: entries >= 0 that sum to 1."""
    pmf = tuple(map(non_negative, values))
    if abs(math.fsum(pmf) - 1.0) > 1e-9:
        raise ValueError(f"sums to {math.fsum(pmf):.12g}, not 1")
    return pmf


@dataclass(frozen=True)
class GeometricImport:
    """D ~ Geometric (support 1, 2, ...) with the given mean, conditioned on 1..m."""

    mean: float

    def __post_init__(self):
        checked(InvalidImportModelError, "mean", geometric_mean, self.mean)


@dataclass(frozen=True)
class EmpiricalImport:
    """D drawn from a supplied pmf over 1..len(pmf) (e.g. an estimated import pmf)."""

    pmf: tuple[float, ...]

    def __post_init__(self):
        checked(InvalidImportModelError, "pmf", _import_pmf, self.pmf)


@dataclass(frozen=True)
class CompleteImport:
    """With probability p_a the event rewrites the whole locus with fresh
    random bases (so D ~ Binomial(m, 3/4)); otherwise only a Uniform
    fraction of it, thinning D binomially."""

    p_a: float = DEFAULT_PA

    def __post_init__(self):
        checked(InvalidImportModelError, "p_a", probability, self.p_a)


ImportModel = Union[GeometricImport, EmpiricalImport, CompleteImport]


def _import_models(model, loci: Sequence[tuple[str, int]]):
    """A config's import model: one for all loci, or a map naming each one
    and no other, and each a model that can draw for its locus (``_import_sampler``)."""
    for name, m in loci:
        one = model.get(name) if isinstance(model, Mapping) else model
        if one is None:
            raise ValueError(f"no import model for locus {name!r}")
        checked(ValueError, f"locus {name}", _import_sampler, one, m)
    for name in model if isinstance(model, Mapping) else ():
        if name not in dict(loci):
            raise ValueError(f"import model for unknown locus {name!r}")
    return model


def _import_sampler(model: ImportModel, m: int):
    """Callable(rng) -> D in 1..m for one locus."""
    if isinstance(model, GeometricImport):
        p = 1.0 / model.mean
        if p >= 1.0:
            return lambda rng: 1
        log1mp = math.log1p(-p)
        # truncate to 1..m by inverse CDF; P(D <= m) = 1 - (1 - p)^m, which
        # expm1 keeps from rounding to 0 when p is below ~1e-16
        mass = -math.expm1(m * log1mp)

        def draw_geometric(rng: np.random.Generator) -> int:
            u = rng.random() * mass
            d = int(math.ceil(math.log1p(-u) / log1mp))
            return min(max(d, 1), m)

        return draw_geometric
    if isinstance(model, EmpiricalImport):
        if len(model.pmf) != m:
            raise InvalidImportModelError(
                f"empirical pmf covers 1..{len(model.pmf)} but locus length is {m}"
            )
        cdf = np.cumsum(np.asarray(model.pmf, dtype=float))
        cdf[-1] = 1.0

        def draw_empirical(rng: np.random.Generator) -> int:
            return int(np.searchsorted(cdf, rng.random(), side="right")) + 1

        return draw_empirical
    if isinstance(model, CompleteImport):
        p_a = model.p_a

        def draw_complete(rng: np.random.Generator) -> int:
            for _ in range(10_000):
                d_full = int(rng.binomial(m, 0.75))
                if rng.random() >= p_a:
                    d_full = int(rng.binomial(d_full, rng.random()))
                if d_full >= 1:
                    return d_full
            raise InvalidImportModelError("import draw kept returning zero differences")

        return draw_complete
    raise InvalidImportModelError(f"unknown import model {model!r}")


# -- configuration -----------------------------------------------------------------

sample_size = partial(integer, least=2)  # a simulation's n_samples, a tree's leaves
rates = partial(per_locus, non_negative)  # theta and lambda: one value >= 0 per locus


@dataclass(frozen=True)
class SimConfig:
    n_samples: int
    loci: tuple[tuple[str, int], ...]          # (name, length in bases)
    theta: tuple[float, ...]                   # per-locus mutation rate
    lam: tuple[float, ...]                     # per-locus relative recombination rate
    import_model: ImportModel | Mapping[str, ImportModel]
    seed: int = 0

    def __post_init__(self):
        checked(InvalidParamsError, "n_samples", sample_size, self.n_samples)
        checked(InvalidParamsError, "theta", rates, self.theta, self.loci)
        checked(InvalidParamsError, "lam", rates, self.lam, self.loci)
        checked(InvalidImportModelError, "import_model", _import_models, self.import_model,
                self.loci)

    def import_for(self, locus: str) -> ImportModel:
        model = self.import_model
        return model[locus] if isinstance(model, Mapping) else model


def config_seed(cfg, seed_override: int | None) -> int:
    """``--seed`` when given, else the config's ``seed`` key, 0 by default."""
    return read(cfg, "seed", non_negative_int, 0) if seed_override is None else seed_override


def _import_model(spec) -> ImportModel:
    model = read(spec, "model", str, None)
    if model == "geometric":
        return GeometricImport(mean=read(spec, "mean", geometric_mean))
    if model == "empirical":
        return EmpiricalImport(pmf=read(spec, "pmf", _import_pmf))
    if model == "complete":
        return CompleteImport(p_a=read(spec, "p_a", probability, DEFAULT_PA))
    raise ConfigError(f"unknown import model {model!r}")


def _import_spec(spec) -> ImportModel | dict[str, ImportModel]:
    """A config's ``import``: one model, or ``{"per_locus": {name: model}}``."""
    if "per_locus" not in json_object(spec):
        return _import_model(spec)
    return read(spec, "per_locus", lambda specs: {
        name: read(specs, name, _import_model) for name in json_object(specs)})


def sim_config_from(cfg: dict, seed_override: int | None) -> SimConfig:
    """The one reader of a simulation config, for ``simulate`` and the
    simulation designs of ``experiment``; a fault is a ConfigError naming its key."""
    loci = read(cfg, "loci", config_loci)
    return SimConfig(
        n_samples=read(cfg, "n_samples", sample_size),
        loci=loci,
        theta=read(cfg, "theta", lambda values: rates(values, loci)),
        lam=read(cfg, "lambda", lambda values: rates(values, loci)),
        import_model=read(cfg, "import", lambda spec: _import_models(_import_spec(spec), loci)),
        seed=config_seed(cfg, seed_override),
    )


@dataclass(frozen=True)
class CoalescentTree:
    """Nodes 0..n-1 are the leaves and 2n-2 is the root; every node's
    parent has a larger id than the node."""

    n_leaves: int
    parent: np.ndarray        # (2n-1,) int, -1 at the root
    time: np.ndarray          # (2n-1,) float, 0 at leaves

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_leaves - 1

    @property
    def root(self) -> int:
        return self.n_nodes - 1

    def branch_lengths(self) -> np.ndarray:
        lengths = np.zeros(self.n_nodes)
        has_parent = self.parent >= 0
        lengths[has_parent] = self.time[self.parent[has_parent]] - self.time[has_parent]
        return lengths


@dataclass(frozen=True)
class SimResult:
    dataset: MlstDataset
    st_of_sample: tuple[int, ...]


def simulate_coalescent_tree(n: int, rng: np.random.Generator) -> CoalescentTree:
    """Kingman n-coalescent: while k lineages remain, wait an exponential
    time with rate k(k-1)/2 and merge a uniformly chosen pair."""
    from array import array  # loaded here, as it costs every command ~0.1 MiB of RSS

    checked(InvalidParamsError, "n", sample_size, n)
    n_nodes = 2 * n - 1
    parent = [-1] * n_nodes
    time = [0.0] * n_nodes
    active = array("i", range(n))  # 4-byte slots: a deletion moves half a list's bytes
    exponential, integers = rng.exponential, rng.integers
    now = 0.0
    for nxt in range(n, n_nodes):
        k = len(active)
        now += exponential(2.0 / (k * (k - 1)))
        i = int(integers(k))
        j = int(integers(k - 1))
        if j >= i:
            j += 1
        a, b = active[i], active[j]
        parent[a] = parent[b] = nxt
        time[nxt] = now
        # replace the smaller index, drop the larger, preserving order
        lo, hi = min(i, j), max(i, j)
        active[lo] = nxt
        del active[hi]
    return CoalescentTree(
        n_leaves=n,
        parent=np.array(parent, dtype=np.int64),
        time=np.array(time, dtype=float),
    )


def overlay_events(
    tree: CoalescentTree, config: SimConfig, rng: np.random.Generator
) -> SimResult:
    """Drop mutation and import events on the tree and materialize a dataset."""
    loci = config.loci
    n_loci = len(loci)
    samplers = [_import_sampler(config.import_for(name), m) for name, m in loci]

    roots = [rng.integers(0, 4, size=m, dtype=np.uint8) for _, m in loci]
    blen = tree.branch_lengths()

    mut_counts = np.zeros((n_loci, tree.n_nodes), dtype=np.int64)
    rec_counts = np.zeros((n_loci, tree.n_nodes), dtype=np.int64)
    for li, (name, _) in enumerate(loci):
        theta, lam = config.theta[li], config.lam[li]
        try:
            mut_counts[li] = rng.poisson(blen * (theta / 2.0))
            rec_counts[li] = rng.poisson(blen * (lam * theta / 2.0))
        except ValueError:  # numpy takes Poisson means up to about 9.2e18
            raise InvalidParamsError(
                f"locus {name}: theta = {theta:g} and lambda = {lam:g} put a per-branch "
                "event mean beyond numpy's Poisson range"
            ) from None

    # each busy (node, locus) cell folds its events into one shift per site,
    # as additions mod 4 commute; the draws stay in canonical order, where
    # nonzero() on the (node, locus) matrix is node-major
    busy_nodes, busy_loci = np.nonzero((mut_counts + rec_counts).T)
    shifts: dict[int, list[tuple[int, np.ndarray]]] = {}
    for node, li, n_mut, n_rec in zip(
        busy_nodes.tolist(),
        busy_loci.tolist(),
        mut_counts[busy_loci, busy_nodes].tolist(),
        rec_counts[busy_loci, busy_nodes].tolist(),
    ):
        m = loci[li][1]
        marks = [(u, False) for u in rng.random(n_mut).tolist()]
        marks += [(u, True) for u in rng.random(n_rec).tolist()]
        marks.sort(reverse=True)  # larger offset = older; draw oldest first
        shift = np.zeros(m, dtype=np.uint8)
        for _offset, is_import in marks:
            if is_import:
                sites = rng.choice(m, size=samplers[li](rng), replace=False)
                # an int64 sum, stored back in 0..3: a uint8 shift never overflows
                shift[sites] = (shift[sites] + rng.integers(1, 4, size=sites.size)) % 4
            else:
                site = int(rng.integers(m))
                shift[site] = (int(shift[site]) + int(rng.integers(1, 4))) % 4
        shifts.setdefault(node, []).append((li, shift))

    # each leaf inherits the sequences of its nearest ancestor-or-self whose
    # branch carries events (the root counts as one), found by pointer
    # jumping; only those nodes get sequences, as per-locus byte strings
    # that a node without an edit at a locus shares with its ancestor
    busy = np.zeros(tree.n_nodes, dtype=bool)
    busy[busy_nodes] = True
    busy[tree.root] = True
    anchor = np.where(busy, np.arange(tree.n_nodes), tree.parent)
    while not busy[anchor].all():
        anchor = np.where(busy[anchor], anchor, anchor[anchor])
    # each distinct leaf anchor once, in order of first appearance
    _, first, inverse = np.unique(anchor[: tree.n_leaves], return_index=True, return_inverse=True)
    order = np.argsort(first)
    anchor = anchor.tolist()
    raws_at = {tree.root: tuple(arr.tobytes() for arr in roots)}
    for node in reversed(shifts):  # descending ids: ancestors first
        raws = list(raws_at[anchor[tree.parent[node]]])
        for li, shift in shifts[node]:
            raws[li] = ((np.frombuffer(raws[li], dtype=np.uint8) + shift) % 4).tobytes()
        raws_at[node] = tuple(raws)
    vectors = [raws_at[anchor[leaf]] for leaf in first[order].tolist()]
    del shifts, raws_at  # freed before the dataset builds its arrays
    return _materialize(config, vectors, np.argsort(order)[inverse])


def _materialize(
    config: SimConfig, vectors: Sequence[tuple[bytes, ...]], vector_of_sample: np.ndarray
) -> SimResult:
    """Sample i carries the per-locus sequences ``vectors[vector_of_sample[i]]``.
    Each vector is met first at a lower sample than the next one, so alleles
    and sequence types are numbered in sample order; vectors may be equal.
    The dataset is valid by construction (ACGT codes, one length per locus,
    distinct allele vectors, every referenced allele present), so each
    locus's distinct sequences are stacked straight into its code matrix,
    for one sequence type as for many."""
    allele_ids: list[dict[bytes, int]] = [{} for _ in config.loci]
    st_ids: dict[tuple[int, ...], int] = {}
    st_of_vector = []
    for vec in vectors:
        key = []
        for table, raw in zip(allele_ids, vec):
            if raw not in table:
                table[raw] = len(table) + 1
            key.append(table[raw])
        st_of_vector.append(st_ids.setdefault(tuple(key), len(st_ids) + 1))
    st_of_sample = np.array(st_of_vector)[vector_of_sample]
    dataset = MlstDataset(
        loci=tuple(LocusMeta(name=name, length=m) for name, m in config.loci),
        allele_codes={
            name: (
                np.arange(1, len(table) + 1, dtype=np.int64),
                np.full(len(table), m, dtype=np.int64),
                np.frombuffer(b"".join(table), dtype=np.uint8).reshape(len(table), m),
            )
            for (name, m), table in zip(config.loci, allele_ids)
        },
        profile_arrays=(
            np.arange(1, len(st_ids) + 1, dtype=np.int64),
            np.array(list(st_ids), dtype=np.int64).reshape(len(st_ids), len(config.loci)),
            np.bincount(st_of_sample)[1:],
        ),
    )
    return SimResult(dataset=dataset, st_of_sample=tuple(st_of_sample.tolist()))


def simulate(config: SimConfig, replicate: int = 0) -> SimResult:
    rng = derived_rng(config.seed, SeedDomain.SIMULATION, replicate)
    tree = simulate_coalescent_tree(config.n_samples, rng)
    return overlay_events(tree, config, rng)
