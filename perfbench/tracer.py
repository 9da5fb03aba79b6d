"""In-process tracer for one slvrate CLI op.

The tracer wraps slvrate's public functions from outside, at the place
where the calling module binds them: the package uses ``from .x import y``,
so ``pipeline.estimate_import_dist`` and ``import_dist.estimate_import_dist``
are separate bindings and only the first one is what ``pipeline`` calls.
Each wrapped call records a span (name, start, end, parent) and, where the
layer does countable work, a counter. Spans stay in memory; ``layer_metrics``
turns them into per-layer times, and ``dump`` writes them out.

Ops must run single-threaded (``--threads 1``) while traced, because the
span stack is shared.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path


def _incr(counter: str):
    def count(tracer, result):
        tracer.counts[counter] += 1
    return count


def _allele_pairs(tracer, result):
    ids, _dist = result
    tracer.counts["import_dist.allele_pairs"] += len(ids) * (len(ids) - 1) // 2


def _draws(tracer, result):
    tracer.counts["import_dist.draws"] += result.provenance.draws


def _partition(tracer, result):
    tracer.counts["slv.pairs"] += result.n_pairs
    tracer.counts["slv.groups"] += result.n_groups


def _optimizer(tracer, result):
    tracer.counts["numerics.maximize_scalar_calls"] += 1
    tracer.counts["numerics.optimizer_iterations"] += result.iterations


def _loglik(tracer, result):
    # attributed to the layer whose span is innermost: the per-locus fit
    # (and its CI) or the cross-locus joint fit
    top = tracer.spans[tracer.stack[-1]][0] if tracer.stack else ""
    module = top.split(".")[0]
    tracer.counts[f"{module}.loglik_calls"] += 1
    if top == "locus_estimator.ci":
        tracer.counts["locus_estimator.ci_loglik_calls"] += 1


# (span name or None for a pure counter, bindings as (module, attribute), counter)
WRAPS = (
    ("experiment.run", (("cli", "run_experiment"),), None),
    ("mlst_io.parse", (("cli", "parse_profiles"), ("cli", "parse_allele_fasta")), None),
    ("mlst_io.build", (("cli", "build_dataset"), ("simulate", "build_dataset")), None),
    (None, (("slv", "hamming"),), _incr("mlst_io.hamming_calls")),
    ("simulate.simulate", (("experiment", "simulate"), ("cli", "simulate")), None),
    ("simulate.tree", (("simulate", "simulate_coalescent_tree"),), None),
    ("simulate.overlay", (("simulate", "overlay_events"),), None),
    ("pipeline.analyze", (("cli", "analyze_dataset"), ("experiment", "analyze_dataset")), None),
    ("import_dist.pairwise_diffs",
     (("pipeline", "pairwise_diffs"), ("pair_likelihood", "pairwise_diffs")), None),
    ("import_dist.distance", (("import_dist", "allele_distance_matrix"),), _allele_pairs),
    ("import_dist.sample", (("pipeline", "estimate_import_dist"),), _draws),
    ("slv.extract", (("pipeline", "extract_slv"), ("cli", "extract_slv")), _partition),
    ("locus_estimator.fit_all_loci",
     (("pipeline", "fit_all_loci"), ("experiment", "fit_all_loci")), None),
    ("locus_estimator.maximize", (("locus_estimator", "maximize"),), None),
    ("locus_estimator.alpha_sigma",
     (("locus_estimator", "fit_alpha_sigma"), ("locus_estimator", "sigma2_given_alpha")), None),
    ("locus_estimator.ci", (("locus_estimator", "deviance_ci"),), None),
    ("joint_inference.joint_fit", (("pipeline", "joint_fit"), ("experiment", "joint_fit")), None),
    ("joint_inference.variation_test",
     (("pipeline", "variation_test"), ("experiment", "variation_test")), None),
    ("joint_inference.joint_maximize", (("joint_inference", "joint_maximize"),),
     _incr("joint_inference.joint_maximize_calls")),
    (None, (("locus_estimator", "CompositeLikelihood.loglik"),), _loglik),
    (None, (("locus_estimator", "log_pmf"), ("pair_likelihood", "log_pmf")),
     _incr("pair_likelihood.log_pmf_calls")),
    (None, (("locus_estimator", "score_vector"),), _incr("pair_likelihood.score_vector_calls")),
    (None, (("locus_estimator", "maximize_scalar"), ("joint_inference", "maximize_scalar")),
     _optimizer),
    (None, (("locus_estimator", "chi2_quantile"),), _incr("numerics.chi2_quantile_calls")),
)

# every counter a traced op reports, zero when its layer does not run
COUNTERS = (
    "mlst_io.hamming_calls",
    "import_dist.allele_pairs",
    "import_dist.draws",
    "slv.pairs",
    "slv.groups",
    "locus_estimator.loglik_calls",
    "locus_estimator.ci_loglik_calls",
    "joint_inference.joint_maximize_calls",
    "joint_inference.loglik_calls",
    "pair_likelihood.log_pmf_calls",
    "pair_likelihood.score_vector_calls",
    "numerics.maximize_scalar_calls",
    "numerics.optimizer_iterations",
    "numerics.chi2_quantile_calls",
)

# metric name -> (span name, "total" for outermost durations or "self")
SPAN_METRICS = {
    "cli.self_s": ("cli", "self"),
    "mlst_io.parse_s": ("mlst_io.parse", "total"),
    "mlst_io.build_s": ("mlst_io.build", "total"),
    "import_dist.distance_s": ("import_dist.distance", "total"),
    "import_dist.sample_s": ("import_dist.sample", "total"),
    "slv.extract_s": ("slv.extract", "total"),
    "simulate.tree_s": ("simulate.tree", "total"),
    "simulate.overlay_s": ("simulate.overlay", "total"),
    "locus_estimator.maximize_s": ("locus_estimator.maximize", "total"),
    "locus_estimator.alpha_sigma_s": ("locus_estimator.alpha_sigma", "total"),
    "locus_estimator.ci_s": ("locus_estimator.ci", "total"),
    "locus_estimator.self_s": ("locus_estimator.fit_all_loci", "self"),
    "joint_inference.joint_fit_s": ("joint_inference.joint_fit", "total"),
    "joint_inference.variation_test_s": ("joint_inference.variation_test", "total"),
    "pipeline.analyze_s": ("pipeline.analyze", "total"),
    "pipeline.self_s": ("pipeline.analyze", "self"),
}


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(f"slvrate.{module}")
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters of one traced op."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span: str | None, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                index = len(tracer.spans)
                record = [span, time.perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1]
                tracer.spans.append(record)
                tracer.stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    tracer.stack.pop()
            if count is not None:
                count(tracer, result)
            return result

        return wrapper

    def install(self) -> None:
        for span, bindings, count in WRAPS:
            for module, attribute in bindings:
                owner, name = _resolve(module, attribute)
                original = getattr(owner, name)
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, span, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def call(self, fn, *args):
        """Run ``fn`` as the root span ``cli``."""
        return self._wrap(fn, "cli", None)(*args)

    def layer_metrics(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[index]
            if parent < 0 or self.spans[parent][0] != name:
                total[name] += end - start
        out: dict[str, float] = {}
        for metric, (span, kind) in SPAN_METRICS.items():
            out[metric] = float((total if kind == "total" else self_time)[span])
        for counter in COUNTERS:
            out[counter] = self.counts[counter]
        return out

    def dump(self, path: Path) -> None:
        doc = {
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")

