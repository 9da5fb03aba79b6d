"""Command-line interface.

Subcommands: extract, import-dist, estimate, joint, test-variation,
simulate, experiment. Exit codes: 0 success, 1 usage or configuration
problems, 2 data or model errors.

Every JSON artifact embeds the tool version, the fully resolved options
and SHA-256 digests of its inputs, and floats are rendered with 12
significant digits, so re-running a command with identical inputs and
seeds reproduces the output byte for byte.
"""

from __future__ import annotations

import sys

# Before hashlib and numpy load: without _hashlib, hashlib, hmac and numpy.random's
# secrets fall back to CPython's built-in SHA-256 and compare_digest, the same digests,
# so the CLI process never maps OpenSSL's libcrypto (~3.4 MiB resident). Importers of
# the library, and processes that loaded _hashlib first, keep OpenSSL.
sys.modules.setdefault("_hashlib", None)

import argparse
import gc
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__, parallel
from .convert import integer, json_object, non_negative_int, read, unique
from .errors import ConfigError, SlvRateError
from .experiment import ROW_COLUMNS, ExperimentReport, design_from, run_experiment
from .import_dist import ImportDistribution
from .joint_inference import JointFit, joint_fit
from .locus_estimator import LocusFit
from .mlst_io import (
    allele_fasta_text,
    build_dataset,
    parse_allele_fasta,
    parse_profiles,
    profile_header,
    profiles_text,
)
from .numerics import DEFAULT_TOL
from .pipeline import (
    AnalysisOptions,
    AnalysisResult,
    analyze_dataset,
    build_import_dists,
    fit_loci,
    locus_import_dist,
)
from .simulate import sim_config_from, simulate
from .slv import extract_slv

USAGE_EXIT = 1
DATA_EXIT = 2

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


# -- stable JSON rendering -------------------------------------------------------


def render_json(obj, indent: int = 0) -> str:
    """JSON with floats at 12 significant digits and insertion-order keys."""
    # scalars first: a large int list would otherwise pay the Mapping ABC
    # check once per element
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        if math.isnan(obj):
            return '"nan"'
        return format(obj, ".12g")
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    return json.dumps(obj)


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _output(flag: str, path: str | None, directory: bool = False) -> Path | None:
    """The output path that ``flag`` names, checked before any work: a
    file must not be a directory, a directory not a file, and neither may
    lie under a file. Missing parent directories are made by ``_write``."""
    if not path:
        return None
    path = Path(path)
    at = next(p for p in (path, *path.parents) if p.exists())
    if at.is_dir() != (directory or at != path):
        where = "" if at == path else f"{at} "
        raise ConfigError(f"{flag} {path}: {where}is {'a' if at.is_dir() else 'not a'} directory")
    return path


def _write(path: Path, text: str) -> None:
    """The one writer of every output file: it makes missing parents. An
    output it cannot write (a full disk, no permission) is a ConfigError
    naming it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror}") from None


def write_json(path: Path | None, doc: dict) -> None:
    text = render_json(doc) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write(path, text)


def _meta(command: str, config: dict, inputs: Sequence[Path]) -> dict:
    return {
        "tool": "slvrate",
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): file_digest(p) for p in inputs},
    }


# -- dataset loading ---------------------------------------------------------------


def _add_dataset_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--profiles", required=True, help="tab-separated profile table")
    sub.add_argument("--alleles-dir", required=True, help="directory of per-locus FASTA files")
    sub.add_argument(
        "--loci",
        type=_arg(_locus_names),
        help="comma-separated locus names in profile-column order "
        "(default: header columns with a matching FASTA file)",
    )
    sub.add_argument("--st-column", default="ST")
    sub.add_argument("--count-column", default=None)
    _add_option(sub, "--mode", dest="mode")


def _fasta_path(alleles_dir: Path, locus: str) -> Path | None:
    for ext in (".fas", ".fasta", ".fa", ".tfa"):
        cand = alleles_dir / f"{locus}{ext}"
        if cand.exists():
            return cand
    return None


def _load_dataset(args):
    profiles_path = Path(args.profiles)
    alleles_dir = Path(args.alleles_dir)
    if not profiles_path.exists():
        raise ConfigError(f"profile file not found: {profiles_path}")
    if not alleles_dir.is_dir():
        raise ConfigError(f"allele directory not found: {alleles_dir}")
    if args.loci:
        loci = args.loci
    else:
        loci = [name for name in profile_header(profiles_path)
                if name not in (args.st_column, args.count_column)]
    fasta_paths = {name: _fasta_path(alleles_dir, name) for name in loci}
    missing = [name for name, path in fasta_paths.items() if path is None]
    if args.loci and missing:  # a named locus needs its file; a header column may lack one
        raise ConfigError(f"no FASTA file for locus {missing[0]!r} under {alleles_dir}")
    loci = [name for name in loci if name not in missing]
    if len(loci) < 2:
        raise ConfigError(f"need at least 2 loci, resolved {loci!r}")
    fasta_paths = {name: fasta_paths[name] for name in loci}
    profiles = parse_profiles(
        profiles_path, loci, st_column=args.st_column, count_column=args.count_column
    )
    alleles = {name: parse_allele_fasta(fasta_paths[name]) for name in loci}
    dataset, repairs = build_dataset(profiles, alleles, mode=args.mode)
    inputs = [profiles_path, *fasta_paths.values()]
    return dataset, repairs, inputs


def _analysis_options(args) -> AnalysisOptions:
    """The command's analysis flags, whose dests are the AnalysisOptions
    field names; a field without a flag keeps its default."""
    given = vars(args)
    return AnalysisOptions(
        **{f.name: given[f.name] for f in fields(AnalysisOptions) if f.name in given}
    )


def _add_analysis_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dists", help="directory or file(s) of import-distribution JSON")
    _add_import_args(sub)
    _add_option(sub, "--theta-ratio", dest="theta_method")
    _add_option(sub, "--alpha", dest="alpha_mode")
    _add_option(sub, "--level", dest="level")


def _add_import_args(sub: argparse.ArgumentParser) -> None:
    _add_option(sub, "--pa", dest="p_a", help="full-locus import probability")
    _add_option(sub, "-M", "--draws", dest="draws", help="Monte Carlo draws")
    _add_option(sub, "--seed", dest="seed")
    _add_option(sub, "--weighting", dest="weighting")


def _add_option(sub: argparse.ArgumentParser, *flags: str, dest: str, **kwargs) -> None:
    """The flag of the analysis option ``dest``, read where it is parsed by
    the converter its AnalysisOptions field declares, with its default."""
    option = next(f for f in fields(AnalysisOptions) if f.name == dest)
    convert = option.metadata["convert"]
    choices = getattr(convert, "choices", None)
    sub.add_argument(*flags, dest=dest, type=_arg(convert), default=option.default,
                     metavar="{" + ",".join(choices) + "}" if choices else None, **kwargs)


def _load_dists(args, dataset) -> tuple[dict[str, ImportDistribution], list[Path]] | None:
    """The stored import distributions ``--dists`` names: at most one file
    per locus of ``dataset``, each with ``m`` the length of its locus."""
    if not args.dists:
        return None
    spec = Path(args.dists)
    if spec.is_dir():
        paths = sorted(spec.glob("*.json"))
    else:
        paths = [spec]
    if not paths:
        raise ConfigError(f"no import-distribution JSON under {spec}")
    dists, source = {}, {}
    for path in paths:
        with _json_file("dists", path) as doc:
            dist = ImportDistribution.from_json_dict(doc)
            if dist.locus not in dataset.locus_names:
                raise ConfigError(f"unknown locus {dist.locus!r}; "
                                  f"loci are {', '.join(dataset.locus_names)}")
            if dist.m != dataset.locus_meta(dist.locus).length:
                raise ConfigError(f"m: {dist.m}, but locus {dist.locus!r} is "
                                  f"{dataset.locus_meta(dist.locus).length} bases long")
        if dist.locus in source:
            raise ConfigError(f"dists {source[dist.locus]} and {path} both hold locus {dist.locus!r}")
        dists[dist.locus], source[dist.locus] = dist, path
    return dists, paths


# -- locus fit serialization --------------------------------------------------------


def _boundary_flags(at_boundary: bool, lam_hat: float) -> list[str]:
    if not at_boundary:
        return []
    if lam_hat <= 1e-9:
        return ["lower"]
    if lam_hat >= 0.99 * DEFAULT_TOL.lambda_max:
        return ["upper"]
    return ["boundary"]


def _fit_doc(fit: LocusFit) -> dict:
    return {
        "locus": fit.locus,
        "lambda_hat": fit.lam_hat,
        "ci": [fit.ci_lower, fit.ci_upper],
        "alpha": fit.alpha,
        "sigma2": fit.sigma2,
        "I": fit.info_i,
        "J": fit.info_j,
        "gamma": fit.gamma,
        "n_pairs": fit.n_pairs,
        "G": fit.n_groups,
        "cl_max": fit.cl_max,
        "boundary_flags": _boundary_flags(fit.at_boundary, fit.lam_hat),
        "alpha_source": fit.alpha_source,
    }


def _joint_doc(joint: JointFit) -> dict:
    return {
        "lambda_hat": joint.lam_hat,
        "ci": [joint.ci_lower, joint.ci_upper],
        "gamma": joint.gamma,
        "n_loci": joint.n_loci,
        "cl_max": joint.cl_max,
        "boundary_flags": _boundary_flags(joint.at_boundary, joint.lam_hat),
    }


def _variation_doc(result: AnalysisResult) -> dict:
    variation = result.variation
    return {
        "lr_star": variation.lr_star,
        "nu1": variation.nu1,
        "lr": variation.lr,
        "df": variation.df,
        "p_value": variation.p_value,
        "eta": list(variation.eta),
        "per_locus_lambda": [fit.lam_hat for fit in result.locus_fits],
        "joint_lambda": result.joint.lam_hat,
    }


# -- subcommand implementations -------------------------------------------------------


def cmd_extract(args) -> int:
    out = _output("--out", args.out)
    meta_out = _output("--out", args.out and f"{args.out}.meta.json")
    dataset, repairs, inputs = _load_dataset(args)
    lines = ["locus\tgroup_id\tst_a\tst_b\tx\tweight"]
    for meta in dataset.loci:
        part = extract_slv(dataset, meta.name, mode=args.mode)
        columns = (part.group_id, part.st_a, part.st_b, part.x, part.w)
        for gid, st_a, st_b, x, weight in zip(*(col.tolist() for col in columns)):
            lines.append(f"{part.locus}\t{gid}\t{st_a}\t{st_b}\t{x}\t{weight:.10g}")
    text = "\n".join(lines) + "\n"
    if out:
        _write(out, text)
        meta_doc = _meta("extract", {"mode": args.mode, "loci": list(dataset.locus_names)}, inputs)
        if repairs:
            meta_doc["lenient_repairs"] = list(repairs)
        write_json(meta_out, meta_doc)
    else:
        sys.stdout.write(text)
    return 0


def cmd_import_dist(args) -> int:
    out = _output("--out", args.out or ("." if args.locus == "all" else None),
                  directory=args.locus == "all")
    dataset, _repairs, inputs = _load_dataset(args)
    if args.locus != "all" and args.locus not in dataset.locus_names:
        raise ConfigError(f"unknown locus {args.locus!r}; loci are {', '.join(dataset.locus_names)}")
    wanted = list(dataset.locus_names) if args.locus == "all" else [args.locus]
    opts = _analysis_options(args)
    if args.locus == "all":
        dists = build_import_dists(dataset, opts, workers=parallel.usable_cores())
    else:
        dists = {args.locus: locus_import_dist(dataset, opts, dataset.locus_index(args.locus))}
    for name in wanted:
        if dists.get(name) is None:
            raise ConfigError(f"locus {name!r} unavailable (fewer than 2 usable units)")
    config = {name: value for name, value in asdict(opts).items() if name in vars(args)}
    for name in wanted:
        doc = dists[name].to_json_dict()
        doc["meta"] = _meta("import-dist", config, inputs)
        write_json(out / f"{name}.dist.json" if args.locus == "all" else out, doc)
    return 0


def _analyze(args, step):
    """Run a pipeline step (``fit_loci`` or ``analyze_dataset``) on the
    command's dataset and optional stored import distributions, estimating
    missing import distributions on every usable core."""
    dataset, _repairs, inputs = _load_dataset(args)
    loaded = _load_dists(args, dataset)
    opts = _analysis_options(args)
    dists = None
    if loaded is not None:
        dists, dist_paths = loaded
        inputs = inputs + dist_paths
    return step(dataset, opts, dists=dists, workers=parallel.usable_cores()), opts, inputs


def _too_few_loci(what: str, result) -> SlvRateError:
    return SlvRateError(
        f"{what} needs >= 2 informative loci; "
        f"got {len(result.locus_fits)} (skipped: {', '.join(result.skipped_loci) or 'none'})"
    )


def cmd_estimate(args) -> int:
    out = _output("--out", args.out)
    result, opts, inputs = _analyze(args, fit_loci)
    doc = {
        "meta": _meta("estimate", asdict(opts), inputs),
        "loci": [_fit_doc(fit) for fit in result.locus_fits],
        "skipped_loci": list(result.skipped_loci),
    }
    write_json(out, doc)
    return 0


def cmd_joint(args) -> int:
    out = _output("--out", args.out)
    result, opts, inputs = _analyze(args, fit_loci)
    if len(result.likelihoods) < 2:
        raise _too_few_loci("joint estimate", result)
    joint = joint_fit(result.likelihoods, result.locus_fits, level=opts.level)
    doc = {"meta": _meta("joint", asdict(opts), inputs), **_joint_doc(joint)}
    write_json(out, doc)
    return 0


def cmd_test_variation(args) -> int:
    out = _output("--out", args.out)
    forest_out = _output("--forest-out", args.forest_out)
    result, opts, inputs = _analyze(args, analyze_dataset)
    if result.variation is None:
        raise _too_few_loci("variation test", result)
    doc = {
        "meta": _meta("test-variation", asdict(opts), inputs),
        **_variation_doc(result),
    }
    write_json(out, doc)
    if forest_out:
        rows = [(fit.locus, fit) for fit in result.locus_fits]
        if result.joint is not None:
            rows.append(("_all_", result.joint))
        lines = ["locus\tlambda_hat\tci_lo\tci_hi"] + [
            f"{name}\t{fit.lam_hat:.10g}\t{fit.ci_lower:.10g}\t{fit.ci_upper:.10g}"
            for name, fit in rows
        ]
        _write(forest_out, "\n".join(lines) + "\n")
    return 0


# -- simulate / experiment --------------------------------------------------------------


@contextmanager
def _json_file(kind: str, path):
    """Yield the JSON object in the file ``path``, a ``config`` or a stored
    import distribution (``dists``). Any fault found while reading or
    parsing it ends as one ConfigError ``<kind> <path>: ...``."""
    try:
        yield json_object(json.loads(Path(path).read_text(encoding="utf-8")))
    except FileNotFoundError:
        raise ConfigError(f"{kind} {path}: file not found") from None
    except OSError as err:
        raise ConfigError(f"{kind} {path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{kind} {path}: not UTF-8 text ({err.reason})") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{kind} {path}: line {err.lineno}: {err.msg}") from None
    except ConfigError as err:
        raise ConfigError(f"{kind} {path}: {err}") from None


def _locus_names(text: str) -> list[str]:
    """``--loci``: comma-separated, each name once."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise ValueError(f"names no locus: {text!r}")
    return unique(names)


def _arg(convert):
    """``convert`` as an argparse type: a value it rejects exits 1 with the
    usage and one error line that names the flag."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return parse


def cmd_simulate(args) -> int:
    out_dir = _output("--out-dir", args.out_dir, directory=True)
    with _json_file("config", args.config) as cfg:
        config = sim_config_from(cfg, args.seed)
        replicate = read(cfg, "replicate", non_negative_int, 0)
    result = simulate(config, replicate=replicate)
    _write(out_dir / "profiles.tsv", profiles_text(result.dataset))
    for name, _length in config.loci:
        _write(out_dir / f"{name}.fas", allele_fasta_text(result.dataset, name))
    truth = {
        "meta": _meta("simulate", cfg, [Path(args.config)]),
        "seed": config.seed,
        "n_samples": config.n_samples,
        "n_sts": len(result.dataset.profile_arrays[0]),
        "theta": list(config.theta),
        "lambda": list(config.lam),
        "st_of_sample": list(result.st_of_sample),
    }
    write_json(out_dir / "truth.json", truth)
    return 0


def cmd_experiment(args) -> int:
    out_dir = _output("--out-dir", args.out_dir, directory=True)
    with _json_file("config", args.config) as cfg:
        design = design_from(cfg, args.seed)
    report = run_experiment(design, workers=args.threads)
    write_json(out_dir / "report.json", _report_doc(report, cfg, args))
    _write_rows(report, out_dir / "replicates.tsv")
    return 0


def _report_doc(report: ExperimentReport, cfg: dict, args) -> dict:
    doc = {
        "meta": _meta("experiment", cfg, [Path(args.config)]),
        "design": report.design,
        "replicates": report.replicates,
        "excluded_replicates": report.excluded_replicates,
    }
    if report.failed_replicates:  # a clean report keeps its key set
        doc["failed_replicates"] = report.failed_replicates
    # a metric with no replicate to average, or a standard error from a
    # single one, is undefined: null, not NaN
    doc["per_metric"] = {
        name: {key: None if math.isnan(value) else value
               for key, value in (("value", metric.value), ("mc_stderr", metric.mc_stderr))}
        for name, metric in report.metrics.items()
    }
    return doc


def _write_rows(report: ExperimentReport, path: Path) -> None:
    lines = ["\t".join(ROW_COLUMNS)]
    for row in report.rows:
        values = (row[col] for col in ROW_COLUMNS)
        lines.append("\t".join(format(v, ".10g") if isinstance(v, float) else str(v)
                               for v in values))
    _write(path, "\n".join(lines) + "\n")


# -- entry point ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="slvrate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"slvrate {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("extract", help="list SLV pairs, groups and weights")
    _add_dataset_args(sub)
    sub.add_argument("--out", help="output TSV (default stdout)")
    sub.set_defaults(func=cmd_extract)

    sub = subs.add_parser("import-dist", help="estimate per-locus import difference pmf")
    _add_dataset_args(sub)
    sub.add_argument("--locus", default="all", help="locus name or 'all'")
    _add_import_args(sub)
    sub.add_argument("--out", help="output file for one locus, directory for all")
    sub.set_defaults(func=cmd_import_dist)

    for name, func, extra in (
        ("estimate", cmd_estimate, "per-locus rate estimates with confidence intervals"),
        ("joint", cmd_joint, "pooled common-rate estimate"),
        ("test-variation", cmd_test_variation, "test for rate variation across loci"),
    ):
        sub = subs.add_parser(name, help=extra)
        _add_dataset_args(sub)
        _add_analysis_args(sub)
        sub.add_argument("--out", help="output JSON (default stdout)")
        if name == "test-variation":
            sub.add_argument("--forest-out", help="per-locus interval TSV for plotting")
        sub.set_defaults(func=func)

    sub = subs.add_parser("simulate", help="clonal-frame simulation to profiles + FASTA")
    sub.add_argument("--config", required=True)
    sub.add_argument("--out-dir", required=True)
    sub.add_argument("--seed", type=_arg(non_negative_int), default=None,
                     help="override config seed")
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("experiment", help="replicated simulation study with a report")
    sub.add_argument("--config", required=True)
    sub.add_argument("--out-dir", required=True)
    sub.add_argument("--seed", type=_arg(non_negative_int), default=None,
                     help="override config seed")
    sub.add_argument(
        "--threads",
        type=_arg(integer),
        default=parallel.usable_cores(),
        help="worker processes for replicates; results do not depend on it",
    )
    sub.set_defaults(func=cmd_experiment)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Move every object alive now, numpy's and slvrate's import-time objects
    # among them, out of the cyclic collector's reach, as CPython advises
    # before a fork without exec: forked workers then do not copy those pages
    # when a collection would touch them, and interpreter exit does not walk
    # them. Objects created later are collected as usual. Only the first call
    # in a process freezes: a later one would also freeze the cyclic garbage
    # of the calls before it, which then could never be collected.
    if not gc.get_freeze_count():
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"slvrate: {err}", file=sys.stderr)
        return USAGE_EXIT
    except SlvRateError as err:
        print(f"slvrate: {type(err).__name__}: {err}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
