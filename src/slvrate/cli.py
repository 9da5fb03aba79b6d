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

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .errors import ConfigError, SlvRateError
from .experiment import ExperimentReport, RecoveryDesign, SimDesign, run_experiment
from .import_dist import DEFAULT_DRAWS, DEFAULT_PA, ImportDistribution
from .joint_inference import JointFit, VariationTestResult, joint_fit
from .locus_estimator import LocusFit
from .mlst_io import (
    build_dataset,
    parse_allele_fasta,
    parse_profiles,
    write_allele_fasta,
    write_profiles,
)
from .pipeline import AnalysisOptions, analyze_dataset, build_import_dists, fit_loci
from .simulate import (
    CompleteImport,
    EmpiricalImport,
    GeometricImport,
    ImportModel,
    SimConfig,
    simulate,
)
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


def write_json(path: Path | None, doc: dict) -> None:
    text = render_json(doc) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


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
        help="comma-separated locus names in profile-column order "
        "(default: header columns with a matching FASTA file)",
    )
    sub.add_argument("--st-column", default="ST")
    sub.add_argument("--count-column", default=None)
    sub.add_argument("--mode", choices=("strict", "lenient"), default="strict")


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
        loci = [name.strip() for name in args.loci.split(",") if name.strip()]
    else:
        with profiles_path.open("r", encoding="utf-8") as fh:
            for line in fh:
                if line.strip() and not line.lstrip().startswith("#"):
                    header = [tok.strip() for tok in line.rstrip("\n").split("\t")]
                    break
            else:
                header = []
        loci = [
            name
            for name in header
            if name not in (args.st_column, args.count_column)
            and _fasta_path(alleles_dir, name) is not None
        ]
    if len(loci) < 2:
        raise ConfigError(f"need at least 2 loci, resolved {loci!r}")
    fasta_paths = {}
    for name in loci:
        path = _fasta_path(alleles_dir, name)
        if path is None:
            raise ConfigError(f"no FASTA file for locus {name!r} under {alleles_dir}")
        fasta_paths[name] = path
    profiles = parse_profiles(
        profiles_path, loci, st_column=args.st_column, count_column=args.count_column
    )
    alleles = {name: parse_allele_fasta(fasta_paths[name], name) for name in loci}
    dataset, report = build_dataset(profiles, alleles, mode=args.mode)
    inputs = [profiles_path, *fasta_paths.values()]
    return dataset, report, inputs


def _analysis_options(args) -> AnalysisOptions:
    return AnalysisOptions(
        p_a=args.pa,
        draws=args.draws,
        seed=args.seed,
        weighting=args.weighting,
        theta_method=args.theta_ratio,
        alpha_mode=args.alpha,
        level=args.level,
        mode=args.mode,
    )


def _add_analysis_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dists", help="directory or file(s) of import-distribution JSON")
    sub.add_argument("--pa", type=float, default=DEFAULT_PA, help="full-locus import probability")
    sub.add_argument("-M", "--draws", type=int, default=DEFAULT_DRAWS, help="Monte Carlo draws")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--weighting", choices=("by_st", "by_isolate"), default="by_st")
    sub.add_argument("--theta-ratio", choices=("length", "pairwise"), default="length")
    sub.add_argument("--alpha", choices=("common", "per-locus"), default="common")
    sub.add_argument("--level", type=float, default=0.95)


def _load_dists(args) -> tuple[dict[str, ImportDistribution], list[Path]] | None:
    if not args.dists:
        return None
    spec = Path(args.dists)
    if spec.is_dir():
        paths = sorted(spec.glob("*.json"))
    else:
        paths = [spec]
    if not paths:
        raise ConfigError(f"no import-distribution JSON under {spec}")
    dists = {}
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        dist = ImportDistribution.from_json_dict(doc)
        dists[dist.locus] = dist
    return dists, paths


# -- locus fit serialization --------------------------------------------------------


def _boundary_flags(at_boundary: bool, lam_hat: float) -> list[str]:
    if not at_boundary:
        return []
    from .numerics import DEFAULT_TOL

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


def _variation_doc(result: VariationTestResult) -> dict:
    return {
        "lr_star": result.lr_star,
        "nu1": result.nu1,
        "lr": result.lr,
        "df": result.df,
        "p_value": result.p_value,
        "eta": list(result.eta),
        "per_locus_lambda": list(result.per_locus_lambda),
        "joint_lambda": result.joint_lambda,
    }


# -- subcommand implementations -------------------------------------------------------


def cmd_extract(args) -> int:
    dataset, report, inputs = _load_dataset(args)
    lines = ["locus\tgroup_id\tst_a\tst_b\tx\tweight"]
    for meta in dataset.loci:
        part = extract_slv(dataset, meta.name, mode=args.mode)
        columns = (part.group_id, part.st_a, part.st_b, part.x, part.w)
        for gid, st_a, st_b, x, weight in zip(*(col.tolist() for col in columns)):
            lines.append(f"{part.locus}\t{gid}\t{st_a}\t{st_b}\t{x}\t{weight:.10g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        meta_doc = _meta("extract", {"mode": args.mode, "loci": list(dataset.locus_names)}, inputs)
        if report:
            meta_doc["lenient_repairs"] = list(report.messages)
        write_json(Path(str(args.out) + ".meta.json"), meta_doc)
    else:
        sys.stdout.write(text)
    return 0


def cmd_import_dist(args) -> int:
    if not 0.0 <= args.pa <= 1.0:
        raise ConfigError(f"--pa must be in [0,1], got {args.pa}")
    if args.draws < 1:
        raise ConfigError(f"--draws must be >= 1, got {args.draws}")
    dataset, _report, inputs = _load_dataset(args)
    opts = AnalysisOptions(
        p_a=args.pa, draws=args.draws, seed=args.seed, weighting=args.weighting, mode=args.mode
    )
    dists = build_import_dists(dataset, opts)
    wanted = list(dataset.locus_names) if args.locus == "all" else [args.locus]
    for name in wanted:
        if name not in dists:
            raise ConfigError(f"locus {name!r} unavailable (unknown or fewer than 2 usable units)")
    config = {
        "p_a": args.pa,
        "draws": args.draws,
        "seed": args.seed,
        "weighting": args.weighting,
        "mode": args.mode,
    }
    if args.locus == "all":
        out_dir = Path(args.out) if args.out else Path(".")
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in wanted:
            doc = dists[name].to_json_dict()
            doc["meta"] = _meta("import-dist", config, inputs)
            write_json(out_dir / f"{name}.dist.json", doc)
    else:
        doc = dists[wanted[0]].to_json_dict()
        doc["meta"] = _meta("import-dist", config, inputs)
        write_json(Path(args.out) if args.out else None, doc)
    return 0


def _analyze(args, step):
    """Run a pipeline step (``fit_loci`` or ``analyze_dataset``) on the
    command's dataset and optional stored import distributions."""
    dataset, _report, inputs = _load_dataset(args)
    loaded = _load_dists(args)
    opts = _analysis_options(args)
    dists = None
    if loaded is not None:
        dists, dist_paths = loaded
        inputs = inputs + dist_paths
    return step(dataset, opts, dists=dists), opts, inputs


def cmd_estimate(args) -> int:
    result, opts, inputs = _analyze(args, fit_loci)
    doc = {
        "meta": _meta("estimate", opts.to_dict(), inputs),
        "loci": [_fit_doc(fit) for fit in result.locus_fits],
        "skipped_loci": list(result.skipped_loci),
    }
    write_json(Path(args.out) if args.out else None, doc)
    return 0


def cmd_joint(args) -> int:
    result, opts, inputs = _analyze(args, fit_loci)
    if len(result.likelihoods) < 2:
        raise SlvRateError(
            f"joint estimate needs >= 2 informative loci; "
            f"got {len(result.locus_fits)} (skipped: {', '.join(result.skipped_loci) or 'none'})"
        )
    joint = joint_fit(result.likelihoods, result.locus_fits, level=opts.level)
    doc = {"meta": _meta("joint", opts.to_dict(), inputs), **_joint_doc(joint)}
    write_json(Path(args.out) if args.out else None, doc)
    return 0


def cmd_test_variation(args) -> int:
    result, opts, inputs = _analyze(args, analyze_dataset)
    if result.variation is None:
        raise SlvRateError(
            f"variation test needs >= 2 informative loci; "
            f"got {len(result.locus_fits)} (skipped: {', '.join(result.skipped_loci) or 'none'})"
        )
    doc = {
        "meta": _meta("test-variation", opts.to_dict(), inputs),
        **_variation_doc(result.variation),
    }
    write_json(Path(args.out) if args.out else None, doc)
    if args.forest_out:
        lines = ["locus\tlambda_hat\tci_lo\tci_hi"]
        for fit in result.locus_fits:
            hi = "inf" if math.isinf(fit.ci_upper) else f"{fit.ci_upper:.10g}"
            lines.append(f"{fit.locus}\t{fit.lam_hat:.10g}\t{fit.ci_lower:.10g}\t{hi}")
        if result.joint is not None:
            hi = "inf" if math.isinf(result.joint.ci_upper) else f"{result.joint.ci_upper:.10g}"
            lines.append(
                f"_all_\t{result.joint.lam_hat:.10g}\t{result.joint.ci_lower:.10g}\t{hi}"
            )
        Path(args.forest_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


# -- simulate / experiment --------------------------------------------------------------


def _parse_import_spec(spec) -> ImportModel | dict[str, ImportModel]:
    if not isinstance(spec, dict):
        raise ConfigError(f"import spec must be an object, got {spec!r}")
    if "per_locus" in spec:
        return {name: _parse_import_spec(sub) for name, sub in spec["per_locus"].items()}
    model = spec.get("model")
    if model == "geometric":
        return GeometricImport(mean=float(spec["mean"]))
    if model == "empirical":
        return EmpiricalImport(pmf=tuple(float(v) for v in spec["pmf"]))
    if model == "complete":
        return CompleteImport(p_a=float(spec.get("p_a", DEFAULT_PA)))
    raise ConfigError(f"unknown import model {model!r}")


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed config {path}: line {err.lineno}: {err.msg}")


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"config {path} is missing required key {key!r}")
    return cfg[key]


def _sim_config_from(cfg: dict, path: str, seed_override: int | None) -> SimConfig:
    loci = tuple(
        (entry["name"], int(entry["length"])) for entry in _require(cfg, "loci", path)
    )
    seed = int(cfg.get("seed", 0)) if seed_override is None else seed_override
    try:
        return SimConfig(
            n_samples=int(_require(cfg, "n_samples", path)),
            loci=loci,
            theta=tuple(float(v) for v in _require(cfg, "theta", path)),
            lam=tuple(float(v) for v in _require(cfg, "lambda", path)),
            import_model=_parse_import_spec(_require(cfg, "import", path)),
            seed=seed,
            track_events=bool(cfg.get("track_events", False)),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"config {path}: {err}")


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    config = _sim_config_from(cfg, args.config, args.seed)
    result = simulate(config, replicate=int(cfg.get("replicate", 0)))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_profiles(result.dataset, out_dir / "profiles.tsv")
    for name, _length in config.loci:
        write_allele_fasta(result.dataset, name, out_dir / f"{name}.fas")
    truth = {
        "meta": _meta("simulate", cfg, [Path(args.config)]),
        "seed": config.seed,
        "n_samples": config.n_samples,
        "n_sts": len(result.dataset.profiles),
        "theta": list(config.theta),
        "lambda": list(config.lam),
        "st_of_sample": list(result.st_of_sample),
    }
    write_json(out_dir / "truth.json", truth)
    return 0


def _analysis_from_config(cfg: dict) -> AnalysisOptions:
    sub = cfg.get("analysis", {})
    return AnalysisOptions(
        p_a=float(sub.get("pa", DEFAULT_PA)),
        draws=int(sub.get("draws", DEFAULT_DRAWS)),
        seed=int(sub.get("seed", 0)),
        weighting=sub.get("weighting", "by_st"),
        theta_method=sub.get("theta_method", "length"),
        alpha_mode=sub.get("alpha_mode", "common"),
        level=float(sub.get("level", 0.95)),
        mode=sub.get("mode", "strict"),
    )


def cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    kind = _require(cfg, "design", args.config)
    seed = int(cfg.get("seed", 0)) if args.seed is None else args.seed
    if kind == "recovery":
        design = RecoveryDesign(
            replicates=int(_require(cfg, "replicates", args.config)),
            lam=float(_require(cfg, "lambda", args.config)),
            loci=tuple((e["name"], int(e["length"])) for e in _require(cfg, "loci", args.config)),
            import_means=tuple(float(v) for v in _require(cfg, "import_means", args.config)),
            n_pairs=int(_require(cfg, "n_pairs", args.config)),
            seed=seed,
            level=float(cfg.get("level", 0.95)),
        )
    elif kind in ("coverage", "type1", "power"):
        design = SimDesign(
            kind=kind,
            replicates=int(_require(cfg, "replicates", args.config)),
            n_samples=int(_require(cfg, "n_samples", args.config)),
            loci=tuple((e["name"], int(e["length"])) for e in _require(cfg, "loci", args.config)),
            theta=tuple(float(v) for v in _require(cfg, "theta", args.config)),
            lam=tuple(float(v) for v in _require(cfg, "lambda", args.config)),
            import_model=_parse_import_spec(_require(cfg, "import", args.config)),
            seed=seed,
            analysis=_analysis_from_config(cfg),
        )
    else:
        raise ConfigError(f"unknown design {kind!r} in {args.config}")
    report = run_experiment(design)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "report.json", _report_doc(report, cfg, args))
    _write_rows(report, out_dir / "replicates.tsv")
    return 0


def _report_doc(report: ExperimentReport, cfg: dict, args) -> dict:
    return {
        "meta": _meta("experiment", cfg, [Path(args.config)]),
        "design": report.design,
        "replicates": report.replicates,
        "excluded_replicates": report.excluded_replicates,
        "per_metric": {
            name: {"value": metric.value, "mc_stderr": metric.mc_stderr}
            for name, metric in report.metrics.items()
        },
    }


def _write_rows(report: ExperimentReport, path: Path) -> None:
    cols = ["replicate", "kind", "locus", "lam_true", "lam_hat", "ci_lo", "ci_hi",
            "covered", "gamma", "n_pairs", "boundary"]
    lines = ["\t".join(cols)]
    for row in report.rows:
        rendered = []
        for col in cols:
            val = row.get(col, "")
            if isinstance(val, float):
                rendered.append("inf" if math.isinf(val) else format(val, ".10g"))
            else:
                rendered.append(str(val))
        lines.append("\t".join(rendered))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    sub.add_argument("--pa", type=float, default=DEFAULT_PA)
    sub.add_argument("-M", "--draws", type=int, default=DEFAULT_DRAWS)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--weighting", choices=("by_st", "by_isolate"), default="by_st")
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
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("experiment", help="replicated simulation study with a report")
    sub.add_argument("--config", required=True)
    sub.add_argument("--out-dir", required=True)
    sub.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.add_argument(
        "--threads",
        type=int,
        help="ignored: replicates run serially; accepted so existing command lines still parse",
    )
    sub.set_defaults(func=cmd_experiment)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
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
