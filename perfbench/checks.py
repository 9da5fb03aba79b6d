"""Output checks for benchmark ops.

An op's outputs are compared with stored reference outputs field by
field. Every tolerance comes from ``slvrate.numerics.DEFAULT_TOL``, so a
change may move an estimate only as far as the program's own optimizer and
confidence-interval contracts allow:

* rate estimates are compared in t = lam/(1+lam), within ``opt_t``, the
  maximizer's bracket width;
* confidence-interval endpoints in t, within ``ci_t``, the endpoint
  bisection tolerance;
* deviance-scale values (LR statistics and p-values) within ``ci_w_slack``,
  the deviance error allowed at an interval endpoint;
* information ratios (gamma, nu1, eta) relatively within
  ``ci_w_slack / chi2_quantile(0.95, 1)``: that much error in gamma moves
  the scaled deviance at the endpoint threshold by ``ci_w_slack``;
* bias and RMSE, which average rate estimates, within the largest rate
  tolerance of the rows they summarize, ``opt_t * (1 + max lam_hat)^2``;
* everything else (counts, names, flags) exactly.

The ``meta`` block of JSON outputs, which holds input digests and the tool
version, is not compared.
"""

from __future__ import annotations

import json
import math

from slvrate.numerics import DEFAULT_TOL, chi2_quantile, lam_to_t

RATE_KEYS = {"lam_hat", "lambda_hat", "per_locus_lambda", "joint_lambda"}
CI_KEYS = {"ci_lo", "ci_hi", "ci"}
RATIO_KEYS = {"gamma", "nu1", "eta"}
DEVIANCE_KEYS = {"lr_star", "lr", "p_value"}
RATIO_RTOL = DEFAULT_TOL.ci_w_slack / chi2_quantile(0.95, 1)


def strip_meta(text: str) -> str:
    """A JSON output without its ``meta`` block, as stored for reference."""
    doc = json.loads(text)
    doc.pop("meta", None)
    return json.dumps(doc, indent=1) + "\n"


def _t(lam: float) -> float:
    return 1.0 if math.isinf(lam) else lam_to_t(lam)


def _close(kind: str, got, want, lam_tol: float) -> bool:
    if kind == "exact":
        return got == want
    try:
        a, b = float(got), float(want)  # float() also parses the program's "inf" strings
    except (TypeError, ValueError):
        return False
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return str(a) == str(b)
    if kind == "rate":
        return abs(_t(a) - _t(b)) <= DEFAULT_TOL.opt_t
    if kind == "ci":
        return abs(_t(a) - _t(b)) <= DEFAULT_TOL.ci_t
    if kind == "ratio":
        return abs(a - b) <= RATIO_RTOL * max(abs(a), abs(b))
    if kind == "deviance":
        return abs(a - b) <= DEFAULT_TOL.ci_w_slack
    return abs(a - b) <= lam_tol  # "rate_mean"


def _kind(key: str) -> str:
    if key in RATE_KEYS:
        return "rate"
    if key in CI_KEYS:
        return "ci"
    if key in RATIO_KEYS:
        return "ratio"
    if key in DEVIANCE_KEYS:
        return "deviance"
    if key.endswith("_bias") or key.endswith("_rmse"):
        return "rate_mean"
    return "exact"


def _compare_json(got, want, kind: str, path: str, lam_tol: float, errors: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            errors.append(f"{path}: keys differ")
            return
        for key in want:
            sub_kind = _kind(key) if kind == "exact" else kind
            _compare_json(got[key], want[key], sub_kind, f"{path}.{key}", lam_tol, errors)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append(f"{path}: lengths differ")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare_json(g, w, kind, f"{path}[{i}]", lam_tol, errors)
    elif not _close(kind, got, want, lam_tol):
        errors.append(f"{path}: {got!r} vs reference {want!r}")


def _rows(text: str) -> list[dict[str, str]]:
    header, *lines = text.splitlines()
    cols = header.split("\t")
    return [dict(zip(cols, line.split("\t"))) for line in lines]


def _compare_tsv(got: str, want: str, name: str, errors: list[str]) -> None:
    got_rows, want_rows = _rows(got), _rows(want)
    if len(got_rows) != len(want_rows) or (got_rows and set(got_rows[0]) != set(want_rows[0])):
        errors.append(f"{name}: shape differs from reference")
        return
    for i, (g, w) in enumerate(zip(got_rows, want_rows)):
        for col, value in w.items():
            if col not in g or not _close(_kind(col), g[col], value, 0.0):
                errors.append(f"{name} row {i} {col}: {g.get(col)} vs reference {value}")


def compare(outputs: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Mismatches between an op's outputs and the stored reference outputs."""
    errors: list[str] = []
    if set(outputs) != set(reference):
        return [f"output files {sorted(outputs)} vs reference {sorted(reference)}"]
    lam_tol = 0.0
    if "replicates.tsv" in reference:
        lams = [float(r["lam_hat"]) for r in _rows(reference["replicates.tsv"])]
        lam_tol = DEFAULT_TOL.opt_t * (1.0 + max(v for v in lams if math.isfinite(v))) ** 2
    for name, want in sorted(reference.items()):
        got = outputs[name]
        if name.endswith(".json"):
            got_doc = json.loads(got)
            got_doc.pop("meta", None)
            _compare_json(got_doc, json.loads(want), "exact", name, lam_tol, errors)
        else:
            _compare_tsv(got, want, name, errors)
    return errors
