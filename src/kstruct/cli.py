"""Command-line interface.

Three subcommands: ``test`` runs one hypothesis test on a CSV dataset and
emits a JSON report (plus the estimated and fitted Kendall matrices as
CSV when an output stem is given), ``simulate`` runs a study described by
a JSON config, and ``detrend`` removes per-column linear trends.

Kendall correlations are invariant under strictly increasing per-column
transforms, so monotone distortions of the margins never need correcting;
only additive trends (which are not monotone in the pair ordering across
time) call for the ``detrend`` step.  Serial dependence is not handled
anywhere: for time-ordered rows, check residual autocorrelation with an
external portmanteau test (e.g. Ljung-Box) before trusting p-values.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from ._version import __version__
from .indexing import (
    Partition,
    diagonal_free_membership_matrix,
    load_design_csv,
    load_partition_json,
    pair_count,
    _check_keys,
    _integer,
    _pairs0,
)
from .kendall import KendallSample
from .simulation import ScenarioConfig, desk_scale, run_study
from .testing import TestOptions, _run_test

__all__ = [
    "ConstantCovariate",
    "detrend_linear",
    "read_data_csv",
    "load_study_json",
    "main",
]

_NOTES = """\
notes:
  Kendall correlations are rank-based: strictly increasing per-column
  transforms leave every statistic unchanged, so margins never need
  normalizing.  Additive time trends do distort ranks; use `detrend`
  (or `test --detrend`) to remove a linear trend first.  Serial
  dependence is NOT handled -- run an external autocorrelation check
  (e.g. a Ljung-Box test) on the residuals before relying on p-values
  for time-ordered data.
"""

_AUTOCORR_NOTE = (
    "note: serial dependence is not checked; consider an external "
    "autocorrelation diagnostic (e.g. Ljung-Box) on the residuals."
)


class ConstantCovariate(ValueError):
    """The detrending covariate has no variation."""


def detrend_linear(data, covariate=None):
    """Remove a per-column linear trend by least squares.

    Fits ``x[:, j] = intercept_j + slope_j * covariate`` for every column
    and returns ``(residuals, slopes, intercepts)``.  The covariate
    defaults to the row index 0..n-1.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2:
        raise ValueError("data must be two-dimensional")
    n = X.shape[0]
    if n < 3:
        raise ValueError("detrending needs at least 3 rows, got %d" % n)
    if covariate is None:
        t = np.arange(n, dtype=float)
    else:
        t = np.asarray(covariate, dtype=float).ravel()
        if t.shape[0] != n:
            raise ValueError(
                "covariate length %d does not match %d rows" % (t.shape[0], n)
            )
    if np.ptp(t) == 0.0:
        raise ConstantCovariate("covariate is constant; cannot detrend")
    A = np.column_stack([np.ones(n), t])
    coef, _, _, _ = np.linalg.lstsq(A, X, rcond=None)
    residuals = X - A @ coef
    return residuals, coef[1], coef[0]


def read_data_csv(path):
    """Load a numeric CSV (comma separator, dot decimal, UTF-8).

    A first row that does not parse as numbers is treated as a header and
    skipped.  Returns an (n, d) float array; a header with no rows after
    it is a ValueError.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        first = fh.readline()
        rows_after = any(line.strip() for line in fh)
    if not first.strip():
        raise ValueError("%s: file is empty" % path)
    has_header = False
    for cell in first.strip().split(","):
        try:
            float(cell)
        except ValueError:
            has_header = True
            break
    if has_header and not rows_after:
        raise ValueError("%s: no data rows after the header" % path)
    try:
        data = np.loadtxt(
            path,
            delimiter=",",
            skiprows=1 if has_header else 0,
            ndmin=2,
            encoding="utf-8-sig",
        )
    except ValueError as exc:
        raise ValueError("%s: could not parse as numeric CSV: %s" % (path, exc))
    return data


def _matrix_from_pairs(vec, d):
    """Embed a flat pair vector into a symmetric d x d matrix, unit diagonal."""
    M = np.ones((d, d))
    ii0, jj0 = _pairs0(d)
    M[ii0, jj0] = vec
    M[jj0, ii0] = vec
    return M


def _build_hypothesis(kind, path, d):
    """Translate the CLI hypothesis spec into a Partition or DesignMatrix."""
    if kind == "exchangeable":
        part = Partition.exchangeable(d)
    elif kind in ("partition", "diagonal-free"):
        if path is None:
            raise ValueError(
                "--hypothesis %s needs --hypothesis-file with the partition JSON"
                % kind
            )
        part = load_partition_json(path)
        if part.d != d:
            raise ValueError(
                "%s: partition is for %d variables but the data has %d"
                % (path, part.d, d)
            )
    elif kind == "design":
        if path is None:
            raise ValueError("--hypothesis design needs --hypothesis-file with a CSV")
        design = load_design_csv(path)
        if design.p != pair_count(d):
            raise ValueError(
                "%s: design has %d rows but the data implies %d variable pairs"
                % (path, design.p, pair_count(d))
            )
        return design
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError("unknown hypothesis kind %r" % kind)

    if kind == "diagonal-free":
        return diagonal_free_membership_matrix(part)
    return part


def _split_covariate(X, column):
    """(data, covariate) with the 0-based ``column`` taken out of X as
    the detrending covariate; (X, None) when ``column`` is None."""
    if column is None:
        return X, None
    if not 0 <= column < X.shape[1]:
        raise ValueError("covariate column %d out of range" % column)
    return np.delete(X, column, axis=1), X[:, column]


def cmd_test(args):
    X, covariate = _split_covariate(read_data_csv(args.data), args.covariate_column)

    if args.detrend:
        X, _, _ = detrend_linear(X, covariate)
        print(_AUTOCORR_NOTE, file=sys.stderr)
    elif covariate is not None:
        raise ValueError("--covariate-column only makes sense with --detrend")

    d = X.shape[1]
    options = TestOptions(
        statistic=args.statistic,
        weighting=args.weighting,
        estimator=args.estimator,
        replicates=args.replicates,
        seed=args.seed,
        plus_one=args.plus_one,
        ties="jitter" if args.jitter_ties else "error",
        tie_seed=args.tie_seed,
        null_draws=args.null_draws,
    )
    hypothesis = _build_hypothesis(args.hypothesis, args.hypothesis_file, d)
    options.validate()  # before ranking, as run_test would
    sample = KendallSample(X, options.ties, options.tie_seed)
    report, theta = _run_test(sample, hypothesis, options)

    for note in report.warnings:
        print("note: %s" % note, file=sys.stderr)

    if args.out is None:
        print(report.to_json())
        return 0

    report.save(args.out)
    stem, _ = os.path.splitext(args.out)
    tau = sample.tau
    tau_path = stem + "_tau.csv"
    theta_path = stem + "_theta.csv"
    np.savetxt(tau_path, _matrix_from_pairs(tau, d), delimiter=",", fmt="%.17g")
    np.savetxt(theta_path, _matrix_from_pairs(theta, d), delimiter=",", fmt="%.17g")
    print(
        "statistic=%.6g p-value=%.6g method=%s (report: %s)"
        % (report.value, report.p_value, report.method, args.out)
    )
    print("wrote %s and %s" % (tau_path, theta_path))
    return 0


def _field(kind, value, what):
    """A config value as a field of type ``kind``: an int by the rule of
    ``indexing._integer``, a bool only as a JSON boolean, a float only
    as a JSON number.  Anything else is a ValueError naming ``what``."""
    if value is None or kind not in (int, float, bool):
        return value
    if kind is int:
        return _integer(value, what)
    if isinstance(value, bool) == (kind is bool) and isinstance(value, (int, float)):
        return kind(value)
    raise ValueError("%s %r is not a %s" % (what, value, "boolean" if kind is bool else "number"))


def _from_dict(cls, obj, where):
    """A ``cls`` dataclass from a config dict, its int, float and bool
    fields checked by ``_field``; an unknown key is a ValueError that
    names it."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    _check_keys(obj, types, where)
    return cls(**{k: _field(types[k], v, "%s: %s" % (where, k)) for k, v in obj.items()})


def _scenario_from_dict(obj, where):
    obj = dict(obj)
    tests = []
    for i, t in enumerate(obj.get("tests", [])):
        if "seed" in t:
            raise ValueError(
                "%s, test %d: a test takes no \"seed\"; run_study derives "
                "each test's seed from the study seed" % (where, i)
            )
        tests.append(_from_dict(TestOptions, t, "%s, test %d" % (where, i)))
    obj["tests"] = tuple(tests)
    if obj.get("hypothesis_groups") is not None:
        obj["hypothesis_groups"] = tuple(tuple(g) for g in obj["hypothesis_groups"])
    if obj.get("sizes") is not None:
        obj["sizes"] = tuple(_integer(s, "%s: sizes" % where) for s in obj["sizes"])
    return _from_dict(ScenarioConfig, obj, where)


def load_study_json(path):
    """Read a study config: {"scenarios": [...], "seed": int}, a list of
    scenarios, or one scenario (which may hold the "seed").  A key that
    no scenario or test field takes is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    seed = None
    if isinstance(obj, dict) and "scenarios" in obj:
        _check_keys(obj, ("scenarios", "seed"), path)
        items, seed = obj["scenarios"], obj.get("seed")
    elif isinstance(obj, list):
        items = obj
    else:
        obj = dict(obj)
        seed = obj.pop("seed", None)
        items = [obj]
    scenarios = [
        _scenario_from_dict(s, "%s, scenario %d" % (path, i)) for i, s in enumerate(items)
    ]
    if not scenarios:
        raise ValueError("%s: no scenarios found" % path)
    return scenarios, None if seed is None else _integer(seed, "%s: seed" % path)


def _parse_shard(text):
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ValueError("--shard must look like A:B, got %r" % text)


def cmd_simulate(args):
    scenarios, config_seed = load_study_json(args.config)
    seed = args.seed if args.seed is not None else config_seed
    if seed is None:
        raise ValueError("no seed: pass --seed or put \"seed\" in the config")
    if args.desk_scale:
        scenarios = [desk_scale(sc) for sc in scenarios]
    shard = _parse_shard(args.shard) if args.shard else None
    summary = run_study(
        scenarios,
        seed=seed,
        out_dir=args.out,
        shard=shard,
        workers=args.workers,
        progress=args.progress,
    )
    for row in summary:
        print(
            "%s  %s  reject=%.3f  se=%.3f  (reps=%d, discards=%d)"
            % (
                row["scenario"],
                row["test"],
                row["rejection_rate"],
                row["binomial_se"],
                row["repetitions"],
                row["discards"],
            )
        )
    print("study written to %s" % args.out)
    return 0


def cmd_detrend(args):
    X, covariate = _split_covariate(read_data_csv(args.data), args.covariate_column)
    residuals, slopes, intercepts = detrend_linear(X, covariate)
    np.savetxt(args.out, residuals, delimiter=",", fmt="%.17g")
    for j, (a, b) in enumerate(zip(intercepts, slopes)):
        print("column %d: intercept=%.6g slope=%.6g" % (j, a, b))
    print("residuals written to %s" % args.out)
    print(_AUTOCORR_NOTE, file=sys.stderr)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kstruct",
        description="Tests of linear structure in Kendall correlation matrices.",
        epilog=_NOTES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version="kstruct %s" % __version__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser(
        "test",
        help="run one hypothesis test on a CSV dataset",
        epilog=_NOTES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    t.add_argument("--data", required=True, help="numeric CSV, rows = observations")
    t.add_argument(
        "--hypothesis",
        required=True,
        choices=["exchangeable", "partition", "design", "diagonal-free"],
        help="null hypothesis: full exchangeability, a variable partition "
        "(JSON file), an explicit design matrix (CSV file), or the "
        "partition's between-group structure only",
    )
    t.add_argument(
        "--hypothesis-file",
        default=None,
        help="partition JSON or design CSV, required unless exchangeable",
    )
    t.add_argument("--statistic", choices=["euclidean", "max"], default="euclidean")
    t.add_argument("--weighting", choices=["sigma", "identity"], default="sigma")
    t.add_argument(
        "--estimator", choices=["structured", "jackknife"], default="structured"
    )
    t.add_argument("--replicates", type=int, default=5000)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument(
        "--null-draws", choices=["auto", "gaussian", "bootstrap"], default="auto"
    )
    t.add_argument("--plus-one", action="store_true")
    t.add_argument("--jitter-ties", action="store_true")
    t.add_argument("--tie-seed", type=int, default=0)
    t.add_argument("--detrend", action="store_true")
    t.add_argument(
        "--covariate-column",
        type=int,
        default=None,
        help="0-based column used as the detrending covariate "
        "(removed from the data); default is the row index",
    )
    t.add_argument(
        "--out",
        default=None,
        help="write the JSON report here, plus <stem>_tau.csv and "
        "<stem>_theta.csv with the estimated and fitted Kendall matrices",
    )
    t.set_defaults(func=cmd_test)

    s = sub.add_parser("simulate", help="run a size/power study from a JSON config")
    s.add_argument("--config", required=True)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--shard", default=None, help="repetition range A:B")
    s.add_argument("--workers", type=int, default=None)
    s.add_argument(
        "--desk-scale",
        action="store_true",
        help="1000 repetitions and 2000 Monte Carlo replicates per test",
    )
    s.add_argument("--progress", action="store_true")
    s.set_defaults(func=cmd_simulate)

    dt = sub.add_parser("detrend", help="remove per-column linear trends")
    dt.add_argument("--data", required=True)
    dt.add_argument("--out", required=True)
    dt.add_argument("--covariate-column", type=int, default=None)
    dt.set_defaults(func=cmd_detrend)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surfaced with context; tracebacks help nobody here
        print("kstruct: error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
