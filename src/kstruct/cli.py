"""Command-line interface.

Three subcommands: ``test`` runs one hypothesis test on a CSV dataset and
emits a JSON report (plus the estimated and fitted Kendall matrices as
CSV when an output stem is given), ``simulate`` runs a study described by
a JSON config, and ``detrend`` removes per-column linear trends.

Every file is read by the one reader of its format in ``indexing``: the
data CSV by ``_read_csv`` (a header line detected and skipped), the
partition and study JSON by ``_read_json``, and each field of a study
config by ``_field``, the rule the API's ``validate`` methods apply too,
choice fields included.  A choice field's values are declared once, in
its ``Literal`` type, and the ``test`` flags take their choices and
defaults from the ``TestOptions`` fields.  A refusal is a ValueError that
names the file and the field, printed as one ``kstruct: error:`` line.
``load_study_json`` reads the fields; ``simulate`` then checks every
other rule of each scenario and its tests by ``ScenarioConfig.validate``,
once ``--desk-scale`` is applied, naming the file, the scenario and, for
a test's rule (``replicates`` at least 100, no test ``seed``), the test.

Kendall correlations are invariant under strictly increasing per-column
transforms, so monotone distortions of the margins never need correcting;
only additive trends (which are not monotone in the pair ordering across
time) call for the ``detrend`` step.  Serial dependence is not handled
anywhere: for time-ordered rows, check residual autocorrelation with an
external portmanteau test (e.g. Ljung-Box) before trusting p-values.
"""

import argparse
import dataclasses
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
    _choices,
    _field,
    _pairs0,
    _read_csv,
    _read_fields,
    _read_json,
)
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
    """Load a numeric CSV of observations (comma separator, dot decimal,
    UTF-8) as an (n, d) float array by ``indexing._read_csv``: blank
    lines are skipped, and so is a first line that does not parse as
    numbers, a header; a header with no rows after it is a ValueError."""
    return _read_csv(path, header=True)


def _matrix_from_pairs(vec, d):
    """Embed a flat pair vector into a symmetric d x d matrix, unit diagonal."""
    M = np.ones((d, d))
    ii0, jj0 = _pairs0(d)
    M[ii0, jj0] = vec
    M[jj0, ii0] = vec
    return M


def _build_hypothesis(kind, path, d):
    """Translate the CLI hypothesis spec into a Partition or DesignMatrix;
    every kind but "exchangeable" reads --hypothesis-file, and that one
    refuses it."""
    if kind == "exchangeable":
        if path is not None:
            raise ValueError("--hypothesis exchangeable takes no --hypothesis-file")
        return Partition.exchangeable(d)
    if path is None:
        raise ValueError("--hypothesis %s needs --hypothesis-file with %s"
                         % (kind, "a CSV" if kind == "design" else "the partition JSON"))
    if kind == "design":
        design = load_design_csv(path)
        if design.p != pair_count(d):
            raise ValueError(
                "%s: design has %d rows but the data implies %d variable pairs"
                % (path, design.p, pair_count(d))
            )
        return design
    part = load_partition_json(path)
    if part.d != d:
        raise ValueError(
            "%s: partition is for %d variables but the data has %d"
            % (path, part.d, d)
        )
    return diagonal_free_membership_matrix(part) if kind == "diagonal-free" else part


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
    # each TestOptions field from the flag of its name
    options = TestOptions(**{f.name: getattr(args, f.name)
                             for f in dataclasses.fields(TestOptions)})
    hypothesis = _build_hypothesis(args.hypothesis, args.hypothesis_file, d)
    report, tau, theta = _run_test(X, hypothesis, options)

    for note in report.warnings:
        print("note: %s" % note, file=sys.stderr)

    if args.out is None:
        print(report.to_json())
        return 0

    report.save(args.out)
    stem, _ = os.path.splitext(args.out)
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


def _from_dict(cls, obj, where):
    """A ``cls`` dataclass from a config object, its fields read by
    ``indexing._read_fields``; a key that no field takes, or a missing
    key that one needs, is a ValueError that names it."""
    fields = dataclasses.fields(cls)
    _check_keys(obj, [f.name for f in fields], where,
                required=[f.name for f in fields if f.default is dataclasses.MISSING])
    return _read_fields(cls(**obj), where + ": ")


def _scenario_from_dict(obj, where):
    scenario = _from_dict(ScenarioConfig, obj, where)
    scenario.tests = tuple(_from_dict(TestOptions, t, "%s, test %d" % (where, i))
                           for i, t in enumerate(scenario.tests))
    return scenario


def load_study_json(path):
    """Read a study config by ``indexing._read_json``: {"scenarios":
    [...], "seed": int}, a list of scenarios, or one scenario (which may
    hold the "seed").  A key that no scenario or test field takes, and a
    value its field does not take, is a ValueError that names the file
    and the field."""
    obj = _read_json(path)
    if isinstance(obj, list):
        obj = {"scenarios": obj}
    elif isinstance(obj, dict) and "scenarios" not in obj:
        obj = {"seed": obj.pop("seed", None), "scenarios": [obj]}
    _check_keys(obj, ("scenarios", "seed"), path)
    scenarios = [_scenario_from_dict(s, "%s, scenario %d" % (path, i))
                 for i, s in enumerate(_field(tuple, obj["scenarios"], "%s: scenarios" % path))]
    if not scenarios:
        raise ValueError("%s: no scenarios found" % path)
    seed = obj.get("seed")
    return scenarios, None if seed is None else _field(int, seed, "%s: seed" % path)


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
    # every rule of a scenario and its tests, on the replicates they will run with
    for i, sc in enumerate(scenarios):
        sc.validate("%s, scenario %d" % (args.config, i))
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
    # each option flag takes its TestOptions field's default and, for a
    # choice field, the values its Literal type declares
    for name in ("statistic", "weighting", "estimator", "replicates", "seed", "null_draws"):
        kind = TestOptions.__annotations__[name]
        t.add_argument("--" + name.replace("_", "-"), default=getattr(TestOptions, name),
                       choices=_choices(kind) or None, type=int if kind is int else None,
                       required=name == "seed")
    t.add_argument("--plus-one", action="store_true")
    t.add_argument("--jitter-ties", dest="ties", action="store_const", const="jitter",
                   default=TestOptions.ties)
    t.add_argument("--tie-seed", type=int, default=TestOptions.tie_seed)
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
