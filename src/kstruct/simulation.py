"""Gaussian data generation with prescribed Kendall structure, and the
size/power study harness.

For multivariate normal data the population Kendall correlation tau and
the Pearson correlation rho are linked entrywise by rho = sin(pi tau / 2),
so a target Kendall matrix T is realized by sampling from the normal
distribution whose correlation matrix is the sin-transform of T.  Null
scenarios use equicorrelated or block-structured T; alternatives perturb
a null T by a single-entry or whole-column departure.

run_study repeats (generate data -> run each configured test) many times
per scenario and reports rejection rates at a chosen level.  Every
repetition derives its own RNG streams from (master seed, scenario index,
repetition index), so results are bit-for-bit reproducible regardless of
worker count, and disjoint repetition shards can run on different
machines and merge by concatenating their per-repetition result files.
"""

import csv
import dataclasses
import json
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._version import __version__
from .indexing import _SIZES, Partition, _field, _integer, _read_fields, _read_json
from .kendall import KendallSample, TieError
from .projection import RankDeficient
from .sblock import SingularError
from .testing import run_test

__all__ = [
    "NotPositiveDefinite",
    "ScenarioConfig",
    "tau_to_pearson",
    "build_tau_matrix",
    "sample_gaussian_with_tau",
    "run_study",
    "desk_scale",
    "DESK_REPETITIONS",
    "DESK_REPLICATES",
]

# reduced study size for laptop/CI runs; acceptance tolerances assume it
DESK_REPETITIONS = 1000
DESK_REPLICATES = 2000

# the fields that only one structure reads
_READ_BY = (("tau", "equicorrelated"), ("sizes", "block"), ("base", "block"),
            ("step", "block"), ("matrix", "custom"))

_RESULTS_FILE = "results.csv"
_SUMMARY_FILE = "summary.csv"
_MANIFEST_FILE = "manifest.json"


class NotPositiveDefinite(ValueError):
    """The sin-transformed correlation matrix is not positive definite."""


def tau_to_pearson(tau):
    """Map Kendall correlation(s) to normal Pearson correlation(s).

    rho = sin(pi tau / 2), entrywise; inputs must lie in [-1, 1].
    """
    arr = np.asarray(tau, dtype=float)
    if np.abs(arr).max() > 1.0:
        raise ValueError("Kendall correlations must lie in [-1, 1]")
    out = np.sin(np.pi * arr / 2.0)
    if np.isscalar(tau) or arr.ndim == 0:
        return float(out)
    return out


@dataclass
class ScenarioConfig:
    """One simulation scenario: data law, hypothesis, tests to run.

    structure: "equicorrelated" (off-diagonals tau), "block" (within- and
    between-group constants base - step*|g - h| for groups of the given
    sizes), or "custom" (explicit matrix).  departure: None, "single"
    (adds delta to the (1,2) entry) or "column" (adds delta to every
    entry not involving variable 1).  hypothesis_groups defaults to the
    single full-exchangeability group; each test runs against that
    partition, which the jackknife estimator tests as its membership
    design matrix.
    """

    n: int
    d: int
    structure: Literal["equicorrelated", "block", "custom"] = "equicorrelated"
    tau: float = 0.0
    sizes: _SIZES = None
    base: float = 0.4
    step: float = 0.15
    matrix: object = None
    departure: Literal["single", "column"] = None
    delta: float = 0.0
    hypothesis_groups: tuple = None
    repetitions: int = 2500
    tests: tuple = ()
    alpha: float = 0.05
    label: str = None

    def scenario_label(self):
        if self.label:
            return self.label
        bits = ["d%s" % self.d, "n%s" % self.n, self.structure]
        if self.structure == "equicorrelated":
            bits.append("tau%g" % self.tau)
        if self.departure:
            bits.append("%s%+g" % (self.departure, self.delta))
        return "-".join(bits)

    def partition(self):
        if self.hypothesis_groups is None:
            return Partition.exchangeable(self.d)
        return Partition(self.d, self.hypothesis_groups)

    def validate(self, where=None):
        """Check the scenario and each of its tests, the one place a
        study's rules are checked.  Its int, float, tuple and choice
        fields are read in place by the rule of ``indexing._field`` (n =
        20.0 becomes 20, tau = 0 becomes 0.0; 20.5, "0.3", NaN and a
        structure it does not declare are refused); n, alpha,
        repetitions, tests and the hypothesis partition are checked, and
        that its data can be drawn: the sampler's own factorization
        decides positive definiteness.  A field that the scenario's
        structure or departure does not read (``tau`` but for
        "equicorrelated"; ``sizes``, ``base`` and ``step`` but for
        "block"; ``matrix`` but for "custom"; ``delta`` with no
        departure) must keep its default.  Each test must carry no seed
        (run_study derives it) and pass ``TestOptions.validate``.

        A refusal is a ValueError (``NotPositiveDefinite`` for the
        sampler's) whose text starts with ``where``, by default
        ``scenario <label>``; a test's starts with ``<where>, test <j>``.
        """
        try:
            label = self.scenario_label()
        except TypeError:  # a tau or delta that is not a number, refused below
            label = self.label or "d%s-n%s-%s" % (self.d, self.n, self.structure)
        _read_fields(self, "%s: " % (where or "scenario " + label))
        where = where or "scenario " + self.scenario_label()
        named = where  # the scenario, or the test being checked
        try:
            defaults = {f.name: f.default for f in dataclasses.fields(self)}
            for name, structure in _READ_BY:
                value = getattr(self, name)
                if self.structure != structure and (
                        value is not None if defaults[name] is None else value != defaults[name]):
                    raise ValueError("%s is not read by structure=%r and must keep its "
                                     "default %r" % (name, self.structure, defaults[name]))
            if self.departure is None and self.delta != defaults["delta"]:
                raise ValueError("delta is not read without a departure and must keep "
                                 "its default %r" % defaults["delta"])
            if self.n < 3:
                raise ValueError("scenarios need n >= 3")
            if not self.tests:
                raise ValueError("scenario has no tests configured")
            if not 0.0 < self.alpha < 1.0:
                raise ValueError("alpha must be in (0, 1)")
            if self.repetitions < 1:
                raise ValueError("repetitions must be positive")
            self.partition()  # raises if d < 2 or the groups are malformed
            _gaussian_rows(build_tau_matrix(self))
            for j, t in enumerate(self.tests):
                named = "%s, test %d" % (where, j)
                if t.seed is not None:
                    raise ValueError("a test takes no \"seed\"; run_study derives each "
                                     "test's seed from the study seed")
                dataclasses.replace(t, seed=0).validate()
        except ValueError as exc:  # NotPositiveDefinite too
            raise type(exc)("%s: %s" % (named, exc)) from None


def build_tau_matrix(config):
    """The d x d target Kendall matrix of a scenario, departures applied."""
    d = config.d
    if config.structure == "equicorrelated":
        T = np.full((d, d), float(config.tau))
    elif config.structure == "block":
        if config.sizes is None:
            raise ValueError("block structure needs group sizes")
        sizes = _field(_SIZES, config.sizes, "block size")
        if sum(sizes) != d or any(s < 1 for s in sizes):
            raise ValueError("block sizes %r do not partition d=%d" % (sizes, d))
        g = np.repeat(np.arange(len(sizes)), sizes)
        T = config.base - config.step * np.abs(g[:, None] - g[None, :])
    elif config.structure == "custom":
        T = np.array(config.matrix, dtype=float)
        if T.shape != (d, d):
            raise ValueError("custom matrix must be %d x %d" % (d, d))
        bad = np.argwhere(~np.isfinite(T))
        if bad.size:
            i, j = bad[0]
            raise ValueError("custom Kendall matrix entry (%d, %d) is %r, not a finite number"
                             % (i + 1, j + 1, float(T[i, j])))
        if not np.allclose(T, T.T, atol=1e-12):
            raise ValueError("custom Kendall matrix must be symmetric")
    else:
        raise ValueError("unknown structure %r" % (config.structure,))
    T = T.copy()
    np.fill_diagonal(T, 1.0)

    if config.departure == "single":
        T[0, 1] += config.delta
        T[1, 0] += config.delta
    elif config.departure == "column":
        mask = np.ones((d, d), dtype=bool)
        mask[0, :] = False
        mask[:, 0] = False
        np.fill_diagonal(mask, False)
        T[mask] += config.delta
    elif config.departure is not None:
        raise ValueError("departure must be None, 'single' or 'column'")

    off = T[~np.eye(d, dtype=bool)]
    if off.size and np.abs(off).max() > 1.0:
        raise ValueError(
            "departure pushes a Kendall entry outside [-1, 1] (max %.3f)"
            % np.abs(off).max()
        )
    return T


def sample_gaussian_with_tau(T, n, rng):
    """n normal rows whose population Kendall correlation matrix is T.

    Equicorrelated nonnegative targets use the one-factor construction
    sqrt(rho) Z0 + sqrt(1-rho) Zj in O(nd); anything else goes through a
    symmetric factorization of the sin-transformed matrix.
    """
    return _gaussian_rows(T)(n, rng)


def _gaussian_rows(T):
    """The sampler (n, rng) -> rows of ``sample_gaussian_with_tau(T, n,
    rng)``, with the factorization of the sin-transformed matrix taken
    here, once for every draw."""
    T = np.asarray(T, dtype=float)
    d = T.shape[0]
    R = tau_to_pearson(T)
    np.fill_diagonal(R, 1.0)
    off = R[~np.eye(d, dtype=bool)]
    if off.size and np.allclose(off, off[0], atol=1e-14):
        rho = float(off[0])
        if 0.0 <= rho < 1.0 - 1e-12:
            def one_factor(n, rng):
                z0 = rng.standard_normal((n, 1))
                return np.sqrt(rho) * z0 + np.sqrt(1.0 - rho) * rng.standard_normal((n, d))
            return one_factor
    w, V = np.linalg.eigh(R)
    if w.min() <= 1e-12:
        raise NotPositiveDefinite(
            "sin-transformed correlation matrix is not positive definite "
            "(smallest eigenvalue %.3e)" % w.min()
        )
    F = (V * np.sqrt(w)).T
    return lambda n, rng: rng.standard_normal((n, d)) @ F


def desk_scale(config):
    """A copy of a scenario at desk scale: 1000 repetitions, N = 2000."""
    tests = tuple(
        dataclasses.replace(t, replicates=DESK_REPLICATES) for t in config.tests
    )
    return dataclasses.replace(config, repetitions=DESK_REPETITIONS, tests=tests)


def _test_label(options):
    label = "%s-%s-%s" % (options.statistic, options.weighting, options.estimator)
    if options.null_draws != "auto":
        label += "-" + options.null_draws
    return label


def _derived_seed(seq):
    return int(seq.generate_state(1, np.uint64)[0])


_DISCARDABLE = (TieError, SingularError, RankDeficient, np.linalg.LinAlgError)


def _ranked(X, ties, tie_seed):
    """X as a KendallSample, or the TieError its ranking raised."""
    try:
        return KendallSample(X, ties, tie_seed)
    except TieError as exc:
        return exc


def _prepare(scenarios):
    """What every repetition of each scenario shares: the scenario, the
    sampler of its data and its hypothesis partition.  Each
    process that runs repetitions prepares them once: every pool worker,
    or run_study itself when it runs them in-process."""
    return [(sc, _gaussian_rows(build_tau_matrix(sc)), sc.partition()) for sc in scenarios]


def _rep_task(study, task):
    """Run every configured test of scenario ``si`` on the dataset of
    repetition ``rep``, task = (si, rep, master seed) and ``study`` the
    prepared scenarios; the dataset is ranked once per distinct (ties,
    tie_seed) among the tests, and a ranking that fails discards every
    test that shares it."""
    si, rep, master_seed = task
    scenario, make_rows, hypothesis = study[si]
    seqs = np.random.SeedSequence(
        master_seed, spawn_key=(si, rep)
    ).spawn(len(scenario.tests) + 1)
    X = make_rows(scenario.n, np.random.default_rng(seqs[0]))
    rows = []
    samples = {}
    for ti, template in enumerate(scenario.tests):
        opts = dataclasses.replace(template, seed=_derived_seed(seqs[ti + 1]))
        try:
            key = (opts.ties, opts.tie_seed)
            if key not in samples:
                samples[key] = _ranked(X, *key)
            if isinstance(samples[key], TieError):
                raise samples[key]
            report = run_test(samples[key], hypothesis, opts)
            rows.append((si, ti, rep, float(report.p_value), ""))
        except _DISCARDABLE as exc:
            rows.append((si, ti, rep, None, type(exc).__name__))
    return rows


# the prepared scenarios of the study that a pool worker runs
_worker_study = None


def _start_worker(scenarios):
    global _worker_study
    _worker_study = _prepare(scenarios)


def _worker_task(task):
    return _rep_task(_worker_study, task)


def _task_batches(tasks, scenarios, nworkers):
    """The row batches of the tasks, in task order: from a process pool
    when there is more than one worker and one task, else in-process."""
    if nworkers > 1 and len(tasks) > 1:
        chunk = max(1, len(tasks) // (nworkers * 8))
        with ProcessPoolExecutor(max_workers=nworkers, initializer=_start_worker,
                                 initargs=(scenarios,)) as pool:
            yield from pool.map(_worker_task, tasks, chunksize=chunk)
    else:
        study = _prepare(scenarios)
        yield from (_rep_task(study, task) for task in tasks)


def _read_results(path):
    """The (scenario, test, rep, p, reason) rows of a results file, one
    for each (scenario, test, rep); none before it exists.  A run that
    resumes a repetition an earlier run left partly written writes all
    of its rows again, equal to those already there."""
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [
            (int(row["scenario_index"]), int(row["test_index"]), int(row["rep"]),
             float(row["p_value"]) if row["p_value"] != "" else None, row["discard_reason"])
            for row in csv.DictReader(fh)
        ]
    # one row per (scenario, test, rep), in the order of its first
    return list({row[:3]: row for row in rows}.values())


# the columns of a summary row, in the order summary.csv writes them
_SUMMARY_COLUMNS = ("scenario_index", "scenario", "d", "n", "tau", "structure", "departure",
                    "delta", "test_index", "test", "repetitions", "discards",
                    "rejection_rate", "binomial_se", "alpha")


def _summarize(rows, scenarios):
    cells = {}
    for si, ti, rep, p, reason in rows:
        cell = cells.setdefault((si, ti), {"done": 0, "discard": 0, "reject": 0})
        cell["done"] += 1
        if p is None:
            cell["discard"] += 1
        elif p < scenarios[si].alpha:
            cell["reject"] += 1
    out = []
    for (si, ti), cell in sorted(cells.items()):
        sc = scenarios[si]
        valid = cell["done"] - cell["discard"]
        rate = cell["reject"] / valid if valid else float("nan")
        se = np.sqrt(rate * (1 - rate) / valid) if valid else float("nan")
        out.append(dict(zip(_SUMMARY_COLUMNS, (
            si, sc.scenario_label(), sc.d, sc.n, sc.tau, sc.structure, sc.departure or "",
            sc.delta, ti, _test_label(sc.tests[ti]), cell["done"], cell["discard"], rate, se,
            sc.alpha,
        ))))
    return out


def _write_summary(out_dir, summary):
    with open(os.path.join(out_dir, _SUMMARY_FILE), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(summary)


# summary fields that tell panels apart, tried in this order
_PANEL_FIELDS = ("tau", "structure", "departure", "delta", "alpha", "scenario",
                 "test_index", "scenario_index")


def _panels(rows):
    """(title, rows) of the panels of one pivot file, in key order.

    Panels are keyed by tau and then, while two rows would share a
    (d, n) cell, by each further field of _PANEL_FIELDS that varies
    among the rows, so every row lands in exactly one cell.
    """
    fields = []
    for field in _PANEL_FIELDS:
        if field == "tau" or len({r[field] for r in rows}) > 1:
            fields.append(field)
        keys = [tuple(r[f] for f in fields) for r in rows]
        if len({k + (r["d"], r["n"]) for k, r in zip(keys, rows)}) == len(rows):
            break
    panels = {}
    for key, row in zip(keys, rows):
        panels.setdefault(key, []).append(row)
    for key in sorted(panels):
        yield ", ".join(map(_field_text, fields, key)), panels[key]


def _field_text(field, value):
    if field in ("tau", "delta", "alpha"):
        return "%s=%g" % (field, value)
    return "%s=%s" % (field, "none" if value == "" else value)


def _write_pivots(out_dir, summary):
    """One CSV per test label: rows d, columns n, one panel per tau value
    (split further where rows would share a cell, see ``_panels``)."""
    by_test = {}
    for row in summary:
        by_test.setdefault(row["test"], []).append(row)
    for test, rows in by_test.items():
        path = os.path.join(out_dir, "table_%s.csv" % test.replace("/", "-"))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            for title, prow in _panels(rows):
                cells = {(r["d"], r["n"]): r["rejection_rate"] for r in prow}
                ds = sorted({r["d"] for r in prow})
                ns = sorted({r["n"] for r in prow})
                writer.writerow([title])
                writer.writerow(["d\\n"] + ns)
                for dv in ds:
                    writer.writerow([dv] + [
                        "%.1f" % (100.0 * cells[dv, nv]) if (dv, nv) in cells else ""
                        for nv in ns
                    ])
                writer.writerow([])


def _drop_partial_row(path):
    """Cut the file at ``path``, when there is one, back to its last line
    terminator: a row or header that a stopped run left half-written is
    dropped, and its repetition runs again.  One writer at a time."""
    if os.path.exists(path):
        with open(path, "r+b") as fh:
            fh.truncate(fh.read().rfind(b"\n") + 1)


def _scenario_fields(scenarios):
    """Each scenario's fields that decide its rows, as a manifest records
    them: every field but repetitions and alpha, each test as its
    ``to_dict()`` without the seed, in the form JSON reads back."""
    return json.loads(json.dumps([
        dict({f.name: getattr(sc, f.name) for f in dataclasses.fields(sc)
              if f.name not in ("repetitions", "alpha")},
             tests=[{k: v for k, v in t.to_dict().items() if k != "seed"} for t in sc.tests])
        for sc in scenarios], default=lambda v: np.asarray(v).tolist()))


def _write_manifest(out_dir, payload):
    with open(os.path.join(out_dir, _MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")


def run_study(
    scenarios,
    seed,
    out_dir=None,
    shard=None,
    workers=None,
    progress=False,
):
    """Run the configured scenarios and return rejection-rate summary rows.

    ``shard=(A, B)`` restricts each scenario to repetitions A..B-1 so
    disjoint shards can run separately; pointing them at the same
    ``out_dir`` accumulates one results file whose summary equals the
    single-run one.  ``workers`` sets the number of worker processes
    (default: the CPU count); the result is identical for any worker
    count.  Each worker draws its Monte Carlo normals inline.  Each
    scenario is checked by ``ScenarioConfig.validate``, so a test that
    carries a seed is refused: each test's seed is derived from ``seed``.
    An ``out_dir`` whose manifest records another seed, other scenario
    labels or other ``scenario_fields`` (every field but repetitions and
    alpha, which a resumed run may change), holds no such record, or is
    not a JSON object, is refused with ValueError, so the rows of two
    studies never mix.  A repetition that an earlier run left partly
    written, down to a row cut in half, is run again and counted once;
    one run at a time may write to an ``out_dir``.
    ``seed``, the shard's bounds and ``workers`` are read as integers:
    7.0 is 7, and 7.9 is refused; so are a negative seed, a shard other
    than 0 <= A < B and ``workers`` below 1, before any file is written.
    """
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError("seed must be non-negative, got %d" % seed)
    lo, hi = 0, float("inf")
    if shard is not None:
        lo, hi = shard = [_integer(s, "shard") for s in shard]
        if not 0 <= lo < hi:
            raise ValueError("shard needs 0 <= A < B, got (%d, %d)" % (lo, hi))
    nworkers = (os.cpu_count() or 1) if workers is None else _integer(workers, "workers")
    if nworkers < 1:
        raise ValueError("workers must be at least 1, got %d" % nworkers)
    if isinstance(scenarios, ScenarioConfig):
        scenarios = [scenarios]
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("no scenarios given")
    for sc in scenarios:
        sc.validate()

    done = set()
    labels = [sc.scenario_label() for sc in scenarios]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        fields = _scenario_fields(scenarios)
        earlier_path = os.path.join(out_dir, _MANIFEST_FILE)
        if os.path.exists(earlier_path):  # rows already there would count as this study's
            earlier = _read_json(earlier_path)
            if not isinstance(earlier, dict):
                raise ValueError("%s: %r is not an object" % (earlier_path, earlier))
            if (earlier.get("seed"), earlier.get("scenarios")) != (seed, labels):
                raise ValueError(
                    "%s holds the study of seed %r, scenarios %r; this run has seed %r, "
                    "scenarios %r" % (out_dir, earlier.get("seed"), earlier.get("scenarios"),
                                      seed, labels)
                )
            kept = earlier.get("scenario_fields")
            if not isinstance(kept, list):
                raise ValueError("%s records no scenario fields (it predates them), so its "
                                 "rows cannot be told from this run's" % earlier_path)
            if kept != fields:
                changed = [label for label, a, b in zip(labels, kept, fields) if a != b]
                raise ValueError("%s holds the rows of scenarios %r with other fields than "
                                 "this run's" % (out_dir, changed or labels))
        results_path = os.path.join(out_dir, _RESULTS_FILE)
        _drop_partial_row(results_path)
        # a repetition is done when an earlier run wrote every test's row
        counts = Counter((si, rep) for si, _, rep, _, _ in _read_results(results_path))
        done = {key for key, c in counts.items() if c >= len(scenarios[key[0]].tests)}
        manifest = {"status": "running", "seed": seed, "shard": shard, "version": __version__,
                    "scenarios": labels, "scenario_fields": fields}
        _write_manifest(out_dir, manifest)

    tasks = [(si, rep, seed) for si, sc in enumerate(scenarios)
             for rep in range(lo, min(sc.repetitions, hi)) if (si, rep) not in done]
    started = time.time()
    rows = []
    writer = None
    if out_dir is not None:
        new_file = not os.path.exists(results_path) or os.path.getsize(results_path) == 0
        fh = open(results_path, "a", encoding="utf-8", newline="")
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(
                ["scenario_index", "test_index", "rep", "p_value", "discard_reason"]
            )

    try:
        for i, batch in enumerate(_task_batches(tasks, scenarios, nworkers)):
            if writer is None:
                rows.extend(batch)
            else:
                writer.writerows(
                    [si, ti, rep, "" if p is None else "%.17g" % p, reason]
                    for si, ti, rep, p, reason in batch
                )
            if progress and (i + 1) % max(1, len(tasks) // 20) == 0:
                print(
                    "progress: %d/%d repetitions" % (i + 1, len(tasks)),
                    file=sys.stderr,
                )
    finally:
        if writer is not None:
            fh.close()

    if out_dir is None:
        return _summarize(rows, scenarios)
    # fold in rows already on disk (earlier shards, resumed runs, and
    # shards written beside this one)
    rows = _read_results(results_path)
    summary = _summarize(rows, scenarios)
    _write_summary(out_dir, summary)
    _write_pivots(out_dir, summary)
    manifest.update(
        status="complete",
        tests=[_test_label(t) for sc in scenarios for t in sc.tests],
        repetitions_completed=len({(r[0], r[2]) for r in rows}),
        discards=dict(Counter(reason for _, _, _, p, reason in rows if p is None and reason)),
        elapsed_seconds=round(time.time() - started, 3),
        workers=nworkers,
    )
    _write_manifest(out_dir, manifest)
    return summary
