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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .indexing import Partition, block_membership_matrix
from .kendall import TieError
from .projection import RankDeficient
from .sblock import SingularError
from .testing import run_test

__all__ = [
    "NotPositiveDefinite",
    "ScenarioConfig",
    "tau_to_pearson",
    "build_tau_matrix",
    "balanced_block_sizes",
    "unbalanced_block_sizes",
    "sample_gaussian_with_tau",
    "run_study",
    "desk_scale",
    "DESK_REPETITIONS",
    "DESK_REPLICATES",
]

# reduced study size for laptop/CI runs; acceptance tolerances assume it
DESK_REPETITIONS = 1000
DESK_REPLICATES = 2000

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


def balanced_block_sizes(d):
    """Three equal groups: d1 = d2 = d3 = d/3."""
    if d % 3 != 0:
        raise ValueError("balanced blocks need d divisible by 3, got d=%d" % d)
    return (d // 3, d // 3, d // 3)


def unbalanced_block_sizes(d):
    """Three groups in 1:2:3 ratio: d1 = d2/2 = d3/3 = d/6."""
    if d % 6 != 0:
        raise ValueError("unbalanced blocks need d divisible by 6, got d=%d" % d)
    return (d // 6, 2 * d // 6, 3 * d // 6)


@dataclass
class ScenarioConfig:
    """One simulation scenario: data law, hypothesis, tests to run.

    structure: "equicorrelated" (off-diagonals tau), "block" (within- and
    between-group constants base - step*|g - h| for groups of the given
    sizes), or "custom" (explicit matrix).  departure: None, "single"
    (adds delta to the (1,2) entry) or "column" (adds delta to every
    entry not involving variable 1).  hypothesis_groups defaults to the
    single full-exchangeability group; each test runs against the
    partition (structured estimator) or its membership design matrix
    (jackknife estimator).
    """

    n: int
    d: int
    structure: str = "equicorrelated"
    tau: float = 0.0
    sizes: tuple = None
    base: float = 0.4
    step: float = 0.15
    matrix: object = None
    departure: str = None
    delta: float = 0.0
    hypothesis_groups: tuple = None
    repetitions: int = 2500
    tests: tuple = ()
    alpha: float = 0.05
    label: str = None

    def scenario_label(self):
        if self.label:
            return self.label
        bits = ["d%d" % self.d, "n%d" % self.n, self.structure]
        if self.structure == "equicorrelated":
            bits.append("tau%g" % self.tau)
        if self.departure:
            bits.append("%s%+g" % (self.departure, self.delta))
        return "-".join(bits)

    def partition(self):
        if self.hypothesis_groups is None:
            return Partition.exchangeable(self.d)
        return Partition(self.d, tuple(tuple(g) for g in self.hypothesis_groups))

    def validate(self):
        if self.n < 3:
            raise ValueError("scenarios need n >= 3")
        if not self.tests:
            raise ValueError("scenario has no tests configured")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        T = build_tau_matrix(self)
        R = tau_to_pearson(T)
        np.fill_diagonal(R, 1.0)
        w = np.linalg.eigvalsh(R)
        if w.min() <= 1e-12:
            raise NotPositiveDefinite(
                "scenario %s: the implied correlation matrix is not positive "
                "definite (smallest eigenvalue %.3e)" % (self.scenario_label(), w.min())
            )
        self.partition()  # raises if the groups are malformed
        for t in self.tests:
            probe = dataclasses.replace(t, seed=0)
            probe.validate()


def build_tau_matrix(config):
    """The d x d target Kendall matrix of a scenario, departures applied."""
    d = config.d
    if config.structure == "equicorrelated":
        T = np.full((d, d), float(config.tau))
    elif config.structure == "block":
        if config.sizes is None:
            raise ValueError("block structure needs group sizes")
        sizes = tuple(int(s) for s in config.sizes)
        if sum(sizes) != d or any(s < 1 for s in sizes):
            raise ValueError("block sizes %r do not partition d=%d" % (sizes, d))
        g = np.repeat(np.arange(len(sizes)), sizes)
        T = config.base - config.step * np.abs(g[:, None] - g[None, :])
    elif config.structure == "custom":
        T = np.array(config.matrix, dtype=float)
        if T.shape != (d, d):
            raise ValueError("custom matrix must be %d x %d" % (d, d))
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
    T = np.asarray(T, dtype=float)
    d = T.shape[0]
    R = tau_to_pearson(T)
    np.fill_diagonal(R, 1.0)
    off = R[~np.eye(d, dtype=bool)]
    if off.size and np.allclose(off, off[0], atol=1e-14):
        rho = float(off[0])
        if 0.0 <= rho < 1.0 - 1e-12:
            z0 = rng.standard_normal((n, 1))
            return np.sqrt(rho) * z0 + np.sqrt(1.0 - rho) * rng.standard_normal((n, d))
    w, V = np.linalg.eigh(R)
    if w.min() <= 1e-12:
        raise NotPositiveDefinite(
            "sin-transformed correlation matrix is not positive definite "
            "(smallest eigenvalue %.3e)" % w.min()
        )
    return rng.standard_normal((n, d)) @ (V * np.sqrt(w)).T


def desk_scale(config):
    """A copy of a scenario at desk scale: 1000 repetitions, N = 2000."""
    tests = tuple(
        dataclasses.replace(t, replicates=DESK_REPLICATES) for t in config.tests
    )
    return dataclasses.replace(config, repetitions=DESK_REPETITIONS, tests=tests)


def _test_label(options):
    return "%s-%s-%s" % (options.statistic, options.weighting, options.estimator)


def _derived_seed(seq):
    return int(seq.generate_state(1, np.uint64)[0])


_DISCARDABLE = (TieError, SingularError, NotPositiveDefinite, RankDeficient,
                np.linalg.LinAlgError)


def _rep_task(payload):
    """Run every configured test on one freshly generated dataset."""
    si, rep, master_seed, scenario = payload
    seqs = np.random.SeedSequence(
        master_seed, spawn_key=(si, rep)
    ).spawn(len(scenario.tests) + 1)
    T = build_tau_matrix(scenario)
    rows = []
    try:
        X = sample_gaussian_with_tau(T, scenario.n, np.random.default_rng(seqs[0]))
    except _DISCARDABLE as exc:
        return [
            (si, ti, rep, None, type(exc).__name__)
            for ti in range(len(scenario.tests))
        ]
    part = scenario.partition()
    design = None
    for ti, template in enumerate(scenario.tests):
        opts = dataclasses.replace(template, seed=_derived_seed(seqs[ti + 1]))
        if opts.estimator == "structured":
            hyp = part
        else:
            if design is None:
                design = block_membership_matrix(part)
            hyp = design
        try:
            report = run_test(X, hyp, opts)
            rows.append((si, ti, rep, float(report.p_value), ""))
        except _DISCARDABLE as exc:
            rows.append((si, ti, rep, None, type(exc).__name__))
    return rows


def _one_thread_per_worker():
    # the pool's workers already fill the CPUs, so each draws its Monte
    # Carlo normals inline rather than on a helper thread
    os.environ["KSTRUCT_THREADS"] = "1"


def _task_batches(tasks, nworkers):
    """The row batches of the tasks, in task order: from a process pool
    when there is more than one worker and one task, else in-process."""
    if nworkers > 1 and len(tasks) > 1:
        chunk = max(1, len(tasks) // (nworkers * 8))
        with ProcessPoolExecutor(
            max_workers=nworkers, initializer=_one_thread_per_worker
        ) as pool:
            yield from pool.map(_rep_task, tasks, chunksize=chunk)
    else:
        yield from map(_rep_task, tasks)


def _worker_count(workers):
    cap = os.environ.get("KSTRUCT_THREADS")
    if workers is None:
        workers = os.cpu_count() or 1
    if cap:
        workers = min(int(workers), max(1, int(cap)))
    return max(1, int(workers))


def _load_done(path, n_tests):
    """(scenario, rep) pairs whose rows are all present in an earlier file."""
    done = set()
    if not os.path.exists(path):
        return done
    counts = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            key = (int(row["scenario_index"]), int(row["rep"]))
            counts[key] = counts.get(key, 0) + 1
    for key, c in counts.items():
        if c >= n_tests.get(key[0], 1):
            done.add(key)
    return done


def _summarize(rows, scenarios, alpha_of):
    cells = {}
    for si, ti, rep, p, reason in rows:
        cell = cells.setdefault((si, ti), {"done": 0, "discard": 0, "reject": 0})
        cell["done"] += 1
        if p is None:
            cell["discard"] += 1
        elif p < alpha_of(si):
            cell["reject"] += 1
    out = []
    for (si, ti), cell in sorted(cells.items()):
        sc = scenarios[si]
        valid = cell["done"] - cell["discard"]
        rate = cell["reject"] / valid if valid else float("nan")
        se = np.sqrt(rate * (1 - rate) / valid) if valid else float("nan")
        out.append(
            {
                "scenario_index": si,
                "scenario": sc.scenario_label(),
                "d": sc.d,
                "n": sc.n,
                "tau": sc.tau,
                "structure": sc.structure,
                "departure": sc.departure or "",
                "delta": sc.delta,
                "test_index": ti,
                "test": _test_label(sc.tests[ti]),
                "repetitions": cell["done"],
                "discards": cell["discard"],
                "rejection_rate": rate,
                "binomial_se": se,
                "alpha": sc.alpha,
            }
        )
    return out


def _write_summary(out_dir, summary):
    cols = [
        "scenario_index", "scenario", "d", "n", "tau", "structure", "departure",
        "delta", "test_index", "test", "repetitions", "discards",
        "rejection_rate", "binomial_se", "alpha",
    ]
    with open(os.path.join(out_dir, _SUMMARY_FILE), "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        for row in summary:
            writer.writerow(row)


def _write_pivots(out_dir, summary):
    """One CSV per test label: rows d, columns n, one panel per tau value."""
    by_test = {}
    for row in summary:
        by_test.setdefault(row["test"], []).append(row)
    for test, rows in by_test.items():
        path = os.path.join(out_dir, "table_%s.csv" % test.replace("/", "-"))
        panels = {}
        for row in rows:
            panels.setdefault(row["tau"], []).append(row)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            for tau in sorted(panels):
                prow = panels[tau]
                ds = sorted({r["d"] for r in prow})
                ns = sorted({r["n"] for r in prow})
                writer.writerow(["tau=%g" % tau])
                writer.writerow(["d\\n"] + ns)
                for dv in ds:
                    line = [dv]
                    for nv in ns:
                        hit = [
                            r for r in prow if r["d"] == dv and r["n"] == nv
                        ]
                        line.append(
                            "%.1f" % (100.0 * hit[0]["rejection_rate"]) if hit else ""
                        )
                    writer.writerow(line)
                writer.writerow([])


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
    single-run one.  Worker processes are capped by the KSTRUCT_THREADS
    environment variable; the result is identical for any worker count.
    Each worker draws its Monte Carlo normals inline.
    """
    if isinstance(scenarios, ScenarioConfig):
        scenarios = [scenarios]
    scenarios = list(scenarios)
    if not scenarios:
        raise ValueError("no scenarios given")
    for sc in scenarios:
        sc.validate()
    n_tests = {si: len(sc.tests) for si, sc in enumerate(scenarios)}

    results_path = None
    done = set()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        results_path = os.path.join(out_dir, _RESULTS_FILE)
        done = _load_done(results_path, n_tests)
        _write_manifest(
            out_dir,
            {
                "status": "running",
                "seed": int(seed),
                "shard": list(shard) if shard else None,
                "version": __version__,
                "scenarios": [sc.scenario_label() for sc in scenarios],
            },
        )

    tasks = []
    for si, sc in enumerate(scenarios):
        lo, hi = 0, sc.repetitions
        if shard is not None:
            lo, hi = max(0, int(shard[0])), min(sc.repetitions, int(shard[1]))
        for rep in range(lo, hi):
            if (si, rep) not in done:
                tasks.append((si, rep, int(seed), sc))

    started = time.time()
    rows = []
    nworkers = _worker_count(workers)

    writer = None
    fh = None
    if results_path is not None:
        new_file = not os.path.exists(results_path) or os.path.getsize(results_path) == 0
        fh = open(results_path, "a", encoding="utf-8", newline="")
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(
                ["scenario_index", "test_index", "rep", "p_value", "discard_reason"]
            )

    try:
        for i, batch in enumerate(_task_batches(tasks, nworkers)):
            rows.extend(batch)
            if writer is not None:
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
        if fh is not None:
            fh.close()

    # fold in rows already on disk (earlier shards / resumed runs)
    if results_path is not None and os.path.exists(results_path):
        rows = []
        with open(results_path, "r", encoding="utf-8", newline="") as rfh:
            for row in csv.DictReader(rfh):
                rows.append(
                    (
                        int(row["scenario_index"]),
                        int(row["test_index"]),
                        int(row["rep"]),
                        float(row["p_value"]) if row["p_value"] != "" else None,
                        row["discard_reason"],
                    )
                )

    summary = _summarize(rows, scenarios, lambda si: scenarios[si].alpha)

    if out_dir is not None:
        _write_summary(out_dir, summary)
        _write_pivots(out_dir, summary)
        discards = {}
        for _, _, _, p, reason in rows:
            if p is None and reason:
                discards[reason] = discards.get(reason, 0) + 1
        _write_manifest(
            out_dir,
            {
                "status": "complete",
                "seed": int(seed),
                "shard": list(shard) if shard else None,
                "version": __version__,
                "scenarios": [sc.scenario_label() for sc in scenarios],
                "tests": [_test_label(t) for sc in scenarios for t in sc.tests],
                "repetitions_completed": len({(r[0], r[2]) for r in rows}),
                "discards": discards,
                "elapsed_seconds": round(time.time() - started, 3),
                "workers": nworkers,
            },
        )
    return summary
