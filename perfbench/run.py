#!/usr/bin/env python3
"""kstruct benchmark: end-to-end test latency and study throughput, and
per-layer times from a separate traced run.

    python3 perfbench/run.py --workload exch-kernel --seed 1 --seconds 26 --trace 0

Workloads (see perfbench/README.md): exch-kernel, dense-d60, study-small.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; either way the last line of standard output is one JSON object
with keys correct, attempted, failed and metrics.  The package is always
imported from ``src/`` of the checkout this file sits in; the run fails
if it is missing.  ``--size smoke`` shrinks the inputs for the
benchmark's own tests and is not a benchmark setting.
"""

import os

# one BLAS thread per process, fixed before NumPy is loaded: study workers
# would otherwise oversubscribe the cores, and pinned runs are steadier
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# run_study caps its workers by this variable; the benchmark sets workers
os.environ.pop("KSTRUCT_THREADS", None)

import argparse
import csv
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
RESULTS_DIR = ROOT / ".perfbench_results"

# the package under test is the checkout's src/, never an installed copy
_INIT = SRC / "kstruct" / "__init__.py"
if not _INIT.is_file():
    raise SystemExit("perfbench: %s not found; run from a kstruct checkout" % _INIT)
sys.path.insert(0, str(SRC))

import kstruct  # noqa: E402
import kstruct.simulation  # noqa: E402
import kstruct.testing  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

if Path(kstruct.__file__).resolve() != _INIT.resolve():
    raise SystemExit("perfbench: imported kstruct from %s, not %s" % (kstruct.__file__, _INIT))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3
STUDY_CHECK_REPS = 8
STUDY_BATCHES = 4


def nproc():
    return len(os.sched_getaffinity(0))


class Outcome:
    """Attempted and failed operations, with the reasons of failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok, note=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def ok_ratio(self):
        return (self.attempted - self.failed) / self.attempted


# ---------------------------------------------------------------------------
# exch-kernel and dense-d60: passes of run_test calls


class PassRunner:
    """Runs passes of a workload's calls, each call on its own seeded data."""

    def __init__(self, workload, size, outcome, expected):
        self.calls, self.replicates = workloads.PASSES[(workload, size)]
        self.hypotheses = workloads.hypotheses(self.calls)
        self.inputs = workloads.InputMaker(self.calls)
        self.outcome = outcome
        self.expected = expected

    def run(self, seed, pass_index):
        """(wall seconds, per-call seconds, reports) of one pass."""
        times, reports = [], []
        start = time.perf_counter()
        for i, call in enumerate(self.calls):
            X, test_seed = self.inputs.make(call, seed, pass_index, i)
            opts = workloads.options(call, test_seed, self.replicates)
            hypothesis = self.hypotheses[(call.d, call.hypothesis)]
            t0 = time.perf_counter()
            try:
                report = kstruct.testing.run_test(X, hypothesis, opts)
            except Exception as exc:  # a failed call is counted, not fatal
                report = exc
            times.append(time.perf_counter() - t0)
            reports.append(report)
        return time.perf_counter() - start, times, reports

    def check(self, reports, against_reference=False):
        for i, report in enumerate(reports):
            where = "call %d (%s)" % (i, self.calls[i].route_name)
            if isinstance(report, Exception):
                self.outcome.record(False, "%s raised %r" % (where, report))
                continue
            ref = self.expected[i]
            if against_reference:
                problems = reference.call_problems(report, ref)
            else:
                problems = []
                if report.method != ref["method"]:
                    problems.append("method %s, expected %s" % (report.method, ref["method"]))
                if not (0.0 <= report.p_value <= 1.0 and 0.0 <= report.value < float("inf")):
                    problems.append("value %r p_value %r" % (report.value, report.p_value))
            self.outcome.record(not problems, "%s: %s" % (where, "; ".join(problems)))


def _same_outputs(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return False
    return (a.method, a.value, a.p_value) == (b.method, b.value, b.p_value)


def run_passes(args, outcome):
    ref = reference.load(args.workload, args.size)["calls"]
    runner = PassRunner(args.workload, args.size, outcome, ref)
    # warm-up: every route once on tiny inputs, outside the timed region
    PassRunner(args.workload, "smoke", Outcome(), None).run(workloads.REFERENCE_SEED, 0)

    def seed_of(k):
        # the first timed pass runs the fixed inputs of the output check
        return workloads.REFERENCE_SEED if k == 0 else args.seed

    budget = args.seconds if not args.trace else args.seconds / 2.0
    passes = []
    timed = 0.0
    while not passes or timed < budget:
        k = len(passes)
        wall, times, reports = runner.run(seed_of(k), k)
        timed += wall
        runner.check(reports, against_reference=k == 0)
        passes.append((wall, times, reports))

    if args.trace:
        tracer = Tracer(kstruct)
        tracer.install()
        try:
            t0 = time.perf_counter()
            replays = [runner.run(seed_of(k), k) for k in range(len(passes))]
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        for (_, _, before), (_, _, after) in zip(passes, replays):
            for i, (a, b) in enumerate(zip(before, after)):
                outcome.record(_same_outputs(a, b), "call %d differs when traced" % i)
        metrics = tracer.metrics(traced_wall, len(passes))
        metrics["trace_overhead"] = (traced_wall / sum(p[0] for p in passes), "ratio")
        return metrics, {"passes": len(passes), "workers": 1, "walls": [p[0] for p in passes]}

    wall = sum(p[0] for p in passes)
    calls = sum(len(p[1]) for p in passes)
    metrics = {
        "tests_per_s": (calls / wall, "1/s"),
        "test_s_p50": (statistics.median(t for p in passes for t in p[1]), "s"),
        "study_reps_per_s": (len(passes) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for route in workloads.ROUTE_NAMES:
        per_pass = [
            sum(t for c, t in zip(runner.calls, p[1]) if c.route_name == route)
            for p in passes
        ]
        metrics["route_s." + route] = (statistics.median(per_pass), "s")
    return metrics, {"passes": len(passes), "workers": 1, "walls": [p[0] for p in passes]}


# ---------------------------------------------------------------------------
# study-small: run_study over shards of repetitions


def read_results(data):
    """(scenario, test, rep, p_value or None, discard reason) rows of results.csv."""
    rows = []
    for row in csv.DictReader(io.StringIO(data.decode("utf-8"))):
        p = row["p_value"]
        rows.append((int(row["scenario_index"]), int(row["test_index"]), int(row["rep"]),
                     float(p) if p != "" else None, row["discard_reason"]))
    return rows


def tally_cells(rows):
    """{(scenario, test): (valid repetitions, rejections at the study level)}."""
    cells = {}
    for si, ti, _, p, _ in rows:
        valid, rejections = cells.get((si, ti), (0, 0))
        if p is not None:
            valid += 1
            rejections += p < workloads.STUDY_ALPHA
        cells[(si, ti)] = (valid, rejections)
    return cells


class CallTimer:
    """Stands in for run_test inside run_study and appends each call's
    study cell and seconds to a file of the calling process.

    Worker processes forked by run_study inherit it, so per-call times are
    measured where the calls run without any change to the package.
    """

    def __init__(self, run_test, directory):
        self._run_test = run_test
        self._directory = directory

    def __call__(self, data, hypothesis, options):
        t0 = time.perf_counter()
        report = self._run_test(data, hypothesis, options)
        spent = time.perf_counter() - t0
        path = self._directory / ("calls-%d.txt" % os.getpid())
        n, d = data.shape
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("%d %d %s %s %s %r\n" % (
                n, d, options.statistic, options.weighting, options.estimator, spent))
        return report

    def collect(self):
        """Drain the per-process files into a list of (study cell, seconds)."""
        out = []
        for path in sorted(self._directory.glob("calls-*.txt")):
            for line in path.read_text(encoding="utf-8").splitlines():
                n, d, statistic, weighting, estimator, spent = line.split()
                out.append(((int(n), int(d), statistic, weighting, estimator), float(spent)))
            path.unlink()
        return out


class StudyRunner:
    def __init__(self, seed, work, outcome):
        self.scenarios = workloads.study_scenarios()
        self.routes = workloads.study_route_names(self.scenarios)
        self.seed = seed
        self.work = work
        self.outcome = outcome
        self.rows = []
        self._batches = 0

    def batch(self, lo, hi, workers):
        """(wall seconds, results.csv bytes) of one run_study call on reps lo..hi-1."""
        self._batches += 1
        out = self.work / ("batch-%d" % self._batches)
        t0 = time.perf_counter()
        kstruct.simulation.run_study(
            self.scenarios, self.seed, out_dir=str(out), shard=(lo, hi), workers=workers
        )
        wall = time.perf_counter() - t0
        data = (out / "results.csv").read_bytes()
        shutil.rmtree(out)
        return wall, data

    def check_rows(self, data, keep=True):
        rows = read_results(data)
        for si, ti, rep, p, reason in rows:
            ok = p is not None and 0.0 <= p <= 1.0
            self.outcome.record(ok, "scenario %d test %d rep %d: p=%r %s" % (si, ti, rep, p, reason))
        if keep:
            self.rows.extend(rows)
        return len(rows)

    def check_identical(self, a, b, what):
        self.outcome.record(a == b, "results.csv differs: %s" % what)

    def check_rates(self, ref):
        cells = tally_cells(self.rows)
        for cell in ref["cells"]:
            key = (cell["scenario_index"], cell["test_index"])
            valid, rejections = cells.get(key, (0, 0))
            problem = reference.cell_problem(rejections, valid, cell)
            self.outcome.record(problem is None, "%s / %s: %s" % (cell["scenario"], cell["test"], problem))

    def sized(self, rate, seconds):
        """Repetitions per scenario that take about ``seconds`` at ``rate`` tasks/s."""
        return max(2, int(rate * seconds / len(self.scenarios)))


def run_study_workload(args, outcome, work):
    runner = StudyRunner(args.seed, work, outcome)
    n_scen = len(runner.scenarios)
    workers = nproc()
    # warm-up that is also the reproducibility check: the same shard run
    # serially and with every core must give byte-identical results
    lo = STUDY_CHECK_REPS
    _, serial = runner.batch(0, lo, 1)
    par_wall, parallel = runner.batch(0, lo, workers)
    runner.check_identical(serial, parallel, "1 worker vs %d workers" % workers)
    runner.check_rows(parallel, keep=False)

    if args.trace:
        shards, untraced = [], []
        rate = n_scen * lo / par_wall / workers
        start = time.perf_counter()
        while not shards or time.perf_counter() - start < args.seconds / 3.0:
            hi = lo + runner.sized(rate, args.seconds / 6.0)
            wall, data = runner.batch(lo, hi, 1)
            runner.check_rows(data)
            shards.append((lo, hi, data))
            untraced.append(wall)
            rate = n_scen * (hi - lo) / wall
            lo = hi
        tracer = Tracer(kstruct)
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = [runner.batch(a, b, 1)[1] for a, b, _ in shards]
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        for (a, b, data), again in zip(shards, traced):
            runner.check_identical(data, again, "reps %d-%d serial untraced vs traced" % (a, b))
            runner.check_identical(data, runner.batch(a, b, workers)[1],
                                   "reps %d-%d traced serial vs %d workers" % (a, b, workers))
        runner.check_rates(reference.load("study-small"))
        reps = sum(b - a for a, b, _ in shards)
        metrics = tracer.metrics(traced_wall, reps)
        metrics["trace_overhead"] = (traced_wall / sum(untraced), "ratio")
        return metrics, {"passes": reps, "workers": 1, "walls": untraced}

    run_test = kstruct.simulation.run_test
    timer = CallTimer(run_test, work)
    kstruct.simulation.run_test = timer
    walls, calls, reps = [], [], 0
    rate = n_scen * lo / par_wall
    try:
        while not walls or sum(walls) < args.seconds:
            hi = lo + runner.sized(rate, args.seconds / STUDY_BATCHES)
            wall, data = runner.batch(lo, hi, workers)
            n_rows = runner.check_rows(data)
            timed = timer.collect()
            if len(timed) != n_rows:
                raise SystemExit(
                    "perfbench: %d calls timed for %d results; run_study's workers "
                    "no longer inherit the benchmark's call timer" % (len(timed), n_rows))
            calls.extend(timed)
            walls.append(wall)
            reps += hi - lo
            rate = n_scen * (hi - lo) / wall
            lo = hi
    finally:
        kstruct.simulation.run_test = run_test
    runner.check_rates(reference.load("study-small"))

    wall = sum(walls)
    metrics = {
        "tests_per_s": (len(calls) / wall, "1/s"),
        "test_s_p50": (statistics.median(t for _, t in calls), "s"),
        "study_reps_per_s": (n_scen * reps / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }
    # a pass is one repetition of every scenario, so a route's time per pass
    # sums the median call of each (scenario, test) cell on that route;
    # medians keep a call stalled by another process from moving it
    for route in workloads.ROUTE_NAMES:
        metrics["route_s." + route] = (sum(
            statistics.median(t for c, t in calls if c == cell)
            for cell, name in runner.routes.items() if name == route), "s")
    return metrics, {"passes": reps, "workers": workers, "walls": walls}


# ---------------------------------------------------------------------------
# set-up time and the machine record


def measure_setup(workload, size):
    """Median seconds to import kstruct and build the workload's hypotheses
    in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", workloads.SETUP_SOURCE % (workload, size)],
            env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    name = head[5:]
    try:
        return (git / name).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "kstruct").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_record(args, workers):
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": nproc(), "workers": workers,
        "blas": blas, "blas_threads": BLAS_THREADS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "kstruct": kstruct.__version__,
        "git_commit": _git_commit(), "source_digest": _source_digest(),
        "machine": platform.machine(), "platform": platform.platform(),
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    outcome = Outcome()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        setup_s = None if args.trace else measure_setup(args.workload, args.size)
        if args.workload == "study-small":
            metrics, info = run_study_workload(args, outcome, work)
        else:
            metrics, info = run_passes(args, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = machine_record(args, info["workers"])
    record["passes"] = info["passes"]
    record["timed_walls_s"] = info["walls"]
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        metrics["ok_ratio"] = (outcome.ok_ratio(), "ratio")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    for note in outcome.notes[:20]:
        print("check failed: " + note, file=sys.stderr)
    RESULTS_DIR.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(RESULTS_DIR / name, "w", encoding="utf-8") as fh:
        json.dump({"machine": record, "result": result, "notes": outcome.notes}, fh, indent=1)
        fh.write("\n")

    print("%s (seed %d, trace %d): %d passes, %d of %d checks failed"
          % (args.workload, args.seed, args.trace, info["passes"], outcome.failed, outcome.attempted))
    for k, (v, u) in sorted(metrics.items()):
        print("  %-32s %14.6g %s" % (k, v, u))
    print("machine " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
