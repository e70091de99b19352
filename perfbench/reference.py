"""Committed reference outputs and the comparisons against them.

``reference/<workload>.<size>.json`` holds, for the fixed reference inputs
of exch-kernel and dense-d60, every call's (route, method, value,
p_value).  Values and chi-square p-values must match to a tight relative
tolerance; Monte Carlo p-values only within a few Monte Carlo standard
errors, so a change of random-number order still passes.
``reference/study-small.json`` holds each study cell's rejection count
from a long run, and a run's rejection rates must lie within binomial
tolerance of it.

Regenerate every file with ``python3 perfbench/reference.py`` (about two
minutes); only do so when a change of outputs is intended.
"""

import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

VALUE_RTOL = 1e-8
VALUE_ATOL = 1e-12
MC_SIGMAS = 5.0
BINOMIAL_SIGMAS = 5.0
_STUDY_REFERENCE_SEED = 31337
_STUDY_REFERENCE_REPS = 3000


def path_of(workload, size=None):
    name = workload if size is None else "%s.%s" % (workload, size)
    return REFERENCE_DIR / ("%s.json" % name)


def load(workload, size=None):
    with open(path_of(workload, size), encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b):
    return math.isclose(a, b, rel_tol=VALUE_RTOL, abs_tol=VALUE_ATOL)


def mc_p_close(p, p_ref, N):
    """Two Monte Carlo estimates of one tail probability agree."""
    var = max(p_ref * (1.0 - p_ref), 1.0 / N) / N
    return abs(p - p_ref) <= MC_SIGMAS * math.sqrt(2.0 * var)


def call_problems(report, ref):
    """Reasons a report disagrees with its reference entry (empty if none)."""
    problems = []
    if report.method != ref["method"]:
        problems.append("method %s, reference %s" % (report.method, ref["method"]))
    if not _close(report.value, ref["value"]):
        problems.append("value %r, reference %r" % (report.value, ref["value"]))
    if ref["N"] is None:
        p_ok = _close(report.p_value, ref["p_value"])
    else:
        p_ok = mc_p_close(report.p_value, ref["p_value"], ref["N"])
    if not p_ok:
        problems.append("p_value %r, reference %r" % (report.p_value, ref["p_value"]))
    return problems


def cell_problem(rejections, valid, ref):
    """Reason a study cell's rejection rate is off its reference, or None."""
    if valid == 0:
        return "no valid repetitions"
    n_ref, k_ref = ref["valid"], ref["rejections"]
    pooled = (rejections + k_ref + 0.5) / (valid + n_ref + 1.0)
    tol = BINOMIAL_SIGMAS * math.sqrt(pooled * (1.0 - pooled) * (1.0 / valid + 1.0 / n_ref))
    rate, rate_ref = rejections / valid, k_ref / n_ref
    if abs(rate - rate_ref) > tol:
        return "rejection rate %.4f over %d, reference %.4f over %d" % (
            rate, valid, rate_ref, n_ref)
    return None


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def main():
    import shutil
    import tempfile

    import run  # sets BLAS threads and imports kstruct from the checkout
    import workloads
    from run import kstruct

    for name in ("exch-kernel", "dense-d60"):
        for size in ("full", "smoke"):
            runner = run.PassRunner(name, size, run.Outcome(), expected=None)
            _, _, reports = runner.run(workloads.REFERENCE_SEED, 0)
            entries = []
            for i, (call, report) in enumerate(zip(runner.calls, reports)):
                entries.append({
                    "call": i, "n": call.n, "d": call.d,
                    "hypothesis": call.hypothesis, "route": call.route_name,
                    "method": report.method, "value": report.value,
                    "p_value": report.p_value, "N": report.N,
                })
            _write(path_of(name, size), {
                "workload": name, "size": size,
                "reference_seed": workloads.REFERENCE_SEED,
                "kstruct_version": kstruct.__version__, "calls": entries,
            })
            print("wrote", path_of(name, size))

    scenarios = workloads.study_scenarios()
    run.WORK_ROOT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=run.WORK_ROOT))
    try:
        kstruct.simulation.run_study(
            scenarios, _STUDY_REFERENCE_SEED, out_dir=str(out),
            shard=(0, _STUDY_REFERENCE_REPS), workers=run.nproc(),
        )
        rows = run.read_results((out / "results.csv").read_bytes())
    finally:
        shutil.rmtree(out)
    cells = run.tally_cells(rows)
    _write(path_of("study-small"), {
        "workload": "study-small", "seed": _STUDY_REFERENCE_SEED,
        "repetitions": _STUDY_REFERENCE_REPS, "alpha": workloads.STUDY_ALPHA,
        "kstruct_version": kstruct.__version__,
        "cells": [
            {"scenario_index": si, "test_index": ti,
             "scenario": scenarios[si].scenario_label(),
             "test": "%s-%s-%s" % (scenarios[si].tests[ti].statistic,
                                    scenarios[si].tests[ti].weighting,
                                    scenarios[si].tests[ti].estimator),
             "valid": valid, "rejections": rejections}
            for (si, ti), (valid, rejections) in sorted(cells.items())
        ],
    })
    print("wrote", path_of("study-small"))


if __name__ == "__main__":
    main()
