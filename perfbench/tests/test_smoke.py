"""Smoke tests of the benchmark at reduced input sizes.

    python3 -m pytest -q perfbench/tests

Each test drives perfbench/run.py through its command line, so what is
checked is the printed result line.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SELF_TIMES = ("kendall.busy_s", "covariance.busy_s", "projection.busy_s",
              "sblock.busy_s", "indexing.busy_s", "testing.self_s",
              "simulation.self_s")


def bench(root, workload, trace, seconds=1):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", str(seconds), "--trace", str(trace),
         "--size", "smoke"],
        cwd=str(root), capture_output=True, text=True, timeout=170,
    )
    return done


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def copy_checkout(dest, with_package=True):
    skip = shutil.ignore_patterns("__pycache__", "tests")
    shutil.copytree(BENCH, dest / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_package:
        shutil.copytree(ROOT / "src" / "kstruct", dest / "src" / "kstruct", ignore=skip)
    return dest


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[(workload, trace)] = result_of(bench(ROOT, workload, trace))
        return cache[(workload, trace)]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(results, workload, trace):
    res = results(workload, trace)
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_and_unattributed_add_up_to_wall(results, workload):
    m = {k: v["value"] for k, v in results(workload, 1)["metrics"].items()}
    assert all(m[k] >= 0.0 for k in SELF_TIMES)
    assert 0.0 <= m["unattributed_s"] < 0.5 * m["trace.wall_s"]
    total = sum(m[k] for k in SELF_TIMES) + m["unattributed_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)


def test_corrupted_call_reference_counts_as_failed(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "perfbench" / "reference" / "exch-kernel.smoke.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    ref["calls"][0]["value"] *= 1.5
    ref["calls"][1]["method"] = "no-such-method"
    path.write_text(json.dumps(ref), encoding="utf-8")
    res = result_of(bench(root, "exch-kernel", 0))
    assert not res["correct"]
    # the method also goes into every timed pass's check of call 1
    assert res["failed"] >= 2
    assert res["metrics"]["ok_ratio"]["value"] < 1.0


def test_corrupted_study_reference_counts_as_failed(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "perfbench" / "reference" / "study-small.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    # the single-entry departure is rejected ~98 % of the time by max-sigma
    cell = next(c for c in ref["cells"]
                if c["scenario"] == "single-departure" and c["test"].startswith("max-sigma"))
    cell["rejections"] = 0
    path.write_text(json.dumps(ref), encoding="utf-8")
    res = result_of(bench(root, "study-small", 0))
    assert not res["correct"] and res["failed"] == 1
    assert res["metrics"]["ok_ratio"]["value"] < 1.0


def test_fails_without_the_package(tmp_path):
    root = copy_checkout(tmp_path, with_package=False)
    done = bench(root, "exch-kernel", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
