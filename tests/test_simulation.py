"""Data generators and the study harness: frozen values, distributional
checks against the target Kendall/Pearson structure, and shard/resume
bookkeeping of run_study.

The 17-digit p-values pinned in ``tests/data/study_tiny_*`` are compared
byte for byte on any platform, with no platform record to relax them as
``test_golden`` has, by
``test_run_study_writes_the_pinned_files_of_study_tiny``, by
``test_rep_task_rows_are_unchanged_on_study_tiny`` and by CI's two
``cmp`` steps of a CLI study against ``tests/data``.  CI prints the
platform record before its tests, so a failing comparison names the
platform it ran on."""

import csv
import dataclasses
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from kstruct import (
    KendallSample,
    NotPositiveDefinite,
    ScenarioConfig,
    TestOptions,
    block_membership_matrix,
    build_tau_matrix,
    run_study,
    run_test,
    sample_gaussian_with_tau,
    tau_to_pearson,
)
from kstruct import kendall, simulation
from kstruct.cli import load_study_json
from kstruct.simulation import DESK_REPETITIONS, DESK_REPLICATES, desk_scale

DATA = Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# tau -> pearson map


def test_tau_to_pearson_frozen_values():
    # sin(pi * 0.6 / 2) = sin(0.3 pi)
    assert tau_to_pearson(0.6) == pytest.approx(0.8090169943749474, abs=1e-12)
    assert tau_to_pearson(0.0) == 0.0
    assert tau_to_pearson(1.0) == pytest.approx(1.0, abs=1e-15)
    assert tau_to_pearson(-1.0) == pytest.approx(-1.0, abs=1e-15)
    # sin(pi/6) = 1/2 exactly
    assert tau_to_pearson(1.0 / 3.0) == pytest.approx(0.5, abs=1e-12)


def test_tau_to_pearson_arrays_and_bounds():
    arr = tau_to_pearson(np.array([0.0, 0.6, -0.6]))
    assert arr.shape == (3,)
    assert arr[1] == -arr[2]
    assert isinstance(tau_to_pearson(0.2), float)
    with pytest.raises(ValueError):
        tau_to_pearson(1.2)
    with pytest.raises(ValueError):
        tau_to_pearson(np.array([0.0, -1.0001]))


# ---------------------------------------------------------------------------
# target matrices


def test_equicorrelated_matrix():
    cfg = ScenarioConfig(n=10, d=4, structure="equicorrelated", tau=0.3)
    T = build_tau_matrix(cfg)
    assert np.all(np.diag(T) == 1.0)
    off = T[~np.eye(4, dtype=bool)]
    assert np.all(off == 0.3)


def test_block_matrix_frozen_entries():
    cfg = ScenarioConfig(n=10, d=6, structure="block", sizes=(2, 2, 2))
    T = build_tau_matrix(cfg)
    # within group: 0.4, adjacent groups: 0.25, distance-two groups: 0.10
    assert T[0, 1] == pytest.approx(0.40)
    assert T[0, 2] == pytest.approx(0.25)
    assert T[2, 4] == pytest.approx(0.25)
    assert T[0, 4] == pytest.approx(0.10)
    assert T[1, 5] == pytest.approx(0.10)
    assert np.all(np.diag(T) == 1.0)
    assert np.allclose(T, T.T)


def test_single_departure_changes_exactly_one_pair():
    base = ScenarioConfig(n=10, d=5, tau=0.3)
    dep = ScenarioConfig(n=10, d=5, tau=0.3, departure="single", delta=0.1)
    T0 = build_tau_matrix(base)
    T1 = build_tau_matrix(dep)
    diff = T1 - T0
    assert diff[0, 1] == pytest.approx(0.1)
    assert diff[1, 0] == pytest.approx(0.1)
    changed = np.argwhere(diff != 0.0)
    assert len(changed) == 2


def test_column_departure_spares_first_variable():
    base = ScenarioConfig(n=10, d=5, tau=0.3)
    dep = ScenarioConfig(n=10, d=5, tau=0.3, departure="column", delta=0.1)
    T0 = build_tau_matrix(base)
    T1 = build_tau_matrix(dep)
    diff = T1 - T0
    assert np.all(diff[0, :] == 0.0)
    assert np.all(diff[:, 0] == 0.0)
    assert np.all(np.diag(diff) == 0.0)
    mask = np.ones((5, 5), dtype=bool)
    mask[0, :] = mask[:, 0] = False
    np.fill_diagonal(mask, False)
    assert np.all(diff[mask] == pytest.approx(0.1))


def test_departure_out_of_range_rejected():
    cfg = ScenarioConfig(n=10, d=4, tau=0.95, departure="single", delta=0.1)
    with pytest.raises(ValueError):
        build_tau_matrix(cfg)
    with pytest.raises(ValueError):
        build_tau_matrix(ScenarioConfig(n=10, d=4, tau=0.0, departure="sideways"))


def test_custom_matrix_checks():
    M = np.full((4, 4), 0.2)
    np.fill_diagonal(M, 1.0)
    cfg = ScenarioConfig(n=10, d=4, structure="custom", matrix=M)
    assert np.allclose(build_tau_matrix(cfg), M)
    bad = M.copy()
    bad[0, 1] = 0.3  # asymmetric
    with pytest.raises(ValueError):
        build_tau_matrix(ScenarioConfig(n=10, d=4, structure="custom", matrix=bad))
    with pytest.raises(ValueError):
        build_tau_matrix(ScenarioConfig(n=10, d=5, structure="custom", matrix=M))


# ---------------------------------------------------------------------------
# sampler


def test_sampler_not_positive_definite():
    # equicorrelated tau=-0.5 maps to rho ~ -0.707 < -1/(d-1)
    T = build_tau_matrix(ScenarioConfig(n=10, d=4, tau=-0.5))
    with pytest.raises(NotPositiveDefinite) as err:
        sample_gaussian_with_tau(T, 50, np.random.default_rng(0))
    assert "eigenvalue" in str(err.value)


def test_sampler_moments_one_factor():
    T = build_tau_matrix(ScenarioConfig(n=10, d=4, tau=0.6))
    X = sample_gaussian_with_tau(T, 20000, np.random.default_rng(7))
    assert X.shape == (20000, 4)
    assert np.abs(X.mean(axis=0)).max() < 0.03
    assert np.abs(X.std(axis=0) - 1.0).max() < 0.03
    C = np.corrcoef(X.T)
    target = tau_to_pearson(0.6)
    off = C[~np.eye(4, dtype=bool)]
    assert np.abs(off - target).max() < 0.03


def test_sampler_kendall_consistency_equicorrelated():
    T = build_tau_matrix(ScenarioConfig(n=10, d=4, tau=0.6))
    X = sample_gaussian_with_tau(T, 5000, np.random.default_rng(11))
    tau_hat = KendallSample(X).tau
    assert abs(tau_hat.mean() - 0.6) < 0.02


def test_sampler_kendall_consistency_block():
    cfg = ScenarioConfig(n=10, d=6, structure="block", sizes=(2, 2, 2))
    T = build_tau_matrix(cfg)
    X = sample_gaussian_with_tau(T, 4000, np.random.default_rng(3))
    tau_hat = KendallSample(X).tau
    # compare class means; pairs are column-stacked (i < j, j fastest-growing)
    pairs = [(i, j) for j in range(1, 6) for i in range(j)]
    got = {0.40: [], 0.25: [], 0.10: []}
    for k, (i, j) in enumerate(pairs):
        got[round(T[i, j], 2)].append(tau_hat[k])
    for true_val, vals in got.items():
        assert abs(np.mean(vals) - true_val) < 0.03


def test_sampler_independence_under_null():
    T = build_tau_matrix(ScenarioConfig(n=10, d=4, tau=0.0))
    X = sample_gaussian_with_tau(T, 2000, np.random.default_rng(5))
    tau_hat = KendallSample(X).tau
    se = np.sqrt(2.0 * (2 * 2000 + 5) / (9.0 * 2000 * 1999))
    assert np.abs(tau_hat).max() < 4 * se


def test_sampler_general_path_matches_target_correlation():
    M = np.array(
        [
            [1.0, 0.5, 0.2, -0.1],
            [0.5, 1.0, 0.3, 0.0],
            [0.2, 0.3, 1.0, 0.4],
            [-0.1, 0.0, 0.4, 1.0],
        ]
    )
    cfg = ScenarioConfig(n=10, d=4, structure="custom", matrix=M)
    T = build_tau_matrix(cfg)
    X = sample_gaussian_with_tau(T, 40000, np.random.default_rng(19))
    C = np.corrcoef(X.T)
    assert np.abs(C - tau_to_pearson(T)).max() < 0.03


# ---------------------------------------------------------------------------
# scenario validation and presets


def _tiny_tests(replicates=200):
    return (
        TestOptions(
            statistic="euclidean",
            weighting="sigma",
            estimator="structured",
            replicates=replicates,
        ),
        TestOptions(
            statistic="max",
            weighting="identity",
            estimator="jackknife",
            replicates=replicates,
        ),
    )


def test_scenario_validate_catches_problems():
    with pytest.raises(ValueError):
        ScenarioConfig(n=10, d=4, tau=0.2).validate()  # no tests
    with pytest.raises(ValueError):
        ScenarioConfig(n=2, d=4, tau=0.2, tests=_tiny_tests()).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(n=10, d=4, tau=0.2, tests=_tiny_tests(), alpha=1.5).validate()
    with pytest.raises(NotPositiveDefinite, match=(
            r"^scenario d4-n10-equicorrelated-tau-0.5: sin-transformed correlation "
            r"matrix is not positive definite \(smallest eigenvalue -")):
        ScenarioConfig(n=10, d=4, tau=-0.5, tests=_tiny_tests()).validate()
    ScenarioConfig(n=10, d=4, tau=0.2, tests=_tiny_tests()).validate()


def test_scenario_validate_names_the_scenario_and_the_test():
    # a test's cross-field refusal was bare, "replicates must be at least 100"
    scenario = ScenarioConfig(n=10, d=4, tau=0.2, tests=(TestOptions(replicates=10),))
    with pytest.raises(ValueError, match=r"^scenario d4-n10-equicorrelated-tau0.2, test 0: "
                                         r"replicates must be at least 100$"):
        scenario.validate()
    tests = _tiny_tests() + (TestOptions(tie_seed=3),)
    with pytest.raises(ValueError, match=r"^s\.json, scenario 2, test 2: tie_seed does not "
                                         r"apply to ties='error', which jitters nothing$"):
        ScenarioConfig(n=10, d=4, tau=0.2, tests=tests).validate("s.json, scenario 2")
    with pytest.raises(ValueError, match=r"^here: scenarios need n >= 3$"):
        ScenarioConfig(n=2, d=4, tau=0.2, tests=_tiny_tests()).validate("here")


def test_scenario_validate_refuses_fields_that_nothing_reads():
    # each was accepted and ignored, and an ignored tau still reached
    # summary.csv; its default, or a field its structure reads, is kept
    eye = np.eye(4)
    cases = [
        (dict(structure="block", sizes=(2, 2), tau=0.9), "d4-n20-block", "tau", "0.0"),
        (dict(structure="custom", matrix=eye, tau=0.3), "d4-n20-custom", "tau", "0.0"),
        (dict(tau=0.3, sizes=(2, 2)), "d4-n20-equicorrelated-tau0.3", "sizes", "None"),
        (dict(tau=0.3, base=0.5), "d4-n20-equicorrelated-tau0.3", "base", "0.4"),
        (dict(structure="custom", matrix=eye, step=0.1), "d4-n20-custom", "step", "0.15"),
        (dict(structure="block", sizes=(2, 2), matrix=eye), "d4-n20-block", "matrix", "None"),
    ]
    for fields, label, name, default in cases:
        structure = fields.get("structure", "equicorrelated")
        with pytest.raises(ValueError, match=r"^scenario %s: %s is not read by structure=%r "
                                             r"and must keep its default %s$"
                                             % (label, name, structure, default)):
            ScenarioConfig(n=20, d=4, tests=_tiny_tests(), **fields).validate()
    with pytest.raises(ValueError, match=r"^scenario d4-n20-equicorrelated-tau0.2: delta is "
                                         r"not read without a departure and must keep its "
                                         r"default 0.0$"):
        ScenarioConfig(n=20, d=4, tau=0.2, delta=0.1, tests=_tiny_tests()).validate()
    for fields in (dict(structure="block", sizes=(2, 2), base=0.3, step=0.1, tau=0.0),
                   dict(structure="custom", matrix=eye, base=0.4),
                   dict(tau=0.2, departure="single", delta=0.1)):
        ScenarioConfig(n=20, d=4, tests=_tiny_tests(), **fields).validate()


def test_custom_matrix_refuses_a_non_finite_entry_by_name():
    # NaN is unequal to itself, so it was refused as an asymmetric matrix
    M = np.eye(4)
    M[1, 2] = M[2, 1] = np.nan
    with pytest.raises(ValueError, match=r"^scenario d4-n20-custom: custom Kendall matrix "
                                         r"entry \(2, 3\) is nan, not a finite number$"):
        ScenarioConfig(n=20, d=4, structure="custom", matrix=M,
                       tests=_tiny_tests()).validate()
    M[1, 2] = M[2, 1] = np.inf
    with pytest.raises(ValueError, match=r"entry \(2, 3\) is inf, not a finite number$"):
        build_tau_matrix(ScenarioConfig(n=20, d=4, structure="custom", matrix=M))


def test_run_study_refuses_a_seeded_test(tmp_path):
    # run_study ran it, replacing the seed by one derived from the study seed
    tests = (_tiny_tests()[0], dataclasses.replace(_tiny_tests()[1], seed=4))
    scenario = ScenarioConfig(n=20, d=4, tau=0.2, repetitions=2, tests=tests, label="seeded")
    with pytest.raises(ValueError, match=r"^scenario seeded, test 1: a test takes no \"seed\"; "
                                         r"run_study derives each test's seed from the study "
                                         r"seed$"):
        run_study(scenario, seed=1, out_dir=str(tmp_path / "bad"), workers=1)
    assert not (tmp_path / "bad").exists()


def test_scenario_integers_are_read_not_truncated(tmp_path):
    # n, d, repetitions and block sizes are whole numbers or refused,
    # with the scenario and the field named, before a study writes a file
    bad = [
        ({"n": 20.5}, r"d4-n20.5-equicorrelated-tau0.2: n 20.5"),
        ({"d": "4"}, r"d4-n20-equicorrelated-tau0.2: d '4'"),
        ({"repetitions": 2.5}, r"d4-n20-equicorrelated-tau0.2: repetitions 2.5"),
        ({"n": True, "label": "flagged"}, r"flagged: n True"),
        ({"structure": "block", "sizes": (2.0, 2.9)}, r"d4-n20-block: sizes 2.9"),
    ]
    for fields, message in bad:
        scenario = ScenarioConfig(**{"n": 20, "d": 4, "tau": 0.2, "repetitions": 2,
                                     "tests": _tiny_tests(), **fields})
        with pytest.raises(ValueError, match=r"^scenario %s is not an integer$" % message):
            run_study(scenario, seed=1, out_dir=str(tmp_path / "bad"), workers=1)
    assert not (tmp_path / "bad").exists()
    with pytest.raises(ValueError, match=r"^block size 2.9 is not an integer$"):
        build_tau_matrix(ScenarioConfig(n=20, d=4, structure="block", sizes=(2.0, 2.9)))
    whole = ScenarioConfig(n=20.0, d=np.int64(4), structure="block", sizes=(2.0, 2),
                           repetitions=2.0, tests=_tiny_tests())
    whole.validate()
    assert (whole.n, whole.d, whole.repetitions, whole.sizes) == (20, 4, 2, (2, 2))
    assert all(type(v) is int for v in (whole.n, whole.d, whole.repetitions, *whole.sizes))
    assert whole.scenario_label() == "d4-n20-block"


def test_scenario_float_fields_are_read_not_coerced():
    # a string reached the label's %g (TypeError) and True the sampler
    # (NotPositiveDefinite); a float field now takes a finite number only
    bad = [
        ({"tau": "0.3"}, "d4-n20-equicorrelated: tau '0.3' is not a number"),
        ({"alpha": "0.05"}, "d4-n20-equicorrelated-tau0.2: alpha '0.05' is not a number"),
        ({"tau": True}, "d4-n20-equicorrelated-tau1: tau True is not a number"),
        ({"departure": "single", "delta": float("nan")},
         "d4-n20-equicorrelated-tau0.2-single+nan: delta nan is not a number"),
        ({"departure": "single", "delta": None, "label": "gap"},
         "gap: delta None is not a number"),
    ]
    for fields, message in bad:
        scenario = ScenarioConfig(**{"n": 20, "d": 4, "tau": 0.2, "tests": _tiny_tests(),
                                     **fields})
        with pytest.raises(ValueError, match=r"^scenario %s$" % re.escape(message)):
            scenario.validate()
    # an integer is stored as the float it stands for, as a config's is
    whole = ScenarioConfig(n=20, d=4, tau=0, alpha=np.float32(0.125), departure="single",
                           delta=np.int64(0), tests=_tiny_tests())
    whole.validate()
    assert (whole.tau, whole.alpha, whole.delta, whole.base) == (0.0, 0.125, 0.0, 0.4)
    assert all(type(v) is float for v in (whole.tau, whole.alpha, whole.delta, whole.base))


def test_desk_scale_preset():
    cfg = ScenarioConfig(n=50, d=4, tau=0.2, tests=_tiny_tests(500))
    scaled = desk_scale(cfg)
    assert scaled.repetitions == DESK_REPETITIONS == 1000
    assert all(t.replicates == DESK_REPLICATES == 2000 for t in scaled.tests)
    # the original is untouched
    assert cfg.repetitions == 2500
    assert all(t.replicates == 500 for t in cfg.tests)


# ---------------------------------------------------------------------------
# run_study


def _study_config(reps=20, n=30):
    return ScenarioConfig(
        n=n, d=4, tau=0.3, repetitions=reps, tests=_tiny_tests(), alpha=0.05
    )


def test_run_study_summary_shape():
    summary = run_study(_study_config(), seed=123, workers=1)
    assert len(summary) == 2
    for row in summary:
        assert row["repetitions"] == 20
        assert row["discards"] == 0
        assert 0.0 <= row["rejection_rate"] <= 1.0
        assert row["binomial_se"] >= 0.0
    labels = {row["test"] for row in summary}
    assert labels == {
        "euclidean-sigma-structured",
        "max-identity-jackknife",
    }


def test_run_study_reproducible():
    a = run_study(_study_config(), seed=42, workers=1)
    b = run_study(_study_config(), seed=42, workers=1)
    assert a == b
    c = run_study(_study_config(), seed=43, workers=1)
    assert any(
        ra["rejection_rate"] != rc["rejection_rate"] or True for ra, rc in zip(a, c)
    )  # different seed may coincide; only a smoke check that it runs


def test_run_study_worker_count_invariance(tmp_path):
    a = run_study(_study_config(reps=12), seed=9, out_dir=str(tmp_path / "a"), workers=1)
    b = run_study(_study_config(reps=12), seed=9, out_dir=str(tmp_path / "b"), workers=2)
    assert a == b
    results = [(tmp_path / k / "results.csv").read_bytes() for k in "ab"]
    assert results[0] == results[1]


def test_rep_task_equals_run_test_on_each_raw_array(monkeypatch):
    # a repetition ranks its dataset once per (ties, tie_seed) and gives
    # the rows of one run_test per test on the raw array, discards included
    tests = (
        TestOptions(replicates=200),
        TestOptions(statistic="max", weighting="identity", replicates=200,
                    ties="jitter", tie_seed=3),
        TestOptions(statistic="max", weighting="identity", estimator="jackknife",
                    replicates=200),
        TestOptions(replicates=200, ties="jitter", tie_seed=3),
    )
    scenario = ScenarioConfig(n=25, d=4, tau=0.3, repetitions=3, tests=tests)
    part = scenario.partition()
    design = block_membership_matrix(part)
    passes = []
    kernel = kendall.tau_and_leave_one_out
    monkeypatch.setattr(kendall, "tau_and_leave_one_out",
                        lambda *a, **k: passes.append(1) or kernel(*a, **k))
    sampler = simulation._gaussian_rows
    reasons = set()
    for rounded in (False, True):
        if rounded:  # a tenth's resolution makes ties all but certain
            monkeypatch.setattr(
                simulation, "_gaussian_rows",
                lambda T: lambda n, rng: np.round(sampler(T)(n, rng), 1))
        study = simulation._prepare([scenario])
        for rep in range(scenario.repetitions):
            del passes[:]
            rows = simulation._rep_task(study, (0, rep, 17))
            # a failed ranking is kept, not retried by the next test
            assert len(passes) == 2
            seqs = np.random.SeedSequence(17, spawn_key=(0, rep)).spawn(len(tests) + 1)
            X = simulation.sample_gaussian_with_tau(
                build_tau_matrix(scenario), scenario.n, np.random.default_rng(seqs[0])
            )
            want = []
            for ti, template in enumerate(tests):
                opts = dataclasses.replace(
                    template, seed=simulation._derived_seed(seqs[ti + 1])
                )
                hyp = part if opts.estimator == "structured" else design
                try:
                    p = float(run_test(X, hyp, opts).p_value)
                    want.append((0, ti, rep, p, ""))
                except simulation._DISCARDABLE as exc:
                    want.append((0, ti, rep, None, type(exc).__name__))
            assert rows == want
            reasons.update(r[4] for r in rows)
    assert reasons == {"", "TieError"}


def test_rep_task_rows_are_unchanged_on_study_tiny():
    # each process prepares a scenario's sampler and hypotheses once; the
    # rows of every repetition stay those recorded before that change
    scenarios, seed = load_study_json(DATA / "study_tiny.json")
    study = simulation._prepare(scenarios)
    got = [["scenario_index", "test_index", "rep", "p_value", "discard_reason"]]
    for si, sc in enumerate(scenarios):
        for rep in range(sc.repetitions):
            for row in simulation._rep_task(study, (si, rep, seed)):
                got.append([str(v) for v in row[:3]] + ["%.17g" % row[3], row[4]])
    with open(DATA / "study_tiny_results.csv", encoding="utf-8", newline="") as fh:
        want = list(csv.reader(fh))
    assert len(want) == 49 and got == want


def test_run_study_shards_merge_to_single_run(tmp_path):
    whole_dir = tmp_path / "whole"
    shard_dir = tmp_path / "shards"
    whole = run_study(_study_config(reps=14), seed=77, out_dir=str(whole_dir), workers=1)
    run_study(
        _study_config(reps=14), seed=77, out_dir=str(shard_dir), shard=(0, 7), workers=1
    )
    merged = run_study(
        _study_config(reps=14), seed=77, out_dir=str(shard_dir), shard=(7, 14), workers=1
    )
    assert merged == whole

    def read_rows(path):
        with open(path, newline="") as fh:
            return sorted(tuple(r) for r in csv.reader(fh))

    assert read_rows(whole_dir / "results.csv") == read_rows(shard_dir / "results.csv")


def test_run_study_resume_skips_done_reps(tmp_path):
    out = tmp_path / "study"
    first = run_study(_study_config(reps=10), seed=5, out_dir=str(out), workers=1)
    again = run_study(_study_config(reps=10), seed=5, out_dir=str(out), workers=1)
    assert first == again
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # header + 10 reps x 2 tests, no duplicates appended by the second call
    assert len(rows) == 1 + 20


def test_run_study_refuses_another_studys_directory(tmp_path):
    out = tmp_path / "study"
    run_study(_study_config(reps=4), seed=5, out_dir=str(out), workers=1)
    before = (out / "results.csv").read_bytes()
    with pytest.raises(ValueError, match=r"seed 5, .*this run has seed 6"):
        run_study(_study_config(reps=4), seed=6, out_dir=str(out), workers=1)
    other = ScenarioConfig(n=30, d=5, tau=0.3, repetitions=4, tests=_tiny_tests())
    with pytest.raises(ValueError, match=r"d4-n30-.*this run has .*d5-n30-"):
        run_study(other, seed=5, out_dir=str(out), workers=1)
    assert (out / "results.csv").read_bytes() == before
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["seed"] == 5
    # the same study resumes as before
    run_study(_study_config(reps=4), seed=5, out_dir=str(out), workers=1)
    assert (out / "results.csv").read_bytes() == before


def test_run_study_counts_a_partly_written_repetition_once(tmp_path):
    # an earlier run stopped after rep 3's first test: the resumed run
    # writes both of rep 3's rows again, and each (test, rep) counts once
    out = tmp_path / "study"
    first = run_study(_study_config(reps=4), seed=5, out_dir=str(out), workers=1)
    summary_csv = (out / "summary.csv").read_bytes()
    lines = (out / "results.csv").read_text().splitlines(keepends=True)
    (out / "results.csv").write_text("".join(lines[:-1]))
    again = run_study(_study_config(reps=4), seed=5, out_dir=str(out), workers=1)
    assert [row["repetitions"] for row in again] == [4, 4]
    assert again == first
    assert (out / "summary.csv").read_bytes() == summary_csv
    assert (out / "results.csv").read_text().splitlines(keepends=True)[-2:] == lines[-2:]
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["repetitions_completed"] == 4


@pytest.mark.parametrize("kept", [8, 3, 10])
def test_run_study_resumes_after_a_row_cut_in_half(tmp_path, kept):
    # the last row cut inside its p-value ("1,5,5,0."), inside its indices
    # ("1,5") or the header cut: a cut row was read as a row, "1,5,5,0."
    # kept as p = 0 and "1,5" failing in int(None)
    scenarios, seed = load_study_json(DATA / "study_tiny.json")
    run_study(scenarios, seed=seed, out_dir=str(tmp_path), workers=1)
    path = tmp_path / "results.csv"
    data = path.read_bytes()
    start = 0 if kept == 10 else data.rstrip(b"\r\n").rfind(b"\n") + 1
    path.write_bytes(data[:start + kept])
    run_study(scenarios, seed=seed, out_dir=str(tmp_path), workers=1)
    with open(path, newline="") as fh:
        assert {len(row) for row in csv.reader(fh)} == {5}
    assert (tmp_path / "summary.csv").read_bytes() == (DATA / "study_tiny_summary.csv").read_bytes()
    if kept == 10:  # a cut header leaves an empty file, and the study runs whole
        assert path.read_bytes() == data


def test_run_study_refuses_the_rows_of_other_scenario_fields(tmp_path):
    # only the seed and the labels were compared: a changed test, or a
    # changed n under the same label, added its rows to the other study's
    out = tmp_path / "study"
    run_study(_study_config(reps=4), seed=5, out_dir=str(out), workers=1)
    before = (out / "results.csv").read_bytes()
    other_test = _study_config(reps=4)
    other_test.tests = (TestOptions(replicates=500),) + other_test.tests[1:]
    for changed in (other_test, dataclasses.replace(desk_scale(_study_config()), repetitions=4)):
        with pytest.raises(ValueError, match=r"^%s holds the rows of scenarios "
                                             r"\['d4-n30-equicorrelated-tau0.3'\] with other "
                                             r"fields than this run's$" % re.escape(str(out))):
            run_study(changed, seed=5, out_dir=str(out), workers=1)
    assert (out / "results.csv").read_bytes() == before
    # more repetitions and another alpha resume the same study
    more = dataclasses.replace(_study_config(reps=6), alpha=0.1)
    assert [row["repetitions"] for row in run_study(more, seed=5, out_dir=str(out),
                                                      workers=1)] == [6, 6]
    labelled = [dataclasses.replace(_study_config(reps=4, n=n), label="same") for n in (30, 40)]
    run_study(labelled[0], seed=5, out_dir=str(tmp_path / "same"), workers=1)
    with pytest.raises(ValueError, match=r"holds the rows of scenarios \['same'\]"):
        run_study(labelled[1], seed=5, out_dir=str(tmp_path / "same"), workers=1)
    # a manifest written before the record is refused too
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["scenario_fields"]
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json records no scenario fields"):
        run_study(more, seed=5, out_dir=str(out), workers=1)


def test_run_study_refuses_a_manifest_that_is_not_an_object(tmp_path):
    out = tmp_path / "study"
    out.mkdir()
    for text in ("[]", "3", '"study"'):
        (out / "manifest.json").write_text(text)
        with pytest.raises(ValueError, match=r"manifest\.json: .* is not an object$"):
            run_study(_study_config(reps=2), seed=5, out_dir=str(out), workers=1)
    assert sorted(os.listdir(out)) == ["manifest.json"]


def test_run_study_refuses_no_scenarios():
    with pytest.raises(ValueError, match="^no scenarios given$"):
        run_study([], seed=1)


def test_run_study_reads_its_seed_as_an_integer(tmp_path):
    for seed in (7.9, "7", True):
        with pytest.raises(ValueError, match=r"^seed %r is not an integer$" % (seed,)):
            run_study(_study_config(reps=2), seed=seed, out_dir=str(tmp_path / "bad"),
                      workers=1)
    assert not (tmp_path / "bad").exists()
    whole = run_study(_study_config(reps=2), seed=7.0, out_dir=str(tmp_path / "a"), workers=1)
    assert whole == run_study(_study_config(reps=2), seed=7, workers=1)
    with open(tmp_path / "a" / "manifest.json") as fh:
        assert json.load(fh)["seed"] == 7


def test_run_study_refuses_a_negative_seed_and_an_empty_or_negative_shard(tmp_path):
    for kwargs, message in (
        ({"seed": -1}, r"^seed must be non-negative, got -1$"),
        ({"shard": (3, 1)}, r"^shard needs 0 <= A < B, got \(3, 1\)$"),
        ({"shard": (-2, 2)}, r"^shard needs 0 <= A < B, got \(-2, 2\)$"),
        ({"shard": (2, 2)}, r"^shard needs 0 <= A < B, got \(2, 2\)$"),
    ):
        kwargs = {"seed": 3, "workers": 1, **kwargs}
        with pytest.raises(ValueError, match=message):
            run_study(_study_config(reps=4), out_dir=str(tmp_path / "bad"), **kwargs)
    assert not (tmp_path / "bad").exists()


def test_run_study_reads_shard_and_workers_as_integers(tmp_path):
    for kwargs, message in (
        ({"shard": (0.5, 2.7)}, r"^shard 0.5 is not an integer$"),
        ({"shard": (0, "2")}, r"^shard '2' is not an integer$"),
        ({"workers": 1.5}, r"^workers 1.5 is not an integer$"),
        ({"workers": True}, r"^workers True is not an integer$"),
    ):
        kwargs = {"workers": 1, **kwargs}
        with pytest.raises(ValueError, match=message):
            run_study(_study_config(reps=4), seed=3, out_dir=str(tmp_path / "bad"), **kwargs)
    assert not (tmp_path / "bad").exists()
    out = tmp_path / "whole"
    summary = run_study(_study_config(reps=4), seed=3, out_dir=str(out), shard=(0.0, 2.0),
                        workers=1.0)
    assert [row["repetitions"] for row in summary] == [2, 2]
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert (manifest["shard"], manifest["workers"]) == ([0, 2], 1)
    assert type(manifest["shard"][0]) is int


def test_run_study_refuses_workers_below_one(tmp_path):
    # it ran one worker and recorded "workers": 1
    for workers in (0, -3):
        with pytest.raises(ValueError, match=r"^workers must be at least 1, got %d$" % workers):
            run_study(_study_config(reps=2), seed=3, out_dir=str(tmp_path / "bad"),
                      workers=workers)
    assert not (tmp_path / "bad").exists()


def test_run_study_writes_the_pinned_files_of_study_tiny(tmp_path):
    # both files are pinned: a rework of the harness must write them
    # byte for byte (the results rows are also checked repetition by
    # repetition in test_rep_task_rows_are_unchanged_on_study_tiny)
    scenarios, seed = load_study_json(DATA / "study_tiny.json")
    run_study(scenarios, seed=seed, out_dir=str(tmp_path), workers=1)
    for name in ("summary", "results"):
        written = (tmp_path / ("%s.csv" % name)).read_bytes()
        assert written == (DATA / ("study_tiny_%s.csv" % name)).read_bytes(), name


def test_run_study_counts_discarded_repetitions(tmp_path, monkeypatch):
    # data at a thousandth's resolution ties in some repetitions: the
    # test that ranks with ties="error" discards them, the jittering one
    # keeps every repetition
    sampler = simulation._gaussian_rows
    monkeypatch.setattr(simulation, "_gaussian_rows",
                        lambda T: lambda n, rng: np.round(sampler(T)(n, rng), 3))
    tests = (TestOptions(replicates=200), TestOptions(replicates=200, ties="jitter"))
    scenario = ScenarioConfig(n=25, d=4, tau=0.3, repetitions=12, tests=tests, alpha=0.5)
    summary = run_study(scenario, seed=5, out_dir=str(tmp_path), workers=1)
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(tmp_path / "summary.csv", newline="") as fh:
        written = list(csv.DictReader(fh))
    for ti, row in enumerate(summary):
        mine = [r for r in rows if r["test_index"] == str(ti)]
        ps = [float(r["p_value"]) for r in mine if r["p_value"] != ""]
        assert [r["discard_reason"] for r in mine if r["p_value"] == ""] == [
            "TieError"] * (len(mine) - len(ps))
        assert (row["repetitions"], row["discards"]) == (12, 12 - len(ps))
        assert row["rejection_rate"] == sum(p < 0.5 for p in ps) / len(ps)
        assert (written[ti]["discards"], float(written[ti]["rejection_rate"])) == (
            str(row["discards"]), row["rejection_rate"])
    assert 0 < summary[0]["discards"] < 12 and summary[1]["discards"] == 0
    with open(tmp_path / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["discards"] == {"TieError": summary[0]["discards"]}
    assert manifest["repetitions_completed"] == 12


def test_run_study_reports_progress_every_twentieth_of_the_work(capsys):
    run_study(_study_config(reps=40), seed=3, workers=1, progress=True)
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["progress: %d/40 repetitions" % i for i in range(2, 41, 2)]


def test_run_study_output_files(tmp_path):
    out = tmp_path / "files"
    run_study(_study_config(reps=6), seed=2, out_dir=str(out), workers=1)
    assert (out / "results.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "manifest.json").exists()
    assert (out / "table_euclidean-sigma-structured.csv").exists()
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["status"] == "complete"
    assert manifest["seed"] == 2
    assert "elapsed_seconds" in manifest
    assert manifest["discards"] == {}
    with open(out / "summary.csv", newline="") as fh:
        summary_rows = list(csv.DictReader(fh))
    assert len(summary_rows) == 2
    assert float(summary_rows[0]["rejection_rate"]) >= 0.0


def test_run_study_pivot_table_layout(tmp_path):
    out = tmp_path / "pivot"
    configs = [
        ScenarioConfig(n=n, d=d, tau=0.3, repetitions=4, tests=_tiny_tests())
        for n in (25, 40)
        for d in (4, 5)
    ]
    run_study(configs, seed=31, out_dir=str(out), workers=1)
    with open(out / "table_euclidean-sigma-structured.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == ["tau=0.3"]
    assert lines[1] == ["d\\n", "25", "40"]
    assert lines[2][0] == "4"
    assert lines[3][0] == "5"
    assert len(lines[2]) == 3


def _pivot_cells(out_dir):
    """{(file, panel title, d, n): cell text} over every pivot file of a
    study; a cell that two rows would fill fails the read."""
    cells = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("table_"):
            continue
        with open(os.path.join(out_dir, name), newline="") as fh:
            lines = list(csv.reader(fh))
        i = 0
        while i < len(lines):
            (title,), (_, *ns) = lines[i], lines[i + 1]
            i += 2
            while lines[i]:
                d, *texts = lines[i]
                for n, text in zip(ns, texts):
                    if text:
                        assert (name, title, d, n) not in cells
                        cells[name, title, d, n] = text
                i += 1
            i += 1
    return cells


def test_run_study_pivot_tables_keep_every_summary_row(tmp_path):
    # the shape of demos/03_power_study.py: a null and a departure scenario
    # at the same (d, n, tau), here with two tests that differ only in
    # null_draws as well; every summary row lands in exactly one cell
    identity = TestOptions(statistic="max", weighting="identity", estimator="jackknife",
                           replicates=100)
    tests = (
        TestOptions(statistic="euclidean", weighting="sigma", estimator="structured",
                    replicates=100),
        identity,
        dataclasses.replace(identity, null_draws="gaussian"),
    )
    scenarios = [
        ScenarioConfig(n=40, d=5, tau=0.3, repetitions=5, tests=tests, label="null"),
        ScenarioConfig(n=40, d=5, tau=0.3, departure="single", delta=0.5,
                       repetitions=5, tests=tests, label="departure"),
    ]
    summary = run_study(scenarios, seed=314159, out_dir=str(tmp_path), workers=1)
    assert [row["test"] for row in summary[:3]] == [
        "euclidean-sigma-structured", "max-identity-jackknife",
        "max-identity-jackknife-gaussian"]
    want = {
        ("table_%s.csv" % row["test"],
         "tau=0.3, departure=%s" % (row["departure"] or "none"), "5", "40"):
        "%.1f" % (100.0 * row["rejection_rate"])
        for row in summary
    }
    assert len(want) == len(summary) == 6
    assert _pivot_cells(tmp_path) == want


def test_run_study_same_data_across_tests():
    # with identical statistic/weighting/estimator the two test slots must
    # produce identical p-value columns, because they see the same data and
    # per-test seeds only matter for the Monte Carlo draws
    opts = TestOptions(
        statistic="euclidean",
        weighting="sigma",
        estimator="structured",
        replicates=400,
    )
    cfg = ScenarioConfig(n=40, d=4, tau=0.3, repetitions=10, tests=(opts, opts))
    summary = run_study(cfg, seed=88, workers=1)
    # chi-square p-values are deterministic given the data, so the two
    # identical tests must agree rep by rep, hence equal rejection rates
    assert summary[0]["rejection_rate"] == summary[1]["rejection_rate"]
