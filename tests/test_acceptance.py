"""Acceptance suite: ten end-to-end criteria, one test each.

Each test prints a one-line PASS summary with the measured numbers; the
tolerances and runtime budgets are pinned as constants next to each
criterion.  Criteria 5-8 are statistical and take a few minutes combined
at their pinned repetition counts.
"""

import time

import numpy as np
import pytest
from scipy import stats

from dense_oracle import materialize, one_group
from draws import bootstrap_draws, drawn
from kstruct import (
    DesignMatrix,
    KendallSample,
    Partition,
    ScenarioConfig,
    TestOptions,
    block_membership_matrix,
    build_tau_matrix,
    diagonal_free_membership_matrix,
    jackknife_cov,
    pseudoinverse_design,
    run_study,
    run_test,
    sample_gaussian_with_tau,
    structured_jackknife_partition,
    vertex_incidence_design,
)
from kstruct.indexing import _pairs0, overlap_count, pair_count
from kstruct.sblock import eigenvalues, gamma_apply, gamma_star_apply
from kstruct.testing import _null_gaussian_blocks


# ---------------------------------------------------------------------------
# criterion 1: closed-form eigenstructure vs dense solver


def test_criterion_01_structured_eigenstructure():
    TOL_REL = 1e-10
    MERGE = 1e-8
    BUDGET_S = 10.0
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for d in range(4, 13):
        p = pair_count(d)
        trials = 0
        while trials < 200:
            s = rng.uniform(-1.0, 2.0, size=3)
            spec = eigenvalues(s, d)
            vals = np.asarray(spec.values, dtype=float)
            scale = np.abs(vals).max() + 1e-300
            gaps = np.abs(vals[:, None] - vals[None, :])[np.triu_indices(3, 1)]
            if gaps.min() < 1e-6 * scale:
                continue  # accidentally degenerate triple; redraw
            trials += 1
            dense = np.linalg.eigvalsh(materialize(s, d))
            expected = np.sort(np.repeat(vals, spec.multiplicities))
            rel = np.abs(expected - dense) / np.maximum(np.abs(expected), 1e-12 * scale)
            worst = max(worst, rel.max())
            assert rel.max() < TOL_REL
            # cluster the dense spectrum at the merge tolerance and compare
            # multiplicities exactly
            cuts = np.nonzero(np.diff(dense) > MERGE * scale)[0]
            sizes = np.diff(np.concatenate(([0], cuts + 1, [p])))
            order = np.argsort(vals)
            assert tuple(sizes) == tuple(
                np.asarray(spec.multiplicities)[order]
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S
    print(
        "CRITERION 1 PASS: %d spectra, max rel err %.2e < %g, "
        "multiplicities (1, d-1, p-d) exact, %.2fs < %gs"
        % (checked, worst, TOL_REL, elapsed, BUDGET_S)
    )


# ---------------------------------------------------------------------------
# criterion 2: projection orthogonality and decomposition


def test_criterion_02_projection_identities():
    TOL = 1e-10
    BUDGET_S = 5.0
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    count = 0
    while count < 1000:
        for d in range(4, 11):
            p = pair_count(d)
            v = rng.standard_normal(p) * rng.uniform(0.1, 10.0)
            a = gamma_apply(v)
            gs = gamma_star_apply(v, d)
            b = gs - a
            c = v - gs
            nrm = v @ v
            assert abs(a @ b) <= TOL * nrm
            assert abs(a @ c) <= TOL * nrm
            assert abs(b @ c) <= TOL * nrm
            assert np.abs(a + b + c - v).max() <= TOL * np.sqrt(nrm)
            assert abs((a @ a + b @ b + c @ c) - nrm) <= TOL * nrm
            count += 1
            if count >= 1000:
                break
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S
    print(
        "CRITERION 2 PASS: orthogonality + decomposition on %d inputs "
        "at %g, %.2fs < %gs" % (count, TOL, elapsed, BUDGET_S)
    )


# ---------------------------------------------------------------------------
# criterion 3: Penrose conditions for the closed-form pseudoinverses


def _penrose_max_err(B, Bp):
    return max(
        np.abs(B @ Bp @ B - B).max(),
        np.abs(Bp @ B @ Bp - Bp).max(),
        np.abs(B @ Bp - (B @ Bp).T).max(),
        np.abs(Bp @ B - (Bp @ B).T).max(),
    )


def test_criterion_03_penrose_conditions():
    TOL = 1e-10
    worst = 0.0
    cases = 0
    for d in range(4, 13):
        designs = [vertex_incidence_design(d)]
        designs.append(block_membership_matrix(Partition.exchangeable(d)))
        half = d // 2
        part = Partition(
            d, (tuple(range(1, half + 1)), tuple(range(half + 1, d + 1)))
        )
        designs.append(block_membership_matrix(part))
        designs.append(diagonal_free_membership_matrix(part))
        for design in designs:
            Bp = pseudoinverse_design(design)
            err = _penrose_max_err(design.matrix, Bp)
            worst = max(worst, err)
            assert err < TOL
            cases += 1
    print(
        "CRITERION 3 PASS: all four Penrose conditions on %d designs "
        "(d=4..12), max err %.2e < %g" % (cases, worst, TOL)
    )


# ---------------------------------------------------------------------------
# criterion 4: jackknife equivalences


def test_criterion_04_jackknife_equivalences():
    TOL = 1e-12
    rng = np.random.default_rng(404)
    worst = 0.0
    for case in range(100):
        d = 4 + case % 3
        n = int(rng.integers(5, 31))
        X = rng.standard_normal((n, d))
        dense = jackknife_cov(X).matrix
        est = structured_jackknife_partition(X, Partition.exchangeable(d))
        p = pair_count(d)
        class_avg = np.empty(3)
        counts = np.zeros(3)
        sums = np.zeros(3)
        for k in range(p):
            for l in range(p):
                c = overlap_count(k + 1, l + 1)
                sums[c] += dense[k, l]
                counts[c] += 1
        class_avg = sums / counts
        err = np.abs(np.asarray(est.s) - class_avg).max()
        worst = max(worst, err)
        assert err < TOL

    # partition extremes on a fresh dataset
    X = np.random.default_rng(405).standard_normal((20, 5))
    dense = jackknife_cov(X).matrix
    singletons = Partition(5, tuple((v,) for v in range(1, 6)))
    est_single = structured_jackknife_partition(X, singletons)
    assert np.abs(est_single.matrix - dense).max() < TOL
    whole = Partition.exchangeable(5)
    est_whole = structured_jackknife_partition(X, whole)
    assert np.abs(est_whole.matrix - materialize(est_whole.s, 5)).max() < TOL
    print(
        "CRITERION 4 PASS: structured == class-averaged dense on 100 "
        "datasets (max err %.2e < %g); partition extremes reduce to dense "
        "and exchangeable" % (worst, TOL)
    )


# ---------------------------------------------------------------------------
# criteria 5-7: calibration and power of the study harness


def _study(n, tau, tests, departure=None, delta=0.0, reps=1000, seed=0):
    config = ScenarioConfig(
        n=n,
        d=5,
        tau=tau,
        departure=departure,
        delta=delta,
        repetitions=reps,
        tests=tests,
        alpha=0.05,
    )
    return run_study(config, seed=seed)


def test_criterion_05_null_calibration_structured_max():
    LO, HI = 0.032, 0.071  # paper 5.0% +- 3 binomial SE at 1000 reps
    BUDGET_S = 600.0
    start = time.perf_counter()
    opts = TestOptions(
        statistic="max", weighting="sigma", estimator="structured", replicates=2000
    )
    summary = _study(n=150, tau=0.0, tests=(opts,), seed=20260501)
    elapsed = time.perf_counter() - start
    rate = summary[0]["rejection_rate"]
    assert summary[0]["repetitions"] == 1000
    assert summary[0]["discards"] == 0
    assert LO <= rate <= HI
    assert elapsed < BUDGET_S
    print(
        "CRITERION 5 PASS: size %.1f%% in [%.1f%%, %.1f%%] (paper 5.0%%), "
        "%.0fs < %.0fs" % (100 * rate, 100 * LO, 100 * HI, elapsed, BUDGET_S)
    )


def test_criterion_06_level_distortion_unstructured():
    FLOOR = 0.20  # paper reports 30.2%: the combination over-rejects badly
    opts = TestOptions(
        statistic="euclidean",
        weighting="sigma",
        estimator="jackknife",
        replicates=2000,
    )
    summary = _study(n=50, tau=0.0, tests=(opts,), seed=20260502)
    rate = summary[0]["rejection_rate"]
    assert rate > FLOOR
    print(
        "CRITERION 6 PASS: distorted size %.1f%% > %.0f%% (paper 30.2%%)"
        % (100 * rate, 100 * FLOOR)
    )


def test_criterion_07_power_reproduction():
    BAND_MAX = (0.84, 0.92)  # paper 88.1%
    BAND_EUC = (0.83, 0.91)  # paper 87.0%
    tests = (
        TestOptions(
            statistic="max",
            weighting="identity",
            estimator="jackknife",
            replicates=2000,
        ),
        TestOptions(
            statistic="euclidean",
            weighting="sigma",
            estimator="structured",
            replicates=2000,
        ),
    )
    summary = _study(
        n=150, tau=0.6, departure="single", delta=0.1, tests=tests, seed=20260503
    )
    by_label = {row["test"]: row["rejection_rate"] for row in summary}
    rate_max = by_label["max-identity-jackknife"]
    rate_euc = by_label["euclidean-sigma-structured"]
    assert BAND_MAX[0] <= rate_max <= BAND_MAX[1]
    assert BAND_EUC[0] <= rate_euc <= BAND_EUC[1]
    print(
        "CRITERION 7 PASS: power %.1f%% in [84%%, 92%%] (paper 88.1%%) and "
        "%.1f%% in [83%%, 91%%] (paper 87.0%%)" % (100 * rate_max, 100 * rate_euc)
    )


# ---------------------------------------------------------------------------
# criterion 8: chi-square null law of the structured Euclidean statistic


def test_criterion_08_chisq_null_distribution():
    KS_LEVEL = 0.01
    SIMS = 1000
    n, d, tau = 250, 5, 0.3
    T = build_tau_matrix(ScenarioConfig(n=n, d=d, tau=tau))
    part = Partition.exchangeable(d)
    master = np.random.SeedSequence(808)
    values = np.empty(SIMS)
    for i, child in enumerate(master.spawn(SIMS)):
        X = sample_gaussian_with_tau(T, n, np.random.default_rng(child))
        report = run_test(
            X,
            part,
            TestOptions(
                statistic="euclidean",
                weighting="sigma",
                estimator="structured",
                replicates=200,
                seed=i,
            ),
        )
        assert report.df == 9
        values[i] = report.value
    ks = stats.kstest(values, "chi2", args=(9,))
    assert ks.pvalue > KS_LEVEL
    print(
        "CRITERION 8 PASS: KS vs chi2_9 over %d sims, D=%.4f, p=%.3f > %g"
        % (SIMS, ks.statistic, ks.pvalue, KS_LEVEL)
    )


# ---------------------------------------------------------------------------
# criterion 9: null samplers and bootstrap hit their target covariances


def test_criterion_09_sampler_covariances():
    TOL = 0.05
    DRAWS = 50_000
    rng = np.random.default_rng(909)
    worst = {"projection": 0.0, "bootstrap": 0.0}
    for d in (4, 5):
        p = pair_count(d)

        # component coloring, first on a triple with s1 < s0 (no sum of
        # global, per-variable and per-pair normals), target S(s) itself ...
        s_hard = np.array([0.4, 0.2, 1.0])
        Z = drawn(_null_gaussian_blocks(one_group(s_hard, d), DRAWS, rng))
        err = np.abs(np.cov(Z, rowvar=False) - materialize(s_hard, d)).max()
        worst["projection"] = max(worst["projection"], err)
        assert err < TOL

        # ... then on the grand-mean-projected triple, target (I-G)S(I-G);
        # passing both pins down which eigenvalue goes with which component
        s_any = np.array([0.2, 0.35, 1.1])
        delta1 = eigenvalues(s_any, d).values[0]
        s_proj = s_any - delta1 / p
        Z = drawn(_null_gaussian_blocks(one_group(s_proj, d), DRAWS, rng))
        G = np.eye(p) - np.full((p, p), 1.0 / p)
        target = G @ materialize(s_any, d) @ G
        err = np.abs(np.cov(Z, rowvar=False) - target).max()
        worst["projection"] = max(worst["projection"], err)
        assert err < TOL

        # multiplier bootstrap: conditional covariance n (I-P) SigmaJ (I-P)
        T = build_tau_matrix(ScenarioConfig(n=10, d=d, tau=0.3))
        X = sample_gaussian_with_tau(T, 80, rng)
        design = block_membership_matrix(Partition.exchangeable(d))
        Z = bootstrap_draws(X, design, DRAWS, rng)
        P = np.eye(p) - design.matrix @ pseudoinverse_design(design)
        target = 80 * P @ jackknife_cov(X).matrix @ P
        err = np.abs(np.cov(Z, rowvar=False) - target).max()
        worst["bootstrap"] = max(worst["bootstrap"], err)
        assert err < TOL
    print(
        "CRITERION 9 PASS: 50k-draw covariances within %.2g of target "
        "(coloring %.3f, bootstrap %.3f)"
        % (TOL, worst["projection"], worst["bootstrap"])
    )


# ---------------------------------------------------------------------------
# criterion 10: exact agreement with brute-force tau


def _brute_tau(X):
    n, d = X.shape
    p = d * (d - 1) // 2
    out = np.empty(p)
    k = 0
    for j in range(1, d):
        for i in range(j):
            total = 0
            for a in range(n):
                for b in range(a + 1, n):
                    total += int(np.sign(X[a, i] - X[b, i])) * int(
                        np.sign(X[a, j] - X[b, j])
                    )
            out[k] = (2 * total) / float(n * (n - 1))
            k += 1
    return out


def test_criterion_10_oracle_tau_exact():
    rng = np.random.default_rng(1010)
    for case in range(500):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(2, 6))
        X = rng.standard_normal((n, d))
        assert np.array_equal(KendallSample(X).tau, _brute_tau(X))
    print("CRITERION 10 PASS: tau_hat equals brute force exactly on 500 instances")
