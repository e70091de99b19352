import dataclasses
import gc
import hashlib
import itertools
import json
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dense_oracle import dense_spectrum, factor_of_matrix, materialize, one_group
from draws import bootstrap_draws, drawn, sparse_product_apply

import kstruct.covariance as kc
import kstruct.kendall as kd
import kstruct.sblock as ks
import kstruct.testing as kt
from kstruct.covariance import jackknife_cov
from kstruct.indexing import (
    DesignMatrix,
    Partition,
    block_membership_matrix,
    pair_count,
    vertex_incidence_design,
)
from kstruct.kendall import KendallSample, TieError
from kstruct.projection import RankDeficient, gamma_projection
from kstruct.simulation import ScenarioConfig, run_study
from kstruct.sblock import (
    PartitionQuotients,
    SingularError,
    eigenvalues,
    gamma_star_apply,
    rank_mask,
)
from kstruct.testing import (
    TestOptions,
    pvalue_chisq,
    pvalue_mixture_mc,
    run_test,
    statistic_euclidean,
    statistic_max,
)


def pd_triple(rng):
    s0 = rng.uniform(0.0, 0.3)
    s1 = s0 + rng.uniform(0.0, 0.5)
    s2 = 2 * s1 - s0 + rng.uniform(0.05, 1.0)
    return np.array([s0, s1, s2])


# ---------------------------------------------------------------------------
# statistics


def test_euclidean_identity_over_n_scaling():
    tau = np.array([0.2, 0.0, 0.0])
    theta = np.zeros(3)  # ||r||^2 = 0.04
    assert statistic_euclidean(tau, theta, 1.0 / 100.0) == pytest.approx(4.0)
    assert statistic_euclidean(tau, tau, 1.0 / 100.0) == 0.0


def test_euclidean_dense_matches_pinv_quadratic_form():
    rng = np.random.default_rng(3)
    p = 7
    A = rng.standard_normal((p, p))
    A = A @ A.T + 0.3 * np.eye(p)
    tau, theta = rng.standard_normal(p), rng.standard_normal(p)
    r = tau - theta
    want = r @ np.linalg.pinv(A) @ r
    assert statistic_euclidean(tau, theta, factor_of_matrix(A)) == pytest.approx(
        want, rel=1e-10
    )


def test_euclidean_structured_matches_dense_and_decomposition():
    rng = np.random.default_rng(5)
    d = 5
    p = pair_count(d)
    s = pd_triple(rng)
    tau = rng.standard_normal(p)
    theta = np.full(p, tau.mean())
    got = statistic_euclidean(tau, theta, one_group(s, d))
    want = statistic_euclidean(tau, theta, factor_of_matrix(materialize(s, d)))
    assert got == pytest.approx(want, rel=1e-10)

    # the two-residual split against the class eigenvalues
    ts = gamma_star_apply(tau, d)
    vals = eigenvalues(s, d).values
    split = ((tau - ts) @ (tau - ts)) / vals[2] + ((ts - theta) @ (ts - theta)) / vals[1]
    assert got == pytest.approx(split, rel=1e-10)


def test_max_identity_scaling():
    tau = np.array([0.3, -0.5, 0.1])
    theta = np.zeros(3)
    assert statistic_max(tau, theta, 1.0 / 64.0) == pytest.approx(8 * 0.5)


def test_max_dense_uses_principal_root():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    tau = np.array([1.0, 0.0])
    theta = np.zeros(2)
    # principal root by hand: eigenvalues 3 and 1 on (1,1)/sqrt2, (1,-1)/sqrt2
    want = 0.5 / np.sqrt(3.0) + 0.5
    got = statistic_max(tau, theta, factor_of_matrix(A))
    assert got == pytest.approx(want, abs=1e-12)
    # a triangular (Cholesky) root would give a different answer
    L = np.linalg.cholesky(A)
    tri = np.abs(np.linalg.solve(L, tau)).max()
    assert abs(got - tri) > 0.05
    # independent oracle for the principal inverse root
    R = scipy.linalg.fractional_matrix_power(A, -0.5)
    assert got == pytest.approx(np.abs(R @ tau).max(), rel=1e-10)


def test_max_structured_matches_dense():
    rng = np.random.default_rng(7)
    d = 5
    p = pair_count(d)
    s = pd_triple(rng)
    tau, theta = rng.standard_normal(p), rng.standard_normal(p)
    got = statistic_max(tau, theta, one_group(s, d))
    want = statistic_max(tau, theta, factor_of_matrix(materialize(s, d)))
    assert got == pytest.approx(want, rel=1e-10)


def test_statistics_zero_rank_weighting():
    tau = np.ones(6)
    with pytest.raises(SingularError):
        statistic_euclidean(tau, np.zeros(6), factor_of_matrix(np.zeros((6, 6))))
    with pytest.raises(SingularError):
        statistic_max(tau, np.zeros(6), one_group(np.zeros(3), 4))


def test_euclidean_scale_consistency():
    rng = np.random.default_rng(11)
    p = 6
    B = DesignMatrix(rng.standard_normal((p, 2)), kind="general")
    A = rng.standard_normal((p, p))
    A = A @ A.T + np.eye(p)
    tau = rng.standard_normal(p)
    c = 3.7
    F1, F2 = factor_of_matrix(A), factor_of_matrix(c * A)
    th1 = gamma_projection(B, F1).apply(tau)
    th2 = gamma_projection(B, F2).apply(tau)
    np.testing.assert_allclose(th1, th2, atol=1e-12)
    e1 = statistic_euclidean(tau, th1, F1)
    e2 = statistic_euclidean(tau, th2, F2)
    assert c * e2 == pytest.approx(e1, rel=1e-10)


# ---------------------------------------------------------------------------
# p-values


def test_pvalue_chisq_basics():
    assert pvalue_chisq(0.0, 10, 1) == 1.0
    assert pvalue_chisq(-1e-30, 10, 1) == 1.0  # rounding below an exact zero
    med = stats.chi2.ppf(0.5, 9)
    assert pvalue_chisq(med, 10, 1) == pytest.approx(0.5, abs=1e-12)
    vals = [pvalue_chisq(e, 10, 1) for e in (0.5, 1.0, 5.0, 20.0)]
    assert vals == sorted(vals, reverse=True)
    with pytest.raises(ValueError):
        pvalue_chisq(1.0, 3, 3)


def test_pvalue_mixture_single_term_matches_chisq():
    rng = np.random.default_rng(13)
    N = 5000
    for m, E in ((3, 4.0), (9, 12.0)):
        p_mc = pvalue_mixture_mc(E, [(1.0, m)], N, rng)
        p_exact = stats.chi2.sf(E, m)
        se = np.sqrt(p_exact * (1 - p_exact) / N)
        assert abs(p_mc - p_exact) < 3 * se + 1e-12


def test_pvalue_mixture_conventions():
    rng = np.random.default_rng(17)
    assert pvalue_mixture_mc(0.0, [(0.5, 2)], 200, rng) == 1.0
    with pytest.raises(ValueError, match="empty"):
        pvalue_mixture_mc(1.0, [], 200, rng)
    with pytest.raises(ValueError, match="positive"):
        pvalue_mixture_mc(1.0, [(-0.1, 2)], 200, rng)
    with pytest.raises(ValueError, match="100"):
        pvalue_mixture_mc(1.0, [(1.0, 2)], 50, rng)
    p_plain = pvalue_mixture_mc(3.0, [(1.0, 3)], 400, np.random.default_rng(23))
    p_cons = pvalue_mixture_mc(
        3.0, [(1.0, 3)], 400, np.random.default_rng(23), plus_one=True
    )
    assert p_cons == pytest.approx((1 + p_plain * 400) / 401, abs=1e-12)


def test_pvalue_monotone_in_statistic_for_fixed_seed():
    spectrum = [(2.0, 3), (0.5, 4)]
    ps = [
        pvalue_mixture_mc(e, spectrum, 2000, np.random.default_rng(29))
        for e in (0.0, 1.0, 4.0, 10.0, 30.0)
    ]
    assert ps == sorted(ps, reverse=True)
    pm = [
        kt._exceedances(
            kt._normal_blocks(2000, 5, np.random.default_rng(31)), m
        )
        / 2000
        for m in (0.0, 0.5, 1.5, 3.0)
    ]
    assert pm == sorted(pm, reverse=True)


def test_mixture_spectrum_merging_and_dropping():
    values = np.array([2.0, 2.0, 1.0, 1e-14, -3.0])
    keep = rank_mask(values, 5)
    assert keep.tolist() == [True, True, True, False, False]
    got = kt._merged_spectrum(values[keep], [1, 1, 1])
    assert got == [(2.0, 2), (1.0, 1)]
    got = kt._merged_spectrum([1.0, 1.0 + 1e-9], [1, 1])
    assert len(got) == 1 and got[0][1] == 2
    assert not rank_mask(np.zeros(3), 3).any() and kt._merged_spectrum([], []) == []
    assert dense_spectrum(np.diag([2.0, 2.0, 1.0, 1e-14, -3.0])) == [(2.0, 2), (1.0, 1)]


# ---------------------------------------------------------------------------
# null samplers


def empirical_cov(Z):
    return (Z.T @ Z) / Z.shape[0]


def test_sample_identity_covariance():
    rng = np.random.default_rng(37)
    Z = drawn(kt._normal_blocks(20000, 3, rng))
    np.testing.assert_allclose(empirical_cov(Z), np.eye(3), atol=0.06)


def test_sample_fallback_when_ineligible():
    # s1 < s0: no sum of global, per-variable and per-pair normals has this
    # covariance; the quotients' square root colors it
    rng = np.random.default_rng(43)
    d = 4
    s = np.array([0.4, 0.2, 1.0])
    Z = drawn(kt._null_gaussian_blocks(one_group(s, d), 30000, rng))
    np.testing.assert_allclose(empirical_cov(Z), materialize(s, d), atol=0.06)


def test_sample_projection_path_kills_grand_mean():
    rng = np.random.default_rng(47)
    d = 5
    s = pd_triple(rng)
    t = s - eigenvalues(s, d).values[0] / pair_count(d)
    Z = drawn(kt._null_gaussian_blocks(one_group(t, d), 500, rng))
    assert np.abs(Z.mean(axis=1)).max() < 1e-12
    J = np.full((pair_count(d), pair_count(d)), 1.0 / pair_count(d))
    target = (np.eye(pair_count(d)) - J) @ materialize(s, d)
    Z = drawn(kt._null_gaussian_blocks(one_group(t, d), 30000, rng))
    np.testing.assert_allclose(empirical_cov(Z), target, atol=0.06)


def test_sample_dense_and_projector_paths():
    rng = np.random.default_rng(53)
    A = rng.standard_normal((4, 4))
    A = A @ A.T
    Z = drawn(kt._null_gaussian_blocks(factor_of_matrix(A), 30000, rng))
    np.testing.assert_allclose(empirical_cov(Z), A, atol=0.08 * A.max())
    # the projector I - J/p is the one-group matrix with eigenvalues (0, 1, 1)
    P = np.eye(6) - np.full((6, 6), 1.0 / 6.0)
    q = one_group((-1 / 6, -1 / 6, 5 / 6), 4)
    Z = drawn(kt._null_gaussian_blocks(q, 30000, rng))
    np.testing.assert_allclose(empirical_cov(Z), P, atol=0.06)


def test_sample_zero_draws_has_p_columns():
    rng = np.random.default_rng(0)
    forms = (factor_of_matrix(np.eye(3) + 0.5), one_group(np.array([0.1, 0.3, 0.9]), 5))
    assert drawn(kt._normal_blocks(0, 5, rng)).shape == (0, 5)
    for A, p in zip(forms, (3, 10)):
        assert drawn(kt._null_gaussian_blocks(A, 0, rng)).shape == (0, p)


def test_row_blocked_draws_follow_one_random_stream(monkeypatch):
    # 3-row blocks, N not a multiple of 3: identity draws are the rows of
    # one (N, p) draw, and coloured S-block draws match one block up to
    # the rounding of the per-block matrix product
    d, N = 5, 301
    p = pair_count(d)
    q = one_group(np.array([0.4, 0.2, 1.0]), d)
    one = drawn(kt._null_gaussian_blocks(q, N, np.random.default_rng(59)))
    monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", 3 * p)
    Z = drawn(kt._normal_blocks(N, p, np.random.default_rng(59)))
    assert np.array_equal(Z, np.random.default_rng(59).standard_normal((N, p)))
    blocked = drawn(kt._null_gaussian_blocks(q, N, np.random.default_rng(59)))
    np.testing.assert_allclose(blocked, one, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# multiplier bootstrap


def test_bootstrap_comonotone_draws_vanish():
    x = np.linspace(0.0, 1.0, 12)
    X = np.column_stack([x, np.exp(x), x**3])
    design = block_membership_matrix(Partition.exchangeable(3))
    Z = bootstrap_draws(X, design, 50, np.random.default_rng(59))
    assert np.abs(Z).max() < 1e-12


def test_bootstrap_orthogonal_to_design():
    rng = np.random.default_rng(61)
    X = rng.standard_normal((25, 4))
    design = block_membership_matrix(Partition(4, ((1, 2), (3, 4))))
    Z = bootstrap_draws(X, design, 200, rng)
    resid = Z @ design.matrix
    assert np.abs(resid).max() < 1e-10


def test_bootstrap_conditional_covariance():
    rng = np.random.default_rng(67)
    n, d = 30, 4
    X = rng.standard_normal((n, d))
    design = block_membership_matrix(Partition.exchangeable(d))
    Z = bootstrap_draws(X, design, 40000, rng)
    P = np.eye(6) - np.full((6, 6), 1.0 / 6.0)
    target = n * (P @ jackknife_cov(X).matrix @ P)
    np.testing.assert_allclose(empirical_cov(Z), target, atol=0.05)


def test_bootstrap_memory_is_bounded_for_long_samples():
    # n >> p: each row block draws n multipliers per replicate, so blocks
    # are sized by max(n, p); one (N, n) draw would take 40 MB here
    n, N = 1000, 5000
    X = np.random.default_rng(71).standard_normal((n, 4))
    tracemalloc.start()
    try:
        Z = bootstrap_draws(X, None, N, np.random.default_rng(73))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak
    # the multipliers are still the rows of one (N, n) draw
    sample = KendallSample(X)
    W = np.random.default_rng(73).standard_normal((N, n))
    D = sample.rows
    np.testing.assert_allclose(Z, (2.0 / np.sqrt(n)) * (W @ D), rtol=0, atol=1e-12)


def test_bootstrap_needs_three_observations():
    with pytest.raises(ValueError, match="n >= 3"):
        bootstrap_draws(np.array([[1.0, 2.0], [2.0, 1.0]]), None, 10, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# run_test orchestration


def exchangeable_normal(rng, n, d, rho=0.3):
    z0 = rng.standard_normal((n, 1))
    return np.sqrt(rho) * z0 + np.sqrt(1 - rho) * rng.standard_normal((n, d))


def test_run_test_smoke_all_routes():
    rng = np.random.default_rng(71)
    X = exchangeable_normal(rng, 60, 5)
    part = Partition.exchangeable(5)
    design = block_membership_matrix(part)
    combos = [
        (part, "euclidean", "sigma", "structured", "chi-square"),
        (part, "euclidean", "identity", "structured", "mixture-mc"),
        (part, "max", "sigma", "structured", "max-mc"),
        (part, "max", "identity", "structured", "max-mc"),
        (design, "euclidean", "sigma", "jackknife", "chi-square"),
        (design, "euclidean", "identity", "jackknife", "mixture-mc"),
        (design, "max", "sigma", "jackknife", "max-mc"),
        (design, "max", "identity", "jackknife", "bootstrap-mc"),
    ]
    for hyp, stat, weight, est, want_method in combos:
        opts = TestOptions(
            statistic=stat, weighting=weight, estimator=est, replicates=400, seed=99
        )
        rep = run_test(X, hyp, opts)
        assert rep.method == want_method, (stat, weight, est)
        assert 0.0 <= rep.p_value <= 1.0
        assert np.isfinite(rep.value) and rep.value >= 0.0
        assert rep.seed == 99
        assert rep.n == 60 and rep.d == 5 and rep.p == 10 and rep.L == 1


def test_run_test_partition_hypothesis_multigroup():
    rng = np.random.default_rng(73)
    X = exchangeable_normal(rng, 50, 5)
    part = Partition(5, ((1, 2, 3), (4, 5)))
    opts = TestOptions(statistic="max", weighting="sigma", seed=5, replicates=300)
    rep = run_test(X, part, opts)
    assert rep.method == "max-mc"
    assert rep.hypothesis["type"] == "partition"
    assert rep.hypothesis["groups"] == [[1, 2, 3], [4, 5]]
    opts = TestOptions(statistic="euclidean", weighting="identity", seed=5, replicates=300)
    rep = run_test(X, part, opts)
    assert rep.method == "mixture-mc"
    assert rep.eigenvalues is not None and len(rep.eigenvalues) >= 1


def test_run_test_comonotone_gives_p_one(monkeypatch):
    # an exact fit has statistic 0 and p-value 1 on every route, and no
    # route draws for it; the report still gives N, df and the null law
    def no_draws(*args, **kwargs):
        raise AssertionError("Monte Carlo draws after an exact fit")
        yield  # a generator, as is the function it replaces

    def no_mixture(*args, **kwargs):
        raise AssertionError("chi-square mixture drawn after an exact fit")

    monkeypatch.setattr(kt, "_normal_blocks", no_draws)
    monkeypatch.setattr(kt, "pvalue_mixture_mc", no_mixture)
    z = np.random.default_rng(2).standard_normal(20)
    X = np.column_stack([z, z**3, np.exp(z), z + 5, 2 * z])
    part = Partition.exchangeable(5)
    cases = [(X, part), (X, block_membership_matrix(part))]
    # a fit that is exact while the projected covariance is not zero
    Y = exchangeable_normal(np.random.default_rng(3), 20, 5)
    tau = KendallSample(Y).tau
    cases.append((Y, DesignMatrix(np.column_stack([tau, np.ones(tau.size)]))))
    for data, hyp in cases:
        estimator = "structured" if isinstance(hyp, Partition) else "jackknife"
        for (est, stat, weight, draws), (method, sampler) in kt._ROUTES.items():
            if est != estimator:
                continue
            opts = TestOptions(statistic=stat, weighting=weight, estimator=est,
                               null_draws=draws, replicates=5000, seed=1)
            rep = run_test(data, hyp, opts)
            case = (hyp, stat, weight, draws)
            assert rep.value == 0.0 and rep.p_value == 1.0, case
            assert rep.method == method, case
            assert rep.N == (None if method == "chi-square" else 5000), case
            assert rep.df == (10 - rep.L if method == "chi-square" else None), case
            if data is Y and method == "mixture-mc":
                assert rep.eigenvalues, case


def test_run_test_zero_projected_covariance_contract():
    # anti-comonotone columns: every jackknife residual vanishes, so the
    # covariance estimate is zero while the fit is not exact
    z = np.linspace(0.0, 1.0, 20)
    anti = np.column_stack([z, -z, z, -z, z, -z])
    como = np.column_stack([z, z**3, np.exp(z), 2 * z, z + 1, z**5])
    block_anti = np.column_stack([z, z**3, np.exp(z), -z, -(z**3), -np.exp(z)])
    zero_note = "projected covariance estimate is zero"
    for part in (Partition(6, ((1, 2, 3), (4, 5, 6))), Partition.exchangeable(6)):
        for stat in ("euclidean", "max"):
            opts = TestOptions(statistic=stat, weighting="identity", replicates=200, seed=1)
            rep = run_test(anti, part, opts)
            assert rep.value > 0.0 and rep.p_value == 0.0, (part, stat)
            assert rep.warnings == [zero_note], (part, stat)
    part = Partition(6, ((1, 2, 3), (4, 5, 6)))
    # the design route, on the same partition's membership design and with
    # either null law of the identity routes
    for stat in ("euclidean", "max"):
        for draws in ("auto", "gaussian", "bootstrap"):
            opts = TestOptions(statistic=stat, weighting="identity", estimator="jackknife",
                               null_draws=draws, replicates=200, seed=1)
            rep = run_test(anti, block_membership_matrix(part), opts)
            assert rep.value > 0.0 and rep.p_value == 0.0, (stat, draws)
            assert rep.warnings == [zero_note], (stat, draws)
    for stat in ("euclidean", "max"):
        opts = TestOptions(statistic=stat, weighting="sigma", replicates=200, seed=1)
        with pytest.raises(SingularError, match="weighting matrix has zero rank"):
            run_test(anti, part, opts)
        for X in (como, block_anti):
            rep = run_test(X, part, opts)
            assert rep.value == 0.0 and rep.p_value == 1.0, stat
            assert any("fits exactly" in w for w in rep.warnings), stat


ROUTES = (
    ("euclidean", "sigma"),
    ("euclidean", "identity"),
    ("max", "sigma"),
    ("max", "identity"),
)


def test_run_test_partition_needs_three_observations():
    # one group or several, every route refuses n = 2 with the same error
    X = np.array([[0.1, 0.5, 0.3, 0.9, 0.2, 0.4], [0.7, 0.2, 0.8, 0.1, 0.6, 0.3]])
    for part in (Partition.exchangeable(4), Partition(6, ((1, 2, 3), (4, 5, 6)))):
        for stat, weight in ROUTES:
            opts = TestOptions(statistic=stat, weighting=weight, replicates=200, seed=1)
            with pytest.raises(ValueError) as err:
                run_test(X[:, : part.d], part, opts)
            assert str(err.value) == "partition-structured jackknife needs n >= 3"


def _report_or_error(X, part, opts):
    try:
        return run_test(X, part, opts)
    except SingularError as exc:
        return exc


@st.composite
def small_partitions(draw):
    """One group of 3 to 7 variables, or 2 to 4 groups of 1 to 3 that
    are not all singletons (those leave no constraint to test)."""
    if draw(st.booleans()):
        return Partition.exchangeable(draw(st.integers(3, 7)))
    sizes = draw(
        st.lists(st.integers(1, 3), min_size=2, max_size=4).filter(lambda s: max(s) > 1)
    )
    cuts = np.cumsum([0] + sizes)
    return Partition(
        int(cuts[-1]),
        tuple(tuple(range(a + 1, b + 1)) for a, b in zip(cuts[:-1], cuts[1:])),
    )


_MONOTONE = (np.exp, np.arctan, lambda x: x**3, lambda x: 2.5 * x - 1.0, np.sinh)


@settings(max_examples=30, deadline=None)
@given(small_partitions(), st.integers(4, 25), st.integers(0, 2**32 - 1))
def test_run_test_invariant_to_monotone_transforms_and_row_order(part, n, seed):
    # ranks are all the reports depend on: strictly increasing column
    # transforms leave tau and the leave-one-out sums unchanged, and a row
    # permutation only reorders the jackknife's terms
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, part.d)) + rng.standard_normal((n, 1))
    transformed = np.column_stack(
        [_MONOTONE[j % len(_MONOTONE)](X[:, j]) for j in range(part.d)]
    )
    shuffled = X[rng.permutation(n)]
    for stat, weight in ROUTES:
        opts = TestOptions(statistic=stat, weighting=weight, replicates=200, seed=seed)
        base = _report_or_error(X, part, opts)
        for other in (transformed, shuffled):
            rep = _report_or_error(other, part, opts)
            if isinstance(base, Exception):
                assert type(rep) is type(base) and str(rep) == str(base)
                continue
            assert rep.method == base.method, (stat, weight)
            assert rep.warnings == base.warnings, (stat, weight)
            assert rep.value == pytest.approx(base.value, rel=1e-10, abs=1e-300)
            if base.N is None:  # chi-square tail of a value equal to 1e-10
                assert rep.p_value == pytest.approx(base.p_value, rel=1e-10)
            else:  # the same Monte Carlo draws
                assert rep.p_value == base.p_value, (stat, weight)


def _accepted_options():
    """Every (statistic, weighting, null_draws) that TestOptions accepts."""
    out = []
    for stat in ("euclidean", "max"):
        for weight in ("sigma", "identity"):
            for draws in ("auto", "gaussian", "bootstrap"):
                try:
                    TestOptions(statistic=stat, weighting=weight, null_draws=draws,
                                seed=1).validate()
                except ValueError:
                    continue
                out.append((stat, weight, draws))
    return out


@st.composite
def route_cases(draw):
    """(data, hypothesis, estimator): a one-group or several-group
    Partition, or the membership or vertex-incidence design, at n in
    3..25 and d in 3..8, with some columns the negation of others."""
    kind = draw(st.sampled_from(("one-group", "several", "membership", "vertex")))
    d, n = draw(st.integers(3, 8)), draw(st.integers(3, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d)) + rng.uniform(0.0, 2.0) * rng.standard_normal((n, 1))
    for j in draw(st.sets(st.integers(1, d - 1), max_size=d - 1)):
        X[:, j] = -X[:, draw(st.integers(0, j - 1))]
    order = draw(st.permutations(range(1, d + 1)))
    cuts = sorted(draw(st.sets(st.integers(1, d - 1), min_size=1, max_size=d - 1)))
    bounds = [0] + cuts + [d]
    several = Partition(d, tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])))
    if kind == "one-group":
        return X, Partition.exchangeable(d), "structured"
    if kind == "several":
        return X, several, "structured"
    try:
        if kind == "vertex":
            return X, vertex_incidence_design(d), "jackknife"
        part = draw(st.sampled_from((Partition.exchangeable(d), several)))
        return X, block_membership_matrix(part), "jackknife"
    except ValueError:  # as many columns as pairs leaves nothing to test
        return X, block_membership_matrix(Partition.exchangeable(d)), "jackknife"


# columns 2 and 4 negate column 1: euclidean/sigma's quadratic form rounds
# to -3.1e-33
_ANTI_PAIRS = np.array([
    [0.27186292, -0.27186292, 0.78655535, -0.27186292],
    [-0.47766998, 0.47766998, 1.36199944, 0.47766998],
    [-0.60771601, 0.60771601, -0.52725524, 0.60771601],
    [-2.50169069, 2.50169069, -1.42257087, 2.50169069],
    [-0.57927968, 0.57927968, 0.37660984, 0.57927968],
    [0.08329003, -0.08329003, -0.45336998, -0.08329003],
    [1.30698484, -1.30698484, -0.33998459, -1.30698484],
    [-0.79791653, 0.79791653, -1.34980889, 0.79791653],
])


@settings(max_examples=100, deadline=None)
@given(route_cases())
@example((_ANTI_PAIRS, block_membership_matrix(Partition.exchangeable(4)), "jackknife"))
def test_every_route_reports_a_p_value_or_a_typed_error(case):
    X, hypothesis, estimator = case
    for stat, weight, draws in _accepted_options():
        opts = TestOptions(statistic=stat, weighting=weight, estimator=estimator,
                           null_draws=draws, replicates=100, seed=3)
        try:
            rep = run_test(X, hypothesis, opts)
        except (SingularError, TieError, RankDeficient, ValueError) as exc:
            # numpy's LinAlgError is a ValueError but not a kstruct error
            assert not isinstance(exc, np.linalg.LinAlgError), (stat, weight, draws)
            continue
        assert np.isfinite(rep.value) and rep.value >= 0.0, (stat, weight, draws)
        assert 0.0 <= rep.p_value <= 1.0, (stat, weight, draws)


def _report_dict_or_error(data, hypothesis, opts):
    try:
        return run_test(data, hypothesis, opts).to_dict()
    except (SingularError, TieError, RankDeficient, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=40, deadline=None)
@given(route_cases(), st.booleans(), st.integers(0, 3))
def test_run_test_on_a_sample_equals_run_test_on_the_array(case, rounded, tie_seed):
    # one ranking shared by many tests changes no report: every route and
    # null-draw scheme, both tie modes, on data that often has ties
    X, hypothesis, estimator = case
    if rounded:
        X = np.round(X, 1)
    for ties, tie_seed in (("error", 0), ("jitter", tie_seed)):
        try:
            sample = KendallSample(X, ties, tie_seed)
        except TieError:
            assert ties == "error"
            with pytest.raises(TieError):
                run_test(X, hypothesis, TestOptions(estimator=estimator, seed=1))
            continue
        assert sample.shape == X.shape
        for stat, weight, draws in _accepted_options():
            opts = TestOptions(statistic=stat, weighting=weight, estimator=estimator,
                               null_draws=draws, replicates=100, seed=5, ties=ties,
                               tie_seed=tie_seed)
            want = _report_dict_or_error(X, hypothesis, opts)
            assert _report_dict_or_error(sample, hypothesis, opts) == want


def test_a_sample_ranked_otherwise_is_refused():
    rng = np.random.default_rng(113)
    X = exchangeable_normal(rng, 20, 4)
    part = Partition.exchangeable(4)
    sample = KendallSample(X)
    for other in (dict(ties="jitter"), dict(ties="jitter", tie_seed=1)):
        with pytest.raises(ValueError, match="ranked with"):
            run_test(sample, part, TestOptions(seed=1, **other))
    # the estimators take a sample as it is, however it was ranked
    assert np.array_equal(jackknife_cov(sample).matrix, jackknife_cov(X).matrix)
    X[2, 1] = X[5, 1]
    with pytest.raises(TieError, match=r"column\(s\) \[2\]"):
        KendallSample(X)
    jittered = KendallSample(X, "jitter", 4)
    assert jittered.tied == [2]
    # the digest is of the raw array, not the jittered one
    assert jittered.digest == hashlib.sha256(X.tobytes()).hexdigest()[:16]
    # jittered data reaches an estimator as its sample
    assert np.array_equal(jackknife_cov(jittered).rows, jittered.rows)


def _route_cases(part):
    """(route, hypothesis, options) for every entry of ``_ROUTES``: the
    structured routes on the partition, the jackknife routes on its
    membership design."""
    design = block_membership_matrix(part)
    for route in kt._ROUTES:
        est, stat, weight, draws = route
        opts = TestOptions(statistic=stat, weighting=weight, estimator=est,
                           null_draws=draws, replicates=200, seed=41)
        yield route, part if est == "structured" else design, opts


@pytest.mark.parametrize("part", [Partition(6, ((1, 2), (3, 4), (5, 6))),
                                  Partition.exchangeable(5)])
def test_routes_sharing_one_sample_equal_fresh_raw_array_calls(part):
    # a sample keeps its estimates and their spectral forms for every
    # test; in either order, each route reports what a fresh raw-array
    # call reports, byte for byte
    rng = np.random.default_rng(43)
    X = rng.standard_normal((40, part.d)) + 0.5 * rng.standard_normal((40, 1))
    cases = list(_route_cases(part))
    want = {route: run_test(X, hyp, opts).to_json() for route, hyp, opts in cases}
    for order in (cases, cases[::-1]):
        sample = KendallSample(X)
        for route, hyp, opts in order:
            assert run_test(sample, hyp, opts).to_json() == want[route], route


def test_structured_routes_on_one_sample_estimate_once(monkeypatch):
    # one estimate, one projected null law and one pseudo-power per
    # exponent serve the four structured routes of a sample
    counts = {"quotients": 0, "projected": 0, "power": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kc, "partition_quotients",
                        counting("quotients", ks.partition_quotients))
    monkeypatch.setattr(kt, "partition_projected",
                        counting("projected", ks.partition_projected))
    monkeypatch.setattr(ks, "partition_pseudo_power",
                        counting("power", ks.partition_pseudo_power))
    part = Partition(6, ((1, 2), (3, 4), (5, 6)))
    rng = np.random.default_rng(47)
    sample = KendallSample(rng.standard_normal((30, 6)))
    for stat, weight in ROUTES:
        run_test(sample, part, TestOptions(statistic=stat, weighting=weight,
                                           replicates=200, seed=3))
    # powers -1 and -1/2 of the estimate whiten, 1/2 of its projection colours
    assert counts == {"quotients": 1, "projected": 1, "power": 3}


def test_options_json_is_unchanged_without_asdict():
    # to_dict reads the fields directly; its JSON matches asdict's
    for opts in (TestOptions(seed=np.int64(7), replicates=np.int32(300)),
                 TestOptions(statistic="max", weighting="identity", seed=2,
                             plus_one=np.bool_(True), ties="jitter",
                             tie_seed=np.int64(4), null_draws="bootstrap")):
        old = dict(dataclasses.asdict(opts), replicates=int(opts.replicates),
                   seed=int(opts.seed), plus_one=bool(opts.plus_one),
                   tie_seed=int(opts.tie_seed))
        assert json.dumps(opts.to_dict()) == json.dumps(old)


# a permutation within each group of these partitions: reversed groups
_EQUIVARIANCE_CASES = (
    (30, Partition(6, ((1, 2, 3), (4, 5, 6))), 171),
    (20, Partition.exchangeable(5), 172),
    (25, Partition(7, ((1, 4), (2, 3, 5), (6, 7))), 173),
)


@pytest.mark.parametrize("n, part, seed", _EQUIVARIANCE_CASES)
def test_reports_equivariant_under_permutations_within_groups(n, part, seed):
    # relabelling variables within a group maps the hypothesis to itself,
    # so each route's statistic and chi-square tail are unchanged; Monte
    # Carlo p-values see other draws and agree only within their error
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, part.d)) + 0.7 * rng.standard_normal((n, 1))
    perm = np.arange(part.d)
    for g in part.groups:
        idx = [v - 1 for v in g]
        perm[idx] = idx[::-1]
    for hypothesis, estimator in ((part, "structured"),
                                  (block_membership_matrix(part), "jackknife")):
        for stat, weight in ROUTES:
            opts = TestOptions(statistic=stat, weighting=weight, estimator=estimator,
                               replicates=200, seed=seed)
            base = run_test(X, hypothesis, opts)
            rep = run_test(X[:, perm], hypothesis, opts)
            assert rep.method == base.method
            assert rep.value == pytest.approx(base.value, rel=1e-9, abs=1e-300)
            if base.method == "chi-square":
                assert rep.p_value == pytest.approx(base.p_value, rel=1e-9)


def test_run_test_seed_reproducibility():
    rng = np.random.default_rng(79)
    X = exchangeable_normal(rng, 40, 4)
    opts = dict(statistic="max", weighting="identity", replicates=500)
    a = run_test(X, Partition.exchangeable(4), TestOptions(seed=11, **opts))
    b = run_test(X, Partition.exchangeable(4), TestOptions(seed=11, **opts))
    assert a.p_value == b.p_value and a.value == b.value
    assert a.input_digest == b.input_digest


def test_run_test_max_routes_independent_of_draw_blocks(monkeypatch):
    X = exchangeable_normal(np.random.default_rng(83), 40, 6)
    reports = []
    for entries in (kt._DRAW_BLOCK_ENTRIES, 2 * pair_count(6)):
        monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", entries)
        for weight in ("sigma", "identity"):
            opts = TestOptions(statistic="max", weighting=weight, replicates=501, seed=3)
            rep = run_test(X, Partition.exchangeable(6), opts)
            reports.append((rep.value, rep.p_value))
    assert reports[:2] == reports[2:]


def test_run_test_design_routes_independent_of_draw_blocks(monkeypatch):
    # 2-row blocks against one block: the multiplier bootstrap (both
    # statistics), max/sigma's projector draws and Gaussian max/identity
    X = exchangeable_normal(np.random.default_rng(83), 40, 6)
    design = block_membership_matrix(Partition(6, ((1, 2, 3), (4, 5, 6))))
    routes = (
        ("euclidean", "identity", "bootstrap"),
        ("max", "identity", "bootstrap"),
        ("max", "identity", "gaussian"),
        ("max", "sigma", "auto"),
    )
    reports, boots = [], []
    for entries in (kt._DRAW_BLOCK_ENTRIES, 2 * pair_count(6)):
        monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", entries)
        for stat, weight, draws in routes:
            opts = TestOptions(statistic=stat, weighting=weight, estimator="jackknife",
                               null_draws=draws, replicates=501, seed=3)
            rep = run_test(X, design, opts)
            reports.append((rep.value, rep.p_value))
        boots.append(bootstrap_draws(X, design, 301, np.random.default_rng(5)))
    assert reports[: len(routes)] == reports[len(routes):]
    # one random stream; a blocked product may round differently
    np.testing.assert_allclose(boots[1], boots[0], rtol=0, atol=1e-12)


def test_run_test_max_null_memory_is_bounded():
    # no max route forms the (N, p) draws (70 MB here): a test holds two
    # draw buffers at most, one work array for colouring (1.44 blocks for
    # three groups of ten), subtraction or the bootstrap product, and its
    # data, so the traced peak stays within four 2 MB row blocks
    d, N = 30, 20000
    X = exchangeable_normal(np.random.default_rng(89), 50, d)
    three = Partition(d, tuple(tuple(range(g, g + 10)) for g in (1, 11, 21)))
    block_bytes = 8 * kt._DRAW_BLOCK_ENTRIES
    routes = [
        (Partition.exchangeable(d), "sigma", "structured"),
        (Partition.exchangeable(d), "identity", "structured"),
        (three, "identity", "structured"),
        (block_membership_matrix(three), "sigma", "jackknife"),
        (block_membership_matrix(three), "identity", "jackknife"),  # bootstrap
    ]
    for hypothesis, weight, estimator in routes:
        opts = TestOptions(statistic="max", weighting=weight, estimator=estimator,
                           replicates=N, seed=7)
        tracemalloc.start()
        try:
            run_test(X, hypothesis, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * block_bytes < 8 * N * pair_count(d) / 2, (weight, estimator)


@pytest.mark.parametrize("part", [
    Partition.exchangeable(6),
    Partition(6, ((1, 2), (3, 4), (5, 6))),
    Partition(6, ((1, 2, 3), (4,), (5,), (6,))),
], ids=["one-group", "three-group", "singleton-groups"])
def test_samplers_write_the_old_formulas_into_their_buffers(monkeypatch, part):
    # 4-row blocks (2-row for the bootstrap, which draws n = 30 columns)
    # and N = 23, so the last block is short: every sampler's block is
    # what its old formula made in a fresh array, bit for bit, and every
    # block is written into the one draw buffer or the one work array
    monkeypatch.setattr(kt, "_second_cpu", lambda: False)
    d, n, N = 6, 30, 23
    p = pair_count(d)
    monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", 4 * p)
    sample = KendallSample(exchangeable_normal(np.random.default_rng(149), n, d))
    est = kc.structured_jackknife_partition(sample, part)
    design = block_membership_matrix(part)
    gamma = gamma_projection(design)
    coloured = kt._identity_null(est, gamma, n)[1]
    dense = kt._identity_null(jackknife_cov(sample), gamma, n)[1]
    R = est.rows - gamma.apply(est.rows)
    G = drawn(kt._normal_blocks(N, p, np.random.default_rng(5)))
    W = drawn(kt._normal_blocks(N, n, np.random.default_rng(5)))
    root = ks.partition_pseudo_power(coloured, 0.5)
    Vk = dense.V[:, dense.keep]
    orthogonal = gamma_projection(DesignMatrix(design.matrix))  # held as B B^+

    def old(formula, Z, rows):
        return np.concatenate([formula(Z[lo:lo + rows]) for lo in range(0, N, rows)])

    rng = np.random.default_rng
    samplers = {
        "partition colouring": (kt._null_gaussian_blocks(coloured, N, rng(5)),
                                old(lambda g: sparse_product_apply(root, g), G, 4)),
        "dense colouring": (kt._null_gaussian_blocks(dense, N, rng(5)),
                            old(lambda g: ((g @ Vk) * dense.w[dense.keep] ** 0.5) @ Vk.T, G, 4)),
        "means": (kt._residual_blocks(gamma, N, p, rng(5)),
                  old(lambda g: g - gamma.apply(g), G, 4)),
        "orthogonal": (kt._residual_blocks(orthogonal, N, p, rng(5)),
                       old(lambda g: g - orthogonal.apply(g), G, 4)),
        "bootstrap": (kt._bootstrap_blocks(R, N, rng(5)),
                      old(lambda w: (2.0 / np.sqrt(n)) * (w @ R), W, 2)),
    }
    for name, (blocks, want) in samplers.items():
        got, buffers = [], set()
        for b in blocks:
            got.append(b.copy())
            buffers.add(b.__array_interface__["data"][0])
        assert [len(b) for b in got][-1] < len(got[0]), name
        assert np.array_equal(np.concatenate(got), want), name
        assert len(buffers) == 1, name


# ---------------------------------------------------------------------------
# draws ahead on helper threads


def _draw_ahead(monkeypatch, on):
    # 3-row blocks at p = 15, so N = 301 draws span 101 of them
    monkeypatch.setattr(kt, "_second_cpu", lambda: on)
    monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", 3 * pair_count(6))


def _on_the_pool():
    """(the current thread, how many threads of a draw pool are alive)."""
    alive = sum(t.name.startswith("kstruct-draws") for t in threading.enumerate())
    return threading.current_thread(), alive


def _block_threads(monkeypatch):
    """``_on_the_pool()`` for each block, taken in ``_draw_block``, in the
    list returned."""
    seen, draw = [], kt._draw_block

    def recorded(*args):
        seen.append(_on_the_pool())
        return draw(*args)

    monkeypatch.setattr(kt, "_draw_block", recorded)
    return seen


def _pool_threads(seen):
    """How many threads the draw pool of ``seen``, a list of
    ``_on_the_pool()``, had; each block ran on one of them, never on the
    main thread.  A pool does not pin a decoder's blocks to one thread,
    so with tiny blocks one thread may draw them all."""
    assert all(t.name.startswith("kstruct-draws") for t, _ in seen)
    (alive,) = {alive for _, alive in seen}
    assert len({t for t, _ in seen}) <= alive
    return alive


def test_threaded_draws_equal_inline_draws(monkeypatch):
    p, N = pair_count(6), 301
    A = np.random.default_rng(97).standard_normal((p, p))
    X = exchangeable_normal(np.random.default_rng(101), 30, 6)
    design = block_membership_matrix(Partition(6, ((1, 2, 3), (4, 5, 6))))
    generators = {
        "identity": lambda rng: drawn(kt._normal_blocks(N, p, rng)),
        "dense": lambda rng: drawn(kt._null_gaussian_blocks(factor_of_matrix(A @ A.T), N, rng)),
        "partition": lambda rng: drawn(kt._null_gaussian_blocks(
            one_group(np.array([0.4, 0.2, 1.0]), 6), N, rng
        )),
        "bootstrap": lambda rng: bootstrap_draws(X, design, N, rng),
    }
    threads = _block_threads(monkeypatch)
    draws = {}
    for on in (False, True):
        _draw_ahead(monkeypatch, on)
        for kind, draw in generators.items():
            threads.clear()
            rng = np.random.default_rng(7)
            draws[on, kind] = draw(rng), rng.bit_generator.state, list(threads)
    for kind in generators:
        (inline, s0, h0), (ahead, s1, h1) = draws[False, kind], draws[True, kind]
        assert np.array_equal(inline, ahead), kind
        assert s0 == s1, kind
        # every sampler's draws split over two pool threads
        assert h0 == [] and _pool_threads(h1) == 2, kind
    # the identity draws are one (N, p) draw, however blocked
    want = np.random.default_rng(7).standard_normal((N, p))
    assert np.array_equal(draws[True, "identity"][0], want)


@pytest.mark.parametrize("hypothesis", [
    Partition.exchangeable(6),
    Partition(6, ((1, 2), (3, 4), (5, 6))),
    block_membership_matrix(Partition(6, ((1, 2, 3), (4, 5, 6)))),
], ids=["one-group", "three-group", "membership"])
def test_run_test_reports_equal_with_threaded_draws(monkeypatch, hypothesis):
    # every route of the hypothesis's estimator, with draws in 2, 3 and
    # 101 blocks (the bootstrap's, of n = 40 columns, in 6, 9 and 301):
    # the report and the end state of the test's generator are those of
    # inline draws
    X = exchangeable_normal(np.random.default_rng(103), 40, 6)
    estimator = "jackknife" if isinstance(hypothesis, DesignMatrix) else "structured"
    made, default_rng = [], np.random.default_rng

    def recorded(seed):
        made.append(default_rng(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recorded)
    routes = [key for key in kt._ROUTES if key[0] == estimator]
    for rows in (151, 101, 3):
        monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", rows * pair_count(6))
        results = {}
        for on in (False, True):
            monkeypatch.setattr(kt, "_second_cpu", lambda: on)
            for key in routes:
                opts = TestOptions(estimator=key[0], statistic=key[1], weighting=key[2],
                                   null_draws=key[3], replicates=301, seed=13)
                made.clear()
                report = run_test(X, hypothesis, opts).to_dict()
                results[on, key] = report, made[0].bit_generator.state
        for key in routes:
            assert results[False, key] == results[True, key], (rows, key)


def test_draw_thread_stops_when_the_consumer_raises(monkeypatch):
    _draw_ahead(monkeypatch, True)
    before = threading.active_count()
    seen = []
    colour = PartitionQuotients.apply

    def failing_colour(q, G, exponent, **buffers):
        seen.append(threading.active_count())
        if len(seen) == 3:
            raise FloatingPointError("colouring failed")
        return colour(q, G, exponent, **buffers)

    monkeypatch.setattr(PartitionQuotients, "apply", failing_colour)
    X = exchangeable_normal(np.random.default_rng(107), 40, 6)
    opts = TestOptions(statistic="max", weighting="identity", replicates=301, seed=5)
    with pytest.raises(FloatingPointError, match="colouring"):
        run_test(X, Partition.exchangeable(6), opts)
    assert max(seen) == before + 2  # the decoders colour the blocks
    assert threading.active_count() == before
    # a caller that stops reading early also stops the decoders
    blocks = iter(kt._normal_blocks(301, 15, np.random.default_rng(1)))
    next(blocks)
    assert sum(t.name.startswith("kstruct-draws") for t in threading.enumerate()) == 2
    assert threading.active_count() == before + 2
    blocks.close()
    assert threading.active_count() == before


@pytest.mark.parametrize("failures", [1, 2])
@pytest.mark.parametrize("fail_at", [4, 7])
def test_draw_thread_error_reaches_the_caller(monkeypatch, failures, fail_at):
    # the draw of block fail_at fails, on an even or an odd block, and
    # with two failures so does the other decoder's next block: the
    # caller gets the blocks before fail_at, then its error, and its
    # generator is left where inline draws of those blocks leave it
    _draw_ahead(monkeypatch, True)
    before, threads, draw = threading.active_count(), [], kt._draw_block

    def failing(k, *args):
        threads.append(_on_the_pool())
        if fail_at <= k < fail_at + failures:
            raise FloatingPointError("draw %d failed" % k)
        return draw(k, *args)

    monkeypatch.setattr(kt, "_draw_block", failing)
    rng, got = np.random.default_rng(9), []
    with pytest.raises(FloatingPointError, match="draw %d failed" % fail_at):
        for block in kt._normal_blocks(301, pair_count(6), rng):
            got.append(block.copy())
    want = np.random.default_rng(9)
    assert len(got) == fail_at
    assert np.array_equal(np.concatenate(got),
                          want.standard_normal((3 * fail_at, pair_count(6))))
    assert rng.bit_generator.state == want.bit_generator.state
    assert _pool_threads(threads) == 2
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# one stream split over two decoders and spliced back


def _split(monkeypatch, entries):
    """Threaded draws in blocks of ``entries`` normals, with every
    splice's offset (None for a fallback) recorded in the list returned."""
    monkeypatch.setattr(kt, "_second_cpu", lambda: True)
    monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", entries)
    offsets, splice = [], kt._splice_offset

    def recorded(*args):
        offsets.append(splice(*args))
        return offsets[-1]

    monkeypatch.setattr(kt, "_splice_offset", recorded)
    return offsets


@pytest.mark.parametrize("rows, N, cols", [
    (151, 301, 15),  # 2 blocks
    (101, 301, 15),  # 3 blocks, the last short
    (3, 301, 15),  # 101 blocks
    (7, 300, 9),  # 43 blocks, cols apart from p
    (40, 1000, 500),  # 25 blocks of 20000 normals
])
def test_split_draws_are_one_draw(monkeypatch, rows, N, cols):
    p = 15
    offsets = _split(monkeypatch, rows * p)
    before = threading.active_count()
    rng = np.random.default_rng(211)
    Z = drawn(kt._normal_blocks(N, p, rng, cols=cols))
    want = np.random.default_rng(211)
    assert np.array_equal(Z, want.standard_normal((N, cols)))
    assert rng.bit_generator.state == want.bit_generator.state
    assert len(offsets) == -(-N // rows) - 1
    if rows * cols >= 20000:  # a gap of ~2 % of a block: every splice lands
        assert None not in offsets and max(offsets) > 100
    assert threading.active_count() == before


def test_split_draws_fall_back_exactly(monkeypatch):
    # when every splice fails, each block is drawn again from the exact
    # end of the one before
    offsets = _split(monkeypatch, 40 * 50)
    monkeypatch.setattr(kt, "_splice_offset", lambda *args: offsets.append(None))
    rng = np.random.default_rng(223)
    Z = drawn(kt._normal_blocks(1001, 50, rng))
    want = np.random.default_rng(223)
    assert np.array_equal(Z, want.standard_normal((1001, 50)))
    assert rng.bit_generator.state == want.bit_generator.state
    assert offsets == [None] * 25


def test_split_leaves_the_generator_as_inline_draws_do(monkeypatch):
    # after each block handed over, and with a 32-bit half buffered,
    # which normals do not touch
    _split(monkeypatch, 3 * 15)
    rng, want = np.random.default_rng(227), np.random.default_rng(227)
    rng.integers(0, 10, dtype=np.uint32)
    want.integers(0, 10, dtype=np.uint32)
    for block in kt._normal_blocks(301, 15, rng):
        assert np.array_equal(block, want.standard_normal(block.shape))
        assert rng.bit_generator.state == want.bit_generator.state
    assert rng.bit_generator.state["has_uint32"] == 1


class _WrappedRng:
    """A generator's standard_normal that records the thread drawing it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.threads = []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.current_thread())
        return self.rng.standard_normal(*args, **kwargs)


def test_split_only_for_a_pcg64_generator(monkeypatch):
    # a wrapper and another bit generator draw inline; with a Generator
    # over PCG64 every sampler splits over two pool threads, with one
    # splice for each block after the first
    offsets = _split(monkeypatch, 3 * 15)
    threads = _block_threads(monkeypatch)
    philox = np.random.Generator(np.random.Philox(7))
    want = np.random.Generator(np.random.Philox(7)).standard_normal((301, 15))
    assert np.array_equal(drawn(kt._normal_blocks(301, 15, philox)), want)
    wrapper = _WrappedRng(7)
    drawn(kt._normal_blocks(301, 15, wrapper))
    assert len(wrapper.threads) == 101 and set(wrapper.threads) == {threading.main_thread()}
    assert threads == [] and offsets == []
    X = exchangeable_normal(np.random.default_rng(229), 30, 6)
    bootstrap_draws(X, None, 301, np.random.default_rng(7))
    assert _pool_threads(threads) == 2
    threads.clear()
    drawn(kt._null_gaussian_blocks(one_group(np.array([0.4, 0.2, 1.0]), 6), 301,
                                   np.random.default_rng(7)))
    assert _pool_threads(threads) == 2 and len(offsets) == 300 + 100 and None not in offsets
    threads.clear()
    offsets.clear()
    gamma = gamma_projection(block_membership_matrix(Partition(6, ((1, 2, 3), (4, 5, 6)))))
    drawn(kt._residual_blocks(gamma, 301, 15, np.random.default_rng(7)))
    assert _pool_threads(threads) == 2 and len(offsets) == 100


def test_split_decoders_stop_with_the_caller(monkeypatch):
    _split(monkeypatch, 3 * 15)
    before = threading.active_count()
    blocks = iter(kt._normal_blocks(301, 15, np.random.default_rng(1)))
    next(blocks)
    assert threading.active_count() == before + 2
    blocks.close()
    assert threading.active_count() == before

    def consume(fail_at):
        for k, block in enumerate(kt._normal_blocks(301, 15, np.random.default_rng(1))):
            if k == fail_at:
                raise FloatingPointError("consumer failed at %d" % k)

    for k in (0, 1, 50, 100):
        with pytest.raises(FloatingPointError, match="consumer failed at %d" % k):
            consume(k)
        assert threading.active_count() == before


def test_split_draws_under_thread_switching(monkeypatch):
    # three callers at once, each with two decoders, on two CPUs at most,
    # switching threads every microsecond: every stream is still one draw
    _split(monkeypatch, 3 * 15)
    got = {}

    def consume(seed):
        got[seed] = drawn(kt._normal_blocks(301, 15, np.random.default_rng(seed)))

    callers = [threading.Thread(target=consume, args=(seed,)) for seed in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for seed in range(3):
        assert np.array_equal(got[seed], np.random.default_rng(seed).standard_normal((301, 15)))


@pytest.mark.parametrize("fail_at", [1, 2, 4, 5, 100])
def test_split_decoder_error_reaches_the_caller(monkeypatch, fail_at):
    # the splice of block k runs on a thread of a two-thread pool, after
    # block k - 1's: an error on either thread stops both and is raised
    # here
    offsets = _split(monkeypatch, 3 * 15)
    splice, threads = kt._splice_offset, []

    def failing(*args):
        threads.append(_on_the_pool())
        if len(offsets) + 1 == fail_at:
            raise FloatingPointError("splice %d failed" % fail_at)
        return splice(*args)

    monkeypatch.setattr(kt, "_splice_offset", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="splice %d failed" % fail_at):
        drawn(kt._normal_blocks(301, 15, np.random.default_rng(3)))
    assert len(threads) == fail_at
    assert threading.main_thread() not in [t for t, _ in threads]
    assert _pool_threads(threads) == 2
    assert threading.active_count() == before


def _decoded_samplers(d=6, n=30):
    """name -> (draws of a seed's generator, statistic), one for each
    sampler that ``_exceedances`` counts on the decoders: colouring of a
    partition (pair-major) and a dense form, subtraction of the grand
    mean (no work array, so no lock) and of class means, and the
    multiplier bootstrap, for both statistics."""
    p = pair_count(d)
    sample = KendallSample(exchangeable_normal(np.random.default_rng(241), n, d))
    part = Partition(d, ((1, 2, 3), tuple(range(4, d + 1))))
    est = kc.structured_jackknife_partition(sample, part)
    gamma = gamma_projection(block_membership_matrix(part))
    R = est.rows - gamma.apply(est.rows)
    dense = factor_of_matrix(np.cov(sample.rows.T) + np.eye(p))
    means = gamma_projection(block_membership_matrix(Partition.exchangeable(d)))
    rng = np.random.default_rng
    return {
        "partition": (lambda s: kt._null_gaussian_blocks(kt._identity_null(est, gamma, n)[1],
                                                         301, rng(s)), "max"),
        "dense": (lambda s: kt._null_gaussian_blocks(dense, 301, rng(s)), "max"),
        "grand mean": (lambda s: kt._residual_blocks(means, 301, p, rng(s)), "max"),
        "class means": (lambda s: kt._residual_blocks(gamma, 301, p, rng(s)), "max"),
        "bootstrap": (lambda s: kt._bootstrap_blocks(R, 301, rng(s)), "max"),
        "bootstrap euclidean": (lambda s: kt._bootstrap_blocks(R, 301, rng(s)), "euclidean"),
    }


@pytest.mark.parametrize("rows", [3, 40])
def test_threaded_counts_equal_inline_counts(monkeypatch, rows):
    # N = 301 in blocks of 3 rows (the bootstrap's of n = 30 columns too)
    # or of 40, each reduced 7 rows at a time through the pair-major
    # copy, so the last block and the last copy are short: every
    # sampler's count at each threshold, and its generator's end state,
    # are those of inline draws, and the decoders leave no thread
    monkeypatch.setattr(kt, "_PAIR_MAJOR_ENTRIES", 7 * pair_count(6) + 2)
    threads = _block_threads(monkeypatch)
    for name, (draws, statistic) in _decoded_samplers().items():
        monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", rows * draws(0).p)
        Z = drawn(draws(251))
        norms = np.abs(Z).max(axis=1) if statistic == "max" else np.einsum("ij,ij->i", Z, Z)
        for value in (0.0, *np.quantile(norms, (0.1, 0.5, 0.9)), np.inf):
            got = {}
            for on in (False, True):
                monkeypatch.setattr(kt, "_second_cpu", lambda: on)
                threads.clear()
                blocks = draws(251)
                count = kt._exceedances(blocks, value, statistic)
                got[on] = count, blocks.rng.bit_generator.state, list(threads)
            (inline, s0, h0), (ahead, s1, h1) = got[False], got[True]
            assert inline == ahead == int((norms > value).sum()), (name, value)
            assert s0 == s1, (name, value)
            assert h0 == [] and _pool_threads(h1) == 2, (name, value)
            assert threading.enumerate() == [threading.main_thread()], (name, value)


def test_threaded_counts_under_thread_switching(monkeypatch):
    # three callers at once, each with two decoders that share a work
    # array under the lock (or, for the bootstrap, hold one each), on
    # two CPUs at most, switching threads every microsecond: every count
    # is still the inline count
    monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", 3 * pair_count(6))
    samplers = _decoded_samplers()
    names = ("partition", "class means", "bootstrap")
    monkeypatch.setattr(kt, "_second_cpu", lambda: False)
    want = {name: kt._exceedances(samplers[name][0](263), 1.5) for name in names}
    monkeypatch.setattr(kt, "_second_cpu", lambda: True)
    got = {}

    def count(name):
        got[name] = kt._exceedances(samplers[name][0](263), 1.5)

    callers = [threading.Thread(target=count, args=(name,)) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == want


@pytest.mark.parametrize("fail_at", [4, 7])
def test_a_failing_step_stops_both_threaded_decoders(monkeypatch, fail_at):
    # the step of block fail_at, an even or an odd one of 3-row blocks
    # with a short last one, fails on a decoder: the count stops with
    # that error, both decoders stop within a block of it, no thread is
    # left, and the generator stands where the inline count leaves it
    p = pair_count(6)
    monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", 3 * p)
    gamma = gamma_projection(block_membership_matrix(Partition(6, ((1, 2, 3), (4, 5, 6)))))
    want = np.random.default_rng(257).standard_normal((301, p))
    subtract, steps = type(gamma)._subtract, []

    def failing(self, V, work):
        steps.append(threading.current_thread())
        if np.array_equal(V, want[3 * fail_at : 3 * fail_at + 3]):
            raise FloatingPointError("step %d failed" % fail_at)
        return subtract(self, V, work)

    monkeypatch.setattr(type(gamma), "_subtract", failing)
    states = {}
    for on in (False, True):
        monkeypatch.setattr(kt, "_second_cpu", lambda: on)
        steps.clear()
        rng = np.random.default_rng(257)
        with pytest.raises(FloatingPointError, match="step %d failed" % fail_at):
            kt._exceedances(kt._residual_blocks(gamma, 301, p, rng), 1.0)
        states[on] = rng.bit_generator.state
        assert threading.enumerate() == [threading.main_thread()]
    assert len(steps) <= fail_at + 2
    assert threading.main_thread() not in steps
    after = np.random.default_rng(257)
    after.standard_normal((3 * fail_at + 3, p))
    assert states[False] == states[True] == after.bit_generator.state


def test_no_thread_is_left_when_a_study_forks(monkeypatch):
    # a split kernel pass and a threaded run_test leave only the main
    # thread, so a study's pool then forks without the warning that
    # Python 3.12 gives when a process forks beside live threads
    _draw_ahead(monkeypatch, True)
    monkeypatch.setattr(kd, "_second_cpu", lambda: True)
    monkeypatch.setattr(kd, "_BLOCK_BUDGET", 4096)  # 40 one-row blocks at (40, 6)
    X = exchangeable_normal(np.random.default_rng(239), 40, 6)
    kernel, matmul = [], np.matmul

    def recording(a, b, out):
        kernel.append(threading.current_thread().name)
        return matmul(a, b, out=out)

    with monkeypatch.context() as mp:
        mp.setattr(kd.np, "matmul", recording)
        sample = KendallSample(X)
    assert len(kernel) == 40 and kernel.count("MainThread") == 20
    assert all(name.startswith("kstruct-kernel") for name in kernel if name != "MainThread")
    threads = _block_threads(monkeypatch)
    opts = TestOptions(statistic="max", replicates=301, seed=5)  # max/sigma: split draws
    run_test(sample, Partition.exchangeable(6), opts)
    assert _pool_threads(threads) == 2
    assert threading.enumerate() == [threading.main_thread()]
    monkeypatch.undo()
    study = ScenarioConfig(n=20, d=4, tau=0.3, repetitions=2, tests=(TestOptions(replicates=100),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        run_study(study, seed=1, workers=2)


@pytest.mark.parametrize("p, rows", [(10, 64), (45, 64), (780, 64)])
def test_exceedances_equal_the_row_reduction(monkeypatch, p, rows):
    # short rows go through the pair-major copy, p = 780 through the row
    # reduction; N = 301 leaves the last block short
    monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", rows * p)
    d, n, N = {10: 5, 45: 10, 780: 40}[p], 30, 301
    sample = KendallSample(exchangeable_normal(np.random.default_rng(233), n, d))
    part = Partition.exchangeable(d)
    est = kc.structured_jackknife_partition(sample, part)
    gamma = gamma_projection(block_membership_matrix(part))
    R = est.rows - gamma.apply(est.rows)
    dense = factor_of_matrix(np.cov(sample.rows.T) + np.eye(p))
    samplers = {
        "normal": lambda rng: kt._normal_blocks(N, p, rng),
        "partition": lambda rng: kt._null_gaussian_blocks(
            kt._identity_null(est, gamma, n)[1], N, rng),
        "dense": lambda rng: kt._null_gaussian_blocks(dense, N, rng),
        "residual": lambda rng: kt._residual_blocks(gamma, N, p, rng),
        "bootstrap": lambda rng: kt._bootstrap_blocks(R, N, rng),
    }
    for name, blocks in samplers.items():
        norms = np.abs(drawn(blocks(np.random.default_rng(239)))).max(axis=1)
        for value in np.quantile(norms, (0.1, 0.5, 0.9)):
            want = int((norms > value).sum())
            assert kt._exceedances(blocks(np.random.default_rng(239)), value) == want, name


def test_options_refuse_negative_seeds_and_a_plus_one_that_is_not_a_bool():
    # seeds are non-negative integers, an infinite one named as such
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        TestOptions(seed=-1).validate()
    with pytest.raises(ValueError, match="^tie_seed must be non-negative, got -3$"):
        TestOptions(seed=1, tie_seed=-3).validate()
    with pytest.raises(ValueError, match="^seed inf is not an integer$"):
        TestOptions(seed=float("inf")).validate()
    for flag in ("no", 1, None):
        with pytest.raises(ValueError, match="^plus_one %r is not a boolean$" % (flag,)):
            TestOptions(statistic="max", seed=1, plus_one=flag).validate()
    TestOptions(statistic="max", seed=1, plus_one=np.True_).validate()


def test_a_tie_seed_is_refused_unless_ties_jitter():
    # ties="error" jitters nothing, so a tie seed there was never read
    X = exchangeable_normal(np.random.default_rng(85), 20, 4)
    part = Partition.exchangeable(4)
    message = "^tie_seed does not apply to ties='error', which jitters nothing$"
    with pytest.raises(ValueError, match=message):
        TestOptions(seed=1, tie_seed=4).validate()
    with pytest.raises(ValueError, match=message):
        run_test(X, part, TestOptions(seed=1, tie_seed=4))
    with pytest.raises(ValueError, match=message):
        KendallSample(X, "error", 4)
    TestOptions(seed=1, tie_seed=0).validate()
    TestOptions(seed=1, ties="jitter", tie_seed=4).validate()
    # a sample jittered with another seed is refused by that seed
    with pytest.raises(ValueError, match="^the sample was ranked with tie_seed=4, not 1$"):
        run_test(KendallSample(X, "jitter", 4), part,
                 TestOptions(seed=1, ties="jitter", tie_seed=1))


def test_choice_fields_are_refused_by_name():
    for field, value, choices in (
            ("statistic", "sup", "'euclidean' or 'max'"),
            ("weighting", "Sigma", "'sigma' or 'identity'"),
            ("estimator", None, "'structured' or 'jackknife'"),
            ("ties", "drop", "'error' or 'jitter'"),
            ("null_draws", 1, "'auto', 'gaussian' or 'bootstrap'")):
        with pytest.raises(ValueError, match="^%s %r is not %s$" % (field, value, choices)):
            TestOptions(seed=1, **{field: value}).validate()
    X = exchangeable_normal(np.random.default_rng(86), 20, 4)
    with pytest.raises(ValueError, match="^ties 'drop' is not 'error' or 'jitter'$"):
        KendallSample(X, "drop")
    # a choice is refused before a replicate count below 100
    with pytest.raises(ValueError, match="^statistic 'sup' is not"):
        TestOptions(statistic="sup", replicates=10, seed=1).validate()


def test_run_test_refuses_a_design_over_other_pairs():
    X = exchangeable_normal(np.random.default_rng(87), 20, 4)
    design = vertex_incidence_design(5)
    with pytest.raises(ValueError, match="^design has 10 rows but the data has 6 pairs$"):
        run_test(X, design, TestOptions(estimator="jackknife", seed=1))


def test_a_scalar_weighting_must_be_positive():
    tau, theta = np.array([0.3, 0.1, 0.2]), np.zeros(3)
    for statistic in (statistic_euclidean, statistic_max):
        for a in (0.0, -0.5):
            with pytest.raises(ValueError, match="^scalar weighting must be positive$"):
                statistic(tau, theta, a)


def test_options_validate_stores_the_values_it_reads():
    # as ScenarioConfig.validate does: 200.0 is stored as 200
    opts = TestOptions(statistic="max", replicates=200.0, seed=np.int64(3), ties="jitter",
                       tie_seed=2.0, plus_one=np.True_)
    opts.validate()
    assert (opts.replicates, opts.seed, opts.tie_seed, opts.plus_one) == (200, 3, 2, True)
    assert [type(v) for v in (opts.replicates, opts.seed, opts.tie_seed, opts.plus_one)] == [
        int, int, int, bool]


def test_run_test_validation_errors():
    rng = np.random.default_rng(83)
    X = exchangeable_normal(rng, 20, 4)
    part = Partition.exchangeable(4)
    design = block_membership_matrix(part)
    # the jackknife tests a partition as its membership design
    jackknife = TestOptions(estimator="jackknife", seed=1)
    assert run_test(X, part, jackknife) == run_test(X, design, jackknife)
    with pytest.raises(ValueError, match="dense jackknife"):
        run_test(X, design, TestOptions(estimator="structured", seed=1))
    with pytest.raises(ValueError, match="seed"):
        run_test(X, part, TestOptions())
    with pytest.raises(ValueError, match="partition is over"):
        run_test(X, Partition.exchangeable(5), TestOptions(seed=1))
    with pytest.raises(TypeError):
        run_test(X, "exchangeable", TestOptions(seed=1))
    with pytest.raises(ValueError, match="statistic"):
        TestOptions(statistic="sup", seed=1).validate()
    with pytest.raises(ValueError, match="replicates"):
        TestOptions(replicates=10, seed=1).validate()
    with pytest.raises(ValueError, match="null_draws"):
        TestOptions(null_draws="mc", seed=1).validate()
    # single-law routes refuse a null_draws choice they would ignore
    for draws in ("gaussian", "bootstrap"):
        with pytest.raises(ValueError, match="always chi-square"):
            TestOptions(null_draws=draws, seed=1).validate()
    with pytest.raises(ValueError, match="always gaussian"):
        TestOptions(statistic="max", null_draws="bootstrap", seed=1).validate()
    TestOptions(statistic="max", null_draws="gaussian", seed=1).validate()
    for draws in ("gaussian", "bootstrap"):
        for statistic in ("euclidean", "max"):
            TestOptions(
                statistic=statistic, weighting="identity", null_draws=draws, seed=1
            ).validate()
    # validate() names the method from the options alone
    assert TestOptions(seed=1).validate() == "chi-square"
    for estimator, method in (("structured", "max-mc"), ("jackknife", "bootstrap-mc")):
        assert TestOptions(statistic="max", weighting="identity", estimator=estimator,
                           seed=1).validate() == method
    # plus_one is refused where the p-value is a chi-square tail ...
    with pytest.raises(ValueError, match="plus_one does not apply"):
        TestOptions(plus_one=True, seed=1).validate()
    with pytest.raises(ValueError, match="plus_one does not apply"):
        run_test(X, part, TestOptions(plus_one=True, seed=1))
    # ... and taken by every Monte Carlo route
    for stat, weight, draws in _accepted_options():
        if (stat, weight) != ("euclidean", "sigma"):
            TestOptions(statistic=stat, weighting=weight, null_draws=draws,
                        plus_one=True, seed=1).validate()


def test_integer_options_are_read_not_truncated():
    X = exchangeable_normal(np.random.default_rng(84), 20, 4)
    part = Partition.exchangeable(4)
    opts = dict(statistic="max", weighting="identity")
    for field, value in (("replicates", 200.7), ("seed", 7.9), ("tie_seed", 0.5),
                         ("replicates", True), ("seed", "7")):
        bad = TestOptions(**{**opts, "seed": 1, field: value})
        with pytest.raises(ValueError, match=r"^%s %r is not an integer$" % (field, value)):
            bad.validate()
        with pytest.raises(ValueError, match=field):
            run_test(X, part, bad)
    # a whole float is the integer it holds, as in a study config
    whole = run_test(X, part, TestOptions(replicates=200.0, seed=7.0, ties="jitter",
                                          tie_seed=3.0, **opts))
    want = run_test(X, part, TestOptions(replicates=200, seed=7, ties="jitter",
                                         tie_seed=3, **opts))
    assert whole.to_dict() == want.to_dict()
    assert (whole.N, whole.seed, whole.options["tie_seed"]) == (200, 7, 3)
    assert KendallSample(X, "jitter", 3.0).tie_seed == 3
    with pytest.raises(ValueError, match=r"^tie_seed 0.5 is not an integer$"):
        KendallSample(X, "error", 0.5)


def test_a_sample_refuses_a_negative_tie_seed_as_validate_does():
    # untied data kept -1; tied data raised NumPy's bare "expected
    # non-negative integer"
    X = exchangeable_normal(np.random.default_rng(241), 20, 4)
    tied = X.copy()
    tied[1, 2] = tied[0, 2]
    message = r"^tie_seed must be non-negative, got -1$"
    for data in (X, tied):
        with pytest.raises(ValueError, match=message):
            KendallSample(data, "jitter", -1)
    with pytest.raises(ValueError, match=message):
        TestOptions(ties="jitter", tie_seed=-1, seed=1).validate()


def _readme_routes():
    """The rows of the README's route table, as tuples of its cells."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    head = "| estimator | statistic | weighting | null_draws | method | sampler |"
    lines = text[text.index(head):].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip() for cell in line.strip("|").split("|")))
    return rows


def test_readme_route_table_matches_validate():
    # the README's table is the route table, row for row ...
    assert _readme_routes() == [key + route for key, route in kt._ROUTES.items()]
    assert len(kt._ROUTES) == 18
    # ... and validate() accepts exactly its keys, returning their methods
    for key in itertools.product(("structured", "jackknife"), ("euclidean", "max"),
                                 ("sigma", "identity"), ("auto", "gaussian", "bootstrap")):
        opts = TestOptions(estimator=key[0], statistic=key[1], weighting=key[2],
                           null_draws=key[3], seed=1)
        if key in kt._ROUTES:
            assert opts.validate() == kt._ROUTES[key][0], key
        else:
            with pytest.raises(ValueError, match="does not apply"):
                opts.validate()


def test_run_test_distortion_warning_routing():
    rng = np.random.default_rng(89)
    X = exchangeable_normal(rng, 30, 4)
    design = block_membership_matrix(Partition.exchangeable(4))
    rep = run_test(
        X,
        design,
        TestOptions(weighting="sigma", estimator="jackknife", seed=2, replicates=200),
    )
    assert any("distort" in w for w in rep.warnings)
    rep = run_test(
        X,
        Partition.exchangeable(4),
        TestOptions(weighting="sigma", estimator="structured", seed=2, replicates=200),
    )
    assert not any("distort" in w for w in rep.warnings)


def test_run_test_bootstrap_and_gaussian_agree():
    rng = np.random.default_rng(97)
    X = exchangeable_normal(rng, 45, 4)
    design = block_membership_matrix(Partition.exchangeable(4))
    base = dict(statistic="max", weighting="identity", estimator="jackknife")
    N = 4000
    p_boot = run_test(
        X, design, TestOptions(null_draws="bootstrap", replicates=N, seed=3, **base)
    ).p_value
    p_gauss = run_test(
        X, design, TestOptions(null_draws="gaussian", replicates=N, seed=4, **base)
    ).p_value
    pbar = (p_boot + p_gauss) / 2
    se = np.sqrt(max(pbar * (1 - pbar), 0.01) * 2.0 / N)
    assert abs(p_boot - p_gauss) <= 4 * se


def test_run_test_exchangeable_fast_spectrum_matches_dense():
    rng = np.random.default_rng(101)
    X = exchangeable_normal(rng, 50, 5)
    n, p = 50, 10
    opts = TestOptions(
        statistic="euclidean", weighting="identity", estimator="structured",
        replicates=300, seed=7,
    )
    rep = run_test(X, Partition.exchangeable(5), opts)
    # reconstruct the spectrum densely and compare as multisets
    est = kc.structured_jackknife_partition(X, Partition.exchangeable(5))
    P = np.eye(p) - np.full((p, p), 1.0 / p)
    dense = dense_spectrum(n * (P @ materialize(est.s, 5) @ P))
    got = sorted(rep.eigenvalues, reverse=True)
    want = sorted(dense, reverse=True)
    assert len(got) == len(want)
    for (lg, mg), (lw, mw) in zip(got, want):
        assert mg == mw
        assert lg == pytest.approx(lw, rel=1e-9)


def test_run_test_ties_jitter_notes():
    rng = np.random.default_rng(103)
    X = rng.standard_normal((25, 4))
    X[3, 0] = X[7, 0]  # force a tie
    part = Partition.exchangeable(4)
    from kstruct.kendall import TieError

    with pytest.raises(TieError):
        run_test(X, part, TestOptions(seed=1))
    rep = run_test(X, part, TestOptions(seed=1, ties="jitter"))
    assert any("jitter" in w for w in rep.warnings)


def test_report_json_round_trip(tmp_path):
    rng = np.random.default_rng(107)
    X = exchangeable_normal(rng, 40, 4)
    opts = TestOptions(statistic="euclidean", weighting="identity", seed=13, replicates=250)
    rep = run_test(X, Partition.exchangeable(4), opts)
    obj = json.loads(rep.to_json())
    for key in (
        "statistic",
        "weighting",
        "estimator",
        "value",
        "p_value",
        "method",
        "N",
        "seed",
        "warnings",
        "eigenvalues",
    ):
        assert key in obj
    assert obj["seed"] == 13
    assert obj["options"]["replicates"] == 250
    path = tmp_path / "report.json"
    rep.save(path)
    assert json.loads(path.read_text()) == obj


# ---------------------------------------------------------------------------
# what a sample holds


def test_no_reference_cycle_keeps_a_sample_alive():
    # the estimates a sample keeps hold its LeaveOneOut, never the sample,
    # so with the cyclic collector off the sample and its arrays go as soon
    # as the last name is dropped, whichever routes ran on it
    X = np.random.default_rng(151).standard_normal((30, 6))
    part = Partition(6, ((1, 2, 3), (4, 5, 6)))
    design = block_membership_matrix(part)
    samplers = set()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        sample = KendallSample(X)
        refs = [weakref.ref(sample), weakref.ref(sample.leave_one_out)]
        for (estimator, stat, weight, draws), (_, sampler) in kt._ROUTES.items():
            opts = TestOptions(statistic=stat, weighting=weight, estimator=estimator,
                               null_draws=draws, replicates=100, seed=1)
            for hypothesis in (part, design) if estimator == "jackknife" else (part,):
                run_test(sample, hypothesis, opts)
            samplers.add(sampler)
        rows = weakref.ref(sample.rows)  # formed by the dense routes
        del sample
        assert [ref() for ref in refs] == [None, None]
        assert rows() is None
        # a GLS weight of zero rank, excused by an exact fit
        z = np.linspace(0.0, 1.0, 20)
        sample = KendallSample(np.column_stack([z, z**3, np.exp(z), 2 * z, z + 1, z**5]))
        ref = weakref.ref(sample)
        for stat in ("euclidean", "max"):
            opts = TestOptions(statistic=stat, weighting="sigma", estimator="jackknife",
                               replicates=100, seed=1)
            assert run_test(sample, design, opts).value == 0.0
        del sample
        assert ref() is None
    finally:
        if gc_was_enabled:
            gc.enable()
    assert samplers == {"chi-square tail", "chi-square mixture", "multiplier bootstrap",
                        "whitened-residual gaussian", "coloured gaussian"}


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_of_a_test_at_200_by_300():
    # D, the n x p float64 leave-one-out matrix, is 68.4 MiB here
    n, d = 200, 300
    rng = np.random.default_rng(2020)
    X = rng.standard_normal((n, d)) + rng.standard_normal((n, 1))
    D_bytes = 8 * n * pair_count(d)
    # the structured estimate reads D a chunk at a time from the int16 row
    # sums (a quarter of D), so a test holds no n x p float array; a
    # partition's layout may be built within the test or already cached
    opts = TestOptions(statistic="euclidean", weighting="sigma", replicates=200, seed=3)
    peak = _traced_peak(lambda: run_test(X, Partition.exchangeable(d), opts))
    assert peak <= 0.4 * D_bytes, peak / D_bytes
    # a dense route forms D once and releases the sums, so it peaks where
    # it did when the kernel pass wrote D itself: 216,332,424 bytes (3.015 D)
    # for this very call at commit 66c3013, measured with NumPy 2.4.6 on
    # Python 3.11.  Keeping the sums beside D would add 17.1 MiB; 4 KiB is
    # left for the Python objects that now hold the sums in D's place
    groups = (tuple(range(1, 151)), tuple(range(151, 301)))
    design = block_membership_matrix(Partition(d, groups))
    opts = TestOptions(statistic="euclidean", weighting="identity", estimator="jackknife",
                       replicates=200, seed=3)
    peak = _traced_peak(lambda: run_test(X, design, opts))
    assert peak <= 216_332_424 + 4096, peak
