import json
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dense_oracle import dense_spectrum, materialize, one_group

import kstruct.testing as kt
from kstruct.covariance import jackknife_cov
from kstruct.indexing import (
    DesignMatrix,
    Partition,
    block_membership_matrix,
    pair_count,
    vertex_incidence_design,
)
from kstruct.kendall import TieError, tau_and_leave_one_out
from kstruct.projection import RankDeficient, gamma_projection
from kstruct.sblock import (
    PartitionQuotients,
    SingularError,
    eigenvalues,
    gamma_star_apply,
    rank_mask,
)
from kstruct.testing import (
    TestOptions,
    multiplier_bootstrap_replicates,
    pvalue_chisq,
    pvalue_mixture_mc,
    run_test,
    sample_null_gaussian,
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
    assert statistic_euclidean(tau, theta, A) == pytest.approx(want, rel=1e-10)


def test_euclidean_structured_matches_dense_and_decomposition():
    rng = np.random.default_rng(5)
    d = 5
    p = pair_count(d)
    s = pd_triple(rng)
    tau = rng.standard_normal(p)
    theta = np.full(p, tau.mean())
    got = statistic_euclidean(tau, theta, ("partition", one_group(s, d)))
    want = statistic_euclidean(tau, theta, materialize(s, d))
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
    got = statistic_max(tau, theta, A)
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
    got = statistic_max(tau, theta, ("partition", one_group(s, d)))
    want = statistic_max(tau, theta, materialize(s, d))
    assert got == pytest.approx(want, rel=1e-10)


def test_statistics_zero_rank_weighting():
    tau = np.ones(6)
    with pytest.raises(SingularError):
        statistic_euclidean(tau, np.zeros(6), np.zeros((6, 6)))
    with pytest.raises(SingularError):
        statistic_max(tau, np.zeros(6), ("partition", one_group(np.zeros(3), 4)))


def test_euclidean_scale_consistency():
    rng = np.random.default_rng(11)
    p = 6
    B = DesignMatrix(rng.standard_normal((p, 2)), kind="general")
    A = rng.standard_normal((p, p))
    A = A @ A.T + np.eye(p)
    tau = rng.standard_normal(p)
    c = 3.7
    th1 = gamma_projection(B, A).apply(tau)
    th2 = gamma_projection(B, c * A).apply(tau)
    np.testing.assert_allclose(th1, th2, atol=1e-12)
    e1 = statistic_euclidean(tau, th1, A)
    e2 = statistic_euclidean(tau, th2, c * A)
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
    Z = sample_null_gaussian(("identity", 3), 20000, rng)
    np.testing.assert_allclose(empirical_cov(Z), np.eye(3), atol=0.06)


def test_sample_fallback_when_ineligible():
    # s1 < s0: no sum of global, per-variable and per-pair normals has this
    # covariance; the quotients' square root colors it
    rng = np.random.default_rng(43)
    d = 4
    s = np.array([0.4, 0.2, 1.0])
    Z = sample_null_gaussian(("partition", one_group(s, d)), 30000, rng)
    np.testing.assert_allclose(empirical_cov(Z), materialize(s, d), atol=0.06)


def test_sample_projection_path_kills_grand_mean():
    rng = np.random.default_rng(47)
    d = 5
    s = pd_triple(rng)
    t = s - eigenvalues(s, d).values[0] / pair_count(d)
    Z = sample_null_gaussian(("partition", one_group(t, d)), 500, rng)
    assert np.abs(Z.mean(axis=1)).max() < 1e-12
    J = np.full((pair_count(d), pair_count(d)), 1.0 / pair_count(d))
    target = (np.eye(pair_count(d)) - J) @ materialize(s, d)
    Z = sample_null_gaussian(("partition", one_group(t, d)), 30000, rng)
    np.testing.assert_allclose(empirical_cov(Z), target, atol=0.06)


def test_sample_dense_and_projector_paths():
    rng = np.random.default_rng(53)
    A = rng.standard_normal((4, 4))
    A = A @ A.T
    Z = sample_null_gaussian(("dense", A), 30000, rng)
    np.testing.assert_allclose(empirical_cov(Z), A, atol=0.08 * A.max())
    # the projector I - J/p is the one-group matrix with eigenvalues (0, 1, 1)
    P = np.eye(6) - np.full((6, 6), 1.0 / 6.0)
    Z = sample_null_gaussian(("partition", one_group((-1 / 6, -1 / 6, 5 / 6), 4)), 30000, rng)
    np.testing.assert_allclose(empirical_cov(Z), P, atol=0.06)
    with pytest.raises(ValueError, match="spec"):
        sample_null_gaussian(("what", 3), 100, rng)


def test_sample_zero_draws_has_p_columns():
    A = np.eye(3) + 0.5
    specs = (
        ("identity", 5),
        ("dense", A),
        ("partition", one_group(np.array([0.1, 0.3, 0.9]), 5)),
    )
    for spec, p in zip(specs, (5, 3, 10)):
        Z = sample_null_gaussian(spec, 0, np.random.default_rng(0))
        assert Z.shape == (0, p), spec[0]


def test_row_blocked_draws_follow_one_random_stream(monkeypatch):
    # 3-row blocks, N not a multiple of 3: identity draws are the rows of
    # one (N, p) draw, and coloured S-block draws match one block up to
    # the rounding of the per-block matrix product
    d, N = 5, 301
    p = pair_count(d)
    spec = ("partition", one_group(np.array([0.4, 0.2, 1.0]), d))
    one = sample_null_gaussian(spec, N, np.random.default_rng(59))
    monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", 3 * p)
    Z = sample_null_gaussian(("identity", p), N, np.random.default_rng(59))
    assert np.array_equal(Z, np.random.default_rng(59).standard_normal((N, p)))
    blocked = sample_null_gaussian(spec, N, np.random.default_rng(59))
    np.testing.assert_allclose(blocked, one, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# multiplier bootstrap


def test_bootstrap_comonotone_draws_vanish():
    x = np.linspace(0.0, 1.0, 12)
    X = np.column_stack([x, np.exp(x), x**3])
    design = block_membership_matrix(Partition.exchangeable(3))
    Z = multiplier_bootstrap_replicates(X, design, 50, np.random.default_rng(59))
    assert np.abs(Z).max() < 1e-12


def test_bootstrap_orthogonal_to_design():
    rng = np.random.default_rng(61)
    X = rng.standard_normal((25, 4))
    design = block_membership_matrix(Partition(4, ((1, 2), (3, 4))))
    Z = multiplier_bootstrap_replicates(X, design, 200, rng)
    resid = Z @ design.matrix
    assert np.abs(resid).max() < 1e-10


def test_bootstrap_conditional_covariance():
    rng = np.random.default_rng(67)
    n, d = 30, 4
    X = rng.standard_normal((n, d))
    design = block_membership_matrix(Partition.exchangeable(d))
    Z = multiplier_bootstrap_replicates(X, design, 40000, rng)
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
        Z = multiplier_bootstrap_replicates(X, None, N, np.random.default_rng(73))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak
    # the multipliers are still the rows of one (N, n) draw
    tau, loo = tau_and_leave_one_out(X)
    W = np.random.default_rng(73).standard_normal((N, n))
    np.testing.assert_allclose(Z, (2.0 / np.sqrt(n)) * (W @ (loo - tau)), rtol=0, atol=1e-12)


def test_bootstrap_needs_three_observations():
    with pytest.raises(ValueError, match="n >= 3"):
        multiplier_bootstrap_replicates(
            np.array([[1.0, 2.0], [2.0, 1.0]]), None, 10, np.random.default_rng(0)
        )


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


def test_run_test_comonotone_gives_p_one():
    x = np.linspace(0.0, 1.0, 20)
    X = np.column_stack([x, x**3, np.exp(x), 2 * x - 1])
    for hyp, est in (
        (Partition.exchangeable(4), "structured"),
        (block_membership_matrix(Partition.exchangeable(4)), "jackknife"),
    ):
        for stat in ("euclidean", "max"):
            for weight in ("sigma", "identity"):
                opts = TestOptions(
                    statistic=stat,
                    weighting=weight,
                    estimator=est,
                    replicates=200,
                    seed=1,
                )
                rep = run_test(X, hyp, opts)
                assert rep.value == 0.0, (stat, weight, est)
                assert rep.p_value == 1.0, (stat, weight, est)


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
        boots.append(
            multiplier_bootstrap_replicates(X, design, 301, np.random.default_rng(5))
        )
    assert reports[: len(routes)] == reports[len(routes):]
    # one random stream; a blocked product may round differently
    np.testing.assert_allclose(boots[1], boots[0], rtol=0, atol=1e-12)


def test_run_test_max_null_memory_is_bounded():
    # the exchangeable max routes never form the (N, p) draws (70 MB here):
    # the traced peak stays within a dozen 2 MB row blocks
    d, N = 30, 20000
    X = exchangeable_normal(np.random.default_rng(89), 50, d)
    block_bytes = 8 * kt._DRAW_BLOCK_ENTRIES
    for weight in ("sigma", "identity"):
        opts = TestOptions(statistic="max", weighting=weight, replicates=N, seed=7)
        tracemalloc.start()
        try:
            run_test(X, Partition.exchangeable(d), opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * block_bytes < 8 * N * pair_count(d) / 2, weight


# ---------------------------------------------------------------------------
# draws one block ahead on a helper thread


class _RecordingRng:
    """A generator's standard_normal that records the thread drawing it,
    and raises on the draw numbered ``fail_at`` (from 0), if given."""

    def __init__(self, seed, fail_at=None):
        self.rng = np.random.default_rng(seed)
        self.fail_at = fail_at
        self.threads = []

    def standard_normal(self, *args, **kwargs):
        if len(self.threads) == self.fail_at:
            raise FloatingPointError("draw %d failed" % self.fail_at)
        self.threads.append(threading.current_thread())
        return self.rng.standard_normal(*args, **kwargs)


def _draw_ahead(monkeypatch, on):
    # 3-row blocks at p = 15, so N = 301 draws span 101 of them
    monkeypatch.setattr(kt, "_draw_ahead", lambda: on)
    monkeypatch.setattr(kt, "_DRAW_BLOCK_ENTRIES", 3 * pair_count(6))


def test_threaded_draws_equal_inline_draws(monkeypatch):
    p, N = pair_count(6), 301
    A = np.random.default_rng(97).standard_normal((p, p))
    specs = (
        ("identity", p),
        ("dense", A @ A.T),
        ("partition", one_group(np.array([0.4, 0.2, 1.0]), 6)),
    )
    X = exchangeable_normal(np.random.default_rng(101), 30, 6)
    design = block_membership_matrix(Partition(6, ((1, 2, 3), (4, 5, 6))))
    draws = {}
    for on in (False, True):
        _draw_ahead(monkeypatch, on)
        for spec in specs:
            rng = _RecordingRng(7)
            draws[on, spec[0]] = sample_null_gaussian(spec, N, rng), rng
        rng = _RecordingRng(7)
        draws[on, "bootstrap"] = multiplier_bootstrap_replicates(X, design, N, rng), rng
    for kind in ("identity", "dense", "partition", "bootstrap"):
        (inline, r0), (ahead, r1) = draws[False, kind], draws[True, kind]
        assert np.array_equal(inline, ahead), kind
        assert r0.rng.bit_generator.state == r1.rng.bit_generator.state, kind
        assert len(r0.threads) == len(r1.threads) > 1, kind
        assert all(t is threading.main_thread() for t in r0.threads), kind
        assert not any(t is threading.main_thread() for t in r1.threads), kind
    # the identity draws are one (N, p) draw, however blocked
    want = np.random.default_rng(7).standard_normal((N, p))
    assert np.array_equal(draws[True, "identity"][0], want)


@pytest.mark.parametrize("hypothesis", [
    Partition.exchangeable(6),
    Partition(6, ((1, 2), (3, 4), (5, 6))),
    block_membership_matrix(Partition(6, ((1, 2, 3), (4, 5, 6)))),
], ids=["one-group", "three-group", "membership"])
def test_run_test_reports_equal_with_threaded_draws(monkeypatch, hypothesis):
    X = exchangeable_normal(np.random.default_rng(103), 40, 6)
    estimator = "jackknife" if isinstance(hypothesis, DesignMatrix) else "structured"
    reports = {}
    for on in (False, True):
        _draw_ahead(monkeypatch, on)
        for stat in ("euclidean", "max"):
            for weight in ("sigma", "identity"):
                opts = TestOptions(statistic=stat, weighting=weight, estimator=estimator,
                                   replicates=301, seed=13)
                reports[on, stat, weight] = run_test(X, hypothesis, opts).to_dict()
    for stat in ("euclidean", "max"):
        for weight in ("sigma", "identity"):
            assert reports[False, stat, weight] == reports[True, stat, weight], (stat, weight)


def test_draw_thread_stops_when_the_consumer_raises(monkeypatch):
    _draw_ahead(monkeypatch, True)
    before = threading.active_count()
    seen = []
    colour = PartitionQuotients.apply

    def failing_colour(q, G, exponent):
        seen.append(threading.active_count())
        if len(seen) == 3:
            raise FloatingPointError("colouring failed")
        return colour(q, G, exponent)

    monkeypatch.setattr(PartitionQuotients, "apply", failing_colour)
    X = exchangeable_normal(np.random.default_rng(107), 40, 6)
    opts = TestOptions(statistic="max", weighting="identity", replicates=301, seed=5)
    with pytest.raises(FloatingPointError, match="colouring"):
        run_test(X, Partition.exchangeable(6), opts)
    assert max(seen) == before + 1  # the helper was drawing ahead
    assert threading.active_count() == before
    # a caller that stops reading early also stops the helper
    blocks = kt._normal_blocks(301, 15, np.random.default_rng(1))
    next(blocks)
    assert threading.active_count() == before + 1
    blocks.close()
    assert threading.active_count() == before


def test_draw_thread_error_reaches_the_caller(monkeypatch):
    _draw_ahead(monkeypatch, True)
    before = threading.active_count()
    rng = _RecordingRng(9, fail_at=4)
    with pytest.raises(FloatingPointError, match="draw 4 failed"):
        sample_null_gaussian(("identity", pair_count(6)), 301, rng)
    assert len(rng.threads) == 4
    assert not any(t is threading.main_thread() for t in rng.threads)
    assert threading.active_count() == before


def test_draw_ahead_needs_two_cpus_and_a_thread_cap_above_one(monkeypatch):
    import kstruct.simulation as ks

    monkeypatch.delenv("KSTRUCT_THREADS", raising=False)
    monkeypatch.setattr(kt.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert kt._draw_ahead()
    monkeypatch.setenv("KSTRUCT_THREADS", "2")
    assert kt._draw_ahead()
    monkeypatch.setenv("KSTRUCT_THREADS", "1")
    assert not kt._draw_ahead()
    monkeypatch.delenv("KSTRUCT_THREADS")
    monkeypatch.setattr(kt.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not kt._draw_ahead()
    # run_study's pool workers draw inline however many CPUs they see
    monkeypatch.setattr(kt.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("KSTRUCT_THREADS", "8")
    ks._one_thread_per_worker()
    assert not kt._draw_ahead()


def test_run_test_validation_errors():
    rng = np.random.default_rng(83)
    X = exchangeable_normal(rng, 20, 4)
    part = Partition.exchangeable(4)
    design = block_membership_matrix(part)
    with pytest.raises(ValueError, match="structured estimator"):
        run_test(X, part, TestOptions(estimator="jackknife", seed=1))
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
    from kstruct.covariance import structured_jackknife_exchangeable

    est = structured_jackknife_exchangeable(X)
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
