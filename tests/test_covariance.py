import tracemalloc

import numpy as np
import pytest

from dense_oracle import (
    all_pairs,
    factor_of_matrix,
    index_of_pair,
    kendall_kernel,
    materialize,
)
from kstruct.covariance import (
    jackknife_cov,
    population_sigma_mc,
    structured_jackknife_partition,
)
from kstruct.indexing import Partition, block_membership_matrix, overlap_count, pair_count
import kstruct.sblock as ks
from kstruct.kendall import KendallSample
from kstruct.projection import check_design_conditions
from kstruct.testing import TestOptions, run_test


def brute_jackknife(X):
    """Triple-checked reference: explicit kernel sums, no shared code path."""
    n, d = X.shape
    p = pair_count(d)
    tau = KendallSample(X).tau
    loo = np.zeros((n, p))
    for i in range(n):
        for s in range(n):
            if s == i:
                continue
            loo[i] += kendall_kernel(X[i], X[s])
        loo[i] /= n - 1
    D = loo - tau
    out = np.zeros((p, p))
    for i in range(n):
        out += np.outer(D[i], D[i])
    return 4.0 / n**2 * out


def class_average(cov, d):
    """Average a dense pair-space matrix over the three overlap classes."""
    p = cov.shape[0]
    sums = np.zeros(3)
    counts = np.zeros(3)
    for k in range(1, p + 1):
        for l in range(1, p + 1):
            c = overlap_count(k, l)
            sums[c] += cov[k - 1, l - 1]
            counts[c] += 1
    return sums / counts


def test_jackknife_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(5, 15))
        d = int(rng.integers(3, 6))
        X = rng.standard_normal((n, d))
        est = jackknife_cov(X)
        assert est.kind == "dense"
        assert est.n == n and est.rows.shape == (n, pair_count(d))
        np.testing.assert_allclose(est.matrix, brute_jackknife(X), atol=1e-13)


def test_jackknife_is_psd_and_symmetric():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((20, 5))
    cov = jackknife_cov(X).matrix
    np.testing.assert_allclose(cov, cov.T, atol=0)
    w = np.linalg.eigvalsh(cov)
    assert w.min() >= -1e-14


def test_jackknife_accepts_sample():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 4))
    a = jackknife_cov(X).matrix
    sample = KendallSample(X)
    b = jackknife_cov(sample).matrix
    np.testing.assert_array_equal(a, b)
    # the estimate holds the sample's rows, not a copy
    assert jackknife_cov(sample).rows is sample.rows


@pytest.mark.parametrize("groups", [1, 3])
def test_partition_estimate_adds_a_chunk_of_work_beyond_the_rows(groups):
    # the quotients make D a chunk of rows at a time from the sample's
    # int16 row sums: beyond them an estimate needs the chunk's work array
    # (the rows, their pair-major copy and the coordinates), the
    # coordinates of all rows and the energy of each pair, not D (here
    # 18 MB), which it never forms
    n, d = 200, 150
    sample = KendallSample(np.random.default_rng(groups).standard_normal((n, d)))
    part = Partition(d, [range(g * d // groups + 1, (g + 1) * d // groups + 1)
                         for g in range(groups)])
    J, p = ks._partition_layout(part).agg_t.shape
    work_bytes = 8 * (2 * p + J) * min(n, ks._row_chunk(2 * p + J))
    tracemalloc.start()
    try:
        est = structured_jackknife_partition(sample, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.leave_one_out is sample.leave_one_out
    assert sample.leave_one_out._rows is None
    assert peak <= work_bytes + 8 * J * n + 8 * p + 2**16
    assert work_bytes + 8 * J * n + 8 * p + 2**16 < sample.rows.nbytes / 3
    assert est.rows is sample.rows


def test_exchangeable_equals_class_averaged_dense():
    rng = np.random.default_rng(19)
    for d in (4, 5, 6):
        for _ in range(4):
            n = int(rng.integers(6, 25))
            X = rng.standard_normal((n, d))
            dense = jackknife_cov(X).matrix
            want = class_average(dense, d)
            got = structured_jackknife_partition(X, Partition.exchangeable(d))
            assert got.kind == "partition"
            np.testing.assert_allclose(got.s, want, rtol=1e-12, atol=1e-15)


def test_exchangeable_rejects_small_d():
    # below d = 4 some overlap class is empty, so a one-group estimate
    # has no (s0, s1, s2), and the diagnostics that read them say so
    X = np.random.default_rng(0).standard_normal((10, 3))
    part = Partition.exchangeable(3)
    est = structured_jackknife_partition(X, part)
    with pytest.raises(ValueError, match=r"d=3 variables; its \(s0, s1, s2\) need d >= 4"):
        check_design_conditions(block_membership_matrix(part), sigma=est)


def test_exchangeable_dense_materialization():
    rng = np.random.default_rng(23)
    X = rng.standard_normal((15, 4))
    est = structured_jackknife_partition(X, Partition.exchangeable(4))
    dense = est.dense()
    pairs = all_pairs(4)
    for k in range(6):
        for l in range(6):
            c = len(set(pairs[k]) & set(pairs[l]))
            assert dense[k, l] == pytest.approx(est.s[c], rel=1e-13)


def test_partition_single_group_matches_exchangeable():
    rng = np.random.default_rng(29)
    X = rng.standard_normal((14, 5))
    part = Partition.exchangeable(5)
    est = structured_jackknife_partition(X, part)
    np.testing.assert_allclose(est.matrix, materialize(est.s, 5), rtol=1e-12, atol=1e-15)


def test_partition_all_singletons_is_identity_map():
    rng = np.random.default_rng(31)
    X = rng.standard_normal((10, 4))
    part = Partition(4, ((1,), (2,), (3,), (4,)))
    got = structured_jackknife_partition(X, part).matrix
    np.testing.assert_allclose(got, jackknife_cov(X).matrix, atol=1e-15)


def test_partition_orbit_invariance_under_group_permutations():
    # permuting variables within groups must permute the estimate covariantly
    rng = np.random.default_rng(37)
    X = rng.standard_normal((16, 5))
    part = Partition(5, ((1, 2), (3, 4, 5)))
    est = structured_jackknife_partition(X, part).matrix

    perm = np.array([1, 0, 3, 4, 2])  # swap 1,2; rotate 3,4,5 (0-based)
    est_p = structured_jackknife_partition(X[:, perm], part).matrix

    pairs = all_pairs(5)
    pmap = np.array(
        [
            index_of_pair(
                min(perm[i - 1] + 1, perm[j - 1] + 1),
                max(perm[i - 1] + 1, perm[j - 1] + 1),
            )
            - 1
            for i, j in pairs
        ]
    )
    np.testing.assert_allclose(est_p, est[np.ix_(pmap, pmap)], atol=1e-14)


def test_partition_rejects_small_n_and_mismatched_d():
    X = np.random.default_rng(0).standard_normal((2, 4))
    with pytest.raises(ValueError, match="n >= 3"):
        structured_jackknife_partition(X, Partition.exchangeable(4))
    for stat in ("euclidean", "max"):
        opts = TestOptions(statistic=stat, weighting="identity", null_draws="bootstrap", seed=0)
        with pytest.raises(ValueError, match="partition-structured jackknife needs n >= 3"):
            run_test(X, Partition.exchangeable(4), opts)
    X = np.random.default_rng(0).standard_normal((10, 4))
    with pytest.raises(ValueError, match="partition"):
        structured_jackknife_partition(X, Partition.exchangeable(5))


def test_dense_jackknife_rejects_small_n():
    # as the partition route does; the design routes of run_test refuse it too
    X = np.random.default_rng(0).standard_normal((2, 5))
    for data in (X, KendallSample(X)):
        with pytest.raises(ValueError, match="dense jackknife needs n >= 3"):
            jackknife_cov(data)
    design = block_membership_matrix(Partition.exchangeable(5))
    # every design route, the bootstrap ones too: the estimate refuses
    # n = 2 before a null law is set up
    for stat, weight, draws in (("euclidean", "identity", "auto"), ("euclidean", "sigma", "auto"),
                                ("max", "sigma", "auto"), ("max", "identity", "auto"),
                                ("euclidean", "identity", "bootstrap")):
        opts = TestOptions(statistic=stat, weighting=weight, estimator="jackknife",
                           null_draws=draws, seed=0)
        with pytest.raises(ValueError, match="dense jackknife needs n >= 3"):
            run_test(X, design, opts)
    assert jackknife_cov(np.random.default_rng(1).standard_normal((3, 5))).rows.shape == (3, 10)


def test_psd_pinv_matches_numpy():
    rng = np.random.default_rng(53)
    A = rng.standard_normal((6, 3))
    M = A @ A.T  # rank 3
    pinv = factor_of_matrix(M).apply(np.eye(6), -1.0)
    np.testing.assert_allclose(pinv, np.linalg.pinv(M), atol=1e-10)
    zero = factor_of_matrix(np.zeros((4, 4))).apply(np.eye(4), -1.0)
    assert np.array_equal(zero, np.zeros((4, 4)))


def test_psd_power_roots():
    rng = np.random.default_rng(59)
    A = rng.standard_normal((5, 2))
    M = A @ A.T  # rank 2, PSD
    R = factor_of_matrix(M).apply(np.eye(5), 0.5)
    np.testing.assert_allclose(R, R.T, atol=1e-12)
    np.testing.assert_allclose(R @ R, M, atol=1e-10)
    W = factor_of_matrix(M).apply(np.eye(5), -0.5)
    P = W @ M @ W  # projector onto the range
    np.testing.assert_allclose(P @ P, P, atol=1e-10)
    np.testing.assert_allclose(np.trace(P), 2.0, atol=1e-10)


def independence_sampler(rng, size):
    return rng.random((size, 4))


def comonotone_sampler(rng, size):
    u = rng.random((size, 1))
    return np.repeat(u, 4, axis=1)


def test_population_sigma_independence():
    # under independence: sigma = (0, 0, 4/9) and the finite-n variance is
    # the classical 2(2n+5)/(9 n(n-1)); off-diagonal finite-n terms vanish
    rng = np.random.default_rng(61)
    n = 10
    out = population_sigma_mc(independence_sampler, 200_000, rng, n=n)
    truth = np.array([0.0, 0.0, 4.0 / 9.0])
    for c in range(3):
        tol = max(6.0 * out.sigma_se[c], 1e-3)
        assert abs(out.sigma[c] - truth[c]) < tol
    truth_n = np.array([0.0, 0.0, 2.0 * (2 * n + 5) / (9.0 * n * (n - 1))])
    for c in range(3):
        tol = max(6.0 * out.sigma_n_se[c], 1e-4)
        assert abs(out.sigma_n[c] - truth_n[c]) < tol
    assert abs(out.beta) < 0.02
    assert out.reps == 200_000


def test_population_sigma_comonotone_degenerates():
    # beta = 1 and sigma = 0 for the comonotone copula; the estimate is
    # still Monte Carlo (the orthant indicators compare independent
    # copies), so the check is within simulation error, not exact
    rng = np.random.default_rng(67)
    out = population_sigma_mc(comonotone_sampler, 50_000, rng)
    assert abs(out.beta - 1.0) < 0.02
    for c in range(3):
        assert abs(out.sigma[c]) < max(6.0 * out.sigma_se[c], 1e-2)


def test_population_sigma_values_are_pinned():
    # every field is pinned bit for bit: a rework of the estimator must
    # draw U, V and W and sum its moments in the same order
    out = population_sigma_mc(independence_sampler, 4000, np.random.default_rng(83), n=10)
    want = {
        "sigma": [0.036799999999999986, -0.08320000000000005, 0.2888000000000001],
        "sigma_se": [0.15724551102286546, 0.17527098778147723, 0.2085218231668861],
        "sigma_n": [0.0032088888888889165, -0.008168888888888861, 0.047653333333333374],
        "sigma_n_se": [0.014272298769880704, 0.01618504773352406, 0.018577153978166977],
    }
    for field, values in want.items():
        assert getattr(out, field).tolist() == values, field
    assert (out.beta, out.n, out.reps) == (0.004000000000000009, 10, 4000)


def test_population_sigma_validation():
    rng = np.random.default_rng(71)
    with pytest.raises(ValueError, match="at least 1000"):
        population_sigma_mc(independence_sampler, 500, rng)
    with pytest.raises(ValueError, match=r"\(size, 4\)"):
        population_sigma_mc(lambda r, m: r.random((m, 3)), 2000, rng)


def test_a_sample_keeps_its_estimates_and_they_stay_immutable():
    rng = np.random.default_rng(71)
    X = rng.standard_normal((30, 5)) + rng.standard_normal((30, 1))
    sample = KendallSample(X)
    part = Partition.exchangeable(5)
    shared = structured_jackknife_partition(sample, part)
    # keyed by the partition's value; raw arrays share nothing
    assert structured_jackknife_partition(sample, Partition(5, ((5, 4, 3, 2, 1),))) is shared
    assert jackknife_cov(sample) is jackknife_cov(sample)
    assert structured_jackknife_partition(X, part) is not structured_jackknife_partition(X, part)
    # the one-group estimate's .s is derived once, read-only, and only
    # for d >= 4
    assert shared.s is shared.s
    assert structured_jackknife_partition(X[:, :3], Partition.exchangeable(3)).s is None
    assert structured_jackknife_partition(sample, Partition(5, ((1, 2), (3, 4, 5)))).s is None
    assert jackknife_cov(sample).s is None
    # every array the sample's tests share is read-only
    q = shared.quotients
    dense = jackknife_cov(sample)
    assert dense.rows is shared.rows
    for arr in (q.trivial, *q.standard, q.remainder, shared.rows, shared.matrix,
                shared.s, dense.matrix):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    want = structured_jackknife_partition(X, part).quotients
    assert np.array_equal(q.trivial, want.trivial)
    assert np.array_equal(q.remainder, want.remainder)
