"""The partition-structured algebra against brute-force dense oracles.

The oracle is the dense route: the full jackknife averaged entry by
entry over the orbits of group-respecting permutations (orbit keys plus
a bincount), then eigendecomposed.  The fast route never forms a p x p
matrix; both must agree on the estimate, its pseudo-powers, the null
spectrum and every partition route of ``run_test``.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import dense_power, dense_spectrum, dense_whiten

import kstruct.testing as kt
from kstruct.covariance import (
    CovarianceEstimate,
    jackknife_cov,
    structured_jackknife_partition,
)
from kstruct.indexing import Partition, _pairs0, pair_count
from kstruct.sblock import (
    partition_materialize,
    partition_pseudo_power,
    rank_mask,
)
from kstruct.testing import TestOptions, run_test

ROUTES = (
    ("euclidean", "sigma"),
    ("euclidean", "identity"),
    ("max", "sigma"),
    ("max", "identity"),
)


def orbit_keys(partition):
    """Canonical orbit key of every entry (k, l) of pair-space matrices.

    Two entries get the same key exactly when some variable permutation
    preserving the partition groups maps one pair-of-pairs onto the
    other.  The key combines the group multisets of both pairs (order-
    canonicalized) with the group multiset of their shared variables.
    """
    d = partition.d
    g = partition.group_of
    K = partition.n_groups
    ii0, jj0 = _pairs0(d)
    ga, gb = g[ii0], g[jj0]
    q = np.minimum(ga, gb) * K + np.maximum(ga, gb)

    a_col, b_col = ii0[:, None], jj0[:, None]
    sh_a = (a_col == a_col.T) | (a_col == b_col.T)
    sh_b = (b_col == a_col.T) | (b_col == b_col.T)
    e = np.where(sh_a, 1 + ga[:, None], 0)
    f = np.where(sh_b, 1 + gb[:, None], 0)
    s_lo = np.minimum(e, f)
    s_hi = np.maximum(e, f)

    q1, q2 = q[:, None], q[None, :]
    q_lo = np.minimum(q1, q2)
    q_hi = np.maximum(q1, q2)
    base = K * K
    return ((q_lo * base + q_hi) * (K + 1) + s_lo) * (K + 1) + s_hi


def orbit_average(matrix, partition):
    """Average a dense pair-space matrix over the partition's orbit classes."""
    key = orbit_keys(partition)
    _, inv = np.unique(key.ravel(), return_inverse=True)
    sums = np.bincount(inv, weights=np.asarray(matrix).ravel())
    return (sums / np.bincount(inv))[inv].reshape(key.shape)


def class_indicators(partition):
    """p x L 0/1 matrix of the classes: pairs joining the same two groups."""
    g = partition.group_of
    ii0, jj0 = _pairs0(partition.d)
    lo, hi = np.minimum(g[ii0], g[jj0]), np.maximum(g[ii0], g[jj0])
    _, cls = np.unique(lo * partition.n_groups + hi, return_inverse=True)
    return np.eye(cls.max() + 1)[cls]


def dense_partition_estimate(data, partition, precomputed=None, **_):
    """The dense route's estimate: the orbit-averaged jackknife, given as
    rows R with (4/n^2) R'R equal to it."""
    est = jackknife_cov(data, precomputed=precomputed)
    w, V = np.linalg.eigh(orbit_average(est.matrix, partition))
    rows = (est.n / 2.0) * (V * np.sqrt(np.maximum(w, 0.0))).T
    return CovarianceEstimate(kind="dense", d=est.d, n=est.n, rows=rows)


def test_orbit_key_counts_at_extremes():
    ex = orbit_keys(Partition.exchangeable(5))
    assert len(np.unique(ex)) == 3
    singles = orbit_keys(Partition(4, ((1,), (2,), (3,), (4,))))
    p = pair_count(4)
    assert len(np.unique(singles)) == p * (p + 1) // 2


@st.composite
def partitions(draw):
    """Partitions of up to 12 variables into groups of 1 to 5, with the
    variables assigned to groups in random order; one draw in four is a
    single group of 4 to 12 (full exchangeability)."""
    if draw(st.integers(0, 3)) == 0:
        return Partition.exchangeable(draw(st.integers(4, 12)))
    sizes = draw(
        st.lists(st.integers(1, 5), min_size=1, max_size=6).filter(
            lambda s: 2 <= sum(s) <= 12
        )
    )
    d = sum(sizes)
    order = draw(st.permutations(range(1, d + 1)))
    cuts = np.cumsum([0] + sizes)
    return Partition(d, tuple(tuple(order[a:b]) for a, b in zip(cuts[:-1], cuts[1:])))


def _close(got, want, rtol):
    scale = float(np.abs(want).max(initial=0.0))
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * scale)


@settings(max_examples=40, deadline=None)
@given(partitions(), st.integers(12, 40), st.integers(0, 2**32 - 1))
@example(Partition(6, ((1,), (2, 3), (4, 5, 6))), 25, 1)
@example(Partition(3, ((1, 2, 3),)), 20, 2)
@example(Partition(12, ((1, 2, 3, 4, 5), (6,), (7, 8), (9, 10, 11, 12))), 30, 3)
@example(Partition(5, tuple((v,) for v in range(1, 6))), 15, 4)
@example(Partition.exchangeable(4), 12, 5)
@example(Partition.exchangeable(9), 20, 6)
@example(Partition(11, ((1,), (2, 3, 4, 8, 10), (7,), (5,), (6, 9, 11))), 14, 11528)  # kappa 4.8e6
def test_partition_algebra_matches_dense_oracle(part, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, part.d)) + rng.standard_normal((n, 1))
    est = structured_jackknife_partition(X, part)
    avg = orbit_average(jackknife_cov(X).matrix, part)
    _close(est.dense(), avg, 1e-12)

    # an orbit average of the PSD jackknife: PSD up to rounding
    q = est.quotients
    spectrum = q.spectrum.values
    assert spectrum.min() >= -1e-12 * spectrum.max()

    # Pseudo-powers A^a, a in {-1, -1/2, 1/2}, of two routes that
    # decompose the same estimate A.  To first order in a perturbation E,
    # A^a changes by the Frechet derivative, whose entries in A's
    # eigenbasis are the divided differences (f(l_i) - f(l_j)) / (l_i - l_j)
    # of f(l) = l^a (f = 0 on dropped eigenvalues) times E_ij (Daleckii-
    # Krein).  For |a| <= 1 every divided difference is at most
    # l_min^(a - 1), l_min the smallest kept eigenvalue, so
    #     ||d(A^a)||_F <= l_min^(a - 1) ||E||_F,
    # which for a = -1 is ||dA^-1|| / ||A^-1|| <= kappa ||E|| / ||A||.
    # E is the two routes' difference of A, plus a backward error of
    # p eps ||A|| for each eigendecomposition; twice the first-order term
    # covers the second-order rest while kappa ||E|| / ||A|| <= 1/2.  A
    # whitened vector A^a r moves by at most ||d(A^a)||_2 ||r||_2.
    p = pair_count(part.d)
    w = np.linalg.eigvalsh(avg)
    lam_min = w[rank_mask(w, p)].min()
    E = np.linalg.norm(est.dense() - avg) + 2 * p * np.finfo(float).eps * np.linalg.norm(avg)
    r = rng.standard_normal(p)
    for exponent in (-1.0, -0.5):
        err = np.abs(q.apply(r, exponent) - dense_whiten(avg, r, exponent)).max()
        assert err <= 2 * lam_min ** (exponent - 1) * E * np.linalg.norm(r), exponent
    root = partition_materialize(partition_pseudo_power(q, 0.5))
    assert np.abs(root - dense_power(avg, 0.5)).max() <= 2 * lam_min**-0.5 * E

    # null spectrum: the trivial component (the span of the class
    # indicators) is what I - B B^+ removes; both ranked against
    # n trace(A), from the unprojected estimate
    B = class_indicators(part)
    P = np.eye(p) - B @ np.linalg.pinv(B)
    want = dense_spectrum(n * (P @ avg @ P), max(n, p), n * np.trace(avg))
    got, _ = kt._identity_null(est, None, n)
    assert [m for _, m in got] == [m for _, m in want]
    _close(np.array([v for v, _ in got]), np.array([v for v, _ in want]), 1e-10)

    if B.shape[1] >= p:
        return  # no constraint to test
    for stat, weight in ROUTES:
        opts = TestOptions(statistic=stat, weighting=weight, replicates=200, seed=seed)
        fast = _report_or_error(X, part, opts)
        with mock.patch.object(
            kt, "structured_jackknife_partition", dense_partition_estimate
        ):
            dense = _report_or_error(X, part, opts)
        if isinstance(dense, Exception):
            assert type(fast) is type(dense) and str(fast) == str(dense)
            continue
        assert fast.method == dense.method
        assert fast.value == pytest.approx(dense.value, rel=1e-10, abs=1e-300)
        if dense.N is None:  # chi-square tail of a value equal to 1e-10
            assert fast.p_value == pytest.approx(dense.p_value, rel=1e-10)
        else:  # the same Monte Carlo draws
            assert fast.p_value == dense.p_value
        assert fast.warnings == dense.warnings
        if dense.eigenvalues is not None:
            assert [m for _, m in fast.eigenvalues] == [m for _, m in dense.eigenvalues]


def _report_or_error(X, part, opts):
    try:
        return run_test(X, part, opts)
    except kt.SingularError as exc:
        return exc


def test_partition_routes_memory_and_factorization_sizes():
    # (n, d) = (100, 99), three groups of 33: p = 4851 and one p x p
    # float64 array is 188 MB; every partition route must stay under a
    # quarter of that and factorize nothing larger than max(L, K + 1)
    d, K = 99, 3
    part = Partition(d, tuple(tuple(range(g * 33 + 1, g * 33 + 34)) for g in range(K)))
    L = K * (K + 1) // 2
    X = np.random.default_rng(5).standard_normal((100, d))
    sides = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            sides.extend(max(np.shape(a), default=0) for a in args if hasattr(a, "shape"))
            return fn(*args, **kwargs)

        return wrapper

    linalg = {
        name: recording(fn)
        for name, fn in vars(np.linalg).items()
        if not name.startswith("_") and callable(fn) and not isinstance(fn, type)
    }
    one_array = 8 * pair_count(d) ** 2
    for stat, weight in ROUTES:
        opts = TestOptions(statistic=stat, weighting=weight, replicates=500, seed=11)
        with mock.patch.multiple(np.linalg, **linalg):
            tracemalloc.start()
            try:
                run_test(X, part, opts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < one_array / 4, (stat, weight, peak)
    assert sides and max(sides) <= max(L, K + 1)
