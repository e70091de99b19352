import tracemalloc

import numpy as np
import pytest

from dense_oracle import materialize, one_group
import kstruct.kendall as kd
import kstruct.sblock as ks
from draws import GivenRows, sparse_product_aggregate, sparse_product_apply
from kstruct.indexing import Partition, _incidence, _pairs0, pair_count
from kstruct.kendall import KendallSample
from kstruct.sblock import (
    SingularError,
    eigenvalues,
    gamma_apply,
    gamma_star_apply,
    partition_apply,
    partition_pseudo_power,
    partition_quotients,
)
from kstruct.testing import statistic_euclidean


def random_pd_triple(rng):
    """Coefficients passing the all-d positive definiteness test."""
    s0 = rng.uniform(0.0, 0.3)
    s1 = s0 + rng.uniform(0.0, 0.3)
    s2 = 2 * s1 - s0 + rng.uniform(0.05, 1.0)
    return np.array([s0, s1, s2])


def dense_power(S, a, rtol=1e-12):
    w, V = np.linalg.eigh(S)
    top = np.abs(w).max()
    keep = np.abs(w) > rtol * top
    return (V[:, keep] * w[keep] ** a) @ V[:, keep].T


def inverse_matrix(s, d):
    """Dense inverse of S(s), taken on its one-group quotients."""
    return partition_apply(partition_pseudo_power(one_group(s, d), -1.0), np.eye(pair_count(d)))


def test_materialize_frozen_d4():
    S = materialize((0.5, 1.5, 7.0), 4)
    assert S.shape == (6, 6)
    assert (np.diag(S) == 7.0).all()
    # pairs (1,2) and (3,4) are disjoint -> s0; (1,2) and (1,3) share 1 -> s1
    assert S[0, 5] == 0.5
    assert S[0, 1] == 1.5
    assert np.array_equal(S, S.T)


def test_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(0)
    for d in range(4, 13):
        s = rng.normal(size=3)
        spec = eigenvalues(s, d)
        expect = np.sort(
            np.concatenate(
                [np.full(m, v) for v, m in zip(spec.values, spec.multiplicities)]
            )
        )
        got = np.linalg.eigvalsh(materialize(s, d))
        scale = max(np.abs(expect).max(), 1e-30)
        assert np.allclose(np.sort(got), expect, rtol=0, atol=1e-10 * scale)


def test_eigenvalues_special_dims():
    # d=3: s0 never enters; spectrum is (s2 + 2 s1, s2 - s1) with mults (1, 2)
    spec = eigenvalues((123.0, 0.5, 2.0), 3)
    assert spec.multiplicities == (1, 2, 0)
    assert spec.values[0] == pytest.approx(3.0)
    assert spec.values[1] == pytest.approx(1.5)
    got = np.linalg.eigvalsh(materialize((123.0, 0.5, 2.0), 3))
    assert np.allclose(np.sort(got), [1.5, 1.5, 3.0], atol=1e-12)
    # d=2: the 1x1 matrix [s2]
    spec2 = eigenvalues((9.0, 9.0, 4.0), 2)
    assert spec2.multiplicities == (1, 0, 0)
    assert spec2.values[0] == 4.0


def test_all_ones_coefficients_give_J():
    # coefficients (1,1,1) materialize to the all-ones matrix
    for d in (4, 6):
        p = pair_count(d)
        assert np.array_equal(materialize((1.0, 1.0, 1.0), d), np.ones((p, p)))
        spec = eigenvalues((1.0, 1.0, 1.0), d)
        assert spec.values[0] == p
        assert spec.values[1] == 0.0 and spec.values[2] == 0.0


def test_matvec_matches_dense():
    # S(s) applied through its one-group quotients, vectors and columns
    rng = np.random.default_rng(1)
    for d in (3, 4, 5, 8):
        s = rng.normal(size=3)
        S = materialize(s, d)
        q = one_group(s, d)
        v = rng.normal(size=pair_count(d))
        assert np.allclose(partition_apply(q, v), S @ v, rtol=0, atol=1e-12)
        V = rng.normal(size=(pair_count(d), 4))
        assert np.allclose(partition_apply(q, V.T).T, S @ V, rtol=0, atol=1e-12)


def test_matvec_rejects_wrong_length():
    with pytest.raises(ValueError):
        partition_apply(one_group((0.0, 0.0, 1.0), 4), np.zeros(5))


def test_inverse_round_trip():
    rng = np.random.default_rng(2)
    for d in (4, 5, 7, 10):
        s = random_pd_triple(rng)
        S, T = materialize(s, d), inverse_matrix(s, d)
        assert np.allclose(S @ T, np.eye(pair_count(d)), atol=1e-10)


def test_inverse_d3_convention():
    # at d = 3 every two pairs overlap, so the inverse is again an S-block
    # with one off-diagonal value
    S, T = materialize((0.0, 0.5, 2.0), 3), inverse_matrix((0.0, 0.5, 2.0), 3)
    off = T[~np.eye(3, dtype=bool)]
    assert np.allclose(off, off[0], rtol=0, atol=1e-15)
    assert np.allclose(S @ T, np.eye(3), atol=1e-12)


def test_inverse_d2():
    assert np.allclose(inverse_matrix((7.0, 7.0, 4.0), 2), [[0.25]])


def test_inverse_singular_raises():
    # the zero S-block has no weighting inverse; the all-ones matrix J is
    # pseudo-inverted, J^+ = J / p^2, like every other singular weight
    v = np.arange(1.0, 11.0)
    with pytest.raises(SingularError):
        statistic_euclidean(v, 0.0 * v, one_group((0.0, 0.0, 0.0), 5))
    got = statistic_euclidean(v, 0.0 * v, one_group((1.0, 1.0, 1.0), 5))
    assert got == pytest.approx(v.sum() ** 2 / 100.0, rel=1e-12)


def test_gamma_star_matches_incidence_projector():
    # the star projector is the orthogonal projector onto the column space
    # of the vertex-incidence design
    for d in (4, 5, 7):
        B = _incidence(d)
        P = B @ np.linalg.pinv(B)
        V = np.eye(pair_count(d))
        assert np.allclose(gamma_star_apply(V, d), P, atol=1e-10)


def test_gamma_star_frozen_coefficients_d4():
    # for d=4 the projector is structured with coefficients (-1/3, 1/6, 2/3)
    G = gamma_star_apply(np.eye(6), 4)
    assert np.allclose(G, materialize((-1 / 3, 1 / 6, 2 / 3), 4), atol=1e-12)


def test_gamma_star_projector_identities():
    rng = np.random.default_rng(3)
    for d in (4, 6):
        v = rng.normal(size=pair_count(d))
        sv = gamma_star_apply(v, d)
        assert np.allclose(gamma_star_apply(sv, d), sv, atol=1e-12)
        ones = np.ones(pair_count(d))
        assert np.allclose(gamma_star_apply(ones, d), ones, atol=1e-12)
        gv = gamma_apply(v)
        assert np.allclose(gamma_star_apply(gv, d), gv, atol=1e-12)


def test_gamma_star_in_place_is_the_formula_bit_for_bit():
    # the formula written with a fresh array for each step, on vectors and
    # on stacks of rows at scales from 1e-5 to 1e5
    rng = np.random.default_rng(17)
    for d in (4, 5, 7, 20, 60):
        ii0, jj0 = _pairs0(d)
        p = pair_count(d)
        for shape in ((p,), (3, p), (40, p), (2, 3, p)):
            v = rng.standard_normal(shape) * 10.0 ** rng.uniform(-5, 5)
            if v.ndim == 1:
                colsum = (np.bincount(ii0, weights=v, minlength=d)
                          + np.bincount(jj0, weights=v, minlength=d))
            else:
                colsum = v @ _incidence(d)
            colmean = colsum / (d - 1.0)
            vbar = v.mean(axis=-1, keepdims=v.ndim > 1)
            want = (d - 1.0) / (d - 2.0) * (colmean[..., ii0] + colmean[..., jj0])
            want = want - d / (d - 2.0) * vbar
            assert np.array_equal(gamma_star_apply(v, d), want), (d, shape)


def test_gamma_star_stack_allocates_one_output():
    # an (n, p) stack costs its output and (n, d) column means, not the
    # three n x p temporaries of the formula
    n, d = 200, 60
    v = np.random.default_rng(19).standard_normal((n, pair_count(d)))
    gamma_star_apply(v[:2], d)  # the cached pair indices and incidence
    tracemalloc.start()
    try:
        gamma_star_apply(v, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * v.nbytes


def test_gamma_star_rejects_small_d():
    with pytest.raises(ValueError):
        gamma_star_apply(np.zeros(3), 3)


def test_apply_power_matches_dense():
    # real powers of S(s) are taken on its one-group partition quotients
    rng = np.random.default_rng(4)
    for d in (4, 5, 9):
        s = random_pd_triple(rng)
        S = materialize(s, d)
        q = one_group(s, d)
        np.testing.assert_allclose(
            partition_apply(q, np.eye(pair_count(d))), S, rtol=0, atol=2e-16 * d
        )
        v = rng.normal(size=pair_count(d))
        for a in (-1.0, -0.5, 0.5, 1.0, 2.0):
            got = partition_apply(partition_pseudo_power(q, a), v)
            assert np.allclose(got, dense_power(S, a) @ v, atol=1e-10)
        root0 = partition_pseudo_power(q, 0.0)
        assert np.allclose(partition_apply(root0, v), v, atol=1e-14)


def test_apply_power_rows_layout():
    # (..., p) stacks of rows through the one-group quotients
    rng = np.random.default_rng(5)
    d = 5
    root = partition_pseudo_power(one_group(random_pd_triple(rng), d), -0.5)
    V = rng.normal(size=(7, pair_count(d)))
    out = partition_apply(root, V)
    for r in range(7):
        assert np.allclose(out[r], partition_apply(root, V[r]), atol=1e-12)


@pytest.mark.parametrize("part", [
    Partition.exchangeable(6),
    Partition(7, ((1, 4), (2, 5, 7), (3, 6))),
    Partition(6, ((1, 2, 3), (4,), (5,), (6,))),
    Partition(5, ((1,), (2,), (3,), (4,), (5,))),
], ids=["one-group", "three-group", "singleton-groups", "all-singletons"])
def test_apply_into_buffers_is_the_sparse_product(part):
    # the one row path writes into its caller's buffers, pair-major, with
    # the arithmetic of fresh sparse products, for a vector and for stacks
    rng = np.random.default_rng(131)
    p = pair_count(part.d)
    rows = GivenRows(rng.standard_normal((12, p)))
    q = partition_pseudo_power(partition_quotients(rows, part, 0.1), 0.5)
    v, V = rng.standard_normal(p), rng.standard_normal((11, p))
    assert np.array_equal(partition_apply(q, v), sparse_product_apply(q, v))
    want = sparse_product_apply(q, V)
    assert np.array_equal(partition_apply(q, V), want)
    work = np.full(q._work_entries(11), np.nan)  # no stale entry may leak
    for rows in (11, 4, 0):  # one work array serves every smaller block
        block = V[:rows].copy()
        got = partition_apply(q, block, out=block, work=work)
        assert np.array_equal(got, want[:rows])
        assert rows == 0 or np.shares_memory(got, block)
    with pytest.raises(ValueError, match="work holds 5 entries"):
        partition_apply(q, V, work=np.empty(5))
    with pytest.raises(ValueError, match="out must be a C-contiguous array"):
        partition_apply(q, V, out=np.empty((p, 11)).T)


@pytest.mark.parametrize("part", [
    Partition.exchangeable(6),
    Partition(7, ((1, 4), (2, 5, 7), (3, 6))),
    Partition(5, ((1,), (2,), (3,), (4,), (5,))),
], ids=["one-group", "three-group", "all-singletons"])
def test_quotients_aggregate_in_chunks_as_the_sparse_product(part, monkeypatch):
    # the rows are read a chunk at a time; every chunk size gives the
    # coordinates and energies, and so the quotients, of SciPy's product
    # and one einsum on all of D
    rng = np.random.default_rng(137)
    n, p = 10, pair_count(part.d)
    D = GivenRows(rng.standard_normal((n, p)))
    D.rows.flags.writeable = False  # as a sample's rows are
    agg_t = ks._partition_layout(part).agg_t
    want_A, want_energy = sparse_product_aggregate(agg_t, D)
    monkeypatch.setattr(ks, "_aggregate", sparse_product_aggregate)
    want = partition_quotients(D, part, 0.1)
    monkeypatch.undo()
    for rows in (1, 3, n):
        monkeypatch.setattr(ks, "_row_chunk", lambda entries: rows)
        A, energy = ks._aggregate(agg_t, D)
        assert np.array_equal(A, want_A)
        assert np.array_equal(energy, want_energy)
        got = partition_quotients(D, part, 0.1)
        for a, b in zip((got.trivial, *got.standard, got.remainder),
                        (want.trivial, *want.standard, want.remainder)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("part", [
    Partition.exchangeable(6),
    Partition(7, ((1, 4), (2, 5, 7), (3, 6))),
    Partition(5, ((1,), (2,), (3,), (4,), (5,))),
], ids=["one-group", "three-group", "all-singletons"])
def test_quotients_from_the_row_sums_in_many_chunks(part, monkeypatch):
    # D is made a chunk at a time from the kernel pass's integer row sums;
    # with a budget of a few rows per chunk the coordinates, the energies
    # and the quotients equal the one-chunk result, and the energies equal
    # one einsum over the sample's rows
    n = 40
    X = np.random.default_rng(139).standard_normal((n, part.d))
    tau, sums = kd.tau_and_leave_one_out(X)
    sample = KendallSample(X)
    D = sample.rows
    assert np.array_equal(D, sums.astype(np.float64) / (n - 1) - tau)

    def fresh():
        return kd.LeaveOneOut(sums.copy(), tau)

    agg_t = ks._partition_layout(part).agg_t
    J, p = agg_t.shape
    assert ks._row_chunk(2 * p + J) >= n  # one chunk
    want_A, want_energy = ks._aggregate(agg_t, fresh())
    want = partition_quotients(fresh(), part, 0.1)
    assert np.array_equal(want_energy, np.einsum("ij,ij->j", D, D))
    monkeypatch.setattr(kd, "_BLOCK_BUDGET", 3 * 8 * (2 * p + J))
    assert ks._row_chunk(2 * p + J) == 3  # 14 chunks, the last of one row
    for rows in (fresh(), sample.leave_one_out):  # from the sums, then from D
        A, energy = ks._aggregate(agg_t, rows)
        assert np.array_equal(A, want_A)
        assert np.array_equal(energy, want_energy)
        got = partition_quotients(rows, part, 0.1)
        for a, b in zip((got.trivial, *got.standard, got.remainder),
                        (want.trivial, *want.standard, want.remainder)):
            assert np.array_equal(a, b)


def test_apply_power_pseudo_on_singular():
    # pseudo-powers drop the zero eigenvalue of the grand-mean-projected
    # triple, which makes S(t) singular
    rng = np.random.default_rng(6)
    d = 5
    s = random_pd_triple(rng)
    spec = eigenvalues(s, d)
    # shift so the constant-vector eigenvalue is exactly zero
    t = s - spec.values[0] / pair_count(d) * np.ones(3)
    assert eigenvalues(t, d).values[0] == pytest.approx(0.0, abs=1e-12)
    v = rng.normal(size=pair_count(d))
    assert np.linalg.matrix_rank(materialize(t, d)) == pair_count(d) - 1
    got = partition_apply(partition_pseudo_power(one_group(t, d), -0.5), v)
    expect = dense_power(materialize(t, d), -0.5, rtol=1e-10) @ v
    assert np.allclose(got, expect, atol=1e-9)


def test_is_pd_all_d_frozen_and_checked():
    # s1 >= s0 >= 0 and s2 - s1 > s1 - s0 make S(s) positive definite at
    # every d >= 4, and the closed-form spectrum shows it
    for s in ((0.0, 0.0, 1.0), (0.1, 0.2, 0.5)):
        assert all(min(eigenvalues(s, d).values) > 0 for d in range(4, 200))
    assert min(eigenvalues((0.2, 0.1, 1.0), 4).values) > 0  # fails only at larger d
    assert min(eigenvalues((0.2, 0.1, 1.0), 13).values) < 0
    assert min(eigenvalues((0.0, 0.5, 0.6), 4).values) < 0
    for d in range(4, 21):
        w = np.linalg.eigvalsh(materialize((0.1, 0.2, 0.5), min(d, 20)))
        assert w.min() > 0
    w13 = np.linalg.eigvalsh(materialize((0.2, 0.1, 1.0), 13))
    assert w13.min() < 0
