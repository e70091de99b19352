import numpy as np
import pytest

from dense_oracle import materialize, one_group
from kstruct.indexing import _incidence, pair_count
from kstruct.sblock import (
    SingularError,
    eigenvalues,
    gamma_apply,
    gamma_star_apply,
    partition_apply,
    partition_materialize,
    partition_pseudo_power,
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
    return partition_materialize(partition_pseudo_power(one_group(s, d), -1.0))


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
        statistic_euclidean(v, 0.0 * v, ("partition", one_group((0.0, 0.0, 0.0), 5)))
    got = statistic_euclidean(v, 0.0 * v, ("partition", one_group((1.0, 1.0, 1.0), 5)))
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
