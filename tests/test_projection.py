import numpy as np
import pytest

from dense_oracle import factor_of_matrix, materialize, one_group
from kstruct.covariance import jackknife_cov, structured_jackknife_partition
from kstruct.indexing import (
    DesignMatrix,
    Partition,
    block_membership_matrix,
    diagonal_free_membership_matrix,
    pair_count,
    vertex_incidence_design,
)
from kstruct.projection import (
    RankDeficient,
    check_design_conditions,
    gamma_projection,
    pseudoinverse_design,
)
from kstruct.sblock import SingularError, gamma_star_apply


def penrose_ok(B, Bp, tol=1e-10):
    return (
        np.allclose(B @ Bp @ B, B, atol=tol)
        and np.allclose(Bp @ B @ Bp, Bp, atol=tol)
        and np.allclose((B @ Bp).T, B @ Bp, atol=tol)
        and np.allclose((Bp @ B).T, Bp @ B, atol=tol)
    )


def random_sblock_pd(rng, d):
    s0 = rng.uniform(0.0, 0.3)
    s1 = s0 + rng.uniform(0.0, 0.5)
    s2 = 2 * s1 - s0 + rng.uniform(0.05, 1.0)
    return np.array([s0, s1, s2])


def test_pseudoinverse_membership_closed_form():
    part = Partition(4, ((1, 2), (3, 4)))
    design = block_membership_matrix(part)
    Bp = pseudoinverse_design(design)
    B = design.matrix
    counts = B.sum(axis=0)
    np.testing.assert_allclose(Bp, (B / counts).T, atol=0)
    assert penrose_ok(B, Bp)


def test_pseudoinverse_diagonal_free():
    part = Partition(5, ((1, 2, 3), (4, 5)))
    design = diagonal_free_membership_matrix(part)
    Bp = pseudoinverse_design(design)
    assert penrose_ok(design.matrix, Bp)


@pytest.mark.parametrize("d", [4, 5, 8, 12])
def test_pseudoinverse_vertex_incidence_closed_form(d):
    design = vertex_incidence_design(d)
    Bp = pseudoinverse_design(design)
    B = design.matrix
    want = B.T / (d - 2.0) - np.ones((d, pair_count(d))) / ((d - 1.0) * (d - 2.0))
    np.testing.assert_allclose(Bp, want, atol=0)
    assert penrose_ok(B, Bp)


def test_pseudoinverse_general_matches_numpy():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((pair_count(5), 3))
    design = DesignMatrix(B, kind="general")
    np.testing.assert_allclose(
        pseudoinverse_design(design), np.linalg.pinv(B), atol=1e-10
    )


def test_pseudoinverse_rejects_rank_deficiency():
    B = np.ones((6, 2))  # duplicated column
    with pytest.raises(RankDeficient):
        pseudoinverse_design(DesignMatrix(B, kind="general"))
    # more columns than rows is refused when the design is built
    with pytest.raises(ValueError, match="leaves no constraint"):
        DesignMatrix(np.random.default_rng(0).standard_normal((6, 7)), kind="general")


def test_ones_design_projects_to_grand_mean():
    design = block_membership_matrix(Partition.exchangeable(4))
    gamma = gamma_projection(design)
    assert gamma.kind == "grand-mean"
    np.testing.assert_allclose(gamma.dense(), np.full((6, 6), 1.0 / 6.0), atol=1e-15)
    e1 = np.zeros(6)
    e1[0] = 1.0
    np.testing.assert_allclose(gamma.apply(e1), np.full(6, 1.0 / 6.0), atol=1e-15)


def test_membership_projection_gives_class_means():
    part = Partition(4, ((1, 2), (3, 4)))
    design = block_membership_matrix(part)
    gamma = gamma_projection(design)
    rng = np.random.default_rng(9)
    v = rng.standard_normal(6)
    theta = gamma.apply(v)
    B = design.matrix
    for col in range(design.L):
        members = B[:, col] == 1.0
        np.testing.assert_allclose(theta[members], v[members].mean(), atol=1e-14)


def test_projection_idempotent_and_fixes_range():
    rng = np.random.default_rng(13)
    for kind_design in (
        block_membership_matrix(Partition(5, ((1, 2, 3), (4, 5)))),
        vertex_incidence_design(5),
        DesignMatrix(rng.standard_normal((10, 3)), kind="general"),
    ):
        gamma = gamma_projection(kind_design)
        v = rng.standard_normal(kind_design.p)
        once = gamma.apply(v)
        np.testing.assert_allclose(gamma.apply(once), once, atol=1e-10)
        beta = rng.standard_normal(kind_design.L)
        inrange = kind_design.matrix @ beta
        np.testing.assert_allclose(gamma.apply(inrange), inrange, atol=1e-10)


def test_gls_matches_weighted_least_squares():
    rng = np.random.default_rng(17)
    p = 10
    B = rng.standard_normal((p, 3))
    design = DesignMatrix(B, kind="general")
    A = rng.standard_normal((p, p))
    A = A @ A.T + 0.5 * np.eye(p)
    gamma = gamma_projection(design, factor_of_matrix(A))
    assert gamma.kind == "gls"
    tau = rng.standard_normal(p)
    W = np.linalg.inv(A)
    Wh = np.linalg.cholesky(W)
    beta, *_ = np.linalg.lstsq(Wh.T @ B, Wh.T @ tau, rcond=None)
    np.testing.assert_allclose(gamma.apply(tau), B @ beta, atol=1e-10)
    # idempotent, fixes col(B), but not symmetric in general
    G = gamma.dense()
    np.testing.assert_allclose(G @ G, G, atol=1e-10)
    np.testing.assert_allclose(G @ B, B, atol=1e-10)


def test_gls_scale_invariance():
    rng = np.random.default_rng(21)
    p = 6
    B = rng.standard_normal((p, 2))
    design = DesignMatrix(B, kind="general")
    A = rng.standard_normal((p, p))
    A = A @ A.T + np.eye(p)
    v = rng.standard_normal(p)
    a = gamma_projection(design, factor_of_matrix(A)).apply(v)
    b = gamma_projection(design, factor_of_matrix(7.3 * A)).apply(v)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_structured_weight_collapses_to_orthogonal():
    # a partition estimate shares its membership design's symmetry, so
    # GLS through its quotients or its dense matrix is the orthogonal
    # class-mean projector that run_test takes for a Partition
    rng = np.random.default_rng(25)
    part = Partition(5, ((1, 2, 3), (4, 5)))
    design = block_membership_matrix(part)
    X = rng.standard_normal((40, 5))
    est = structured_jackknife_partition(X, part)

    orthogonal = gamma_projection(design)
    assert orthogonal.kind == "class-mean"
    v = rng.standard_normal(design.p)
    for weight in (est.factor, factor_of_matrix(est.matrix)):
        np.testing.assert_allclose(
            gamma_projection(design, weight).apply(v), orthogonal.apply(v),
            atol=1e-9 * np.linalg.norm(v),
        )


def test_exchangeable_weight_with_vertex_design():
    rng = np.random.default_rng(29)
    d = 5
    s = random_sblock_pd(rng, d)
    design = vertex_incidence_design(d)
    orthogonal = gamma_projection(design)
    assert orthogonal.kind == "vertex"
    v = rng.standard_normal(design.p)
    for weight in (one_group(s, d), factor_of_matrix(materialize(s, d))):
        np.testing.assert_allclose(
            gamma_projection(design, weight).apply(v), orthogonal.apply(v), atol=1e-9
        )


def test_gls_singular_weight_raises():
    design = DesignMatrix(np.random.default_rng(1).standard_normal((6, 2)), "general")
    with pytest.raises(SingularError):
        gamma_projection(design, factor_of_matrix(np.zeros((6, 6))))


def test_theta_star_matches_dense_and_orthogonality():
    rng = np.random.default_rng(33)
    for d in (4, 5, 7, 10):
        p = pair_count(d)
        tau = rng.standard_normal(p)
        ts = gamma_star_apply(tau, d)
        design = vertex_incidence_design(d)
        B = design.matrix
        dense = B @ pseudoinverse_design(design) @ tau
        np.testing.assert_allclose(ts, dense, atol=1e-12)
        theta = np.full(p, tau.mean())
        assert abs((tau - ts) @ (ts - theta)) <= 1e-12 * (tau @ tau)


def test_theta_star_rejects_small_d():
    with pytest.raises(ValueError):
        gamma_star_apply(np.zeros(3), 3)


def test_quadratic_form_decomposition():
    # (tau-theta)' S^{-1} (tau-theta) splits into the two residual norms
    rng = np.random.default_rng(37)
    for d in (4, 5, 7):
        p = pair_count(d)
        s = random_sblock_pd(rng, d)
        tau = rng.standard_normal(p)
        theta = np.full(p, tau.mean())
        ts = gamma_star_apply(tau, d)
        resid = tau - theta
        lhs = resid @ np.linalg.solve(materialize(s, d), resid)
        vals = np.array(
            [
                s[2] + 2 * (d - 2) * s[1] + (p - 2 * d + 3) * s[0],
                s[2] + (d - 4) * s[1] - (d - 3) * s[0],
                s[2] - 2 * s[1] + s[0],
            ]
        )
        rhs = ((tau - ts) @ (tau - ts)) / vals[2] + ((ts - theta) @ (ts - theta)) / vals[1]
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("design", [
    block_membership_matrix(Partition.exchangeable(5)),
    block_membership_matrix(Partition(5, ((1, 2), (3, 4, 5)))),
    diagonal_free_membership_matrix(Partition(6, ((1, 2, 3), (4, 5), (6,)))),
    DesignMatrix(np.random.default_rng(137).standard_normal((10, 3))),
], ids=["grand-mean", "class-mean", "diagonal-free", "orthogonal"])
def test_subtract_in_place_is_v_minus_apply(design):
    # the whitened-residual draws subtract Gamma V in the draw buffer with
    # the arithmetic of V - Gamma V; stale work entries do not leak
    gamma = gamma_projection(design)
    V = np.random.default_rng(139).standard_normal((9, design.p))
    got, work = V.copy(), np.full(gamma._work_entries(9), np.nan)
    assert gamma._subtract(got, work) is got
    assert np.array_equal(got, V - gamma.apply(V))


def test_check_design_conditions_membership():
    design = block_membership_matrix(Partition(4, ((1, 2), (3, 4))))
    out = check_design_conditions(design)
    assert out["one_nonzero_per_row"] is True
    assert out["design_row_bound"] == pytest.approx(2.0)
    assert out["projected_diag_value"] is None


def test_check_design_conditions_scaled_rows():
    B = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    out = check_design_conditions(DesignMatrix(B, kind="general"))
    assert out["design_row_bound"] == pytest.approx(1.0 + 4.0)


def test_check_design_conditions_dense_rows_unavailable():
    design = vertex_incidence_design(4)  # two nonzeros per row
    out = check_design_conditions(design)
    assert out["one_nonzero_per_row"] is False
    assert out["design_row_bound"] is None


def test_check_design_conditions_takes_the_estimate_run_test_uses():
    X = np.random.default_rng(41).standard_normal((30, 5))
    design = block_membership_matrix(Partition.exchangeable(5))
    est = structured_jackknife_partition(X, Partition.exchangeable(5))
    want = check_design_conditions(design, sigma=tuple(est.s))
    assert check_design_conditions(design, sigma=est) == want
    assert want["projected_diag_value"] is not None
    for other in (jackknife_cov(X),
                  structured_jackknife_partition(X, Partition(5, ((1, 2), (3, 4, 5)))),
                  (1.0, 2.0)):
        with pytest.raises(ValueError, match="sigma must be a fully exchangeable "
                           r"estimate or an \(s0, s1, s2\) triple"):
            check_design_conditions(design, sigma=other)


def test_check_design_conditions_refuses_an_estimate_of_another_d():
    X = np.random.default_rng(43).standard_normal((30, 5))
    est = structured_jackknife_partition(X, Partition.exchangeable(5))
    design = block_membership_matrix(Partition.exchangeable(4))
    with pytest.raises(ValueError, match="over d=5 variables, the design is over d=4"):
        check_design_conditions(design, sigma=est)


def test_check_design_conditions_exchangeable_sigma():
    design = block_membership_matrix(Partition.exchangeable(4))
    out = check_design_conditions(design, sigma=(0.0, 0.0, 1.0))
    assert out["projected_diag_value"] == pytest.approx(1.0 - 1.0 / 6.0)
    assert out["projected_diag_lower"] == pytest.approx(2.0 / 3.0)
    # cross-check against the materialized projected covariance
    S = materialize(np.array([0.0, 0.0, 1.0]), 4)
    P = np.eye(6) - np.full((6, 6), 1.0 / 6.0)
    np.testing.assert_allclose(
        np.diag(P @ S @ P), np.full(6, out["projected_diag_value"]), atol=1e-12
    )
