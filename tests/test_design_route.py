"""The design-matrix route from the jackknife's n x p factor, against the
dense eigh-based route of ``dense_oracle`` and within bounded memory."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dense_oracle import dense_design_report

from kstruct.covariance import PSDFactor, jackknife_cov
from kstruct.indexing import (
    DesignMatrix,
    Partition,
    block_membership_matrix,
    pair_count,
    vertex_incidence_design,
)
from kstruct.sblock import SingularError
from kstruct.testing import TestOptions, run_test

# (statistic, weighting, null_draws): the four routes, Gaussian draws for
# max/identity (bootstrap by default) and the bootstrap for euclidean/identity
ROUTES = (
    ("euclidean", "sigma", "auto"),
    ("euclidean", "identity", "auto"),
    ("max", "sigma", "auto"),
    ("max", "identity", "auto"),
    ("max", "identity", "gaussian"),
    ("euclidean", "identity", "bootstrap"),
)


def three_groups(d):
    """Partition of 1..d into three consecutive groups of near-equal size."""
    cuts = [g * d // 3 for g in range(4)]
    return Partition(d, tuple(tuple(range(a + 1, b + 1)) for a, b in zip(cuts, cuts[1:])))


@st.composite
def design_cases(draw):
    """(data, design): d from 3 to 8 and n from 4 to 30, so n < p and
    n > p both occur; a membership design of a random partition or a
    random full-rank general design; optionally a column that is a
    monotone transform of another, which makes D rank-deficient also
    when n > p."""
    d = draw(st.integers(3, 8))
    n = draw(st.integers(4, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p = pair_count(d)
    if draw(st.booleans()):
        groups = rng.integers(0, draw(st.integers(1, d)), size=d)
        part = Partition(
            d,
            tuple(tuple(int(v) + 1 for v in np.flatnonzero(groups == g))
                  for g in np.unique(groups)),
        )
        try:
            design = block_membership_matrix(part)
        except ValueError:  # the classes saturate pair space
            assume(False)
    else:
        L = draw(st.integers(1, min(3, p - 1)))
        design = DesignMatrix(rng.standard_normal((p, L)))
    assume(design.L < p)
    X = rng.standard_normal((n, d)) + rng.standard_normal((n, 1))
    if draw(st.booleans()):
        X[:, 1] = X[:, 0] ** 3
    return X, design


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularError as exc:
        return exc


def _anti_comonotone(n):
    z = np.linspace(0.0, 1.0, n)
    return np.column_stack([z, -z, z, -z, z, -z])


def _offset_normal(n, d, seed):
    """The strategy's data: normals plus one shared normal per row."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)) + rng.standard_normal((n, 1))


# every leave-one-out row fits these membership designs exactly, so the
# projected rows D (I - Gamma) are rounding noise and the null is zero
EXACT_FITS = (
    (Partition(4, ((3,), (1, 2, 4))), 4, 57),
    (Partition(7, ((6, 7), (4,), (5,), (3,), (2,), (1,))), 4, 4),
)


def _monotone_pair_data(n, d, seed):
    X = np.random.default_rng(seed).standard_normal((n, d))
    X[:, 1] = X[:, 0] ** 3
    return X


@settings(max_examples=60, deadline=None)
@given(design_cases(), st.integers(0, 2**16))
@example((np.random.default_rng(1).standard_normal((10, 8)),
          block_membership_matrix(Partition(8, ((1, 2, 3), (4, 5, 6, 7, 8))))), 1)
@example((np.random.default_rng(2).standard_normal((30, 4)),
          block_membership_matrix(Partition(4, ((1, 2), (3, 4))))), 2)
@example((_monotone_pair_data(25, 4, 3), DesignMatrix(np.ones((6, 1)))), 3)
@example((_monotone_pair_data(9, 6, 4), block_membership_matrix(three_groups(6))), 4)
@example((_anti_comonotone(20), block_membership_matrix(three_groups(6))), 5)  # D = 0
@example((np.array([[-0.19528864, 0.24063241, -0.29634336],
                    [-1.28407094, -0.0039993, -1.83642107],
                    [-1.07809066, 0.03222629, -0.10072875],
                    [-1.79580849, -2.83169078, -1.93047456]]),
          DesignMatrix(np.array([[0.00123015], [0.29874554], [-0.27413786]]))),
         0)  # the GLS quadratic form rounds to -5.7e-31
@example((np.array([[0.273610146, 0.0204831429, 0.27942693, -0.656767302],
                    [0.533300134, 0.151675375, -2.75948183, 0.410309659],
                    [-0.157745068, -0.00392525044, 0.249509177, 2.03375819],
                    [-0.63853665, -0.260349944, 0.560120242, -1.95693609],
                    [2.05200012, 8.64036618, 0.272934242, 0.928029002]]),
          DesignMatrix(np.array([[1.1332274, 1.18731468, 1.39797576],
                                 [-1.78605995, 0.38172051, -0.32142002],
                                 [-0.44978131, 1.53207338, 3.60848347],
                                 [-0.7631369, -1.2276507, -0.16268108],
                                 [1.81043275, -0.08713141, -1.38043736],
                                 [0.13895808, -1.85461266, -0.22585966]]))),
         0)  # GLS normal matrix with condition number 5e7: max/sigma is noise
@example((_offset_normal(4, 4, 57), block_membership_matrix(EXACT_FITS[0][0])), 0)
@example((_offset_normal(4, 4, 8), vertex_incidence_design(4)), 0)  # residual is noise
@example((_offset_normal(4, 7, 4), block_membership_matrix(EXACT_FITS[1][0])), 0)
def test_design_routes_match_dense_oracle(case, seed):
    X, design = case
    n = X.shape[0]
    p = design.p

    # the factor's kept spectrum is the dense estimate's
    est = jackknife_cov(X)
    dense = PSDFactor.of_matrix(est.matrix)
    got, want = np.sort(est.factor.w[est.factor.keep]), np.sort(dense.w[dense.keep])
    assert got.size == want.size <= min(n - 1, p)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * want.max(initial=0))

    for stat, weight, draws in ROUTES:
        opts = TestOptions(statistic=stat, weighting=weight, estimator="jackknife",
                           replicates=200, seed=seed, null_draws=draws)
        fast = _outcome(run_test, X, design, opts)
        want = _outcome(dense_design_report, X, design, opts)
        if isinstance(want, Exception):
            assert type(fast) is type(want) and str(fast) == str(want), (stat, weight)
            continue
        method, value, p_value, warnings, spectrum, scale = want
        assert fast.method == method, (stat, weight, draws)
        # relative, except for a value that is rounding noise around an
        # exact zero
        assert fast.value == pytest.approx(value, rel=1e-10, abs=1e-12 * scale), (
            stat, weight)
        if fast.N is None:  # chi-square tail of a value equal to 1e-10
            assert fast.p_value == pytest.approx(p_value, rel=1e-10)
        else:  # the same Monte Carlo draws
            assert fast.p_value == p_value, (stat, weight, draws)
        assert fast.warnings == warnings, (stat, weight, draws)
        if spectrum is not None:
            assert [m for _, m in fast.eigenvalues] == [m for _, m in spectrum]
        if spectrum:  # eigh is accurate relative to the largest eigenvalue
            np.testing.assert_allclose(
                [v for v, _ in fast.eigenvalues], [v for v, _ in spectrum],
                rtol=1e-10, atol=1e-12 * spectrum[0][0],
            )


@pytest.mark.parametrize("part, n, seed", EXACT_FITS)
def test_exact_fit_has_an_empty_null_on_both_routes(part, n, seed):
    # the rank rule measures the projected spectrum against the
    # unprojected estimate, so its rounding noise is no spectrum
    X = _offset_normal(n, part.d, seed)
    for hypothesis, estimator in ((part, "structured"),
                                  (block_membership_matrix(part), "jackknife")):
        for stat in ("euclidean", "max"):
            opts = TestOptions(statistic=stat, weighting="identity", estimator=estimator,
                               replicates=200, seed=0)
            rep = run_test(X, hypothesis, opts)
            assert "projected covariance estimate is zero" in rep.warnings, (estimator, stat)
            assert rep.eigenvalues == ([] if stat == "euclidean" else None)


@pytest.mark.parametrize("d, n, seed", [(4, 4, 8), (6, 3, 13)])
def test_rounding_level_residual_is_an_exact_fit(d, n, seed):
    # vertex-incidence designs at tiny n: tau_hat and every leave-one-out
    # row are additive, so tau_hat - theta_hat and D (I - Gamma) are
    # rounding noise; every route reports an exact fit, not a noise value
    X = _offset_normal(n, d, seed)
    for stat, weight, draws in ROUTES:
        opts = TestOptions(statistic=stat, weighting=weight, estimator="jackknife",
                           replicates=200, seed=0, null_draws=draws)
        rep = run_test(X, vertex_incidence_design(d), opts)
        assert rep.value == 0.0 and rep.p_value == 1.0, (stat, weight, draws)
        if weight == "identity":
            assert "projected covariance estimate is zero" in rep.warnings


def test_design_routes_memory_and_factorization_sizes():
    # (n, d) = (100, 200): p = 19900 and one p x p float64 array is
    # 3.2 GB; every design route must stay under a tenth of that and
    # hand np.linalg nothing with both sides larger than n
    n, d = 100, 200
    design = block_membership_matrix(three_groups(d))
    X = np.random.default_rng(5).standard_normal((n, d))
    shapes = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            shapes.extend(np.shape(a) for a in args if hasattr(a, "shape"))
            return fn(*args, **kwargs)

        return wrapper

    linalg = {
        name: recording(fn)
        for name, fn in vars(np.linalg).items()
        if not name.startswith("_") and callable(fn) and not isinstance(fn, type)
    }
    one_array = 8 * pair_count(d) ** 2
    for stat, weight, draws in ROUTES:
        opts = TestOptions(statistic=stat, weighting=weight, estimator="jackknife",
                           replicates=500, seed=11, null_draws=draws)
        with mock.patch.multiple(np.linalg, **linalg):
            tracemalloc.start()
            try:
                run_test(X, design, opts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < one_array / 10, (stat, weight, draws, peak)
    assert shapes and all(min(s, default=0) <= n for s in shapes), shapes
