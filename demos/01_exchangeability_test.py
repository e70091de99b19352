"""Testing full exchangeability of a Kendall correlation matrix.

Under full exchangeability every off-diagonal Kendall correlation is the
same number, so the estimated vector tau_hat should sit close to the
constant vector at its grand mean.  This script generates data where
that is true, runs the two main test routes, then breaks the symmetry
with a single perturbed entry and watches the p-values collapse.

Run:  python3 demos/01_exchangeability_test.py
"""

import numpy as np

from kstruct import (
    KendallSample,
    Partition,
    ScenarioConfig,
    TestOptions,
    build_tau_matrix,
    run_test,
    sample_gaussian_with_tau,
)

rng = np.random.default_rng(2024)

# --- a null dataset: d = 5 variables, common Kendall correlation 0.3 -------

null_cfg = ScenarioConfig(n=200, d=5, tau=0.3)
T = build_tau_matrix(null_cfg)
X = sample_gaussian_with_tau(T, 200, rng)

tau_hat = KendallSample(X).tau
print("estimated Kendall correlations (all should be near 0.3):")
print(np.round(tau_hat, 3))
print()

hypothesis = Partition.exchangeable(5)

# Route 1: Euclidean statistic with estimated-covariance weighting.  The
# structured jackknife plugs into a closed-form chi-square null law.
euclidean = TestOptions(
    statistic="euclidean", weighting="sigma", estimator="structured", seed=1
)
report = run_test(X, hypothesis, euclidean)
print(
    "euclidean/sigma : E = %7.3f  p = %.3f  (%s, df=%s)"
    % (report.value, report.p_value, report.method, report.df)
)

# Route 2: max statistic, whitened entrywise; its null law is simulated.
max_test = TestOptions(
    statistic="max", weighting="sigma", estimator="structured", seed=2,
    replicates=5000,
)
report = run_test(X, hypothesis, max_test)
print(
    "max/sigma       : M = %7.3f  p = %.3f  (%s, N=%d)"
    % (report.value, report.p_value, report.method, report.N)
)
print()

# --- now break exchangeability: one pair gets extra dependence -------------

alt_cfg = ScenarioConfig(n=200, d=5, tau=0.3, departure="single", delta=0.25)
X_alt = sample_gaussian_with_tau(build_tau_matrix(alt_cfg), 200, rng)
print("after adding 0.25 to the (1,2) Kendall entry:")
for options in (euclidean, max_test):
    report = run_test(X_alt, hypothesis, options)
    print(
        "%-15s : value = %7.3f  p = %.4f"
        % (options.statistic + "/" + options.weighting, report.value, report.p_value)
    )
print()
print("small p-values flag the broken symmetry; the max statistic also")
print("points at the offending entry since it is the largest residual.")
