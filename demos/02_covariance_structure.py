"""The structured jackknife covariance and its Monte Carlo oracle.

The jackknife covariance of tau_hat is a p x p matrix, but under an
exchangeable null its entries depend only on how many variables two
pairs share (0, 1 or 2).  Averaging the dense estimate over those three
classes is exactly what the O(n p) structured estimator computes; this
script verifies the match, prints the projected diagonal against its
lower bound, then checks the estimator against the known population
value for independent data.

Run:  python3 demos/02_covariance_structure.py
"""

import numpy as np

from kstruct import (
    Partition,
    block_membership_matrix,
    check_design_conditions,
    jackknife_cov,
    population_sigma_mc,
    structured_jackknife_partition,
)
from kstruct.indexing import overlap_count, pair_count

rng = np.random.default_rng(7)
n, d = 100, 5
p = pair_count(d)
X = rng.standard_normal((n, d))

# --- dense vs structured -----------------------------------------------

dense = jackknife_cov(X).matrix
est = structured_jackknife_partition(X, Partition.exchangeable(d))

sums = np.zeros(3)
counts = np.zeros(3)
for k in range(p):
    for l in range(p):
        c = overlap_count(k + 1, l + 1)
        sums[c] += dense[k, l]
        counts[c] += 1
class_means = sums / counts

print("dense jackknife averaged over overlap classes:", np.round(class_means, 6))
print("structured estimator coefficients (s0,s1,s2):", np.round(est.s, 6))
print("max difference: %.2e (identical up to rounding)" % np.abs(est.s - class_means).max())
print()

# --- the projected diagonal under full exchangeability ------------------

# Projecting off the all-ones design leaves a covariance whose diagonal is
# constant, s2 - delta_1/p, and bounded below by (2/3)(s2 - s1) for every
# d: the Gaussian approximation of the max statistic needs it to stay
# away from zero as d grows.
cond = check_design_conditions(block_membership_matrix(Partition.exchangeable(d)), sigma=est)
print("projected diagonal: %.6f, lower bound (2/3)(s2 - s1): %.6f"
      % (cond["projected_diag_value"], cond["projected_diag_lower"]))
print()

# --- against the population value --------------------------------------

# For independent continuous data the variance of a single tau_hat entry
# is the classical 2(2n+3)... formula; the asymptotic diagonal
# coefficient is 4/9.  The Monte Carlo oracle estimates all three
# coefficients from nothing but a sampler of the copula.


def independence_copula(rng, size):
    return rng.random((size, 4))


oracle = population_sigma_mc(independence_copula, 200_000, np.random.default_rng(3), n=n)
print("asymptotic (sigma_0, sigma_1, sigma_2) by Monte Carlo:", np.round(oracle.sigma, 4))
print("theory says (0, 0, 4/9) =", (0.0, 0.0, round(4 / 9, 4)))
exact_var = 2.0 * (2 * n + 5) / (9.0 * n * (n - 1))
print("finite-n variance of one entry: MC %.6f vs exact %.6f"
      % (oracle.sigma_n[2], exact_var))
print()

# n * s2 from data should approach sigma_2 = 4/9 as n grows
print("n * s2 from the structured jackknife: %.4f (population 4/9 = %.4f)"
      % (n * est.s[2], 4 / 9))
