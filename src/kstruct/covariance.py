"""Covariance estimation for the Kendall correlation vector.

The sampling covariance of tau_hat is estimated by the jackknife built on
leave-one-out kernel averages,

    Sigma_hat = (4 / n^2) * sum_i (tau^{(i)} - tau_hat)(tau^{(i)} - tau_hat)^T,

which is positive semidefinite by construction and consistent (times n)
for the asymptotic covariance.  Under partial exchangeability the
population covariance is constant on the orbits of group-respecting
variable permutations, and the structured estimator is the orbit
average of the jackknife.  It is never formed densely: the average lies
in the commutant of the groups' permutations, so it is held as the
small isotypic quotients of ``sblock`` (one entry per orbit class),
computed in O(n p) from per-variable, per-partner-group sums of the
centred leave-one-out matrix.  Full exchangeability is the one-group
partition, whose three 1 x 1 quotients are the eigenvalues of the
overlap-class (S-block) form.

The unstructured (dense) jackknife is (4/n^2) D'D with D the n x p
centred leave-one-out matrix, so its rank is at most n - 1.  It is held
as D and formed only if its matrix is read.  Its spectral factor comes
from one thin SVD of D in O(n p min(n, p)), and every design-route
consumer (weighted projection, whitening, null draws) works from that
factor.

Also here: the spectral factor (w, V, keep) of a PSD matrix with its
pseudo-powers, and a Monte Carlo evaluator for the population covariance
coefficients of an exchangeable copula.
"""

from dataclasses import dataclass

import numpy as np

from .indexing import Partition
from .kendall import tau_and_leave_one_out
from .sblock import (
    Spectrum,
    _overlap_map,
    partition_materialize,
    partition_quotients,
    rank_mask,
)

__all__ = [
    "CovarianceEstimate",
    "PSDFactor",
    "jackknife_cov",
    "structured_jackknife_exchangeable",
    "structured_jackknife_partition",
    "population_sigma_mc",
    "PopulationSigma",
]

class PSDFactor:
    """Spectral factor of a symmetric PSD matrix A = V diag(w) V'.

    ``V`` has orthonormal columns (p x r, r <= p) and ``keep`` marks the
    eigenvalues that ``sblock.rank_mask`` counts, given ``size`` and
    ``norm`` (p and the largest eigenvalue by default); pseudo-powers
    use only those (the Moore-Penrose convention), so a factor with no
    kept eigenvalue stands for the zero matrix.
    """

    def __init__(self, w, V, size=None, norm=None):
        self.w = np.asarray(w, dtype=float)
        self.V = V
        self.p = V.shape[0]
        self.keep = rank_mask(self.w, self.p if size is None else size, norm)

    @classmethod
    def of_matrix(cls, matrix):
        """Factor of a dense symmetric matrix, by ``eigh``."""
        A = np.asarray(matrix, dtype=float)
        return cls(*np.linalg.eigh((A + A.T) / 2.0))

    @classmethod
    def of_rows(cls, Y, scale, norm=None):
        """Factor of scale * Y'Y from one thin SVD of the n x p matrix Y,
        without forming the p x p product; ``norm`` as for the rank rule."""
        _, s, Vt = np.linalg.svd(Y, full_matrices=False)
        return cls(scale * s**2, Vt.T, max(Y.shape), norm)

    @property
    def spectrum(self):
        return Spectrum(self.w, np.ones(self.w.size, dtype=int))

    def apply(self, v, exponent):
        """A^exponent v for a length-p vector or an (N, p) stack of rows."""
        Vk = self.V[:, self.keep]
        return ((v @ Vk) * self.w[self.keep] ** exponent) @ Vk.T


class CovarianceEstimate:
    """A covariance estimate for tau_hat.

    kind is "dense" (``matrix`` set, or the centred leave-one-out matrix
    ``rows`` D with matrix (4/n^2) D'D) or "partition" (``quotients``
    set: the isotypic quotients of a matrix constant on the orbits of
    ``partition``).  ``matrix`` is materialized on first read.
    ``factor`` is the form that whitens, answering ``keep``, ``spectrum``
    and ``apply``: the quotients, or a PSDFactor built on first use (from
    the thin SVD of D when D is held).  ``s`` holds the overlap-class
    coefficients (s0, s1, s2) of a fully exchangeable estimate and is
    None otherwise.  The estimate is on the scale of cov(tau_hat);
    multiply by n for the asymptotic matrix.
    """

    def __init__(self, kind, d, n, matrix=None, partition=None,
                 quotients=None, rows=None):
        self.kind = kind
        self.d = d
        self.n = n
        self._matrix = matrix
        self.s = None
        self.partition = partition
        self.quotients = quotients
        self.rows = rows
        self._factor = None

    @property
    def matrix(self):
        if self._matrix is None and self.quotients is not None:
            self._matrix = partition_materialize(self.quotients)
        elif self._matrix is None and self.rows is not None:
            self._matrix = (4.0 / self.n**2) * (self.rows.T @ self.rows)
        return self._matrix

    @property
    def factor(self):
        if self.quotients is not None:
            return self.quotients
        if self._factor is None:
            if self.rows is not None:
                self._factor = PSDFactor.of_rows(self.rows, 4.0 / self.n**2)
            else:
                self._factor = PSDFactor.of_matrix(self.matrix)
        return self._factor

    def dense(self):
        return self.matrix


def jackknife_cov(data, ties="error", tie_seed=0, precomputed=None):
    """Dense jackknife covariance estimate of tau_hat, held as its rows.

    ``precomputed`` may carry (tau, loo) from tau_and_leave_one_out to
    avoid recomputing the O(n^2 p) pass.
    """
    if precomputed is None:
        precomputed = tau_and_leave_one_out(data, ties=ties, tie_seed=tie_seed)
    tau, loo = precomputed
    D = loo - tau
    n, p = D.shape
    d = int(round((1 + np.sqrt(1 + 8 * p)) / 2))
    return CovarianceEstimate(kind="dense", d=d, n=n, rows=D)


def structured_jackknife_exchangeable(data, ties="error", tie_seed=0, precomputed=None):
    """Structured jackknife under full exchangeability: the estimate of
    ``structured_jackknife_partition`` over one group, in O(n p).

    Its three 1 x 1 quotients are the eigenvalues (delta_1, delta_2,
    delta_3) of the class-averaged dense jackknife, and ``.s`` holds the
    averages (s0, s1, s2) over the three overlap classes, solved from
    them.  Requires d >= 4: below that some overlap class is empty.
    """
    if precomputed is None:
        precomputed = tau_and_leave_one_out(data, ties=ties, tie_seed=tie_seed)
    p = precomputed[1].shape[1]
    d = int(round((1 + np.sqrt(1 + 8 * p)) / 2))
    if d < 4:
        raise ValueError(
            "exchangeable structured jackknife needs d >= 4, got d=%d" % d
        )
    est = structured_jackknife_partition(
        None, Partition.exchangeable(d), precomputed=precomputed
    )
    q = est.quotients
    deltas = [q.trivial[0, 0], q.standard[0][0, 0], q.remainder[0]]
    est.s = np.linalg.solve(_overlap_map(d), deltas)
    return est


def structured_jackknife_partition(
    data, partition, ties="error", tie_seed=0, precomputed=None
):
    """Jackknife estimate averaged over the orbit classes of a partition.

    Returns the isotypic quotients of the average (``sblock``), computed
    in O(n p) without the dense jackknife.  With a single group this is
    the exchangeable estimator; with all-singleton groups every entry is
    its own class and the dense estimate is reproduced.
    """
    if precomputed is None:
        if np.asarray(data).shape[0] < 3:
            raise ValueError("partition-structured jackknife needs n >= 3")
        tau, loo = tau_and_leave_one_out(data, ties=ties, tie_seed=tie_seed)
    else:
        tau, loo = precomputed
    n, p = loo.shape
    if n < 3:
        raise ValueError("partition-structured jackknife needs n >= 3")
    d = int(round((1 + np.sqrt(1 + 8 * p)) / 2))
    if partition.d != d:
        raise ValueError(
            "partition is over d=%d variables, data has d=%d" % (partition.d, d)
        )
    quotients = partition_quotients(loo - tau, partition, 4.0 / n**2)
    return CovarianceEstimate(
        kind="partition", d=d, n=n, partition=partition, quotients=quotients
    )


@dataclass
class PopulationSigma:
    """Monte Carlo estimate of the exchangeable covariance coefficients."""

    sigma: np.ndarray
    sigma_se: np.ndarray
    sigma_n: np.ndarray = None
    sigma_n_se: np.ndarray = None
    beta: float = None
    n: int = None
    reps: int = 0


def population_sigma_mc(copula_sampler, mc_reps, rng, n=None, batches=20):
    """Estimate the population covariance coefficients of an exchangeable
    copula by Monte Carlo.

    ``copula_sampler(rng, size)`` must return a (size, 4) array
    distributed as four exchangeable coordinates of the copula.  The
    coefficients sigma = (sigma_0, sigma_1, sigma_2) give the asymptotic
    covariance (entry sigma_c at overlap c); with ``n`` set, the exact
    finite-n coefficients are estimated as well.

    Each bivariate/trivariate/quadrivariate orthant probability entering
    the moments is replaced by the indicator of an independent copy
    falling inside the orthant, so no explicit distribution function is
    needed.  Standard errors come from ``batches`` batch means.
    """
    if mc_reps < 1000:
        raise ValueError("mc_reps must be at least 1000, got %d" % mc_reps)
    if batches < 2 or mc_reps // batches < 1:
        raise ValueError("need at least 2 batches with at least 1 draw each")
    per = mc_reps // batches

    sig_batches = np.empty((batches, 3))
    sign_batches = np.empty((batches, 3)) if n is not None else None
    beta_acc = 0.0

    for b in range(batches):
        U = np.asarray(copula_sampler(rng, per), dtype=float)
        V = np.asarray(copula_sampler(rng, per), dtype=float)
        W = np.asarray(copula_sampler(rng, per), dtype=float)
        if U.shape != (per, 4) or V.shape != (per, 4) or W.shape != (per, 4):
            raise ValueError("copula_sampler must return a (size, 4) array")

        # orthant indicators of the independent copies at the U draw
        def lower(M, u_cols, m_count):
            ind = np.ones(per, dtype=bool)
            for c in range(m_count):
                ind &= M[:, c] <= U[:, u_cols[c]]
            return ind

        def upper2(M, u_cols):
            return (M[:, 0] > U[:, u_cols[0]]) & (M[:, 1] > U[:, u_cols[1]])

        c12_v = lower(V, (0, 1), 2)
        cb12_v = upper2(V, (0, 1))
        c12_w = lower(W, (0, 1), 2)
        cb12_w = upper2(W, (0, 1))
        c34_w = lower(W, (2, 3), 2)
        cb34_w = upper2(W, (2, 3))
        c23_w = lower(W, (1, 2), 2)
        cb23_w = upper2(W, (1, 2))
        c3_v = lower(V, (0, 1, 2), 3)
        c4_v = lower(V, (0, 1, 2, 3), 4)

        # overlap-2: both kernel factors at the pair (U1, U2)
        t2 = [
            np.mean(c12_v & c12_w),
            np.mean(cb12_v & c12_w),
            np.mean(c12_v & cb12_w),
            np.mean(cb12_v & cb12_w),
            np.mean(c12_v),  # the bivariate moment, also gives beta
            0.0,
        ]
        # overlap-1: pairs (U1, U2) and (U2, U3)
        t1 = [
            np.mean(c12_v & c23_w),
            np.mean(cb12_v & c23_w),
            np.mean(c12_v & cb23_w),
            np.mean(cb12_v & cb23_w),
            np.mean(c3_v),
            0.0,
        ]
        # overlap-0: pairs (U1, U2) and (U3, U4)
        t0 = [
            np.mean(c12_v & c34_w),
            np.mean(cb12_v & c34_w),
            np.mean(c12_v & cb34_w),
            np.mean(cb12_v & cb34_w),
            np.mean(c4_v),
            np.mean(c12_v.astype(float) - 2.0 * c3_v + c4_v),
        ]

        beta_b = 4.0 * t2[4] - 1.0
        beta_acc += beta_b
        shift = 4.0 * (beta_b + 1.0) ** 2
        for c, t in enumerate((t0, t1, t2)):
            sig_batches[b, c] = 16.0 * sum(t[:4]) - shift
        if n is not None:
            nn = float(n)
            fac = 16.0 / (nn * (nn - 1.0))
            tail = 2.0 * (2.0 * nn - 3.0) / (nn * (nn - 1.0)) * (beta_b + 1.0) ** 2
            for c, t in enumerate((t0, t1, t2)):
                sign_batches[b, c] = (
                    fac * ((nn - 2.0) * sum(t[:4]) + t[4] + t[5]) - tail
                )

    sigma = sig_batches.mean(axis=0)
    sigma_se = sig_batches.std(axis=0, ddof=1) / np.sqrt(batches)
    out = PopulationSigma(
        sigma=sigma,
        sigma_se=sigma_se,
        beta=beta_acc / batches,
        n=n,
        reps=per * batches,
    )
    if n is not None:
        out.sigma_n = sign_batches.mean(axis=0)
        out.sigma_n_se = sign_batches.std(axis=0, ddof=1) / np.sqrt(batches)
    return out

