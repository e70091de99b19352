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
overlap-class (S-block) form; its coefficients (s0, s1, s2) are solved
from them.

The unstructured (dense) jackknife is (4/n^2) D'D with D the n x p
centred leave-one-out matrix, so its rank is at most n - 1.  It is held
as D and formed only if its matrix is read.  Its spectral factor comes
from one thin SVD of D in O(n p min(n, p)), and every design-route
consumer (weighted projection, whitening, null draws) works from that
factor.

An estimate holds D and any quotients, and derives every other form
from them.  D is the sample's own ``kendall.LeaveOneOut``: the exact
integer row sums of the kernel pass, from which the quotients read D a
chunk at a time, so a structured estimate never forms D.  A dense
estimate's matrix and SVD, and the bootstrap's projected rows, read D
whole, which the LeaveOneOut forms once, read-only, for every estimate
of the sample.  An estimate holds the LeaveOneOut, never the sample, so
no reference cycle keeps a dropped sample's arrays alive.  An estimate
is a value of its sample: the first estimate of a KendallSample (dense,
or structured under a given Partition) is kept on the sample while it
lives, and every later test or estimate of that sample shares it, with
what the estimate builds on first use (the quotients'
eigendecomposition and pseudo-powers, the thin SVD, the projected null
law of ``testing``).  The shared arrays are read-only.  A raw array is
ranked into a fresh sample, so it shares nothing.

Also here: the spectral factor (w, V, keep) of a PSD matrix with its
pseudo-powers, and a Monte Carlo evaluator for the population covariance
coefficients of an exchangeable copula.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kendall import KendallSample
from .sblock import (
    Spectrum,
    _overlap_map,
    partition_apply,
    partition_quotients,
    rank_mask,
)

__all__ = [
    "CovarianceEstimate",
    "PSDFactor",
    "jackknife_cov",
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
        self._powers = {}

    @classmethod
    def of_rows(cls, Y, scale, norm=None):
        """Factor of scale * Y'Y from one thin SVD of the n x p matrix Y,
        without forming the p x p product; ``norm`` as for the rank rule."""
        _, s, Vt = np.linalg.svd(Y, full_matrices=False)
        return cls(scale * s**2, Vt.T, max(Y.shape), norm)

    @property
    def spectrum(self):
        return Spectrum(self.w, np.ones(self.w.size, dtype=int))

    @cached_property
    def _kept_columns(self):
        return self.V[:, self.keep]

    def apply(self, v, exponent, out=None, work=None):
        """A^exponent v for a length-p vector or an (N, p) stack of rows.
        The kept columns of V and each power of their eigenvalues are
        taken once, so colouring block by block does not copy V.  The
        result is written to ``out`` (shaped like v, and v itself
        allowed) or to a fresh array; ``work``, a flat float64 array of
        at least ``_work_entries(N)`` entries, holds the coefficients on
        the kept columns, which are otherwise allocated."""
        if exponent not in self._powers:
            self._powers[exponent] = self.w[self.keep] ** exponent
        Vk = self._kept_columns
        C = None
        if work is not None:
            shape = np.shape(v)[:-1] + Vk.shape[1:]
            C = work[: math.prod(shape)].reshape(shape)
        C = np.matmul(v, Vk, out=C)
        C *= self._powers[exponent]
        return np.matmul(C, Vk.T, out=out)

    def _work_entries(self, rows):
        return rows * self._kept_columns.shape[1]


class CovarianceEstimate:
    """A covariance estimate for tau_hat, made from ``leave_one_out``, the
    ``kendall.LeaveOneOut`` of the n x p centred leave-one-out matrix D:
    the dense jackknife (4/n^2) D'D (kind "dense"), or with
    ``quotients`` its orbit average under a partition (kind
    "partition").  ``rows`` reads D whole (formed on the first read of
    any estimate of the sample), and ``n`` and ``kind`` are read from
    these; each other form is derived once, on first read, and
    read-only: ``matrix``; ``factor``, the form that whitens (the
    quotients, or a PSDFactor from the thin SVD of D); and ``s``, the
    overlap-class coefficients (s0, s1, s2) of a one-group estimate
    with d >= 4, None for any other.  The estimate is on the scale of
    cov(tau_hat); multiply by n for the asymptotic matrix.
    """

    def __init__(self, leave_one_out, quotients=None):
        self.leave_one_out = leave_one_out
        self.quotients = quotients

    @property
    def rows(self):
        return self.leave_one_out.rows

    @property
    def n(self):
        return self.leave_one_out.shape[0]

    @property
    def kind(self):
        return "dense" if self.quotients is None else "partition"

    @cached_property
    def matrix(self):
        if self.quotients is not None:
            M = partition_apply(self.quotients, np.eye(self.leave_one_out.shape[1]))
        else:
            M = (4.0 / self.n**2) * (self.rows.T @ self.rows)
        M.flags.writeable = False
        return M

    @cached_property
    def factor(self):
        if self.quotients is not None:
            return self.quotients
        return PSDFactor.of_rows(self.rows, 4.0 / self.n**2)

    @cached_property
    def s(self):
        # the three 1 x 1 quotients are (delta_1, delta_2, delta_3)
        q = self.quotients
        if q is None or q.partition.n_groups != 1 or q.partition.d < 4:
            return None
        deltas = [q.trivial[0, 0], q.standard[0][0, 0], q.remainder[0]]
        s = np.linalg.solve(_overlap_map(q.partition.d), deltas)
        s.flags.writeable = False
        return s

    def dense(self):
        return self.matrix


def _kept(owner, key, build):
    """``build()``, made once per ``owner`` and ``key`` and kept on the
    owner while it lives: the estimates of a KendallSample, and what
    ``testing`` derives from an estimate.  Threads that race on a first
    call each build an equal value."""
    kept = owner.__dict__.setdefault("_kept", {})
    if key not in kept:
        kept[key] = build()
    return kept[key]


def jackknife_cov(data):
    """Dense jackknife covariance estimate of tau_hat, held as its rows.

    ``data`` is an (n, d) array, ranked with ties="error", or a
    KendallSample, which is how jittered data comes in; a sample keeps
    its estimate, so every call on it returns the same one.  It holds
    the sample's ``leave_one_out``, so its rows are the sample's
    ``rows``, not a copy of them.
    """
    if np.shape(data)[0] < 3:
        raise ValueError("dense jackknife needs n >= 3")
    sample = KendallSample.of(data)
    return _kept(sample, "dense", lambda: CovarianceEstimate(sample.leave_one_out))


def structured_jackknife_partition(data, partition):
    """Jackknife estimate averaged over the orbit classes of a partition.

    Returns the isotypic quotients of the average (``sblock``), computed
    in O(n p) without the dense jackknife.  With a single group
    (``Partition.exchangeable(d)``) this is the exchangeable estimator,
    whose ``.s`` holds (s0, s1, s2) when d >= 4; with all-singleton
    groups every entry is its own class and the dense estimate is
    reproduced.  ``data`` is an (n, d) array or a KendallSample, as for
    ``jackknife_cov``; a sample keeps one estimate per partition.
    """
    if np.shape(data)[0] < 3:
        raise ValueError("partition-structured jackknife needs n >= 3")
    sample = KendallSample.of(data)
    n, d = sample.shape
    if partition.d != d:
        raise ValueError(
            "partition is over d=%d variables, data has d=%d" % (partition.d, d)
        )

    def build():
        D = sample.leave_one_out  # averaged over the orbits, a chunk at a time
        return CovarianceEstimate(D, partition_quotients(D, partition, 4.0 / n**2))

    return _kept(sample, partition, build)


# batch means of ``population_sigma_mc``, for its standard errors
_MC_BATCHES = 20


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


def population_sigma_mc(copula_sampler, mc_reps, rng, n=None):
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
    needed.  Standard errors come from ``_MC_BATCHES`` batch means.
    """
    if mc_reps < 1000:
        raise ValueError("mc_reps must be at least 1000, got %d" % mc_reps)
    per = mc_reps // _MC_BATCHES
    if n is not None:
        nn = float(n)
        fac = 16.0 / (nn * (nn - 1.0))
        tail = 2.0 * (2.0 * nn - 3.0) / (nn * (nn - 1.0))

    sig_batches = np.empty((_MC_BATCHES, 3))
    sign_batches = np.empty((_MC_BATCHES, 3))
    beta_acc = 0.0

    for b in range(_MC_BATCHES):
        U, V, W = (np.asarray(copula_sampler(rng, per), dtype=float) for _ in range(3))
        if any(M.shape != (per, 4) for M in (U, V, W)):
            raise ValueError("copula_sampler must return a (size, 4) array")

        # orthant indicators of the independent copy V at the U draw:
        # below (U1, U2), (U1, U2, U3) and (U1, ..., U4), and above (U1, U2)
        below = V <= U
        c12 = below[:, 0] & below[:, 1]
        c123 = c12 & below[:, 2]
        c1234 = c123 & below[:, 3]
        cb12 = (V[:, 0] > U[:, 0]) & (V[:, 1] > U[:, 1])
        beta_b = 4.0 * np.mean(c12) - 1.0  # the bivariate moment gives beta
        beta_acc += beta_b
        square = (beta_b + 1.0) ** 2
        # overlap c: the kernel factors at (U1, U2) and at W's pair (U3, U4),
        # (U2, U3) or (U1, U2); the joint orthant of V enters the finite-n form
        for c, (i, j), joint in ((0, (2, 3), c1234), (1, (1, 2), c123), (2, (0, 1), c12)):
            cw = (W[:, 0] <= U[:, i]) & (W[:, 1] <= U[:, j])
            cbw = (W[:, 0] > U[:, i]) & (W[:, 1] > U[:, j])
            moment = sum(np.mean(v & w) for w in (cw, cbw) for v in (c12, cb12))
            sig_batches[b, c] = 16.0 * moment - 4.0 * square
            if n is not None:
                extra = np.mean(c12.astype(float) - 2.0 * c123 + c1234) if c == 0 else 0.0
                sign_batches[b, c] = (
                    fac * ((nn - 2.0) * moment + np.mean(joint) + extra) - tail * square
                )

    def mean_and_se(values):
        return values.mean(axis=0), values.std(axis=0, ddof=1) / np.sqrt(_MC_BATCHES)

    out = PopulationSigma(*mean_and_se(sig_batches), beta=beta_acc / _MC_BATCHES, n=n,
                          reps=per * _MC_BATCHES)
    if n is not None:
        out.sigma_n, out.sigma_n_se = mean_and_se(sign_batches)
    return out

