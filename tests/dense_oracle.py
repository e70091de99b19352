"""Dense eigh-based reference for the design-matrix route of ``run_test``.

This is the route as it was computed before the jackknife was held as
its n x p leave-one-out factor: the p x p estimate (4/n^2) D'D is formed
and every consumer eigendecomposes a p x p matrix -- the GLS weight,
the whitening roots, max/sigma's C = Sigma^{-1/2} B, the spectrum of
n (I - Gamma) Sigma (I - Gamma) and its principal root for the Gaussian
max draws.  Monte Carlo draws are taken as one (N, p) or (N, n) block,
in the order the fast route consumes the random stream row block by
row block, so both give the same p-value.  Tests compare the fast
route against it.

It also holds the dense S-block S(s), the p x p matrix with entry s_c
where two pairs share c variables, and the same matrix as one-group
partition quotients, the only form the package computes with.
"""

import numpy as np

import kstruct.testing as kt
from kstruct.indexing import Partition, _pairs0
from kstruct.kendall import tau_and_leave_one_out
from kstruct.projection import pseudoinverse_design
from kstruct.sblock import PartitionQuotients, SingularError, eigenvalues

DROP_RTOL = 1e-10


def materialize(s, d):
    """Dense p x p S-block with entry s_c at overlap count c, s = (s0, s1, s2)."""
    ii0, jj0 = _pairs0(d)
    a, b = ii0[:, None], jj0[:, None]
    overlap = (a == a.T).astype(np.int8) + (a == b.T) + (b == a.T) + (b == b.T)
    return np.choose(overlap, tuple(float(c) for c in s))


def one_group(s, d):
    """S(s) as one-group partition quotients: its eigenvalues delta_1,
    delta_2 and delta_3 on the trivial, standard (none for d = 2) and
    remainder parts."""
    d1, d2, d3 = eigenvalues(s, d).values
    standard = np.array([[d2]]) if d >= 3 else np.zeros((0, 0))
    return PartitionQuotients(
        Partition.exchangeable(d), np.array([[d1]]), [standard], np.array([d3])
    )


def _eig(A):
    A = np.asarray(A, dtype=float)
    w, V = np.linalg.eigh((A + A.T) / 2.0)
    top = max(float(w.max()), 0.0)
    return w, V, w > DROP_RTOL * top


def dense_power(A, exponent):
    """Principal pseudo-power on the eigenvalues above 1e-10 x the largest."""
    w, V, keep = _eig(A)
    Vk = V[:, keep]
    return (Vk * w[keep] ** exponent) @ Vk.T


def dense_whiten(A, r, exponent):
    """A^exponent r; SingularError when A has no kept eigenvalue."""
    w, V, keep = _eig(A)
    if not keep.any():
        raise SingularError("weighting matrix has zero rank")
    Vk = V[:, keep]
    return (Vk * w[keep] ** exponent) @ (Vk.T @ r)


def dense_spectrum(matrix):
    """Merged positive spectrum of a symmetric matrix, via ``eigvalsh``."""
    matrix = np.asarray(matrix, dtype=float)
    w = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    return kt._merged_spectrum(w, np.ones(w.size, dtype=int))


def dense_gls(B, A):
    """B (B' W B)^{-1} B' W with W the pseudo-inverse of A, as p x p."""
    W = dense_power(A, -1.0)
    M = B.T @ W @ B
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    outside = np.linalg.norm(dense_power(A, 0.0) @ B) <= 1e-8 * np.linalg.norm(B)
    if outside or w[-1] <= 0.0 or w[0] <= 1e-12 * w[-1]:
        raise SingularError(
            "weighted design normal matrix is singular; the covariance "
            "weight is degenerate on the design's column space"
        )
    return B @ np.linalg.solve(M, B.T @ W)


def _bootstrap(D, P, N, rng):
    n = D.shape[0]
    W = rng.standard_normal((N, n))
    return (2.0 / (np.sqrt(n) * (n - 1.0))) * (W @ ((n - 1.0) * D)) @ P


def dense_design_report(X, design, opts):
    """(method, value, p_value, warnings, eigenvalues, scale) of the
    design route, every p x p matrix formed and eigendecomposed densely.

    ``scale`` bounds the statistic of any residual no longer than tau_hat
    (||tau_hat||^2 ||A^-1|| or ||tau_hat|| ||A^-1/2||): the size of the
    terms whose cancellation gives the value, so a value that is zero in
    exact arithmetic is rounding noise of about machine epsilon times it.
    """
    opts.validate()
    rng = np.random.default_rng(opts.seed)
    tau, loo = tau_and_leave_one_out(X)
    n = X.shape[0]
    p = tau.shape[0]
    B = design.matrix
    D = loo - tau
    sigma = (4.0 / n**2) * (D.T @ D)
    ortho = B @ pseudoinverse_design(design)
    msgs = []
    if opts.weighting == "sigma":
        msgs.append(kt._DISTORTION_NOTE)
        try:
            gamma = dense_gls(B, sigma)
        except SingularError:
            if not kt._degenerate_fit(tau, ortho @ tau):
                raise
            gamma = ortho
        weight = sigma
    else:
        gamma = ortho
        weight = None
    exponent = -1.0 if opts.statistic == "euclidean" else -0.5

    r = tau - gamma @ tau
    try:
        z = n ** -exponent * r if weight is None else dense_whiten(weight, r, exponent)
        value = float(r @ z) if opts.statistic == "euclidean" else float(np.abs(z).max())
    except SingularError:
        if not kt._degenerate_fit(tau, gamma @ tau):
            raise
        value = 0.0
        msgs.append(
            "covariance estimate is degenerate and the hypothesis fits "
            "exactly; statistic treated as 0"
        )

    # the value's size bound ||A^exponent|| ||tau||^(-2 exponent)
    if weight is None:
        norm = n ** -exponent
    else:
        w, _, keep = _eig(weight)
        norm = float(w[keep].min(initial=np.inf)) ** exponent
    scale = norm * float(np.linalg.norm(tau)) ** (-2.0 * exponent)

    N = int(opts.replicates)
    spectrum = None
    P = np.eye(p) - gamma
    if opts.weighting == "sigma" and opts.statistic == "euclidean":
        method, p_value, N = "chi-square", kt.pvalue_chisq(value, p, design.L), None
    elif opts.weighting == "sigma":
        method = "max-mc"
        C = dense_power(sigma, -0.5) @ B
        Adag = np.eye(p) - C @ np.linalg.pinv(C.T @ C, rcond=1e-10) @ C.T
        G = rng.standard_normal((N, p)) @ Adag
        p_value = int((np.abs(G).max(axis=1) > value).sum()) / N
    else:
        target = n * (P @ sigma @ P)
        null_spectrum = dense_spectrum(target)
        if not null_spectrum:
            msgs.append(kt._ZERO_NULL_NOTE)
        boot = opts.null_draws == "bootstrap" or (
            opts.statistic == "max" and opts.null_draws == "auto"
        )
        if boot:
            method = "bootstrap-mc"
            Z = _bootstrap(D, P, N, rng)
            if opts.statistic == "euclidean":
                stat = np.einsum("ij,ij->i", Z, Z)
            else:
                stat = np.abs(Z).max(axis=1)
            p_value = int((stat > value).sum()) / N
        elif opts.statistic == "euclidean":
            method, spectrum = "mixture-mc", null_spectrum
            if not spectrum:
                p_value = 1.0 if value <= 0.0 else 0.0
            else:
                p_value = kt.pvalue_mixture_mc(value, spectrum, N, rng)
        else:
            method = "max-mc"
            G = rng.standard_normal((N, p)) @ dense_power(target, 0.5)
            p_value = int((np.abs(G).max(axis=1) > value).sum()) / N
    if value == 0.0:
        p_value = 1.0
    return method, value, p_value, msgs, spectrum, scale
