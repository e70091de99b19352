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
from kstruct.sblock import PartitionQuotients, SingularError, eigenvalues, rank_mask


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


def _eig(A, size=None, norm=None):
    """eigh of A and the eigenvalues the package's rank rule keeps."""
    A = np.asarray(A, dtype=float)
    w, V = np.linalg.eigh((A + A.T) / 2.0)
    return w, V, rank_mask(w, len(w) if size is None else size, norm)


def dense_power(A, exponent, size=None, norm=None):
    """Principal pseudo-power on the eigenvalues the rank rule keeps."""
    w, V, keep = _eig(A, size, norm)
    Vk = V[:, keep]
    return (Vk * w[keep] ** exponent) @ Vk.T


def dense_whiten(A, r, exponent):
    """A^exponent r; SingularError when A has no kept eigenvalue."""
    w, V, keep = _eig(A)
    if not keep.any():
        raise SingularError("weighting matrix has zero rank")
    Vk = V[:, keep]
    return (Vk * w[keep] ** exponent) @ (Vk.T @ r)


def dense_spectrum(matrix, size=None, norm=None):
    """Merged kept spectrum of a symmetric matrix, via ``eigvalsh``."""
    matrix = np.asarray(matrix, dtype=float)
    w = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    w = w[rank_mask(w, len(w) if size is None else size, norm)]
    return kt._merged_spectrum(w, np.ones(w.size, dtype=int))


def _normal_norm(B, A):
    """||B||_F^2 ||A^+||: the bound on ||B' A^+ B|| that ranks it."""
    w, _, keep = _eig(A)
    return float((B * B).sum()) / float(w[keep].min(initial=np.inf))


def dense_gls(B, A):
    """R = (B' W B)^{-1} B' W, W the pseudo-inverse of A: the GLS
    projector is B R."""
    W = dense_power(A, -1.0)
    M = B.T @ W @ B
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    if not rank_mask(w, B.shape[0], _normal_norm(B, A)).all():
        raise SingularError(
            "weighted design normal matrix is singular; the covariance "
            "weight is degenerate on the design's column space"
        )
    return np.linalg.solve(M, B.T @ W)


def _bootstrap(D, P, N, rng):
    n = D.shape[0]
    W = rng.standard_normal((N, n))
    return (2.0 / (np.sqrt(n) * (n - 1.0))) * (W @ ((n - 1.0) * D)) @ P


def dense_design_report(X, design, opts):
    """(method, value, p_value, warnings, eigenvalues, scale) of the
    design route, every p x p matrix formed and eigendecomposed densely.

    ``scale`` bounds the statistic of any residual no longer than the
    terms whose cancellation gives it (t^2 ||A^-1|| or t ||A^-1/2||), so
    a value that is zero in exact arithmetic is rounding noise of about
    machine epsilon times it.  The residual is tau_hat - B x with x the
    fitted coefficients, so t is the larger of ||tau_hat|| and
    ||B|| ||x||, which exceeds ||tau_hat|| by up to the conditioning of
    the GLS normal matrix.
    """
    opts.validate()
    rng = np.random.default_rng(opts.seed)
    tau, loo = tau_and_leave_one_out(X)
    n = X.shape[0]
    p = tau.shape[0]
    B = design.matrix
    D = loo - tau
    sigma = (4.0 / n**2) * (D.T @ D)
    R = pseudoinverse_design(design)  # Gamma = B R
    msgs = []
    if opts.weighting == "sigma":
        msgs.append(kt._DISTORTION_NOTE)
        try:
            R = dense_gls(B, sigma)
        except SingularError:
            if not kt._degenerate_fit(tau, B @ (R @ tau)):
                raise
        weight = sigma
    else:
        weight = None
    gamma = B @ R
    exponent = -1.0 if opts.statistic == "euclidean" else -0.5

    r = tau - gamma @ tau
    exact = kt._degenerate_fit(tau, gamma @ tau)
    try:
        z = n ** -exponent * r if weight is None else dense_whiten(weight, r, exponent)
        value = float(r @ z) if opts.statistic == "euclidean" else float(np.abs(z).max())
    except SingularError:
        if not exact:
            raise
        msgs.append(
            "covariance estimate is degenerate and the hypothesis fits "
            "exactly; statistic treated as 0"
        )
    if exact:
        value = 0.0

    # the value's size bound ||A^exponent|| t^(-2 exponent)
    if weight is None:
        norm = n ** -exponent
    else:
        w, _, keep = _eig(weight)
        norm = float(w[keep].min(initial=np.inf)) ** exponent
    terms = max(np.linalg.norm(tau), np.linalg.norm(B, 2) * np.linalg.norm(R @ tau))
    scale = norm * float(terms) ** (-2.0 * exponent)

    N = int(opts.replicates)
    spectrum = None
    P = np.eye(p) - gamma
    if opts.weighting == "sigma" and opts.statistic == "euclidean":
        method, p_value, N = "chi-square", kt.pvalue_chisq(value, p, design.L), None
    elif opts.weighting == "sigma":
        method = "max-mc"
        C = dense_power(sigma, -0.5) @ B
        CtC_pinv = dense_power(C.T @ C, -1.0, p, _normal_norm(B, sigma))
        Adag = np.eye(p) - C @ CtC_pinv @ C.T
        G = rng.standard_normal((N, p)) @ Adag
        p_value = int((np.abs(G).max(axis=1) > value).sum()) / N
    else:
        # ranked against n trace(Sigma), from the unprojected estimate
        target = n * (P @ sigma @ P)
        rule = (max(n, p), n * np.trace(sigma))
        null_spectrum = dense_spectrum(target, *rule)
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
            G = rng.standard_normal((N, p)) @ dense_power(target, 0.5, *rule)
            p_value = int((np.abs(G).max(axis=1) > value).sum()) / N
    if value == 0.0:
        p_value = 1.0
    return method, value, p_value, msgs, spectrum, scale
