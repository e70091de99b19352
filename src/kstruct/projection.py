"""Projections onto hypothesized linear structures of the tau vector.

A hypothesis says tau lies in the column space of a p x L design B.  The
constrained estimate is theta_hat = Gamma tau_hat with Gamma either the
orthogonal projector B B^+ or, for a covariance weight A, the oblique
projector

    Gamma(A) = B (B^T A^{-1} B)^{-1} B^T A^{-1}.

For membership designs and covariances that share the hypothesis'
symmetry the two coincide, which is why ``run_test`` takes the
orthogonal projector for a Partition hypothesis (the test suite checks
the coincidence numerically).  The orthogonal projector has O(p)
closed forms: the grand mean for full exchangeability, per-class means
for partition designs, and the column-mean recombination

    (Gamma* v)_k = (d-1)/(d-2) (vbar_{i_k} + vbar_{j_k}) - d/(d-2) vbar

for the vertex-incidence design.

Every other projector is held as a rank-L product Gamma = B R with
R = B^+ (orthogonal) or R = (B' W B)^{-1} B' W (weighted), R an L x p
matrix, so applying it costs O(p L) per vector and no p x p matrix is
formed.  The weight W = A^+ is applied through the covariance's form:
for the dense jackknife, the spectral factor from one thin SVD of its
n x p centred leave-one-out matrix; for a partition estimate, its
quotients.
"""

import numpy as np

from .covariance import CovarianceEstimate
from .sblock import SingularError, eigenvalues, gamma_apply, gamma_star_apply, rank_mask

__all__ = [
    "RankDeficient",
    "ProjectionOperator",
    "pseudoinverse_design",
    "gamma_projection",
    "check_design_conditions",
]


class RankDeficient(ValueError):
    """The design matrix does not have full column rank."""


class ProjectionOperator:
    """An idempotent linear map on pair space.

    kind is one of "grand-mean" (averaging, exchangeable hypothesis),
    "class-mean" (membership/diagonal-free designs), "vertex"
    (column-mean recombination), "orthogonal" (B B^+) or "gls"
    (covariance-weighted, generally non-symmetric); the last two are
    given as ``factors`` (B, R), the map being B R.  apply() accepts a
    length-p vector or an (N, p) stack of row vectors.
    """

    def __init__(self, kind, p, factors=None, design=None, d=None):
        self.kind = kind
        self.p = p
        self.d = d
        self._factors = factors
        self._design = design

    def apply(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.p:
            raise ValueError("vector has length %d, expected %d" % (v.shape[-1], self.p))
        if self.kind == "grand-mean":
            return gamma_apply(v)
        if self.kind == "vertex":
            return gamma_star_apply(v, self.d)
        C, B = self._coefficients(v)
        return C @ B.T

    def _coefficients(self, v):
        """(R v, B) for a map B R; R v are the class means for "class-mean"."""
        if self.kind == "class-mean":
            B = self._design.matrix
            return v @ B / B.sum(axis=0), B
        B, R = self._factors
        return v @ R.T, B

    def _subtract(self, V, work):
        """V - Gamma V written over V, an (N, p) stack of rows, and
        returned, with the arithmetic of ``V - apply(V)``, for every kind
        but "vertex"; ``work``, a flat array of ``_work_entries(N)``
        entries, receives Gamma V unless it is the grand mean, which
        broadcasts."""
        if self.kind == "grand-mean":
            V -= V.mean(axis=-1, keepdims=True)
        else:
            C, B = self._coefficients(V)
            V -= np.matmul(C, B.T, out=work[: V.size].reshape(V.shape))
        return V

    def _work_entries(self, rows):
        return 0 if self.kind == "grand-mean" else rows * self.p

    def dense(self):
        return self.apply(np.eye(self.p)).T


def pseudoinverse_design(design):
    """Moore-Penrose pseudo-inverse of a design matrix (L x p).

    Membership-type designs (one nonzero per row, disjoint column
    supports) reduce to a column rescaling of B^T; the vertex-incidence
    design has the closed form B^T/(d-2) - J/((d-1)(d-2)).  Anything
    else goes through an SVD, with RankDeficient raised when the
    columns are linearly dependent.
    """
    B = design.matrix
    if design.kind in ("membership", "diagonal-free"):
        counts = B.sum(axis=0)
        return B.T / counts[:, None]
    if design.kind == "vertex-incidence":
        d = design.d
        return B.T / (d - 2.0) - 1.0 / ((d - 1.0) * (d - 2.0))
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    rank = int(rank_mask(s, design.p).sum())
    if rank < B.shape[1]:
        raise RankDeficient("design matrix has rank %d < %d columns" % (rank, B.shape[1]))
    return (Vt.T / s) @ U.T


def _orthogonal_operator(design):
    p = design.p
    if design.kind == "membership" and design.L == 1:
        return ProjectionOperator("grand-mean", p)
    if design.kind in ("membership", "diagonal-free"):
        return ProjectionOperator("class-mean", p, design=design)
    if design.kind == "vertex-incidence":
        return ProjectionOperator("vertex", p, d=design.d)
    return ProjectionOperator(
        "orthogonal", p, factors=(design.matrix, pseudoinverse_design(design))
    )


def gamma_projection(design, weight=None):
    """The projection onto col(B), optionally weighted by a covariance.

    ``weight=None`` gives the orthogonal projector B B^+.  A covariance
    form (the PSDFactor or PartitionQuotients of
    ``CovarianceEstimate.factor``) gives the weighted projector
    B (B' W B)^{-1} B' W with W its pseudo-inverse.
    """
    if weight is None:
        return _orthogonal_operator(design)
    B = design.matrix
    WB = weight.apply(B.T, -1.0).T
    M = B.T @ WB
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    # with col(B) orthogonal to the weight's range, M is rounding noise
    # of either sign, far below the bound on its norm
    if not rank_mask(w, design.p, _normal_norm(B, weight)).all():
        raise SingularError(
            "weighted design normal matrix is singular; the covariance "
            "weight is degenerate on the design's column space"
        )
    R = np.linalg.solve(M, WB.T)
    return ProjectionOperator("gls", design.p, factors=(B, R), d=design.d)


def _normal_norm(B, factor):
    """A bound on the norm of B' A^+ B, A the covariance form ``factor``:
    ||B||_F^2 times the largest kept eigenvalue of A^+ (0 if none is)."""
    kept = factor.spectrum.values[factor.keep]
    return float(np.einsum("ij,ij->", B, B)) / float(kept.min(initial=np.inf))


def check_design_conditions(design, sigma=None):
    """Diagnostics on a hypothesis' suitability for Gaussian approximation
    at large p.

    Returns a dict.  When every row of B has exactly one nonzero entry
    the row-collinearity bound 1 + (c/a)^2 is reported (a, c the
    smallest/largest nonzero magnitudes); membership designs give 2.
    ``sigma``, if given, is a fully exchangeable estimate over the
    design's d >= 4 variables (its ``.s``) or an exchangeable covariance
    triple (s0, s1, s2); anything else raises ValueError.  When it is
    given and the design is the all-ones column, the diagonal of the
    projected covariance (I - Gamma) Sigma (I - Gamma) is constant and
    both its exact value s2 - delta_1/p and the lower bound
    (2/3)(s2 - s1) are reported.
    """
    B = design.matrix
    out = {
        "p": design.p,
        "L": design.L,
        "one_nonzero_per_row": None,
        "design_row_bound": None,
        "projected_diag_value": None,
        "projected_diag_lower": None,
    }
    nz = B != 0.0
    counts = nz.sum(axis=1)
    out["one_nonzero_per_row"] = bool((counts == 1).all())
    if out["one_nonzero_per_row"]:
        mags = np.abs(B[nz])
        out["design_row_bound"] = 1.0 + (mags.max() / mags.min()) ** 2
    if sigma is not None:
        est = sigma if isinstance(sigma, CovarianceEstimate) else None
        s = np.asarray(sigma, dtype=float) if est is None else est.s
        part = None if est is None or est.quotients is None else est.quotients.partition
        if s is None and part is not None and part.n_groups == 1:
            raise ValueError(
                "sigma is a fully exchangeable estimate over d=%d variables; its "
                "(s0, s1, s2) need d >= 4" % part.d
            )
        if s is None or s.shape != (3,):
            raise ValueError(
                "sigma must be a fully exchangeable estimate or an (s0, s1, s2) triple"
            )
        if part is not None and part.d != design.d:
            raise ValueError(
                "sigma is an estimate over d=%d variables, the design is over d=%d"
                % (part.d, design.d)
            )
        is_ones = design.L == 1 and np.all(B == B[0, 0]) and B[0, 0] != 0.0
        if is_ones:
            d = design.d
            delta1 = eigenvalues(s, d).values[0]
            out["projected_diag_value"] = float(s[2] - delta1 / design.p)
            out["projected_diag_lower"] = float(2.0 / 3.0 * (s[2] - s[1]))
    return out
