"""Test statistics and p-value machinery.

Two statistics measure the misfit of tau_hat to the hypothesized linear
structure, both built from the whitened residual A^{-1/2}(tau_hat -
theta_hat): its squared Euclidean norm E and its max-norm M.  The
weighting A is either (1/n) I or an estimate of cov(tau_hat), and
A^{-1/2} always means the principal (symmetric) square root of the
pseudo-inverse -- the max statistic's entries depend on which root is
taken, so this choice is part of the definition.

P-values come from four schemes:

- a chi-square tail for E with covariance weighting (p - L degrees of
  freedom),
- Monte Carlo from a weighted chi-square mixture for E with identity
  weighting, the weights being the nonzero eigenvalues of the projected
  covariance (from the partition quotients for a Partition hypothesis,
  from one thin SVD of the projected jackknife rows for a design),
- Monte Carlo over Gaussian draws with the appropriate null covariance
  for M, and
- a Gaussian multiplier bootstrap that replays the jackknife residuals,
  targeting the same law without sampling from an estimated matrix.

Monte Carlo p-values use the plain exceedance proportion with a strict
inequality; a plus-one correction is available as an option but off by
default.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from ._version import __version__
from .covariance import (
    PSDFactor,
    jackknife_cov,
    psd_factor,
    structured_jackknife_partition,
)
from .indexing import DesignMatrix, Partition, block_membership_matrix, pair_count
from .kendall import _tied_columns, tau_and_leave_one_out
from .projection import ProjectionOperator, gamma_projection
from .sblock import (
    SingularError,
    partition_apply,
    partition_projected,
    partition_pseudo_power,
    partition_spectrum,
)

__all__ = [
    "TestOptions",
    "TestReport",
    "statistic_euclidean",
    "statistic_max",
    "pvalue_chisq",
    "pvalue_mixture_mc",
    "sample_null_gaussian",
    "multiplier_bootstrap_replicates",
    "run_test",
]

_MERGE_RTOL = 1e-8
_DROP_RTOL = 1e-10
# entries of one row block of Monte Carlo null draws (2 MB of float64):
# a block and its temporaries stay cache-sized and below the 4 MB at
# which NumPy asks for huge pages, so a test does not fault in fresh
# memory for its draws
_DRAW_BLOCK_ENTRIES = 2**18

_ZERO_NULL_NOTE = "projected covariance estimate is zero"
_DISTORTION_NOTE = (
    "covariance weighting with the unstructured jackknife is known to "
    "distort the level of design-matrix tests; rejection rates can far "
    "exceed the nominal level even under the null"
)


@dataclass
class TestOptions:
    """User choices for one test run.

    statistic: "euclidean" or "max".
    weighting: "sigma" (estimated covariance) or "identity" ((1/n) I).
    estimator: "structured" (partition hypotheses) or "jackknife"
        (design-matrix hypotheses).
    replicates: Monte Carlo draws for simulated p-values (>= 100).
    seed: required; every report echoes it.
    plus_one: use the conservative (1+hits)/(1+N) Monte Carlo p-value.
    ties: "error" or "jitter".
    null_draws: "auto", "gaussian", or "bootstrap" -- how Monte Carlo
        null replicates are produced when more than one scheme applies.
        Routes with a single scheme reject a choice they would ignore:
        euclidean/sigma (chi-square) takes only "auto", and max/sigma
        (Gaussian draws) does not take "bootstrap".
    """

    statistic: str = "euclidean"
    weighting: str = "sigma"
    estimator: str = "structured"
    replicates: int = 5000
    seed: int = None
    plus_one: bool = False
    ties: str = "error"
    tie_seed: int = 0
    null_draws: str = "auto"

    def validate(self):
        if self.statistic not in ("euclidean", "max"):
            raise ValueError("statistic must be 'euclidean' or 'max'")
        if self.weighting not in ("identity", "sigma"):
            raise ValueError("weighting must be 'identity' or 'sigma'")
        if self.estimator not in ("jackknife", "structured"):
            raise ValueError("estimator must be 'jackknife' or 'structured'")
        if int(self.replicates) < 100:
            raise ValueError("replicates must be at least 100")
        if self.seed is None:
            raise ValueError("a seed is required so reports are reproducible")
        if self.ties not in ("error", "jitter"):
            raise ValueError("ties must be 'error' or 'jitter'")
        if self.null_draws not in ("auto", "gaussian", "bootstrap"):
            raise ValueError("null_draws must be 'auto', 'gaussian' or 'bootstrap'")
        if self.weighting == "sigma" and self.null_draws != "auto":
            fixed = "chi-square" if self.statistic == "euclidean" else "gaussian"
            if self.null_draws != fixed:
                raise ValueError(
                    "null_draws=%r does not apply to statistic=%r, "
                    "weighting='sigma', whose null law is always %s"
                    % (self.null_draws, self.statistic, fixed)
                )

    def to_dict(self):
        return {
            "statistic": self.statistic,
            "weighting": self.weighting,
            "estimator": self.estimator,
            "replicates": int(self.replicates),
            "seed": int(self.seed) if self.seed is not None else None,
            "plus_one": bool(self.plus_one),
            "ties": self.ties,
            "tie_seed": int(self.tie_seed),
            "null_draws": self.null_draws,
        }


@dataclass
class TestReport:
    """Outcome of one test, JSON-serializable."""

    statistic: str
    weighting: str
    estimator: str
    value: float
    p_value: float
    method: str
    N: int
    seed: int
    df: int = None
    eigenvalues: list = None
    warnings: list = field(default_factory=list)
    hypothesis: dict = None
    n: int = None
    d: int = None
    p: int = None
    L: int = None
    version: str = __version__
    input_digest: str = None
    options: dict = None

    def to_dict(self):
        out = {
            "statistic": self.statistic,
            "weighting": self.weighting,
            "estimator": self.estimator,
            "value": self.value,
            "p_value": self.p_value,
            "method": self.method,
            "N": self.N,
            "seed": self.seed,
            "warnings": list(self.warnings),
            "df": self.df,
            "hypothesis": self.hypothesis,
            "n": self.n,
            "d": self.d,
            "p": self.p,
            "L": self.L,
            "version": self.version,
            "input_digest": self.input_digest,
            "options": self.options,
        }
        if self.eigenvalues is not None:
            out["eigenvalues"] = [[float(l), int(m)] for l, m in self.eigenvalues]
        return out

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


# ---------------------------------------------------------------------------
# whitening


def _factor_whiten(factor, r, exponent):
    # pseudo-power on the factor's kept eigenvalues (above 1e-10 times
    # the largest)
    if not factor.keep.any():
        raise SingularError("weighting matrix has zero rank")
    return factor.apply(r, exponent)


def _partition_whiten(q, r, exponent):
    # the dense rule on the quotients' spectrum: drop eigenvalues at or
    # below 1e-10 times the largest
    if float(partition_spectrum(q).values.max()) <= 0.0:
        raise SingularError("weighting matrix has zero rank")
    return partition_apply(partition_pseudo_power(q, exponent, _DROP_RTOL), r)


def _whitened_residual(tau, theta, weighting, exponent):
    r = np.asarray(tau, dtype=float) - np.asarray(theta, dtype=float)
    if weighting is None:
        return r
    if np.isscalar(weighting):
        a = float(weighting)
        if a <= 0.0:
            raise ValueError("scalar weighting must be positive")
        return a**exponent * r
    if isinstance(weighting, tuple) and weighting[0] == "partition":
        return _partition_whiten(weighting[1], r, exponent)
    return _factor_whiten(psd_factor(weighting), r, exponent)


def statistic_euclidean(tau, theta, weighting=None):
    """E = squared Euclidean norm of the whitened residual.

    ``weighting`` is the matrix A: a positive scalar a means a*I (so
    1/n gives E = n||tau-theta||^2), a dense symmetric matrix or its
    PSDFactor is pseudo-inverted on its positive eigenspace (a matrix is
    factored by ``eigh``) and ("partition", q) uses the inverse of a
    partition-invariant matrix given by its quotients q.
    """
    # the quadratic form needs A^{-1}, i.e. whitening applied once with
    # exponent -1 against the raw residual
    r = np.asarray(tau, dtype=float) - np.asarray(theta, dtype=float)
    z = _whitened_residual(tau, theta, weighting, -1.0)
    # a nonnegative form: a negative value is rounding around an exact zero
    return max(float(r @ z), 0.0)


def statistic_max(tau, theta, weighting=None):
    """M = max absolute entry of A^{-1/2}(tau - theta), principal root."""
    z = _whitened_residual(tau, theta, weighting, -0.5)
    return float(np.abs(z).max())


# ---------------------------------------------------------------------------
# p-values


def _mc_pvalue(hits, N, plus_one):
    if plus_one:
        return (1.0 + hits) / (1.0 + N)
    return hits / N


def pvalue_chisq(E, p, L):
    """Upper chi-square tail with p - L degrees of freedom."""
    if p <= L:
        raise ValueError("need p > L for a chi-square reference, got p=%d L=%d" % (p, L))
    # chdtrc is nan below 0, where the tail is 1
    return float(special.chdtrc(p - L, max(E, 0.0)))


def _merged_spectrum(values, multiplicities):
    """Distinct positive eigenvalues with their multiplicities.

    Eigenvalues are taken in decreasing order; one within relative
    distance _MERGE_RTOL of the previous kept value is merged into it
    (multiplicities summed, value averaged by multiplicity), and those
    at or below _DROP_RTOL times the largest are dropped.  Returns a
    list of (value, multiplicity) pairs sorted decreasing; empty if no
    eigenvalue is positive.
    """
    values = np.asarray(values, dtype=float)
    mults = np.asarray(multiplicities, dtype=int)
    values, mults = values[mults > 0], mults[mults > 0]
    top = float(values.max()) if values.size else 0.0
    if top <= 0.0:
        return []
    order = np.argsort(-values, kind="stable")
    out = []
    for lam, m in zip(values[order], mults[order]):
        if lam <= _DROP_RTOL * top:
            break
        if out and (out[-1][0] - lam) <= _MERGE_RTOL * out[-1][0]:
            val, mult = out[-1]
            out[-1] = ((val * mult + lam * m) / (mult + m), mult + m)
        else:
            out.append((float(lam), int(m)))
    return [(float(v), int(m)) for v, m in out]


def pvalue_mixture_mc(E, spectrum, N, rng, plus_one=False):
    """Monte Carlo tail probability of sum_r lambda_r chi2(nu_r) at E."""
    if not spectrum:
        raise ValueError("mixture spectrum is empty")
    N = int(N)
    if N < 100:
        raise ValueError("need at least 100 Monte Carlo replicates")
    total = np.zeros(N)
    for lam, nu in spectrum:
        if lam <= 0.0:
            raise ValueError("mixture weights must be positive, got %g" % lam)
        total += lam * rng.chisquare(int(nu), N)
    return _mc_pvalue(int((total > E).sum()), N, plus_one)


def _row_blocks(N, p):
    """(start, stop) bounds of the row blocks of an (N, p) array of draws;
    one empty block when N = 0, so the draws still have p columns."""
    step = max(1, _DRAW_BLOCK_ENTRIES // max(int(p), 1))
    return [(lo, min(lo + step, N)) for lo in range(0, N, step)] or [(0, 0)]


def _null_gaussian_blocks(spec, N, rng):
    """The draws of ``sample_null_gaussian`` as consecutive row blocks.

    Each block colors iid normals row by row, so no (N, p) array or
    temporary is allocated.  The random stream is consumed as by one
    (N, p) draw; a coloured block can differ from unblocked coloring in
    the last bit, by the rounding of its matrix product.
    """
    N = int(N)
    kind = spec[0]
    if kind == "identity":
        p = int(spec[1])
        for lo, hi in _row_blocks(N, p):
            yield rng.standard_normal((hi - lo, p))
        return
    if kind == "dense":
        factor = psd_factor(spec[1])
        p = factor.V.shape[0]
        for lo, hi in _row_blocks(N, p):
            yield factor.apply(rng.standard_normal((hi - lo, p)), 0.5)
        return
    if kind == "partition":
        root = partition_pseudo_power(spec[1], 0.5, _DROP_RTOL)
        p = pair_count(root.partition.d)
        for lo, hi in _row_blocks(N, p):
            yield partition_apply(root, rng.standard_normal((hi - lo, p)))
        return
    raise ValueError("unknown sampler spec %r" % (spec[0],))


def sample_null_gaussian(spec, N, rng):
    """N Gaussian p-vectors with a prescribed null covariance.

    ``spec`` selects the target:

    - ("identity", p): standard normal draws;
    - ("dense", A): covariance A via its principal square root, A a
      matrix (factored by ``eigh``) or a PSDFactor;
    - ("partition", q): the partition-invariant covariance with quotients
      q, via its principal pseudo-square root in O(p K) per draw
      (eigenvalues at or below 1e-10 times the largest, negative ones
      included, are dropped).  Full exchangeability is the one-group
      partition, whose three quotients are the S-block eigenvalues.

    Returns an (N, p) array, (0, p) for N = 0.
    """
    blocks = list(_null_gaussian_blocks(spec, N, rng))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _residual_blocks(gamma, N, p, rng):
    """Row blocks of G - gamma.apply(G) for N iid standard normal p-vectors G."""
    for lo, hi in _row_blocks(N, p):
        G = rng.standard_normal((hi - lo, p))
        yield G - gamma.apply(G)


def _exceedances(blocks, value, statistic="max"):
    """Number of rows, over row blocks of draws, whose statistic exceeds
    value: the max-norm, or the squared norm for "euclidean"."""
    if statistic == "euclidean":
        norms = (np.einsum("ij,ij->i", b, b) for b in blocks)
    else:
        norms = (np.abs(b).max(axis=1) for b in blocks)
    return sum(int((t > value).sum()) for t in norms)


def _bootstrap_blocks(Y, N, rng):
    """Row blocks of the N multiplier replicates (2 / sqrt(n)) W Y, W an
    (N, n) standard normal draw taken block by block in its row order and
    Y the n x p centred leave-one-out matrix, already projected."""
    n, p = Y.shape
    if n < 3:
        raise ValueError("multiplier bootstrap needs n >= 3")
    for lo, hi in _row_blocks(N, p):
        yield (2.0 / np.sqrt(n)) * (rng.standard_normal((hi - lo, n)) @ Y)


def multiplier_bootstrap_replicates(
    data, design, N, rng, precomputed=None, ties="error", tie_seed=0
):
    """Gaussian multiplier replicates of the projected, scaled tau residual.

    Each replicate is (2 / (sqrt(n) (n-1))) (I - B B^+) times the
    multiplier-weighted sum of centered leave-one-out kernel sums.
    Conditional on the data the draws are zero-mean Gaussian with
    covariance n (I - B B^+) SigmaJ (I - B B^+), SigmaJ the jackknife
    estimate, so they can stand in for the null law of sqrt(n) times the
    projected residual.  ``design=None`` skips the projection.
    """
    if precomputed is None:
        tau, loo = tau_and_leave_one_out(data, ties=ties, tie_seed=tie_seed)
    else:
        tau, loo = precomputed
    D = loo - tau
    if design is not None:
        D = D - gamma_projection(design).apply(D)
    return np.concatenate(list(_bootstrap_blocks(D, int(N), rng)))


# ---------------------------------------------------------------------------
# orchestration


def _hypothesis_info(hypothesis, design):
    if isinstance(hypothesis, Partition):
        return {
            "type": "partition",
            "d": hypothesis.d,
            "groups": [list(g) for g in hypothesis.groups],
            "L": design.L,
        }
    return {
        "type": "design",
        "kind": design.kind,
        "p": design.p,
        "L": design.L,
    }


def _identity_null(est, gamma, n):
    """Null law of sqrt(n) (I - Gamma)(tau_hat - tau) under the estimate:
    the merged spectrum of its covariance n (I - Gamma) Sigma (I - Gamma)
    and a Gaussian sampler spec for it.  Gamma is the orthogonal
    projector, B B^+."""
    if est.kind == "partition":
        # Gamma removes the trivial component
        null_q = partition_projected(est.quotients, n)
        return _merged_spectrum(*partition_spectrum(null_q)), ("partition", null_q)
    # with D the centred leave-one-out rows, the covariance is
    # (4/n) (D (I - Gamma))' (D (I - Gamma)): one thin SVD of an n x p matrix
    D = est.rows
    factor = PSDFactor.of_rows(D - gamma.apply(D), 4.0 / n)
    spectrum = _merged_spectrum(factor.w, np.ones(factor.w.size, dtype=int))
    return spectrum, ("dense", factor)


def _degenerate_fit(tau, theta):
    r = tau - theta
    scale = max(1.0, float(np.abs(tau).max()))
    return float(np.abs(r).max()) <= 1e-12 * scale


def run_test(data, hypothesis, options):
    """Run one structure test and return a TestReport.

    ``hypothesis`` is a Partition (the hypothesis that the Kendall
    matrix is invariant to permutations within groups, tested with
    structured covariance machinery) or a DesignMatrix (a general linear
    hypothesis tau = B beta with the dense jackknife).  ``options``
    selects the statistic, weighting, and p-value scheme; see
    TestOptions.
    """
    opts = options
    opts.validate()
    rng = np.random.default_rng(opts.seed)
    msgs = []

    X = np.asarray(data, dtype=float)
    digest = hashlib.sha256(np.ascontiguousarray(X).tobytes()).hexdigest()[:16]
    tau, loo = tau_and_leave_one_out(X, ties=opts.ties, tie_seed=opts.tie_seed)
    n, d = X.shape
    p = tau.shape[0]
    if opts.ties == "jitter":
        tied = _tied_columns(X)
        if tied:
            msgs.append(
                "tied values in column(s) %s were jittered before ranking" % tied
            )

    # -- hypothesis, covariance estimate, projection ------------------------
    if isinstance(hypothesis, Partition):
        part = hypothesis
        if part.d != d:
            raise ValueError(
                "partition is over %d variables, data has %d" % (part.d, d)
            )
        if opts.estimator != "structured":
            raise ValueError(
                "partition hypotheses use the structured estimator; to force "
                "the dense jackknife, pass the membership design matrix instead"
            )
        design = block_membership_matrix(part)
        est = structured_jackknife_partition(X, part, precomputed=(tau, loo))
        gamma = gamma_projection(design)  # = Gamma(A) for any matching A
    elif isinstance(hypothesis, DesignMatrix):
        design = hypothesis
        if design.p != p:
            raise ValueError(
                "design has %d rows but the data has %d pairs" % (design.p, p)
            )
        if opts.estimator != "jackknife":
            raise ValueError(
                "design-matrix hypotheses use the dense jackknife estimator; "
                "structured estimation needs a Partition hypothesis"
            )
        est = jackknife_cov(X, precomputed=(tau, loo))
        if opts.weighting == "sigma":
            msgs.append(_DISTORTION_NOTE)
            try:
                gamma = gamma_projection(design, est)
            except SingularError:
                fallback = gamma_projection(design)
                if _degenerate_fit(tau, fallback.apply(tau)):
                    gamma = fallback
                else:
                    raise
        else:
            gamma = gamma_projection(design)
    else:
        raise TypeError("hypothesis must be a Partition or a DesignMatrix")

    theta = gamma.apply(tau)
    N = int(opts.replicates)
    df = None
    spectrum = None

    if opts.weighting == "identity":
        weight = 1.0 / n
    elif est.kind == "partition":
        weight = ("partition", est.quotients)
    else:
        weight = est.factor

    # -- statistic, with a guard for degenerate covariance + exact fit ------
    stat_fn = statistic_euclidean if opts.statistic == "euclidean" else statistic_max
    try:
        value = stat_fn(tau, theta, weight)
    except SingularError:
        if _degenerate_fit(tau, theta):
            value = 0.0
            msgs.append(
                "covariance estimate is degenerate and the hypothesis fits "
                "exactly; statistic treated as 0"
            )
        else:
            raise

    # -- p-value -------------------------------------------------------------
    blocks = None  # Monte Carlo draws of the null law, in row blocks
    if opts.weighting == "sigma" and opts.statistic == "euclidean":
        method = "chi-square"
        df = p - design.L
        p_value = pvalue_chisq(value, p, design.L)
        N = None
    elif opts.weighting == "sigma":
        method = "max-mc"
        if isinstance(hypothesis, Partition):
            # null covariance of the whitened residual is I - B B^+
            residual = gamma
        else:
            # ... and I - C (C'C)^+ C' with C = Sigma^{-1/2} B
            C = est.factor.apply(design.matrix.T, -0.5).T
            right = np.linalg.pinv(C.T @ C, rcond=1e-10) @ C.T
            residual = ProjectionOperator("orthogonal", p, factors=(C, right))
        blocks = _residual_blocks(residual, N, p, rng)
    else:
        null_spectrum, null_spec = _identity_null(est, gamma, n)
        if not null_spectrum:
            msgs.append(_ZERO_NULL_NOTE)
        use_boot = opts.null_draws == "bootstrap" or (
            opts.statistic == "max"
            and opts.null_draws == "auto"
            and isinstance(hypothesis, DesignMatrix)
        )
        if use_boot:
            method = "bootstrap-mc"
            # projecting the n rows once projects every replicate
            D = loo - tau
            blocks = _bootstrap_blocks(D - gamma.apply(D), N, rng)
        elif opts.statistic == "euclidean":
            method = "mixture-mc"
            spectrum = null_spectrum
            if not spectrum:
                p_value = 1.0 if value <= 0.0 else 0.0
            else:
                p_value = pvalue_mixture_mc(value, spectrum, N, rng, opts.plus_one)
        else:
            method = "max-mc"
            blocks = _null_gaussian_blocks(null_spec, N, rng)
    if blocks is not None:
        hits = _exceedances(blocks, value, opts.statistic)
        p_value = _mc_pvalue(hits, N, opts.plus_one)

    if value == 0.0:
        # the statistic is at its minimum; no evidence against the null
        p_value = 1.0

    return TestReport(
        statistic=opts.statistic,
        weighting=opts.weighting,
        estimator=opts.estimator,
        value=float(value),
        p_value=float(p_value),
        method=method,
        N=N,
        seed=int(opts.seed),
        df=df,
        eigenvalues=spectrum,
        warnings=msgs,
        hypothesis=_hypothesis_info(hypothesis, design),
        n=n,
        d=d,
        p=p,
        L=design.L,
        version=__version__,
        input_digest=digest,
        options=opts.to_dict(),
    )
