"""Test statistics and p-value machinery.

Two statistics measure the misfit of tau_hat to the hypothesized linear
structure, both built from the whitened residual A^{-1/2}(tau_hat -
theta_hat): its squared Euclidean norm E and its max-norm M.  The
weighting A is either (1/n) I or an estimate of cov(tau_hat), and
A^{-1/2} always means the principal (symmetric) square root of the
pseudo-inverse -- the max statistic's entries depend on which root is
taken, so this choice is part of the definition.  Which eigenvalues
count, for every pseudo-inverse, root and null spectrum, is the one
rule of ``sblock.rank_mask``; a residual that it ranks zero is an exact
fit, with statistic 0 and p-value 1.

P-values come from four schemes:

- a chi-square tail for E with covariance weighting (p - L degrees of
  freedom),
- Monte Carlo from a weighted chi-square mixture for E with identity
  weighting, the weights being the eigenvalues of the projected
  covariance that ``sblock.rank_mask`` keeps (from the partition
  quotients for a Partition hypothesis, from one thin SVD of the
  projected jackknife rows for a design),
- Monte Carlo over Gaussian draws with the appropriate null covariance
  for M, and
- a Gaussian multiplier bootstrap that replays the jackknife residuals,
  targeting the same law without sampling from an estimated matrix.

Monte Carlo p-values use the plain exceedance proportion with a strict
inequality; a plus-one correction is available as an option but off by
default.

The Gaussian draws of the simulated p-values are taken in row blocks
from the one random stream of the test's seed.  When a test's draws
span two or more blocks and the process may run on two or more CPUs
(and KSTRUCT_THREADS, if set, allows more than one thread), a helper
thread draws block b + 1 while the calling thread colours block b and
counts its exceedances.  The helper only fills a ring of two block
buffers from the generator, in stream order, so every draw, p-value and
the generator's final state are the same as with inline draws, and the
draws hold at most two blocks of memory.  Otherwise, and in
``run_study``'s worker processes, which already fill every CPU, the
draws are taken inline.
"""

import hashlib
import json
import os
import queue
import threading
from contextlib import closing
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import special

from ._version import __version__
from .covariance import PSDFactor, jackknife_cov, structured_jackknife_partition
from .indexing import DesignMatrix, Partition, block_membership_matrix
from .kendall import _tied_columns, tau_and_leave_one_out
from .projection import ProjectionOperator, _normal_norm, gamma_projection
from .sblock import PartitionQuotients, SingularError, partition_projected, rank_mask

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
# entries of one row block of Monte Carlo null draws (2 MB of float64):
# a block and its temporaries stay cache-sized and below the 4 MB at
# which NumPy asks for huge pages, so a test does not fault in fresh
# memory for its draws.  The draw thread, when it runs, fills two such
# buffers in turn, so drawing ahead costs one block more; the stream and
# every draw stay as inline
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
        return dict(
            asdict(self),
            replicates=int(self.replicates),
            seed=int(self.seed) if self.seed is not None else None,
            plus_one=bool(self.plus_one),
            tie_seed=int(self.tie_seed),
        )


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
        # the fields in report order, the eigenvalues (when set) last
        keys = ("statistic", "weighting", "estimator", "value", "p_value", "method",
                "N", "seed", "warnings", "df", "hypothesis", "n", "d", "p", "L",
                "version", "input_digest", "options")
        out = {k: getattr(self, k) for k in keys}
        out["warnings"] = list(self.warnings)
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


def _covariance_form(A):
    """A weighting or sampler target as a PSDFactor or PartitionQuotients:
    ("partition", q) is q, ("dense", A) or a matrix A its factor."""
    if isinstance(A, tuple) and A[0] in ("dense", "partition"):
        A = A[1]
    if isinstance(A, (PSDFactor, PartitionQuotients)):
        return A
    return PSDFactor.of_matrix(A)


def _whiten(r, weighting, exponent):
    """A^exponent r for the weighting A of ``statistic_euclidean``."""
    if weighting is None:
        return r
    if np.isscalar(weighting):
        a = float(weighting)
        if a <= 0.0:
            raise ValueError("scalar weighting must be positive")
        return a**exponent * r
    A = _covariance_form(weighting)
    if not A.keep.any():
        raise SingularError("weighting matrix has zero rank")
    return A.apply(r, exponent)


def statistic_euclidean(tau, theta, weighting=None):
    """E = squared Euclidean norm of the whitened residual.

    ``weighting`` is the matrix A: a positive scalar a means a*I (so
    1/n gives E = n||tau-theta||^2), a dense symmetric matrix or its
    PSDFactor is pseudo-inverted on the eigenvalues that
    ``sblock.rank_mask`` keeps (a matrix is factored by ``eigh``), and
    ("partition", q) or the PartitionQuotients q itself likewise for a
    partition-invariant matrix.
    """
    r = np.asarray(tau, dtype=float) - np.asarray(theta, dtype=float)
    # the quadratic form r' A^{-1} r, nonnegative: a negative value is
    # rounding around an exact zero
    return max(float(r @ _whiten(r, weighting, -1.0)), 0.0)


def statistic_max(tau, theta, weighting=None):
    """M = max absolute entry of A^{-1/2}(tau - theta), principal root."""
    r = np.asarray(tau, dtype=float) - np.asarray(theta, dtype=float)
    return float(np.abs(_whiten(r, weighting, -0.5)).max())


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
    """Distinct eigenvalues with their multiplicities, from eigenvalues
    that ``rank_mask`` kept.

    Eigenvalues are taken in decreasing order; one within relative
    distance _MERGE_RTOL of the previous kept value is merged into it
    (multiplicities summed, value averaged by multiplicity).  Returns a
    list of (value, multiplicity) pairs sorted decreasing.
    """
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    out = []
    for lam, m in zip(values[order], np.asarray(multiplicities)[order]):
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


def _draw_ahead():
    """Whether a helper thread may draw normals ahead of their use: the
    process may run on at least two CPUs and KSTRUCT_THREADS, if set, is
    above 1."""
    cap = os.environ.get("KSTRUCT_THREADS")
    if cap and int(cap) <= 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _normal_blocks(N, p, rng, cols=None):
    """Standard normal draws for the row blocks of ``_row_blocks(N, p)``,
    each a (rows, cols) array (cols defaults to p), in stream order.

    A block is a view of a reused buffer: it holds its values only until
    the next block is requested, so a caller that keeps a block copies it.
    With two or more blocks and ``_draw_ahead()``, a helper thread fills
    a ring of two buffers one block ahead; the values and the generator's
    state once every block is consumed are those of inline draws.  The
    helper touches nothing but ``rng``, is stopped and joined when the
    caller stops early or raises, and an exception it meets is raised
    here.
    """
    bounds = _row_blocks(int(N), p)
    cols = p if cols is None else cols
    if len(bounds) < 2 or not _draw_ahead():
        buf = np.empty((bounds[0][1], cols))
        for lo, hi in bounds:
            yield rng.standard_normal(out=buf[: hi - lo])
        return
    bufs = [np.empty((bounds[0][1], cols)) for _ in range(2)]
    free, ready = queue.SimpleQueue(), queue.SimpleQueue()
    free.put(0)
    free.put(1)

    def produce():
        try:
            for lo, hi in bounds:
                slot = free.get()
                if slot is None:  # the caller has stopped
                    return
                rng.standard_normal(out=bufs[slot][: hi - lo])
                ready.put(slot)
        except BaseException as exc:  # handed to the calling thread
            ready.put(exc)

    helper = threading.Thread(target=produce, name="kstruct-draws", daemon=True)
    helper.start()
    try:
        for lo, hi in bounds:
            slot = ready.get()
            if isinstance(slot, BaseException):
                raise slot
            yield bufs[slot][: hi - lo]
            free.put(slot)
    finally:
        free.put(None)
        helper.join()


def _null_gaussian_blocks(A, N, rng):
    """Row blocks of N Gaussian draws with covariance A, a PSDFactor or
    PartitionQuotients, coloured by its principal pseudo-square root.
    The random stream is consumed as by one (N, p) draw; a coloured
    block can differ from unblocked colouring in the last bit."""
    for G in _normal_blocks(N, A.p, rng):
        yield A.apply(G, 0.5)


def sample_null_gaussian(spec, N, rng):
    """N Gaussian p-vectors with a prescribed null covariance.

    ``spec`` selects the target:

    - ("identity", p): standard normal draws;
    - ("dense", A): covariance A via its principal square root, A a
      matrix (factored by ``eigh``) or a PSDFactor;
    - ("partition", q): the partition-invariant covariance with quotients
      q, via its principal pseudo-square root in O(p K) per draw.  Full
      exchangeability is the one-group partition, whose three quotients
      are the S-block eigenvalues.

    Either covariance is coloured on the eigenvalues that
    ``sblock.rank_mask`` keeps.  Returns an (N, p) array, (0, p) for
    N = 0.
    """
    if spec[0] == "identity":
        p, blocks = int(spec[1]), _normal_blocks(N, int(spec[1]), rng)
    elif spec[0] in ("dense", "partition"):
        A = _covariance_form(spec)
        p, blocks = A.p, _null_gaussian_blocks(A, N, rng)
    else:
        raise ValueError("unknown sampler spec %r" % (spec[0],))
    # each block is copied out before the next is drawn over it
    out, lo = np.empty((int(N), p)), 0
    for block in blocks:
        out[lo : lo + len(block)] = block
        lo += len(block)
    return out


def _residual_blocks(gamma, N, p, rng):
    """Row blocks of G - gamma.apply(G) for N iid standard normal p-vectors G."""
    for G in _normal_blocks(N, p, rng):
        yield G - gamma.apply(G)


def _exceedances(blocks, value, statistic="max"):
    """Number of rows, over row blocks of draws, whose statistic exceeds
    value: the max-norm, or the squared norm for "euclidean".  The blocks
    are closed however the count ends, which stops a draw thread."""
    with closing(blocks):
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
    # a block draws n columns and yields p, so it is sized by the wider
    for W in _normal_blocks(N, max(n, p), rng, cols=n):
        yield (2.0 / np.sqrt(n)) * (W @ Y)


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
        precomputed = tau_and_leave_one_out(data, ties=ties, tie_seed=tie_seed)
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
    and that covariance, a PartitionQuotients or PSDFactor.  Gamma is
    B B^+; the eigenvalues are ranked against n trace(Sigma), from the
    unprojected estimate."""
    if est.kind == "partition":
        # Gamma removes the trivial component
        null = partition_projected(est.quotients, n)
    else:
        # with Y the estimate's rows (D for the jackknife), the covariance
        # is (4/n) (Y (I - Gamma))' (Y (I - Gamma)): one thin SVD, and
        # n trace(Sigma) = (4/n) ||Y||_F^2
        Y = est.rows
        norm = (4.0 / n) * float(np.einsum("ij,ij->", Y, Y))
        null = PSDFactor.of_rows(Y - gamma.apply(Y), 4.0 / n, norm)
    values, multiplicities = null.spectrum
    return _merged_spectrum(values[null.keep], multiplicities[null.keep]), null


def _degenerate_fit(tau, theta):
    """Whether tau - theta is zero up to rounding: as a p x 1 matrix it
    has numerical rank 0 against the norm of tau."""
    r = np.asarray(tau) - theta
    return not rank_mask([np.sqrt(r @ r)], r.size, np.sqrt(tau @ tau)).any()


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
                # GLS falls back to the orthogonal fit only when that is exact
                gamma = gamma_projection(design)
                if not _degenerate_fit(tau, gamma.apply(tau)):
                    raise
        else:
            gamma = gamma_projection(design)
    else:
        raise TypeError("hypothesis must be a Partition or a DesignMatrix")

    theta = gamma.apply(tau)
    N = int(opts.replicates)
    df = None
    spectrum = None

    weight = 1.0 / n if opts.weighting == "identity" else est.factor

    # -- statistic: 0 for a residual that is rounding noise (an exact fit),
    # which also excuses a degenerate covariance ---------------------------
    stat_fn = statistic_euclidean if opts.statistic == "euclidean" else statistic_max
    exact = _degenerate_fit(tau, theta)
    try:
        value = stat_fn(tau, theta, weight)
    except SingularError:
        if not exact:
            raise
        msgs.append(
            "covariance estimate is degenerate and the hypothesis fits "
            "exactly; statistic treated as 0"
        )
    if exact:
        value = 0.0

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
            # ... and I - U U', U the eigenvectors of C C', C = Sigma^{-1/2} B,
            # whose eigenvalues (of C'C = B' Sigma^+ B) the GLS rule keeps
            C = est.factor.apply(design.matrix.T, -0.5).T
            CC = PSDFactor.of_rows(C.T, 1.0, _normal_norm(design.matrix, est.factor))
            U = CC.V[:, CC.keep]
            residual = ProjectionOperator("orthogonal", p, factors=(U, U.T))
        blocks = _residual_blocks(residual, N, p, rng)
    else:
        null_spectrum, null_cov = _identity_null(est, gamma, n)
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
            p_value = 0.0  # a positive statistic exceeds a zero null law
            if spectrum:
                p_value = pvalue_mixture_mc(value, spectrum, N, rng, opts.plus_one)
        else:
            method = "max-mc"
            blocks = _null_gaussian_blocks(null_cov, N, rng)
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
