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
fit, with statistic 0 and p-value 1, and so is a GLS fit whose weight
keeps no more than L eigenvalues, where the whitened residual is zero by
construction.

P-values come from the sampler that a route's entry in ``_ROUTES``
names: a chi-square tail for E with covariance weighting (p - L degrees
of freedom); Monte Carlo from a chi-square mixture for E with identity
weighting, weighted by the eigenvalues of the projected covariance that
``sblock.rank_mask`` keeps; Monte Carlo over Gaussian draws for M,
coloured by that covariance or whitened; and a Gaussian multiplier
bootstrap that replays the jackknife residuals, targeting the same law
without sampling from an estimated matrix.  A statistic of 0 gets
p-value 1 without a draw.

Monte Carlo p-values use the plain exceedance proportion with a strict
inequality; a plus-one correction is available as an option but off by
default.

The Gaussian draws of the simulated p-values are taken in row blocks
from the one random stream of the test's seed (``_normal_blocks``).
Colouring by a covariance form (``_null_gaussian_blocks``) and
subtracting the whitened residual's projection (``_residual_blocks``)
write over the draw buffer, and a multiplier-bootstrap replicate
(``_bootstrap_blocks``) is a product written into a work array, so a
test allocates its draw buffers and work arrays once (see ``_blocks``),
and no block allocates an array its size.  ``_exceedances`` counts each block as it
is made, taking its absolute value in place.  When a test's draws span
two or more blocks, its generator is a Generator over PCG64 and the
process may run on two or more CPUs (``kendall._second_cpu``, the rule
the kernel pass follows too), two decoder tasks on a thread pool do all
of the per-block work: each draws every other block with a private
PCG64 generator, splices it onto the exact end of the block before,
colours, subtracts or multiplies it and counts its exceedances
(``_blocks``).  The calling thread allocates their buffers, sums the
counts and sets its generator to each block's exact end state, and no
task touches that generator, so every draw, p-value and the
generator's final state are those of inline draws.  Any other
generator, and child processes such as ``run_study``'s workers, which
already fill every CPU, draw inline.

A weighting or sampler target is a covariance form: the PSDFactor or
PartitionQuotients that ``CovarianceEstimate.factor`` returns.  The
tests of one KendallSample share its estimates (see ``covariance``), so
the estimate, its eigendecomposition and each pseudo-power, and a
partition estimate's projected null law for the identity routes, are
built once per sample rather than once per test.
"""

import json
import threading
from collections import namedtuple
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from contextlib import closing, nullcontext, suppress
from dataclasses import dataclass, field, fields
from typing import Literal

import numpy as np
from scipy import special

from ._version import __version__
from .covariance import PSDFactor, _kept, jackknife_cov, structured_jackknife_partition
from .indexing import DesignMatrix, Partition, _membership_design, _read_fields
from .kendall import _UNREAD_TIE_SEED, KendallSample, Ties, _second_cpu
from .projection import ProjectionOperator, _normal_norm, gamma_projection
from .sblock import SingularError, partition_projected, rank_mask

__all__ = [
    "TestOptions",
    "TestReport",
    "statistic_euclidean",
    "statistic_max",
    "pvalue_chisq",
    "pvalue_mixture_mc",
    "run_test",
]

_MERGE_RTOL = 1e-8
# entries of one row block of Monte Carlo null draws (2 MB of float64):
# a block and its temporaries stay cache-sized and below the 4 MB at
# which NumPy asks for huge pages, so a test does not fault in fresh
# memory for its draws.  Threaded draws fill two such buffers, one per
# decoder, each with 1/16 more room for the splice, so drawing on two
# threads costs one block more; the stream and every draw stay as inline
_DRAW_BLOCK_ENTRIES = 2**18
# rows of fewer pairs than this reduce to their max-norms faster through
# a pair-major copy: at 2000 rows, 80 against 176 us at p = 21 and 185
# against 233 us at p = 45, but 285 against 204 us at p = 66
_PAIR_MAJOR_BELOW = 64
# entries of each reducing thread's pair-major copy, taken a few rows at
# a time: for a 2 MB block, 0.36 against 0.62 ms at p = 10 and 0.31
# against 0.46 ms at p = 45 for a copy of the whole block (2 vCPUs)
_PAIR_MAJOR_ENTRIES = 2**15

_ZERO_NULL_NOTE = "projected covariance estimate is zero"
_DISTORTION_NOTE = (
    "covariance weighting with the unstructured jackknife is known to "
    "distort the level of design-matrix tests; rejection rates can far "
    "exceed the nominal level even under the null"
)

# (estimator, statistic, weighting, null_draws) -> (method, sampler of the
# null law) for every accepted route; ``TestOptions.validate`` refuses the rest
_ROUTES = {
    ("structured", "euclidean", "sigma", "auto"): ("chi-square", "chi-square tail"),
    ("structured", "euclidean", "identity", "auto"): ("mixture-mc", "chi-square mixture"),
    ("structured", "euclidean", "identity", "gaussian"): ("mixture-mc", "chi-square mixture"),
    ("structured", "euclidean", "identity", "bootstrap"): ("bootstrap-mc", "multiplier bootstrap"),
    ("structured", "max", "sigma", "auto"): ("max-mc", "whitened-residual gaussian"),
    ("structured", "max", "sigma", "gaussian"): ("max-mc", "whitened-residual gaussian"),
    ("structured", "max", "identity", "auto"): ("max-mc", "coloured gaussian"),
    ("structured", "max", "identity", "gaussian"): ("max-mc", "coloured gaussian"),
    ("structured", "max", "identity", "bootstrap"): ("bootstrap-mc", "multiplier bootstrap"),
    ("jackknife", "euclidean", "sigma", "auto"): ("chi-square", "chi-square tail"),
    ("jackknife", "euclidean", "identity", "auto"): ("mixture-mc", "chi-square mixture"),
    ("jackknife", "euclidean", "identity", "gaussian"): ("mixture-mc", "chi-square mixture"),
    ("jackknife", "euclidean", "identity", "bootstrap"): ("bootstrap-mc", "multiplier bootstrap"),
    ("jackknife", "max", "sigma", "auto"): ("max-mc", "whitened-residual gaussian"),
    ("jackknife", "max", "sigma", "gaussian"): ("max-mc", "whitened-residual gaussian"),
    ("jackknife", "max", "identity", "auto"): ("bootstrap-mc", "multiplier bootstrap"),
    ("jackknife", "max", "identity", "gaussian"): ("max-mc", "coloured gaussian"),
    ("jackknife", "max", "identity", "bootstrap"): ("bootstrap-mc", "multiplier bootstrap"),
}


@dataclass
class TestOptions:
    """User choices for one test run.

    statistic: "euclidean" or "max".
    weighting: "sigma" (estimated covariance) or "identity" ((1/n) I).
    estimator: "structured" (partition hypotheses only) or "jackknife"
        (the dense jackknife, which tests a partition as its membership
        design).
    replicates: Monte Carlo draws for simulated p-values (>= 100).
    seed: required; every report echoes it.
    plus_one: use the conservative (1+hits)/(1+N) Monte Carlo p-value;
        refused on euclidean/sigma, whose p-value is a chi-square tail.
    ties: "error" or "jitter"; tie_seed seeds the jitter, and anything
        but 0 is refused with ties="error".
    null_draws: "auto", "gaussian", or "bootstrap" -- how Monte Carlo
        null replicates are produced when more than one scheme applies;
        ``_ROUTES`` lists the combinations accepted.

    Each choice field's values are declared once, in its ``Literal``
    type, the default first; the CLI's flags take their choices and
    defaults from these fields.  ``validate`` reads every field in
    place by the rule of ``indexing._field``: a whole float such as
    200.0 is stored as 200, and any other value is refused by name, and
    so is a negative seed or tie_seed.
    """

    statistic: Literal["euclidean", "max"] = "euclidean"
    weighting: Literal["sigma", "identity"] = "sigma"
    estimator: Literal["structured", "jackknife"] = "structured"
    replicates: int = 5000
    seed: int = None
    plus_one: bool = False
    ties: Ties = "error"
    tie_seed: int = 0
    null_draws: Literal["auto", "gaussian", "bootstrap"] = "auto"

    def validate(self):
        """Check the options and return the method of their entry in
        ``_ROUTES``, the one place that picks the null law; ``run_test``
        refuses the structured estimator for a design hypothesis."""
        _read_fields(self)
        if self.replicates < 100:
            raise ValueError("replicates must be at least 100")
        if self.seed is None:
            raise ValueError("a seed is required so reports are reproducible")
        for name in ("seed", "tie_seed"):
            if getattr(self, name) < 0:
                raise ValueError("%s must be non-negative, got %r" % (name, getattr(self, name)))
        if self.tie_seed and self.ties == "error":
            raise ValueError(_UNREAD_TIE_SEED)
        route = _ROUTES.get((self.estimator, self.statistic, self.weighting, self.null_draws))
        if route is None:
            # only sigma routes have a fixed law, so only they refuse a choice
            raise ValueError(
                "null_draws=%r does not apply to statistic=%r, weighting=%r, "
                "whose null law is always %s"
                % (self.null_draws, self.statistic, self.weighting,
                   "chi-square" if self.statistic == "euclidean" else "gaussian")
            )
        if self.plus_one and route[1] == "chi-square tail":
            raise ValueError(
                "plus_one does not apply to statistic='euclidean', "
                "weighting='sigma', whose p-value is a chi-square tail"
            )
        return route[0]

    def to_dict(self):
        # the fields in declaration order; no value needs asdict's deep copy
        return dict(
            {f.name: getattr(self, f.name) for f in fields(self)},
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

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


# ---------------------------------------------------------------------------
# whitening


def _whiten(r, weighting, exponent):
    """A^exponent r for the weighting A of ``statistic_euclidean``."""
    if np.isscalar(weighting):
        a = float(weighting)
        if a <= 0.0:
            raise ValueError("scalar weighting must be positive")
        return a**exponent * r
    if not weighting.keep.any():
        raise SingularError("weighting matrix has zero rank")
    return weighting.apply(r, exponent)


def statistic_euclidean(tau, theta, weighting):
    """E = squared Euclidean norm of the whitened residual.

    ``weighting`` is the matrix A: a positive scalar a means a*I (so
    1/n gives E = n||tau-theta||^2), and a covariance form (a PSDFactor
    or PartitionQuotients) is pseudo-inverted on the eigenvalues that
    ``sblock.rank_mask`` keeps.
    """
    r = np.asarray(tau, dtype=float) - np.asarray(theta, dtype=float)
    # the quadratic form r' A^{-1} r, nonnegative: a negative value is
    # rounding around an exact zero
    return max(float(r @ _whiten(r, weighting, -1.0)), 0.0)


def statistic_max(tau, theta, weighting):
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


def _splice_window(entries):
    """How many positions past the lower bound of a block's start its
    decoder searches for the end of the block before it: the gap is the
    extra outputs that the ziggurat's rejections took in that block,
    about 2 % of its entries for a 2 MB block."""
    return entries // 16 + 64


class _Draws:
    """The draws of one Monte Carlo null stage, as ``_normal_blocks``
    describes them; iterating gives their row blocks (see ``_blocks``)."""

    def __init__(self, N, p, rng, cols, step, work_entries, pairs):
        self.N, self.p, self.rng, self.cols = N, p, rng, cols
        self.step, self.work_entries, self.pairs = step, work_entries, pairs

    def __iter__(self):
        return _blocks(self)


def _normal_blocks(N, p, rng, cols=None, step=None, work_entries=None, pairs=None):
    """The N rows of a Monte Carlo null stage, in the row blocks of
    ``_row_blocks(N, p)``: ``cols`` standard normals a row (cols defaults
    to p) from the one stream of ``rng``, each block then turned by
    ``step(block, work)``, if given, into a block of ``pairs`` columns
    (cols by default).  ``work`` is one flat array of
    ``work_entries(rows)`` entries for the first (largest) block's rows,
    allocated once for all blocks; a step writes into the block or into
    ``work``.  Iterating the result gives the blocks in stream order, and
    ``_exceedances`` counts them."""
    cols = p if cols is None else cols
    return _Draws(int(N), p, rng, cols, step, work_entries, cols if pairs is None else pairs)


def _blocks(draws, reduce=None, spare=0):
    """``reduce(block, spare)`` of each row block of ``draws`` after its
    step, or the block itself with no ``reduce``, in stream order.  As
    each is yielded, ``draws.rng`` stands at that block's exact end
    state, so every value and every such state are those of inline
    draws.  ``spare`` is the entries of a flat array that ``reduce``
    may write, one for each thread that reduces.

    Everything is allocated here, on the calling thread: inline, one
    draw buffer, the step's work array and the spare array, and a block
    yielded is a view of the buffer or the work array that the next
    block writes over.  With two or more blocks, ``kendall._second_cpu()``
    and ``rng`` a Generator over PCG64, two decoder tasks (``_decode``)
    on a pool of two threads each take every other block, draw it into
    a buffer of their own, place it in the stream, step it and reduce
    it; a block yielded without ``reduce`` is then a copy that its
    decoder made.  The decoders share one work array under a lock, held
    for a step that writes into it and for the reduction of a block that
    the step left there, unless a work array each keeps the two buffers
    and the work within four blocks.  An exception that a decoder meets
    is raised here once the blocks before it are yielded, with
    ``draws.rng`` where the inline loop would leave it: at the end of
    the block before, if the block's draw failed, or at the block's own
    end if its step or reduction did.  However the caller stops, the
    decoders stop before their next block and the pool is shut down.
    Any other generator draws inline."""
    bounds = _row_blocks(draws.N, draws.p)
    rng, rows = draws.rng, bounds[0][1]
    entries = draws.work_entries(rows) if draws.step else 0
    if (len(bounds) < 2 or type(rng) is not np.random.Generator
            or type(rng.bit_generator) is not np.random.PCG64 or not _second_cpu()):
        buf, work, spare = np.empty((rows, draws.cols)), np.empty(entries), np.empty(spare)
        for lo, hi in bounds:
            Z = rng.standard_normal(out=buf[: hi - lo])
            Z = draws.step(Z, work) if draws.step else Z
            yield Z if reduce is None else reduce(Z, spare)
        return
    sizes = [(hi - lo) * draws.cols for lo, hi in bounds]
    bufs = [np.empty(sizes[0] + _splice_window(sizes[0])) for _ in range(2)]
    # a work array each, and no lock, where the stage still holds no more
    # than four blocks: the bootstrap's, which draws n of max(n, p) columns
    own = 2 * (bufs[0].size + entries) <= 4 * _DRAW_BLOCK_ENTRIES
    works = [np.empty(entries) for _ in range(2)] if own else [np.empty(entries)] * 2
    spares = [np.empty(spare) for _ in range(2)]
    lock = threading.Lock() if entries and not own else nullcontext()
    reduce = reduce or (lambda Z, _: Z.copy())

    def finish(G, d):
        with lock:
            Z = draws.step(G, works[d]) if draws.step else G
            if np.may_share_memory(Z, works[d]):
                return reduce(Z, spares[d])
        return reduce(Z, spares[d])

    # block k's placement, the exact end state and last value that block
    # k + 1 splices onto, and its result; the caller cancels those not
    # yet set when it stops, which is the decoders' stop flag
    placed, done = [Future() for _ in sizes], [Future() for _ in sizes]
    start = rng.bit_generator.state
    # a pool starts a thread at a submit only while none is idle, so its
    # threads wait for this gate, opened once both decoders are
    # submitted: each decoder has a thread
    gate = Future()
    pool = ThreadPoolExecutor(2, "kstruct-draws", gate.result)
    try:
        for d in range(2):
            pool.submit(_decode, d, bufs[d], sizes, draws.cols, start, placed, done, finish)
        gate.set_result(None)
        for k in range(len(sizes)):
            end, _ = placed[k].result()
            rng.bit_generator.state = dict(start, state=end)
            yield done[k].result()
    finally:
        for future in placed + done:
            future.cancel()
        if not gate.done():  # a submit failed
            gate.set_result(None)
        pool.shutdown()


def _decode(d, buf, sizes, cols, start, placed, done, finish):
    """Decoder d of ``_blocks``: blocks d, d + 2, ... of the stream, each
    drawn into ``buf`` and placed by ``_draw_block`` with the decoder's
    private PCG64 generator, started at the state ``start``, its
    placement set, then stepped and reduced by ``finish`` and its result
    set.  Before each block it stops if the caller has cancelled it.  An
    exception fails the block it met and every later block of this
    decoder, which it will not place, so the other decoder, whose blocks
    splice onto them, stops too; a placement already set stays."""
    gen = np.random.Generator(np.random.PCG64())
    gen.bit_generator.state = start
    k = d
    try:
        for k in range(d, len(sizes), 2):
            if done[k].cancelled():
                return
            at, end, last = _draw_block(k, gen, buf, sizes, placed[k - 1] if k else None, start)
            placed[k].set_result((end, last))
            done[k].set_result(finish(buf[at : at + sizes[k]].reshape(-1, cols), d))
    except BaseException as exc:  # any, so that no block is left unset: the caller raises it
        for future in placed[k::2] + done[k::2]:
            with suppress(InvalidStateError):  # set, or cancelled by the caller
                future.set_exception(exc)


def _draw_block(k, gen, buf, sizes, before, start):
    """Draw block k of the stream into ``buf`` with ``gen`` and return
    (offset, end, last): the block is ``sizes[k]`` entries of the buffer
    from the offset, ``end`` is its exact end state in the stream and
    ``last`` its last value.

    ``gen`` is the private PCG64 generator of block k's decoder, which
    stands at the state ``start`` or at block k - 2's exact end.  Block
    k starts at a lower bound of its place in the stream: that state
    advanced by the entries of block k - 1, since every normal takes at
    least one PCG64 output.  Its normals are drawn from there, and the
    exact end state and last value of block k - 1, from ``before``,
    that block's placement future, place it: ``_splice_offset`` finds
    how many of them precede the block, and that many more draws
    complete it, which leaves the generator at block k's exact end.  If
    none verifies, block k is drawn again from block k - 1's end.  An
    exception of block k - 1 is raised here too."""
    size, at = sizes[k], 0
    if k:
        gen.bit_generator.advance(sizes[k - 1])
    bound = gen.bit_generator.state["state"]
    gen.standard_normal(out=buf[:size])
    if k:
        end, last = before.result()
        # the gap is the previous block's extra outputs
        at = _splice_offset(buf, size, _splice_window(sizes[k - 1]), bound, end, last, start)
        if at is None:
            gen.bit_generator.state = dict(start, state=end)
            gen.standard_normal(out=buf[:size])
            at = 0
        else:
            gen.standard_normal(out=buf[size : size + at])
    return at, gen.bit_generator.state["state"], float(buf[at + size - 1])


def _splice_offset(buf, size, window, bound, end, last, start):
    """How many normals lie between ``bound``, a lower bound of a block's
    place in the stream, and ``end``, the exact end state of the block
    before it, given the block's first ``size`` normals drawn from
    ``bound`` into ``buf``; None if no offset below ``window`` verifies.
    An offset o > 0 is a candidate where ``buf[o - 1]`` is ``last``, the
    value that ends the block before, and it is taken only if drawing o
    normals from ``bound`` again, into the buffer's room past the block,
    ends exactly at ``end``; so the result never rests on the values
    alone."""
    if bound == end:
        return 0
    check = np.random.Generator(np.random.PCG64())
    for o in np.flatnonzero(buf[: min(window - 1, size)] == last) + 1:
        check.bit_generator.state = dict(start, state=bound)
        check.standard_normal(out=buf[size : size + o])
        if check.bit_generator.state["state"] == end:
            return int(o)
    return None


def _null_gaussian_blocks(A, N, rng):
    """Row blocks of N Gaussian draws with covariance A, a PSDFactor or
    PartitionQuotients, coloured by its principal pseudo-square root in
    the draw buffer.  The random stream is consumed as by one (N, p)
    draw; a coloured block can differ from unblocked colouring in the
    last bit."""
    return _normal_blocks(N, A.p, rng, step=lambda G, work: A.apply(G, 0.5, out=G, work=work),
                          work_entries=A._work_entries)


def _residual_blocks(gamma, N, p, rng):
    """Row blocks of N draws of (I - Gamma) G, G a standard normal row:
    the null law of the whitened residual on max/sigma routes.  Gamma G
    is subtracted in the draw buffer, with the arithmetic of
    ``G - gamma.apply(G)``."""
    return _normal_blocks(N, p, rng, step=gamma._subtract, work_entries=gamma._work_entries)


def _exceedances(draws, value, statistic="max"):
    """Number of rows of ``draws`` (see ``_normal_blocks``) whose
    statistic exceeds value: the max-norm, or the squared norm for
    "euclidean".  Each block is counted where it is drawn (see
    ``_blocks``), so the caller only sums the counts; the blocks are
    closed however the count ends, which stops the decoders."""
    if statistic == "euclidean":
        def count(Z, spare):
            return int((np.einsum("ij,ij->i", Z, Z) > value).sum())
    else:
        def count(Z, spare):
            return int((_max_norms(Z, spare) > value).sum())
    short = statistic == "max" and draws.pairs < _PAIR_MAJOR_BELOW
    with closing(_blocks(draws, count, _PAIR_MAJOR_ENTRIES if short else 0)) as counts:
        return sum(counts)


def _max_norms(b, spare):
    """The max-norm of each row of a block, taken in place: along the
    pairs of a pair-major block (one whose transpose is C-contiguous, as
    partition colouring writes it), and along the rows of any other.  A
    row-major block of more rows than pairs, fewer than
    ``_PAIR_MAJOR_BELOW`` of them, is reduced through pair-major copies
    of its rows into ``spare``, a flat array, as many rows at a time
    as it holds."""
    rows, cols = b.shape
    if b.T.flags.c_contiguous:
        return np.abs(b.T, out=b.T).max(axis=0)
    if rows <= cols or cols >= _PAIR_MAJOR_BELOW:
        return np.abs(b, out=b).max(axis=1)
    norms, step = np.empty(rows), spare.size // cols
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        pair_major = spare[: (hi - lo) * cols].reshape(cols, hi - lo)
        np.abs(b[lo:hi].T, out=pair_major).max(axis=0, out=norms[lo:hi])
    return norms


def _bootstrap_blocks(Y, N, rng):
    """Row blocks of the N multiplier replicates (2 / sqrt(n)) W Y, W an
    (N, n) standard normal draw taken block by block in its row order and
    Y the n x p centred leave-one-out matrix, already projected.  Given
    the data a replicate is Gaussian with covariance n P SigmaJ P, P the
    projection's complement and SigmaJ the jackknife estimate, so it
    stands in for the null law of sqrt(n) times the projected residual.
    Each block is the product W Y written into the work array, then
    scaled in place.  n < 3 is refused here, before any block is drawn."""
    n, p = Y.shape
    if n < 3:
        raise ValueError("multiplier bootstrap needs n >= 3")
    scale = 2.0 / np.sqrt(n)

    def replicates(W, work):
        Z = np.matmul(W, Y, out=work[: len(W) * p].reshape(len(W), p))
        Z *= scale
        return Z

    # a block draws n columns and yields p, so it is sized by the wider
    return _normal_blocks(N, max(n, p), rng, cols=n, step=replicates,
                          work_entries=lambda rows: rows * p, pairs=p)


# ---------------------------------------------------------------------------
# orchestration


def _identity_null(est, gamma, n):
    """Null law of sqrt(n) (I - Gamma)(tau_hat - tau) under the estimate:
    the merged spectrum of its covariance n (I - Gamma) Sigma (I - Gamma),
    as a tuple, and that covariance, a PartitionQuotients or PSDFactor.
    Gamma is B B^+; the eigenvalues are ranked against n trace(Sigma),
    from the unprojected estimate.  A partition estimate keeps its law,
    which depends on nothing else, for every test of its sample."""
    if est.kind == "partition":
        # Gamma removes the trivial component
        return _kept(est, "identity null",
                     lambda: _spectrum_and_law(partition_projected(est.quotients, n)))
    # with Y the estimate's rows (D for the jackknife), the covariance
    # is (4/n) (Y (I - Gamma))' (Y (I - Gamma)): one thin SVD, and
    # n trace(Sigma) = (4/n) ||Y||_F^2
    Y = est.rows
    norm = (4.0 / n) * float(np.einsum("ij,ij->", Y, Y))
    return _spectrum_and_law(PSDFactor.of_rows(_projected_rows(gamma, Y), 4.0 / n, norm))


def _projected_rows(gamma, D):
    """D - Gamma D for the n x p rows D, written over the buffer of
    Gamma D, so the one n x p array it makes is the result."""
    G = gamma.apply(D)
    return np.subtract(D, G, out=G)


def _spectrum_and_law(null):
    """(merged kept spectrum as a tuple, the form) of a null covariance form."""
    values, multiplicities = null.spectrum
    return tuple(_merged_spectrum(values[null.keep], multiplicities[null.keep])), null


def _rows_null_is_zero(D, R, n):
    """Whether ``_identity_null`` of a dense estimate with rows D keeps
    no eigenvalue, given the projected rows R = D - Gamma D: whether the
    largest eigenvalue (4/n) s_max^2 of (4/n) R'R falls to ``rank_mask``.
    ||R||_F^2 / min(n, p) <= s_max^2 <= ||R||_F^2 decides it, each bound
    widened by a factor 2 against rounding; the thin SVD runs only where
    the two bounds fall on either side of the cut."""
    size, norm = max(R.shape), (4.0 / n) * float(np.einsum("ij,ij->", D, D))
    frob = (4.0 / n) * float(np.einsum("ij,ij->", R, R))
    if not rank_mask([2.0 * frob], size, norm).any():
        return True
    if rank_mask([frob / (2.0 * min(R.shape))], size, norm).any():
        return False
    return not PSDFactor.of_rows(R, 4.0 / n, norm).keep.any()


def _degenerate_fit(tau, theta):
    """Whether tau - theta is zero up to rounding: as a p x 1 matrix it
    has numerical rank 0 against the norm of tau."""
    r = np.asarray(tau) - theta
    return not rank_mask([np.sqrt(r @ r)], r.size, np.sqrt(tau @ tau)).any()


_Fit = namedtuple("_Fit", "design est gamma theta weight exact notes info")


def _fit(sample, hypothesis, opts):
    """The _Fit of a test on a KendallSample, the one place that branches
    on the hypothesis type and the weighting: the design, the covariance
    estimate ``est``, the projection ``gamma``, theta_hat = gamma tau_hat,
    the statistic's ``weight`` (1/n or ``est.factor``), whether the
    residual is rounding noise or, on a GLS route whose weight keeps no
    more than L eigenvalues, zero once whitened (``exact``), the
    report's ``notes`` (the distortion note, if any) and its
    ``hypothesis`` entry ``info``.  A Partition takes the structured
    estimate and the orthogonal projector, or with the jackknife
    estimator is tested as its membership design; a design takes the
    dense jackknife and, with sigma weighting, the GLS projector, or the
    orthogonal one where GLS is singular and the orthogonal fit is
    exact."""
    tau = sample.tau
    n, d = sample.shape
    notes, singular, whitened_zero = [], None, False
    if isinstance(hypothesis, Partition):
        if hypothesis.d != d:
            raise ValueError(
                "partition is over %d variables, data has %d" % (hypothesis.d, d)
            )
        if opts.estimator == "jackknife":
            hypothesis = _membership_design(hypothesis)
    if isinstance(hypothesis, Partition):
        design = _membership_design(hypothesis)
        est = structured_jackknife_partition(sample, hypothesis)
        gamma = gamma_projection(design)  # = Gamma(A) for any matching A
        info = {"type": "partition", "d": d, "groups": [list(g) for g in hypothesis.groups]}
    elif isinstance(hypothesis, DesignMatrix):
        design = hypothesis
        if design.p != tau.size:
            raise ValueError(
                "design has %d rows but the data has %d pairs" % (design.p, tau.size)
            )
        if opts.estimator != "jackknife":
            raise ValueError(
                "design-matrix hypotheses use the dense jackknife estimator; "
                "structured estimation needs a Partition hypothesis"
            )
        est = jackknife_cov(sample)
        info = {"type": "design", "kind": design.kind, "p": design.p}
        notes = [_DISTORTION_NOTE] if opts.weighting == "sigma" else []
        try:
            gamma = gamma_projection(design, est.factor if notes else None)
        except SingularError as exc:
            # without the traceback, which would hold this frame and so,
            # in a cycle, the sample
            singular, gamma = exc.with_traceback(None), gamma_projection(design)
        else:
            # the whitened residual lies in the weight's range, orthogonal
            # to the L columns of the whitened design: it is zero when that
            # range has dimension L
            whitened_zero = bool(notes) and int(est.factor.keep.sum()) <= design.L
    else:
        raise TypeError("hypothesis must be a Partition or a DesignMatrix")
    theta = gamma.apply(tau)
    exact = whitened_zero or _degenerate_fit(tau, theta)
    if singular is not None and not exact:
        raise singular
    weight = 1.0 / n if opts.weighting == "identity" else est.factor
    return _Fit(design, est, gamma, theta, weight, exact, notes, dict(info, L=design.L))


def _whitened_residual(fit):
    """The projector Gamma' with I - Gamma' the null covariance of the
    whitened residual on max/sigma routes, by the hypothesis type, not the
    estimate's form: for a Partition, the fit's own projector B B^+."""
    if fit.info["type"] == "partition":
        return fit.gamma
    # I - U U', U the eigenvectors of C C', C = Sigma^{-1/2} B, whose
    # eigenvalues (of C'C = B' Sigma^+ B) the GLS rule keeps
    B, factor = fit.design.matrix, fit.est.factor
    CC = PSDFactor.of_rows(factor.apply(B.T, -0.5), 1.0, _normal_norm(B, factor))
    U = CC.V[:, CC.keep]
    return ProjectionOperator("orthogonal", B.shape[0], factors=(U, U.T))


def run_test(data, hypothesis, options):
    """Run one structure test and return a TestReport.

    ``data`` is an (n, d) array, ranked here, or a KendallSample ranked
    with the options' ``ties`` and ``tie_seed`` (ValueError otherwise),
    which lets several tests share one kernel pass.  ``hypothesis`` is a
    Partition (the hypothesis that the Kendall matrix is invariant to
    permutations within groups, tested with structured covariance
    machinery, or with the jackknife estimator as its membership design)
    or a DesignMatrix (a general linear hypothesis tau = B beta with the
    dense jackknife).  ``options`` selects the
    statistic, weighting, and p-value scheme; see TestOptions.
    """
    return _run_test(data, hypothesis, options)[0]


def _run_test(data, hypothesis, opts):
    """(report, tau_hat, theta_hat) of ``run_test``: the report, the
    estimate it tested and the fit it used.
    A test runs in four stages: rank, fit, statistic and null law."""
    method = opts.validate()
    sampler = _ROUTES[opts.estimator, opts.statistic, opts.weighting, opts.null_draws][1]
    rng = np.random.default_rng(opts.seed)
    msgs = []

    sample = KendallSample.of(data, opts.ties, opts.tie_seed)
    tau = sample.tau
    n, d = sample.shape
    p = tau.shape[0]
    if sample.tied:
        msgs.append(
            "tied values in column(s) %s were jittered before ranking" % sample.tied
        )

    fit = _fit(sample, hypothesis, opts)
    msgs.extend(fit.notes)

    # -- statistic: 0 for a residual that is rounding noise (an exact fit),
    # which also excuses a degenerate covariance ---------------------------
    stat_fn = statistic_euclidean if opts.statistic == "euclidean" else statistic_max
    try:
        value = stat_fn(tau, fit.theta, fit.weight)
    except SingularError:
        if not fit.exact:
            raise
        msgs.append(
            "covariance estimate is degenerate and the hypothesis fits "
            "exactly; statistic treated as 0"
        )
    if fit.exact:
        value = 0.0

    # -- null law, by the route's sampler; nothing is drawn for a statistic
    # at its minimum, which is no evidence against the null ----------------
    N, df, spectrum, blocks, zero_null = opts.replicates, None, None, None, False
    if sampler in ("chi-square mixture", "coloured gaussian"):
        spectrum, null_cov = _identity_null(fit.est, fit.gamma, n)
        zero_null = not spectrum
    if sampler == "chi-square tail":
        df, N = p - fit.design.L, None
    elif sampler == "multiplier bootstrap":
        # set up ahead of the shortcut below, so that n < 3 is refused on
        # every fit; projecting the n rows once projects every replicate,
        # and the same rows decide the zero-null note of a dense estimate
        D = fit.est.rows
        R = _projected_rows(fit.gamma, D)
        blocks = _bootstrap_blocks(R, N, rng)
        if fit.est.kind == "dense":
            zero_null = _rows_null_is_zero(D, R, n)
        else:
            zero_null = not _identity_null(fit.est, fit.gamma, n)[0]
    if zero_null:
        msgs.append(_ZERO_NULL_NOTE)
    if value == 0.0:
        p_value = 1.0
    elif sampler == "chi-square tail":
        p_value = pvalue_chisq(value, p, fit.design.L)
    elif sampler == "chi-square mixture":
        # a positive statistic exceeds a zero null law
        p_value = pvalue_mixture_mc(value, spectrum, N, rng, opts.plus_one) if spectrum else 0.0
    else:
        if sampler == "coloured gaussian":
            blocks = _null_gaussian_blocks(null_cov, N, rng)
        elif sampler == "whitened-residual gaussian":
            blocks = _residual_blocks(_whitened_residual(fit), N, p, rng)
        p_value = _mc_pvalue(_exceedances(blocks, value, opts.statistic), N, opts.plus_one)

    return TestReport(
        statistic=opts.statistic,
        weighting=opts.weighting,
        estimator=opts.estimator,
        value=float(value),
        p_value=float(p_value),
        method=method,
        N=N,
        seed=opts.seed,
        df=df,
        eigenvalues=list(spectrum) if sampler == "chi-square mixture" else None,
        warnings=msgs,
        hypothesis=fit.info,
        n=n,
        d=d,
        p=p,
        L=fit.design.L,
        version=__version__,
        input_digest=sample.digest,
        options=opts.to_dict(),
    ), tau, fit.theta
