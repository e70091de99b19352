"""Kendall correlation vectors as degree-2 U-statistics.

For two observations x, y the kernel is, per variable pair (i, j),

    h_{ij}(x, y) = sign(x_i - y_i) * sign(x_j - y_j)  in {-1, +1},

i.e. +1 for a concordant pair of observations and -1 for a discordant
one.  Averaging the kernel over all n(n-1)/2 observation pairs gives the
sample Kendall correlation vector tau_hat in flat pair order, and the
leave-one-out averages

    tau_hat^{(i)} = 1/(n-1) * sum_{s != i} h(X_i, X_s)

drive the jackknife covariance estimators.  For observation r the kernel
sums over s are the off-diagonal entries of the Gram matrix S_r' S_r,
where S_r = sign(X_r - X) is n x d, so the pass is one batched BLAS
product per block of rows.  Each column is ranked once into dense
integer ranks R, equal values sharing a rank, and S_r holds the signs
of the dense-rank differences R_r - R, which equal those of X_r - X
entry by entry.  The signs and their products are held in float32:
every partial sum a BLAS product forms, in any order and with or
without fused multiply-adds, is an integer of magnitude at most n - 1,
which float32 represents exactly while n - 1 <= 2**24 (a larger n is
refused).  The row sums are therefore exact integers, written as
int16 (int32 once n - 1 > 32767), until the final division, and
brute-force comparisons can demand bitwise equality.  When the pass
spans two or more blocks of rows and the process may use a second CPU
(``_second_cpu``, the rule the Monte Carlo draws of ``testing`` follow
too), a helper thread takes half of the blocks; NumPy releases the
interpreter lock in the sign blocks and the products, and the sums are
the same.

Tied values make the kernel 0 and break the +/-1 contract; by default
that is a hard error.  An opt-in, seeded jitter of relative size 1e-9
per column is available for data with incidental ties.  The pass finds
a tie itself, from the diagonal of the Gram products, so only jittering
scans the data for tied columns.

A KendallSample is one dataset ranked once: tau, the centred
leave-one-out rows D (row i is tau_hat^{(i)} - tau_hat), the input
digest and the tied columns.  It is the one way to rank data:
``run_test`` and the covariance estimators take it in place of the raw
array, so every test of a dataset shares one O(n^2 p) pass.
``tau_and_leave_one_out`` is the bare kernel pass on the array a sample
hands it.  A sample holds its row sums, a quarter of D's float64
while they are int16, in a ``LeaveOneOut``: D is
float64(sums) / (n - 1) - tau_hat entry by entry, so any chunk of D is
made from them bit for bit.  The structured estimates read D a chunk at
a time and never form it; a route that needs all of D forms it once, on
the first read of ``rows``, and the sums are then released.  The
estimates hold the LeaveOneOut, never the sample, so no reference cycle
keeps the arrays alive.
"""

import hashlib
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Literal

import numpy as np

from .indexing import _field, _integer, _pairs0

__all__ = [
    "KendallSample",
    "TieError",
    "tau_and_leave_one_out",
]

# soft cap, in bytes, on the working buffers of a pass's blocks of rows,
# shared by the two threads when a helper runs; ``sblock`` sizes its
# chunks of leave-one-out rows by it too.  Kept small: larger
# blocks are no faster, and freeing buffers of tens of MB raised the
# later peak RSS of a run_test (glibc then serves allocations of that
# size from its heap instead of returning them to the system)
_BLOCK_BUDGET = 2.0**22
# the largest n - 1 the float32 pass counts exactly: float32 holds every
# integer of magnitude up to 2**24
_EXACT_COUNT = 2**24


class TieError(ValueError):
    """Tied values make the concordance kernel vanish."""


def _as_data(data):
    X = np.asarray(data, dtype=float)
    if X.ndim != 2:
        raise ValueError("data must be a 2-d array of shape (n, d)")
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least two observations, got n=%d" % n)
    if d < 2:
        raise ValueError("need at least two variables, got d=%d" % d)
    if not np.isfinite(X).all():
        raise ValueError("data contains non-finite values")
    return X


def _tied_columns(X):
    """1-based indices of the columns holding a repeated value."""
    S = np.sort(X, axis=0)
    return [int(j) + 1 for j in np.flatnonzero((S[1:] == S[:-1]).any(axis=0))]


def _jitter_columns(X, cols, seed):
    """A copy of X with the listed 1-based columns jittered; only those
    columns are checked again.

    The noise is seeded uniform on +/- 1e-9 times the column range,
    which leaves distinct values' ranks intact unless they are closer
    than the jitter itself.
    """
    X = X.copy()
    rng = np.random.default_rng(seed)
    for j in cols:
        col = X[:, j - 1]
        span = float(col.max() - col.min()) or 1.0
        col += rng.uniform(-1e-9 * span, 1e-9 * span, size=col.shape)
    still = [cols[k - 1] for k in _tied_columns(X[:, [j - 1 for j in cols]])]
    if still:
        raise TieError("jitter failed to break ties in columns %s" % still)
    return X


def _second_cpu():
    """Whether work may run on a second CPU beside the calling thread:
    the process may run on at least two CPUs and is not a child process,
    such as a worker of ``run_study``'s pool, whose siblings already fill
    the CPUs.  The kernel pass and the Monte Carlo draws of ``testing``
    both follow this rule."""
    if multiprocessing.parent_process() is not None:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _sums_dtype(n):
    """The integer type of the row sums of n observations: int16 while it
    holds n - 1, else int32."""
    return np.int16 if n - 1 <= np.iinfo(np.int16).max else np.int32


def _dense_ranks(X, dtype):
    """Each column of X as dense 0-based ranks of type ``dtype``: equal
    values (-0.0 and +0.0 too) share a rank, so sign(R_r - R_s) is
    sign(X_r - X_s) entry by entry.  The ranks of n rows, and their
    differences, are at most n - 1 in magnitude, which ``dtype`` must
    hold.  A function of its own, so that the sort's temporaries are
    freed before the pass allocates its blocks."""
    order = np.argsort(X, axis=0)
    ranked = np.take_along_axis(X, order, axis=0)
    step = np.zeros(X.shape, dtype=dtype)
    np.not_equal(ranked[1:], ranked[:-1], out=step[1:])
    R = np.empty_like(step)
    np.put_along_axis(R, order, np.cumsum(step, axis=0, dtype=dtype), axis=0)
    return R


def _pair_row_sums(X):
    """Row sums sum_{s != r} h(X_r, X_s) as an (n, p) integer array, each
    of magnitude at most n - 1: int16 while n - 1 <= 32767, else int32.

    Row r holds the upper-triangle entries of S_r' S_r, from one batched
    float32 matmul per block of rows; S_r is sign(R_r - R) of the
    columns' dense ranks R (``_dense_ranks``), made in the integer type
    of the sums and copied to float32.  The block buffers are allocated
    once, on the calling thread (allocations on a helper thread can raise
    peak RSS through the C library's per-thread heaps), and kept within
    _BLOCK_BUDGET bytes.
    With two or more blocks and ``_second_cpu()``, the second half of the
    blocks is one task on a pool of one helper thread, each thread works
    in blocks of half the budget, and both write into the one output
    array; an exception on either half is raised here, once the pool has
    shut down.
    O(n^2 d^2) work overall.  The diagonal of
    S_r' S_r counts the observations that differ from X_r in each
    variable, so an entry below n - 1 is a tie, raised as TieError.
    """
    n, d = X.shape
    if n - 1 > _EXACT_COUNT:
        raise ValueError(
            "the kernel pass counts exactly in float32 only while n - 1 <= %d, "
            "got n=%d" % (_EXACT_COUNT, n)
        )
    ii0, jj0 = _pairs0(d)
    p = len(ii0)
    flat = ii0 * d + jj0
    R = _dense_ranks(X, _sums_dtype(n))
    out = np.empty((n, p), dtype=R.dtype)
    # per row of a block: integer and float32 signs (n x d), the float32
    # Gram matrix (d x d) and its gathered pairs (p)
    row_bytes = (4 + R.itemsize) * n * d + 4 * (d * d + p)
    threads = 2 if _BLOCK_BUDGET // row_bytes < n and _second_cpu() else 1
    blk = int(max(1, min(n, _BLOCK_BUDGET // (threads * row_bytes))))
    bufs = [
        (np.empty((blk, n, d), dtype=np.float32), np.empty((blk, n, d), dtype=R.dtype),
         np.empty((blk, d, d), dtype=np.float32), np.empty((blk, p), dtype=np.float32))
        for _ in range(threads)
    ]
    bounds = [(lo, min(lo + blk, n)) for lo in range(0, n, blk)]

    def rows(blocks, S, signs, G, pairs):
        for start, stop in blocks:
            b = stop - start
            # sign(R_r - R_s), exact in the integer type; the s = r term is 0
            Ib = np.subtract(R[start:stop, None, :], R, out=signs[:b])
            np.sign(Ib, out=Ib)
            Sb = S[:b]
            np.copyto(Sb, Ib)
            Gb = np.matmul(Sb.transpose(0, 2, 1), Sb, out=G[:b])
            if Gb.diagonal(0, 1, 2).min() < n - 1:
                raise TieError(
                    "tied values in column(s) %s; pass ties='jitter' (seeded) or "
                    "pre-process the data" % _tied_columns(X)
                )
            out[start:stop] = np.take(Gb.reshape(b, d * d), flat, axis=1,
                                      out=pairs[:b], mode="clip")

    if threads == 1:
        rows(bounds, *bufs[0])
        return out
    half = (len(bounds) + 1) // 2
    with ThreadPoolExecutor(1, thread_name_prefix="kstruct-kernel") as pool:
        second = pool.submit(rows, bounds[half:], *bufs[1])
        rows(bounds[:half], *bufs[0])
    second.result()
    return out


def tau_and_leave_one_out(X):
    """(tau_hat, sums) of a validated float64 array X with no ties left,
    from one kernel pass: ``sums`` is the (n, p) integer array of
    ``_pair_row_sums``, from which ``LeaveOneOut`` makes the centred
    leave-one-out matrix D.  ``KendallSample`` hands it the array it
    ranks.

    tau_hat comes from the column sums of the integer row sums, added in
    float64, which holds them exactly: every partial sum is at most
    n (n - 1) < 2**49 in magnitude.
    """
    n = X.shape[0]
    sums = _pair_row_sums(X)
    return sums.sum(axis=0, dtype=np.float64) / float(n * (n - 1)), sums


class LeaveOneOut:
    """The n x p centred leave-one-out matrix D of one sample (row i
    tau_hat^{(i)} - tau_hat), held as the kernel pass's exact integer
    row sums, made read-only, and tau_hat: D is
    float64(sums) / (n - 1) - tau_hat, the division and subtraction
    entry by entry.

    ``write(lo, hi, out)`` puts rows [lo, hi) of D into ``out``, a
    (hi - lo, p) float64 array, so a reader of D in chunks never forms
    it.  ``rows`` is all of D, formed once, on its first read, and
    read-only; the sums are then released and chunks copied from D.
    Threads that race on the first read of ``rows`` each form an equal
    D.
    """

    __slots__ = ("shape", "tau", "_sums", "_rows", "__weakref__")

    def __init__(self, sums, tau):
        sums.flags.writeable = False
        self.shape, self.tau = sums.shape, tau
        self._sums, self._rows = sums, None

    def write(self, lo, hi, out):
        sums = self._sums  # None only once D is formed
        if sums is None:
            np.copyto(out, self._rows[lo:hi])
        else:
            out[...] = sums[lo:hi]
            out /= float(self.shape[0] - 1)
            out -= self.tau
        return out

    @property
    def rows(self):
        D = self._rows
        if D is None:
            sums = self._sums
            if sums is None:  # formed meanwhile by another thread
                return self._rows
            D = self.write(0, self.shape[0], np.empty(self.shape))
            D.flags.writeable = False  # every estimate of the sample shares it
            self._rows = D
            self._sums = None
        return D


# how tied values are ranked: refused, or broken by a seeded jitter
Ties = Literal["error", "jitter"]
# the refusal of a tie seed that no jitter reads
_UNREAD_TIE_SEED = "tie_seed does not apply to ties='error', which jitters nothing"


class KendallSample:
    """One dataset ranked once, for every test and estimate made on it.

    Built from ``(data, ties, tie_seed)``, everything taken when it is
    built; holds the ``shape`` (n, d) of the validated data, tau_hat
    ``tau`` and ``leave_one_out``, the LeaveOneOut of the centred
    leave-one-out matrix D (row i tau_hat^{(i)} - tau_hat) from one
    kernel pass, which every estimate of the sample shares without a
    copy; ``rows`` reads D whole, formed on the first read.  Also the
    ``digest`` of the raw array that reports echo, the 1-based
    ``tied`` columns that were jittered (none with ties="error", which
    raises TieError here instead), and its ``ties``, read by
    ``indexing._field``, and ``tie_seed`` (an integer: 3.0 is read as 3,
    and 0.5 and -1 raise ValueError; anything but 0 needs ties="jitter").
    """

    def __init__(self, data, ties="error", tie_seed=0):
        X = _as_data(data)
        self.shape = X.shape
        self.digest = hashlib.sha256(np.ascontiguousarray(X).tobytes()).hexdigest()[:16]
        self.tie_seed = _integer(tie_seed, "tie_seed")
        self.ties = _field(Ties, ties, "ties")
        if self.tie_seed < 0:
            raise ValueError("tie_seed must be non-negative, got %r" % self.tie_seed)
        if self.tie_seed and self.ties == "error":
            raise ValueError(_UNREAD_TIE_SEED)
        # with ties="error" nothing is scanned: the pass raises on a tie
        self.tied = []
        if self.ties == "jitter":
            self.tied = _tied_columns(X)
            if self.tied:
                X = _jitter_columns(X, self.tied, self.tie_seed)
        self.tau, sums = tau_and_leave_one_out(X)
        self.leave_one_out = LeaveOneOut(sums, self.tau)

    @property
    def rows(self):
        return self.leave_one_out.rows

    @classmethod
    def of(cls, data, ties=None, tie_seed=None):
        """``data`` as a sample: a KendallSample as it is, anything else
        ranked with ``ties`` and ``tie_seed`` (default "error" and 0).  A
        sample ranked otherwise than a given ``ties`` or ``tie_seed``
        raises ValueError."""
        if not isinstance(data, cls):
            return cls(data, "error" if ties is None else ties,
                       0 if tie_seed is None else tie_seed)
        for name, want in (("ties", ties), ("tie_seed", tie_seed)):
            if want is not None and want != getattr(data, name):
                raise ValueError(
                    "the sample was ranked with %s=%r, not %r"
                    % (name, getattr(data, name), want)
                )
        return data
