"""Whole arrays of the Monte Carlo draws that ``run_test`` takes block by
block, for tests of their laws, memory and random stream.

``run_test`` draws through the generators in ``kstruct.testing``:
standard normals (``_normal_blocks``), draws coloured by a covariance
form (``_null_gaussian_blocks``), whitened-residual draws
(``_residual_blocks``) and multiplier-bootstrap replicates
(``_bootstrap_blocks``).  ``drawn`` joins the row blocks of any of them.

``sparse_product_apply`` is ``sblock.partition_apply`` as written before
it took buffers, with a fresh array for every intermediate: the
reference that the buffered row path must equal bit for bit.  Likewise
``sparse_product_aggregate`` is the aggregation and the column energies
of ``sblock.partition_quotients`` as written before it read its rows in
chunks, and ``GivenRows`` holds rows given as floats in place of a
sample's leave-one-out rows.
"""

import numpy as np

import kstruct.testing as kt
from kstruct.kendall import KendallSample
from kstruct.projection import gamma_projection
from kstruct.sblock import _partition_layout


def drawn(blocks):
    """The row blocks as one array; each block is copied before the next
    is drawn over its buffer."""
    return np.concatenate([np.array(b) for b in blocks])


def bootstrap_draws(data, design, N, rng):
    """N multiplier replicates of run_test's bootstrap on ``data`` (an
    array or a KendallSample): the centred leave-one-out rows, projected
    off col(design) unless ``design`` is None."""
    sample = KendallSample.of(data)
    D = sample.rows
    if design is not None:
        D = D - gamma_projection(design).apply(D)
    return drawn(kt._bootstrap_blocks(D, int(N), rng))


def sparse_product_apply(q, v):
    """The partition-invariant matrix q applied to v, a (p,) vector or
    an (N, p) stack, through SciPy's sparse products."""
    lay = _partition_layout(q.partition)
    v = np.asarray(v, dtype=float)
    V = v.reshape(-1, lay.p)
    A = lay.agg_t @ np.ascontiguousarray(V.T)
    for lo, hi, M in q._coordinate_maps:
        A[lo:hi] = M @ A[lo:hi]
    out = q.remainder[lay.cls] * V
    out += (lay.agg @ A).T
    return out.reshape(v.shape)


class GivenRows:
    """Rows D given whole as floats, read as ``sblock`` and
    ``CovarianceEstimate`` read a ``kendall.LeaveOneOut``: ``shape``,
    ``rows`` and ``write(lo, hi, out)``."""

    def __init__(self, D):
        self.rows = np.asarray(D, dtype=float)
        self.shape = self.rows.shape

    def write(self, lo, hi, out):
        np.copyto(out, self.rows[lo:hi])
        return out


def sparse_product_aggregate(S, rows):
    """(S D^T, the energy sum_i D_ij^2 of each column) for a CSR matrix S
    and the rows D of a ``kendall.LeaveOneOut`` with S's columns, through
    SciPy's sparse product, which copies D^T whole, and one einsum over
    the whole of D."""
    D = rows.rows
    return S @ D.T, np.einsum("ij,ij->j", D, D)
