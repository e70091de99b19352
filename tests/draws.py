"""Whole arrays of the Monte Carlo draws that ``run_test`` takes block by
block, for tests of their laws, memory and random stream.

``run_test`` draws through three generators in ``kstruct.testing``:
standard normals (``_normal_blocks``), draws coloured by a covariance
form (``_null_gaussian_blocks``) and multiplier-bootstrap replicates
(``_bootstrap_blocks``).  ``drawn`` joins the row blocks of any of them.
"""

import numpy as np

import kstruct.testing as kt
from kstruct.kendall import KendallSample
from kstruct.projection import gamma_projection


def drawn(blocks):
    """The row blocks as one array; each block is copied before the next
    is drawn over its buffer."""
    return np.concatenate([np.array(b) for b in blocks])


def bootstrap_draws(data, design, N, rng):
    """N multiplier replicates of run_test's bootstrap on ``data`` (an
    array or a KendallSample): the centred leave-one-out rows, projected
    off col(design) unless ``design`` is None."""
    sample = KendallSample.of(data)
    D = sample.loo - sample.tau
    if design is not None:
        D = D - gamma_projection(design).apply(D)
    return drawn(kt._bootstrap_blocks(D, int(N), rng))
