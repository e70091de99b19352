"""Structured matrices on pair space: the exchangeable S-block's spectrum,
the grand-mean and star projectors, and the partition quotient algebra.

A symmetric p x p matrix whose (k, l) entry depends only on how many
variables the pairs k and l share (entry s2 on the diagonal, s1 where
the pairs share one variable, s0 where they are disjoint) has at most
three distinct eigenvalues,

    delta_1 = s2 + 2(d-2) s1 + (p-2d+3) s0      on the constant vector,
    delta_2 = s2 + (d-4) s1 - (d-3) s0          multiplicity d-1,
    delta_3 = s2 - 2 s1 + s0                    multiplicity p-d.

The eigenprojections are the grand-mean averager Gamma = J/p and the
"star" projector Gamma* onto per-variable additive effects; delta_2
lives on range(Gamma*) minus the constants and delta_3 on the
complement of range(Gamma*).  For d = 3 there are no disjoint pairs and
two eigenvalues (multiplicities 1 and 2); for d = 2 everything is the
scalar s2.

Partition structure.  A pair-space matrix invariant under permutations
within the groups of a partition (sizes m_1, ..., m_K) lives in the
commutant of S_{m_1} x ... x S_{m_K}, and pair space splits into
isotypic components on which such a matrix acts through small
quotients:

- the trivial component, spanned by the class indicators (the columns
  of the block-membership design): one L x L quotient;
- a standard component per group g with m_g >= 2: one copy per partner
  group h != g (the g-h pairs summed per variable of g, centred over
  g), plus the within-g pairs when m_g >= 3; the c_g x c_g quotient's
  eigenvalues each have multiplicity m_g - 1;
- a scalar remainder per class: dimension m_g(m_g-3)/2 for the within-g
  pairs and (m_g-1)(m_h-1) for the g-h pairs.

Each copy is embedded by the equivariant map incidence-times-centring,
scaled to an isometry, so the quotient entries are plain traces and the
eigen-decomposition of a p x p matrix reduces to that of a few
matrices of side at most max(L, K).  With one group this is the
S-block above: the three quotients are 1 x 1 and equal delta_1,
delta_2 and delta_3, which is the only representation of an
exchangeable covariance the package computes with.
"""

from collections import namedtuple
from functools import lru_cache

import numpy as np
from scipy import sparse

from .indexing import _incidence, _pairs0, pair_count

__all__ = [
    "SingularError",
    "Spectrum",
    "rank_mask",
    "eigenvalues",
    "gamma_star_apply",
    "gamma_apply",
    "PartitionQuotients",
    "partition_quotients",
    "partition_projected",
    "partition_pseudo_power",
    "partition_apply",
    "partition_materialize",
]

Spectrum = namedtuple("Spectrum", ["values", "multiplicities"])


class SingularError(ValueError):
    """A structured matrix has a (near-)zero eigenvalue where it may not."""


def rank_mask(values, size, norm=None):
    """Which eigenvalues of a symmetric PSD matrix count toward its
    numerical rank; every rank decision of the package is this rule.

    lam is kept when lam > 1e-10 * lam_max and lam > c * eps * size * norm,
    with lam_max the largest of ``values`` (nothing is kept when it is
    not positive), eps the float64 machine epsilon and c = 10.  ``size``
    is max(n, p) for a matrix computed from n x p rows (p for p x p), and
    ``norm`` the largest eigenvalue of the *unprojected* matrix, or a
    bound on it such as its trace (default lam_max: the matrix is its own
    reference).  The second cut is NumPy's ``matrix_rank`` tolerance,
    S.max() * max(M, N) * eps, with a margin c, taken against the
    unprojected matrix: where a projection leaves only rounding noise,
    lam_max is noise too and a relative cut has no scale.  Singular
    values are ranked alike, and a vector as a p x 1 matrix.
    """
    values = np.asarray(values, dtype=float)
    top = float(values.max(initial=0.0))
    norm = top if norm is None else norm
    return values > max(1e-10 * top, 10.0 * np.finfo(float).eps * size * norm)


def _overlap_map(d):
    """The 3 x 3 matrix taking (s0, s1, s2) to (delta_1, delta_2, delta_3)."""
    p = pair_count(d)
    return np.array(
        [
            [p - 2.0 * d + 3.0, 2.0 * (d - 2.0), 1.0],
            [-(d - 3.0), d - 4.0, 1.0],
            [1.0, -2.0, 1.0],
        ]
    )


def eigenvalues(s, d):
    """Closed-form spectrum of the S-block with coefficients s = (s0, s1, s2).

    Returns a Spectrum(values=(delta_1, delta_2, delta_3),
    multiplicities=(1, d-1, p-d)).  Multiplicity-zero slots (d = 2, 3)
    still carry the formula value; it is ignored by every consumer.
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (3,):
        raise ValueError("expected three coefficients (s0, s1, s2)")
    if d == 2:
        return Spectrum((s[2],) * 3, (1, 0, 0))
    return Spectrum(tuple(_overlap_map(d) @ s), (1, d - 1, pair_count(d) - d))


def gamma_apply(v):
    """Grand-mean projector J/p applied to v (last-axis-is-p layout)."""
    v = np.asarray(v, dtype=float)
    return np.broadcast_to(
        v.mean(axis=-1, keepdims=True), v.shape
    ).copy()


def gamma_star_apply(v, d):
    """Star projector onto per-variable additive effects, in O(p d).

    (Gamma* v)_k = (d-1)/(d-2) (Vbar_{i_k} + Vbar_{j_k}) - d/(d-2) vbar,
    where Vbar_j averages the entries containing variable j.  Only
    defined for d >= 4 (for d = 3 it would be the identity).

    ``v`` may be (p,) or (..., p); the projector acts on the last axis.
    """
    if d < 4:
        raise ValueError("the star projector needs d >= 4, got d=%d" % d)
    v = np.asarray(v, dtype=float)
    p = pair_count(d)
    if v.shape[-1] != p:
        raise ValueError("vector has length %d, expected p=%d" % (v.shape[-1], p))
    ii0, jj0 = _pairs0(d)
    if v.ndim == 1:
        colsum = np.bincount(ii0, weights=v, minlength=d) + np.bincount(
            jj0, weights=v, minlength=d
        )
    else:
        colsum = v @ _incidence(d)
    colmean = colsum / (d - 1.0)
    vbar = v.mean(axis=-1, keepdims=v.ndim > 1)
    out = (d - 1.0) / (d - 2.0) * (colmean[..., ii0] + colmean[..., jj0])
    return out - d / (d - 2.0) * vbar


# ---------------------------------------------------------------------------
# partition structure

class PartitionQuotients:
    """A partition-invariant symmetric pair-space matrix.

    trivial: (L, L) quotient on the class indicators, classes in the
        column order of the block-membership design.
    standard: one (c_g, c_g) quotient per group g, coupling the copies of
        its standard component (partner groups in increasing order, the
        within-g copy at g's own position); (0, 0) when m_g = 1.
    remainder: (L,) eigenvalue of each class's remainder (0 where empty).
    size, norm: its eigenvalues' arguments of ``rank_mask``.

    Like PSDFactor it has ``p``, ``spectrum``, ``keep`` and ``apply``.
    The eigendecomposition, the coordinate maps that apply the matrix
    and each pseudo-power are built once, on first use.
    """

    __slots__ = ("partition", "trivial", "standard", "remainder", "p", "size", "norm",
                 "_eig", "_maps", "_powers")

    def __init__(self, partition, trivial, standard, remainder, size=None, norm=None):
        self.partition = partition
        self.trivial = trivial
        self.standard = tuple(standard)
        self.remainder = remainder
        self.p = pair_count(partition.d)
        self.size = self.p if size is None else size
        self.norm = norm
        self._eig = None
        self._maps = None
        self._powers = {}

    @property
    def spectrum(self):
        """Spectrum(values, multiplicities): the quotients' eigenvalues,
        each with its component's dimension."""
        blocks = _eig_blocks(self)
        return Spectrum(
            np.concatenate([b[0] for b in blocks]),
            np.concatenate([np.full(len(b[0]), b[2]) for b in blocks]),
        )

    @property
    def keep(self):
        return rank_mask(self.spectrum.values, self.size, self.norm)

    def apply(self, v, exponent):
        """The principal pseudo-power q**exponent applied to v, a length-p
        vector or an (N, p) stack of rows."""
        if exponent not in self._powers:
            self._powers[exponent] = partition_pseudo_power(self, exponent)
        return partition_apply(self._powers[exponent], v)


_Layout = namedtuple(
    "_Layout",
    ["p", "L", "sizes", "cls", "agg", "agg_t", "groups", "rem_dim", "energy_class"],
)
# the standard copies of one group: the class of each copy's block, 1/s
# of each copy's embedding E C / s as a column, centring (x) the outer
# product of those scales as an (m, c, m, c) array, and the rows [lo, hi)
# of the group's coordinates (variable-major, copies within) in ``agg_t``
_GroupCopies = namedtuple(
    "_GroupCopies", ["classes", "inv_scale", "centring", "lo", "hi"]
)


@lru_cache(maxsize=32)
def _partition_layout(partition):
    """Index arrays and the aggregation map of a partition (read-only).

    ``agg_t`` is the sparse J x p map from pair space to coordinates:
    for every variable a of a group g with m_g >= 2 and every copy (g, h)
    of g's standard component, the sum of the pairs joining a to group h
    (rows grouped by g), then the class sums scaled by 1/sqrt(class
    size).  ``agg`` is its transpose.
    """
    d, K = partition.d, partition.n_groups
    group = partition.group_of
    sizes = np.bincount(group, minlength=K)
    ii0, jj0 = _pairs0(d)
    p = len(ii0)
    ga, gb = group[ii0], group[jj0]
    keys, cls = np.unique(
        np.minimum(ga, gb) * K + np.maximum(ga, gb), return_inverse=True
    )
    L = len(keys)
    csize = np.bincount(cls, minlength=L)
    block_class = np.full((K, K), -1)
    block_class[keys // K, keys % K] = np.arange(L)
    block_class = np.maximum(block_class, block_class.T)

    row = np.full((d, K), -1)  # coordinate row of (variable, partner group)
    groups, rem_dim, lo = [], csize - 1, 0
    for g, m in enumerate(sizes):
        partners = np.array(
            [h for h in range(K) if m >= 2 and (h != g or m >= 3)], dtype=int
        )
        # s^2 = m_h across groups, m_g - 2 within
        scale2 = np.where(partners == g, m - 2.0, sizes[partners])
        hi = lo + m * len(partners)
        if hi > lo:
            members = np.flatnonzero(group == g)
            row[members[:, None], partners] = np.arange(lo, hi).reshape(m, -1)
        classes = block_class[g, partners]
        np.add.at(rem_dim, classes, 1 - m)
        inv_scale = 1.0 / np.sqrt(scale2)
        centring = (np.eye(m) - 1.0 / m)[:, None, :, None] * np.outer(
            inv_scale, inv_scale
        )[:, None, :]
        groups.append(_GroupCopies(classes, inv_scale[:, None], centring, lo, hi))
        lo = hi

    # pair {a, b} feeds copy (g(a), g(b)) at a and copy (g(b), g(a)) at b
    rows = np.concatenate([row[ii0, gb], row[jj0, ga], lo + cls])
    cols = np.concatenate([np.arange(p)] * 3)
    vals = np.concatenate([np.ones(2 * p), 1.0 / np.sqrt(csize[cls])])
    live = rows >= 0
    agg_t = sparse.csr_matrix(
        (vals[live], (rows[live], cols[live])), shape=(lo + L, p)
    )
    # class of each diagonal entry of the trivial, then standard, quotients
    energy_class = np.concatenate([np.arange(L)] + [gc.classes for gc in groups])
    for arr in (sizes, cls, rem_dim, energy_class):
        arr.flags.writeable = False
    return _Layout(
        p, L, sizes, cls, agg_t.T.tocsr(), agg_t, tuple(groups), rem_dim, energy_class
    )


def partition_quotients(D, partition, scale):
    """Quotients of scale * D^T D averaged over the partition's orbits.

    ``D`` is (n, p); the result is the orbit average of the dense
    scale * D^T D without forming it, in O(n p).  Entries are
    Q[c, c'] = scale * sum_i <J_c^T D_i, J_c'^T D_i> / dim for the
    isometric copy embeddings J_c; each remainder is the class's energy
    left after its trivial and standard parts.
    """
    lay = _partition_layout(partition)
    D = np.asarray(D, dtype=float)
    A = lay.agg_t @ D.T
    t = A[A.shape[0] - lay.L:]
    trivial = scale * (t @ t.T)
    standard, energies = [], [trivial.diagonal()]
    for m, gc in zip(lay.sizes, lay.groups):
        c = len(gc.classes)
        if c == 0:
            standard.append(np.zeros((0, 0)))
            continue
        y = A[gc.lo:gc.hi].reshape(m, c, -1)
        y = ((y - y.sum(axis=0) / m) * gc.inv_scale).transpose(1, 0, 2).reshape(c, -1)
        Q = (scale / (m - 1.0)) * (y @ y.T)
        standard.append(Q)
        energies.append((m - 1.0) * Q.diagonal())

    explained = np.bincount(
        lay.energy_class, weights=np.concatenate(energies), minlength=lay.L
    )
    energy = scale * np.bincount(
        lay.cls, weights=np.einsum("ij,ij->j", D, D), minlength=lay.L
    )
    remainder = np.where(
        lay.rem_dim > 0, (energy - explained) / np.maximum(lay.rem_dim, 1), 0.0
    )
    return PartitionQuotients(partition, trivial, standard, remainder, max(D.shape))


def partition_projected(q, factor):
    """Quotients of factor * (I - Gamma) S (I - Gamma), Gamma the
    orthogonal projector onto the class indicators: the trivial
    quotient is dropped, the rest scaled.  Its rank is decided against
    factor * trace(S), from the unprojected matrix."""
    lay = _partition_layout(q.partition)
    trace = np.trace(q.trivial) + float(lay.rem_dim @ q.remainder) + sum(
        (m - 1.0) * np.trace(Q) for m, Q in zip(lay.sizes, q.standard)
    )
    return PartitionQuotients(
        q.partition,
        np.zeros_like(q.trivial),
        [factor * Q for Q in q.standard],
        factor * q.remainder,
        q.size,
        factor * trace,
    )


def _eig_blocks(q):
    """(eigenvalues, eigenvectors, multiplicity) of the trivial quotient,
    then of each standard one (empty for a single-variable group), then
    the remainders' (eigenvectors None)."""
    if q._eig is None:
        lay = _partition_layout(q.partition)
        std = [(np.zeros(0), np.zeros((0, 0)), 0)] * len(q.standard)
        # one LAPACK call for all standard quotients of one side
        for c in {len(Q) for Q in q.standard} - {0}:
            gs = [g for g, Q in enumerate(q.standard) if len(Q) == c]
            w, U = np.linalg.eigh(np.stack([q.standard[g] for g in gs]))
            for j, g in enumerate(gs):
                std[g] = (w[j], U[j], lay.sizes[g] - 1)
        live = lay.rem_dim > 0
        q._eig = (
            [tuple(np.linalg.eigh(q.trivial)) + (1,)]
            + std
            + [(q.remainder[live], None, lay.rem_dim[live])]
        )
    return q._eig


def partition_pseudo_power(q, exponent):
    """Quotients of the principal pseudo-power of a partition-invariant
    matrix: the eigenvalues w that ``rank_mask`` keeps (``q.keep``) map
    to w**exponent, the others to 0."""
    blocks = _eig_blocks(q)
    kept = np.split(q.keep, np.cumsum([len(b[0]) for b in blocks])[:-1])
    powers = [
        np.power(b[0], exponent, out=np.zeros_like(b[0]), where=k)
        for b, k in zip(blocks, kept)
    ]

    def rebuild(block, w):
        return (block[1] * w) @ block[1].T

    lay = _partition_layout(q.partition)
    remainder = np.zeros_like(q.remainder)
    remainder[lay.rem_dim > 0] = powers[-1]
    return PartitionQuotients(
        q.partition,
        rebuild(blocks[0], powers[0]),
        [rebuild(b, w) for b, w in zip(blocks[1:-1], powers[1:-1])],
        remainder,
    )


def _coordinate_maps(q):
    """(lo, hi, M) for the coordinate rows [lo, hi) of each group, M the
    centring (x) the scaled quotient less the remainder, then the same
    for the class coordinates."""
    if q._maps is None:
        lay = _partition_layout(q.partition)
        rem = q.remainder
        maps = []
        for gc, Q in zip(lay.groups, q.standard):
            if gc.hi > gc.lo:
                W = Q - np.diag(rem[gc.classes])
                M = (gc.centring * W[:, None, :]).reshape(gc.hi - gc.lo, -1)
                maps.append((gc.lo, gc.hi, M))
        J = lay.agg_t.shape[0]
        maps.append((J - lay.L, J, q.trivial - np.diag(rem)))
        q._maps = maps
    return q._maps


def partition_apply(q, v):
    """The partition-invariant matrix q applied to v.

    ``v`` may be (p,) or (..., p) with pair space on the last axis.  The
    remainder scalars act on the whole vector; the coordinates of each
    group's standard copies are centred over the group and mixed by the
    quotient less the remainder's share (scaled to the isometric
    embeddings), and the class coordinates likewise.  Each map is one
    dense block, so a vector costs O(p + sum_g (m_g c_g)^2), which is
    O(p K) for groups of equal size.
    """
    lay = _partition_layout(q.partition)
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != lay.p:
        raise ValueError("vector has length %d, expected p=%d" % (v.shape[-1], lay.p))
    VT = np.ascontiguousarray(v.reshape(-1, lay.p).T)
    A = lay.agg_t @ VT
    for lo, hi, M in _coordinate_maps(q):
        A[lo:hi] = M @ A[lo:hi]
    out = lay.agg @ A
    out += q.remainder[lay.cls][:, None] * VT
    return out.T.reshape(v.shape)


def partition_materialize(q):
    """Dense p x p form of a partition-invariant matrix."""
    return partition_apply(q, np.eye(pair_count(q.partition.d)))
