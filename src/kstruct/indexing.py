"""Pair indexing for half-vectorized correlation matrices.

The p = d(d-1)/2 above-diagonal entries of a symmetric d x d matrix are
stacked column by column, so the flat index k corresponds to the pair
(i_k, j_k) with i_k < j_k:

    k:      1      2      3      4      5      6     ...
    pair: (1,2)  (1,3)  (2,3)  (1,4)  (2,4)  (3,4)   ...

The mapping does not depend on d: entry k refers to the same pair in every
dimension large enough to contain it.  All public indices are 1-based; the
0-based arrays used for numpy windowing are internal.

The module also builds the design matrices used to express hypotheses of
the form tau = B @ beta: block-membership matrices for partitions of the
variables, the diagonal-free variant that leaves within-group entries
unconstrained, and the vertex-incidence design whose columns are per-
variable effects.
"""

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "Partition",
    "DesignMatrix",
    "pair_count",
    "pair_of_index",
    "overlap_count",
    "block_membership_matrix",
    "diagonal_free_membership_matrix",
    "vertex_incidence_design",
    "load_partition_json",
    "load_design_csv",
]


def pair_count(d):
    """Number of variable pairs p = d(d-1)/2."""
    if d < 2:
        raise ValueError("need at least two variables, got d=%d" % d)
    return d * (d - 1) // 2


def pair_of_index(k):
    """Return the 1-based pair (i, j), i < j, at flat index k >= 1.

    Total function on positive integers; the result does not depend on
    any ambient dimension.
    """
    k = int(k)
    if k < 1:
        raise ValueError("pair index must be >= 1, got %d" % k)
    j = (1 + math.isqrt(8 * k - 7)) // 2 + 1
    i = k - (j - 1) * (j - 2) // 2
    return i, j


@lru_cache(maxsize=None)
def _pairs0(d):
    """0-based (i, j) arrays for all p pairs, cached and read-only."""
    p = pair_count(d)
    jj = np.repeat(np.arange(2, d + 1), np.arange(1, d))
    ii = np.arange(1, p + 1) - (jj - 1) * (jj - 2) // 2
    ii0 = (ii - 1).astype(np.intp)
    jj0 = (jj - 1).astype(np.intp)
    ii0.flags.writeable = False
    jj0.flags.writeable = False
    return ii0, jj0


@lru_cache(maxsize=None)
def _incidence(d):
    """p x d 0/1 matrix with row k marking variables i_k and j_k (read-only)."""
    ii0, jj0 = _pairs0(d)
    M = np.zeros((pair_count(d), d))
    M[np.arange(len(ii0)), ii0] = 1.0
    M[np.arange(len(jj0)), jj0] = 1.0
    M.flags.writeable = False
    return M


def overlap_count(k, l):
    """Number of shared variables (0, 1 or 2) between pairs k and l."""
    a = pair_of_index(k)
    b = pair_of_index(l)
    return len(set(a) & set(b))


@dataclass(frozen=True)
class Partition:
    """A partition of the variables {1, ..., d} into disjoint groups.

    Groups are kept in the order given; within each group the members are
    sorted.  The single-group partition expresses full exchangeability.
    """

    d: int
    groups: tuple = field(default=())

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("partition needs d >= 2, got d=%d" % self.d)
        groups = tuple(tuple(sorted(int(v) for v in g)) for g in self.groups)
        if not groups or any(len(g) == 0 for g in groups):
            raise ValueError("partition groups must be non-empty")
        flat = [v for g in groups for v in g]
        if sorted(flat) != list(range(1, self.d + 1)):
            raise ValueError(
                "groups must partition 1..%d exactly, got %r" % (self.d, groups)
            )
        object.__setattr__(self, "groups", groups)

    @classmethod
    def exchangeable(cls, d):
        """The one-group partition of 1..d (full exchangeability)."""
        return cls(d, (tuple(range(1, d + 1)),))

    @property
    def n_groups(self):
        return len(self.groups)

    @property
    def group_of(self):
        """0-based group id of each variable, as a length-d array."""
        g = np.empty(self.d, dtype=np.intp)
        for gi, members in enumerate(self.groups):
            for v in members:
                g[v - 1] = gi
        return g

    def singleton_flags(self):
        return [len(g) == 1 for g in self.groups]


@dataclass(frozen=True)
class DesignMatrix:
    """A p x L design matrix for the hypothesis tau = B @ beta.

    ``kind`` records how the matrix was built ("membership",
    "diagonal-free", "vertex-incidence" or "general").  Every kind needs
    L < p: a design with as many columns as pairs leaves no constraint
    to test and is refused.
    """

    matrix: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        B = np.asarray(self.matrix, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.ndim != 2:
            raise ValueError("design matrix must be 2-d")
        p = B.shape[0]
        d = int(round((1 + math.isqrt(1 + 8 * p)) / 2))
        if pair_count(max(d, 2)) != p:
            raise ValueError(
                "design has %d rows, which is not a pair count d(d-1)/2" % p
            )
        if B.shape[1] >= p:
            raise ValueError(
                "%s design with L=%d columns for p=%d pairs leaves no "
                "constraint to test" % (self.kind, B.shape[1], p)
            )
        object.__setattr__(self, "matrix", B)

    @property
    def p(self):
        return self.matrix.shape[0]

    @property
    def L(self):
        return self.matrix.shape[1]

    @property
    def d(self):
        return int(round((1 + math.isqrt(1 + 8 * self.p)) / 2))


def _class_of_pairs(partition):
    """For each pair k, the 0-based lexicographic id of its group class.

    Classes are unordered group pairs (g, h), g <= h, enumerated in
    lexicographic order over group positions; returns (class ids,
    class list).
    """
    d = partition.d
    g = partition.group_of
    ii0, jj0 = _pairs0(d)
    K = partition.n_groups
    classes = [(a, b) for a in range(K) for b in range(a, K)]
    lookup = np.zeros((K, K), dtype=np.intp)
    lookup[tuple(np.array(classes).T)] = np.arange(len(classes))
    ga, gb = g[ii0], g[jj0]
    return lookup[np.minimum(ga, gb), np.maximum(ga, gb)], classes


def block_membership_matrix(partition):
    """Build the 0/1 block-membership design for a partition hypothesis.

    Each pair of variables is assigned to the class of its group pair;
    pairs in the same class are hypothesized to share one Kendall value.
    Columns are ordered lexicographically over group-index pairs (g, h),
    g <= h; diagonal classes of singleton groups are dropped because they
    contain no pair.  The result has L = K(K+1)/2 - (number of singleton
    groups) columns for K groups.
    """
    p = pair_count(partition.d)
    ids, classes = _class_of_pairs(partition)
    single = partition.singleton_flags()
    kept = [
        ci
        for ci, (a, b) in enumerate(classes)
        if not (a == b and single[a])
    ]
    L = len(kept)
    col = np.zeros(len(classes), dtype=np.intp)
    col[kept] = np.arange(L)
    B = np.zeros((p, L))
    B[np.arange(p), col[ids]] = 1.0
    return DesignMatrix(B, kind="membership")


@lru_cache(maxsize=32)
def _membership_design(partition):
    """``block_membership_matrix(partition)``, built once per partition
    and read-only, for the tests that share it."""
    design = block_membership_matrix(partition)
    design.matrix.flags.writeable = False
    return design


def diagonal_free_membership_matrix(partition):
    """Membership design that leaves within-group entries unconstrained.

    Off-diagonal group classes (g < h) share one column each, ordered
    lexicographically; every within-group pair then gets its own identity
    column, ordered by flat pair index.  Useful when only the between-
    group structure is hypothesized.
    """
    p = pair_count(partition.d)
    ids, classes = _class_of_pairs(partition)
    off = [ci for ci, (a, b) in enumerate(classes) if a != b]
    col = {ci: c for c, ci in enumerate(off)}
    n_off = len(off)
    within = np.array([ci not in col for ci in ids])
    within_pairs = np.flatnonzero(within)
    L = n_off + len(within_pairs)
    B = np.zeros((p, L))
    for k in range(p):
        if not within[k]:
            B[k, col[ids[k]]] = 1.0
    for c, k in enumerate(within_pairs):
        B[k, n_off + c] = 1.0
    return DesignMatrix(B, kind="diagonal-free")


def vertex_incidence_design(d):
    """The p x d design whose k-th row marks variables i_k and j_k.

    Hypothesizes per-variable additive effects: tau_k = beta_{i_k} +
    beta_{j_k}.  Its column space is the range of the star projector used
    by the exchangeable fast paths.  It needs d >= 4: for smaller d there
    are no more pairs than variables, so nothing is left to test.
    """
    return DesignMatrix(_incidence(d).copy(), kind="vertex-incidence")


def load_partition_json(path):
    """Read a partition from a JSON file {"d": int, "groups": [[...], ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        d = int(obj["d"])
        groups = obj["groups"]
    except (KeyError, TypeError) as exc:
        raise ValueError(
            '%s: expected an object {"d": int, "groups": [[...], ...]}' % path
        ) from exc
    return Partition(d, tuple(tuple(g) for g in groups))


def load_design_csv(path):
    """Read a header-free numeric CSV as a general design matrix."""
    B = np.loadtxt(path, delimiter=",", ndmin=2)
    return DesignMatrix(B, kind="general")
