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

Every input from outside the program is read here, each kind by one
reader: a numeric CSV by ``_read_csv`` (blank lines skipped, a header
line skipped for data and refused for a design), a JSON file by
``_read_json`` (no NaN or Infinity, no key given twice), and a field of
an options or scenario dataclass by ``_field``, which ``_read_fields``
applies to every typed field: an integer is never truncated, a float is
finite and never a bool, a bool is only a bool, and a choice field,
typed ``Literal[...]``, holds one of its declared strings, so that its
values are declared once, in its type.  A refusal is a ValueError that
names the file or the field, such as ``statistic 'sup' is not
'euclidean' or 'max'``.
"""

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Literal, get_args, get_origin

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


def _check_keys(obj, allowed, where, required=()):
    """Refuse ``obj`` unless it is a dict whose keys are all in
    ``allowed`` and include every key of ``required``."""
    if not isinstance(obj, dict):
        raise ValueError("%s: %r is not an object" % (where, obj))
    unknown = sorted(k for k in obj if k not in allowed)
    for keys, what in ((unknown, "unknown"), ([k for k in required if k not in obj], "missing")):
        if keys:
            raise ValueError("%s: %s key(s) %s" % (where, what, ", ".join(map(repr, keys))))


def _integer(value, what):
    """``value`` as an int, refusing a bool and any value that int()
    would change, such as 1.9 or "2": outside input is never truncated."""
    try:
        whole = not isinstance(value, (bool, np.bool_)) and int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise ValueError("%s %r is not an integer" % (what, value))
    return int(value)


# a field of block sizes; any other tuple field is read as a tuple only
_SIZES = tuple[int, ...]
# the field types that ``_field`` reads, as its refusals name them
_KINDS = {int: "an integer", bool: "a boolean", float: "a number", tuple: "a list",
          _SIZES: "a list"}


def _choices(kind):
    """The strings of a ``Literal[...]`` field type, in declared order;
    () for any other type."""
    return get_args(kind) if get_origin(kind) is Literal else ()


def _field(kind, value, what):
    """``value`` as a field of type ``kind``, never changed in value: an
    int by the rule of ``_integer``, a bool only from a bool, a float
    only from a finite real number that is not a bool, a tuple from a
    list or tuple, each entry an int by ``_integer`` for ``_SIZES``, and
    a ``Literal[...]`` field only from one of its strings.  Anything else
    is a ValueError naming ``what``."""
    if kind is int:
        return _integer(value, what)
    is_bool = isinstance(value, (bool, np.bool_))
    if kind is bool and is_bool:
        return bool(value)
    if (kind is float and not is_bool and isinstance(value, (int, float, np.integer, np.floating))
            and abs(value) <= np.finfo(float).max):
        return float(value)
    if kind in (tuple, _SIZES) and isinstance(value, (list, tuple)):
        return tuple(value) if kind is tuple else tuple(_integer(v, what) for v in value)
    choices = _choices(kind)
    if isinstance(value, str) and value in choices:
        return str(value)
    wanted = _KINDS.get(kind) or "%s or %r" % (", ".join(map(repr, choices[:-1])), choices[-1])
    raise ValueError("%s %r is not %s" % (what, value, wanted))


@lru_cache(maxsize=None)
def _typed_fields(cls):
    """(name, type, whether None is its default, the set of a Literal
    type's strings) of each field of the dataclass ``cls`` that
    ``_field`` reads, taken once per class."""
    return tuple((f.name, f.type, f.default is None, frozenset(_choices(f.type)))
                 for f in fields(cls) if f.type in _KINDS or _choices(f.type))


def _read_fields(obj, where=""):
    """``obj`` with every field of the dataclass that ``_field`` reads
    read in place (a frozen one too), each named as ``where`` followed by
    its name; a field whose default is None may hold None."""
    for name, kind, optional, choices in _typed_fields(type(obj)):
        value = getattr(obj, name)
        # an int, bool or tuple of its own type, and a string among its
        # Literal's, is as read; a float may not be finite
        if not (value is None and optional or type(value) is kind is not float
                or type(value) is str and value in choices):
            object.__setattr__(obj, name, _field(kind, value, where + name))
    return obj


def _unique_keys(pairs):
    """A JSON object's (key, value) pairs as a dict; a key given twice
    is refused."""
    twice = sorted(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
    if twice:
        raise ValueError("key(s) %s given twice" % ", ".join(map(repr, twice)))
    return dict(pairs)


def _no_constant(name):
    raise ValueError("%s is not a number JSON allows" % name)


def _read_json(path):
    """The value in the UTF-8 JSON file at ``path``.  Malformed JSON
    (an empty file too), NaN or Infinity, and a key given twice in one
    object are ValueErrors that name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys, parse_constant=_no_constant)
    except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError too
        raise ValueError("%s: %s" % (path, exc)) from None


def _read_csv(path, header):
    """The numeric CSV file at ``path`` (comma separator, dot decimal,
    UTF-8) as an (n, k) float array, read once.  Blank and comment-only
    lines are skipped.  A first line with a cell that is not a number is
    a header: skipped when ``header`` is true, refused otherwise.  An
    empty file, a header with no rows after it, a cell that is not a
    finite number and rows of unequal length are ValueErrors that name
    the file, and the line of the file for a cell or a row."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            rows = [(number, line) for number, line in enumerate(fh.read().splitlines(), 1)
                    if line.split("#", 1)[0].strip()]
        head = 0
        if header and rows:
            try:
                list(map(float, rows[0][1].split(",")))
            except ValueError:  # a cell that is not a number: a header
                head = 1
        rows = rows[head:]
        if not rows:
            raise ValueError("no data rows after the header" if head else "file is empty")
        try:
            X = np.loadtxt([line for _, line in rows], delimiter=",", ndmin=2)
        except ValueError:
            # NumPy counts the lines it is given: name the file's first
            # line that it refuses beside the first row
            for number, line in rows:
                try:
                    np.loadtxt([rows[0][1], line], delimiter=",")
                except ValueError as exc:
                    raise ValueError(re.sub(r"at row \d+", "on line %d" % number, str(exc)))
            raise
        bad = ~np.isfinite(X).all(axis=1)
        if bad.any():
            raise ValueError("a cell holds a non-finite value on line %d" % rows[bad.argmax()][0])
        return X
    except ValueError as exc:  # a UnicodeDecodeError too
        raise ValueError("%s: %s" % (path, exc)) from None


@dataclass(frozen=True)
class Partition:
    """A partition of the variables {1, ..., d} into disjoint groups.

    Groups are kept in the order given; within each group the members are
    sorted.  The single-group partition expresses full exchangeability.
    """

    d: int
    groups: tuple = field(default=())

    def __post_init__(self):
        d = _integer(self.d, "partition d")
        if d < 2:
            raise ValueError("partition needs d >= 2, got d=%d" % d)
        object.__setattr__(self, "d", d)
        try:
            groups = tuple(tuple(sorted(_integer(v, "partition member") for v in g))
                           for g in self.groups)
        except TypeError:  # a group, or the groups, not a list
            raise ValueError("partition groups %r are not lists" % (self.groups,)) from None
        if not groups or any(len(g) == 0 for g in groups):
            raise ValueError("partition groups must be non-empty")
        flat = [v for g in groups for v in g]
        # the count first, so that a huge d builds no list
        if len(flat) != d or sorted(flat) != list(range(1, d + 1)):
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


@dataclass(frozen=True)
class DesignMatrix:
    """A p x L design matrix for the hypothesis tau = B @ beta.

    ``kind`` records how the matrix was built, one of the strings its
    type declares, and a matrix that is not of its kind is refused: a
    membership or diagonal-free design is 0/1 with one 1 a row and no
    empty column, and a vertex-incidence design is
    ``vertex_incidence_design(d)``.  Every kind needs L < p: a
    design with as many columns as pairs leaves no constraint to test
    and is refused, and so is a non-finite entry.
    """

    matrix: np.ndarray
    kind: Literal["membership", "diagonal-free", "vertex-incidence", "general"] = "general"

    def __post_init__(self):
        B = np.asarray(self.matrix, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        if B.ndim != 2:
            raise ValueError("design matrix must be 2-d")
        if not np.isfinite(B).all():
            raise ValueError("design matrix holds non-finite entries")
        p = B.shape[0]
        d = int(round((1 + math.isqrt(1 + 8 * p)) / 2))
        if pair_count(max(d, 2)) != p:
            raise ValueError(
                "design has %d rows, which is not a pair count d(d-1)/2" % p
            )
        _read_fields(self, "design ")
        if B.shape[1] >= p:
            raise ValueError(
                "%s design with L=%d columns for p=%d pairs leaves no "
                "constraint to test" % (self.kind, B.shape[1], p)
            )
        if self.kind in ("membership", "diagonal-free") and not (
                np.isin(B, (0.0, 1.0)).all() and (B.sum(axis=1) == 1).all()
                and B.any(axis=0).all()):
            raise ValueError("a %s design is 0/1 with one 1 a row and no empty column"
                             % self.kind)
        if self.kind == "vertex-incidence" and not np.array_equal(B, _incidence(d)):
            raise ValueError("a vertex-incidence design is vertex_incidence_design(%d)" % d)
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


@lru_cache(maxsize=32)
def _pair_classes(partition):
    """The orbit classes of a partition's pairs, read-only: (cls, block).

    A class is an unordered group pair (g, h), g <= h, that holds a pair;
    classes are numbered lexicographically over group positions, so a
    singleton group's empty within-class (g, g) gets no number.  ``cls``
    is the class of each pair and ``block`` the symmetric K x K class of
    each group pair, -1 for the empty ones.  The membership designs'
    columns and the quotients of ``sblock`` are numbered by it.
    """
    K = partition.n_groups
    group = partition.group_of
    a, b = np.triu_indices(K)
    live = (a != b) | (np.bincount(group, minlength=K)[a] >= 2)
    block = np.full((K, K), -1)
    block[a[live], b[live]] = np.arange(int(live.sum()))
    block = np.maximum(block, block.T)
    ii0, jj0 = _pairs0(partition.d)
    cls = block[group[ii0], group[jj0]]
    cls.flags.writeable = False
    block.flags.writeable = False
    return cls, block


def block_membership_matrix(partition):
    """Build the 0/1 block-membership design for a partition hypothesis.

    Each pair of variables is assigned to the class of its group pair;
    pairs in the same class are hypothesized to share one Kendall value.
    Columns are ordered lexicographically over group-index pairs (g, h),
    g <= h; diagonal classes of singleton groups are dropped because they
    contain no pair.  The result has L = K(K+1)/2 - (number of singleton
    groups) columns for K groups.
    """
    cls, block = _pair_classes(partition)
    B = np.zeros((cls.size, int(block.max()) + 1))
    B[np.arange(cls.size), cls] = 1.0
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
    cls, block = _pair_classes(partition)
    diagonal = block.diagonal()
    within = np.zeros(int(block.max()) + 1, dtype=bool)
    within[diagonal[diagonal >= 0]] = True
    n_off = int((~within).sum())
    own = within[cls]
    # a between pair takes its class's rank among the between classes, a
    # within pair the next identity column after them
    col = np.where(own, n_off + np.cumsum(own) - 1, np.cumsum(~within)[cls] - 1)
    B = np.zeros((cls.size, n_off + int(own.sum())))
    B[np.arange(cls.size), col] = 1.0
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
    """Read a partition from a JSON file {"d": int, "groups": [[...], ...]}
    by ``_read_json``; any other key is refused."""
    obj = _read_json(path)
    _check_keys(obj, ("d", "groups"), path, required=("d", "groups"))
    return Partition(obj["d"], obj["groups"])


def load_design_csv(path):
    """Read a header-free numeric CSV by ``_read_csv`` as a general
    design matrix; a header line is refused."""
    return DesignMatrix(_read_csv(path, header=False), kind="general")
