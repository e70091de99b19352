import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_oracle import all_pairs, index_of_pair
from kstruct.cli import read_data_csv
from kstruct.indexing import (
    DesignMatrix,
    Partition,
    _membership_design,
    block_membership_matrix,
    diagonal_free_membership_matrix,
    load_design_csv,
    load_partition_json,
    overlap_count,
    pair_count,
    pair_of_index,
    vertex_incidence_design,
)
from kstruct.sblock import _partition_layout

# Flat index <-> pair table for d = 4, worked out by hand from the
# column-stacking order.
D4_PAIRS = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]


def test_pair_of_index_frozen_table():
    for k, pair in enumerate(D4_PAIRS, start=1):
        assert pair_of_index(k) == pair
    assert pair_of_index(3) == (2, 3)
    assert pair_of_index(6) == (3, 4)
    # continues beyond d=4 without any dimension argument
    assert pair_of_index(7) == (1, 5)
    assert pair_of_index(10) == (4, 5)
    assert pair_of_index(11) == (1, 6)


def test_index_of_pair_frozen_table():
    for k, (i, j) in enumerate(D4_PAIRS, start=1):
        assert index_of_pair(i, j) == k
    assert index_of_pair(2, 3) == 3
    assert index_of_pair(3, 4) == 6


def test_index_of_pair_rejects_bad_order():
    with pytest.raises(ValueError):
        index_of_pair(3, 3)
    with pytest.raises(ValueError):
        index_of_pair(4, 2)
    with pytest.raises(ValueError):
        index_of_pair(0, 1)
    with pytest.raises(ValueError):
        pair_of_index(0)


@given(st.integers(min_value=1, max_value=10**9))
def test_round_trip_from_index(k):
    i, j = pair_of_index(k)
    assert 1 <= i < j
    assert index_of_pair(i, j) == k


@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=1, max_value=2000))
def test_round_trip_from_pair(a, b):
    if a == b:
        return
    i, j = min(a, b), max(a, b)
    assert pair_of_index(index_of_pair(i, j)) == (i, j)


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=30))
def test_all_pairs_matches_scalar_map(d):
    pairs = all_pairs(d)
    assert pairs.shape == (pair_count(d), 2)
    for k in range(1, pair_count(d) + 1):
        assert tuple(pairs[k - 1]) == pair_of_index(k)


def test_column_index_set_frozen():
    # the column index set K_j, the flat indices of the pairs containing
    # variable j, is the support of column j of the vertex-incidence design
    B = vertex_incidence_design(4).matrix
    supports = [(np.flatnonzero(B[:, j]) + 1).tolist() for j in range(4)]
    assert supports == [[1, 2, 4], [1, 3, 5], [2, 3, 6], [4, 5, 6]]


@settings(max_examples=25)
@given(st.integers(min_value=4, max_value=25))
def test_column_index_sets_partition_double_cover(d):
    # every pair contains exactly two variables, so the column index sets
    # K_j cover each flat index exactly twice and each set has d-1 members
    B = vertex_incidence_design(d).matrix
    counts = np.zeros(pair_count(d), dtype=int)
    for j in range(1, d + 1):
        ks = np.flatnonzero(B[:, j - 1]) + 1
        assert len(ks) == d - 1
        assert all(j in pair_of_index(k) for k in ks)
        counts[ks - 1] += 1
    assert (counts == 2).all()


def test_overlap_count_frozen():
    # (1,2) vs (1,3) share variable 1
    assert overlap_count(1, 2) == 1
    # (1,2) vs (3,4) are disjoint
    assert overlap_count(1, 6) == 0
    # (2,3) vs (3,4) share variable 3
    assert overlap_count(3, 6) == 1
    assert overlap_count(4, 4) == 2


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
def test_overlap_count_symmetric(k, l):
    c = overlap_count(k, l)
    assert c == overlap_count(l, k)
    assert c in (0, 1, 2)
    assert (c == 2) == (k == l)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(4, ((1, 2), (3,)))  # misses 4
    with pytest.raises(ValueError):
        Partition(3, ((1, 2), (2, 3)))  # duplicate
    with pytest.raises(ValueError):
        Partition(3, ((1, 2, 3), ()))
    part = Partition(4, ((3, 1), (4, 2)))
    assert part.groups == ((1, 3), (2, 4))
    assert part.group_of.tolist() == [0, 1, 0, 1]


def test_partition_refuses_non_integer_members(tmp_path):
    # a member is refused, not truncated to the variable below it
    with pytest.raises(ValueError, match="partition member 1.9 is not an integer"):
        Partition(4, ((1.9, 2), (3, 4)))
    with pytest.raises(ValueError, match="'2' is not an integer"):
        Partition(4, ((1, "2"), (3, 4)))
    assert Partition(4, ((1.0, 2), (3, 4))) == Partition(4, ((1, 2), (3, 4)))
    path = tmp_path / "part.json"
    path.write_text('{"d": 4, "groups": [[1.9, 2], [3, 4]]}')
    with pytest.raises(ValueError, match="1.9"):
        load_partition_json(path)


def test_partition_json_refuses_a_non_integer_d(tmp_path):
    # d follows the members' rule: neither truncated nor read from a bool
    path = tmp_path / "part.json"
    for text, shown in (('{"d": 4.7, "groups": [[1, 2], [3, 4]]}', "4.7"),
                        ('{"d": true, "groups": [[1, 2]]}', "True"),
                        ('{"d": 4, "groups": [[true, 2], [3, 4]]}', "True")):
        path.write_text(text)
        with pytest.raises(ValueError, match="%s is not an integer" % shown):
            load_partition_json(path)
    path.write_text('{"d": 4.0, "groups": [[1, 2], [3, 4]]}')
    assert load_partition_json(path) == Partition(4, ((1, 2), (3, 4)))


def test_partition_json_refuses_an_infinite_d_and_an_unknown_key(tmp_path):
    # 1e400 reads as inf, refused by the ValueError that names the field
    path = tmp_path / "part.json"
    path.write_text('{"d": 1e400, "groups": [[1, 2], [3, 4]]}')
    with pytest.raises(ValueError, match="partition d inf is not an integer"):
        load_partition_json(path)
    path.write_text('{"d": 4, "groups": [[1, 2], [3, 4]], "group": [[1]]}')
    with pytest.raises(ValueError, match="unknown key\\(s\\) 'group'"):
        load_partition_json(path)


def test_design_kind_must_match_its_matrix():
    # a kind picks closed forms, so a matrix not of its kind is refused
    B = np.random.default_rng(1).standard_normal((10, 2))
    for kind in ("membership", "diagonal-free"):
        with pytest.raises(ValueError, match="a %s design is 0/1" % kind):
            DesignMatrix(B, kind=kind)
    with pytest.raises(ValueError, match="^design kind 'whatever' is not 'membership', "
                       "'diagonal-free', 'vertex-incidence' or 'general'$"):
        DesignMatrix(B, kind="whatever")
    part = Partition(5, ((1, 2), (3, 4, 5)))
    M = block_membership_matrix(part).matrix
    for bad in (2.0 * M, np.column_stack([M, np.zeros(10)]), M + np.eye(10)[:, :3]):
        with pytest.raises(ValueError, match="a membership design is 0/1"):
            DesignMatrix(bad, kind="membership")
    V = vertex_incidence_design(5).matrix
    for bad in (B, V[:, ::-1], np.eye(10)[:, :5]):
        with pytest.raises(ValueError, match="vertex_incidence_design\\(5\\)"):
            DesignMatrix(bad, kind="vertex-incidence")
    # every builder's matrix is of its kind
    for design in (block_membership_matrix(part), diagonal_free_membership_matrix(part),
                   vertex_incidence_design(5), DesignMatrix(B)):
        assert DesignMatrix(design.matrix, kind=design.kind).kind == design.kind


def test_exchangeable_membership_is_ones():
    B = block_membership_matrix(Partition.exchangeable(5))
    assert B.kind == "membership"
    assert B.matrix.shape == (10, 1)
    assert (B.matrix == 1.0).all()


def test_membership_frozen_two_groups():
    # d=4, groups {1,2} and {3,4}: classes (1,1), (1,2), (2,2)
    B = block_membership_matrix(Partition(4, ((1, 2), (3, 4))))
    expect = np.array(
        [
            [1, 0, 0],  # (1,2) within group 1
            [0, 1, 0],  # (1,3) cross
            [0, 1, 0],  # (2,3) cross
            [0, 1, 0],  # (1,4) cross
            [0, 1, 0],  # (2,4) cross
            [0, 0, 1],  # (3,4) within group 2
        ],
        dtype=float,
    )
    assert np.array_equal(B.matrix, expect)


def test_membership_frozen_with_singletons():
    # d=4, groups {1}, {2,3}, {4}: singleton diagonal classes are dropped,
    # remaining classes in lexicographic order (1,2), (1,3), (2,2), (2,3)
    B = block_membership_matrix(Partition(4, ((1,), (2, 3), (4,))))
    expect = np.array(
        [
            [1, 0, 0, 0],  # (1,2) class (g1,g2)
            [1, 0, 0, 0],  # (1,3) class (g1,g2)
            [0, 0, 1, 0],  # (2,3) class (g2,g2)
            [0, 1, 0, 0],  # (1,4) class (g1,g3)
            [0, 0, 0, 1],  # (2,4) class (g2,g3)
            [0, 0, 0, 1],  # (3,4) class (g2,g3)
        ],
        dtype=float,
    )
    assert np.array_equal(B.matrix, expect)


def test_shared_membership_design_is_cached_and_read_only():
    # the tests of a study share one design per partition; the public
    # builder still hands out a fresh design that its caller may edit
    part = Partition(6, ((1, 2), (3, 4), (5, 6)))
    shared = _membership_design(part)
    assert _membership_design(Partition(6, ((2, 1), (3, 4), (5, 6)))) is shared
    assert np.array_equal(shared.matrix, block_membership_matrix(part).matrix)
    with pytest.raises(ValueError, match="read-only"):
        shared.matrix[0, 0] = 2.0
    fresh = block_membership_matrix(part)
    assert fresh.matrix is not block_membership_matrix(part).matrix
    fresh.matrix[0, 0] = 2.0
    assert shared.matrix[0, 0] == 1.0


def test_membership_rejects_degenerate():
    # all singletons: L would equal p, nothing left to test
    with pytest.raises(ValueError):
        block_membership_matrix(Partition(3, ((1,), (2,), (3,))))
    with pytest.raises(ValueError):
        block_membership_matrix(Partition.exchangeable(2))


def test_membership_application_shape():
    # six groups over 18 variables, three of them singletons:
    # L = 6*7/2 - 3 = 18 block columns for p = 153 pairs
    groups = (
        (1,),
        (2, 3, 4, 5, 6),
        (7, 8),
        (9,),
        tuple(range(10, 18)),
        (18,),
    )
    B = block_membership_matrix(Partition(18, groups))
    assert B.matrix.shape == (153, 18)
    assert (B.matrix.sum(axis=1) == 1).all()
    counts = B.matrix.sum(axis=0)
    # within-group classes appear with C(size,2) pairs
    assert sorted(counts.tolist(), reverse=True)[:3] == [40.0, 28.0, 16.0]


@st.composite
def labelled_partitions(draw):
    """Partitions of 2 to 10 variables, each variable given one of d
    group labels, so singleton groups, K = 1 and K = d all occur."""
    d = draw(st.integers(2, 10))
    labels = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
    groups = {}
    for v, label in enumerate(labels, start=1):
        groups.setdefault(label, []).append(v)
    return Partition(d, tuple(tuple(g) for g in groups.values()))


def diagonal_free_reference(part):
    """The diagonal-free design built pair by pair: one column per group
    pair g < h, in lexicographic order, then one per within-group pair."""
    group = {v: gi for gi, members in enumerate(part.groups) for v in members}
    K, p = part.n_groups, pair_count(part.d)
    col = {(a, b): c for c, (a, b) in enumerate(
        (a, b) for a in range(K) for b in range(a + 1, K))}
    within = []
    B = np.zeros((p, len(col) + p))
    for k in range(p):
        i, j = pair_of_index(k + 1)
        a, b = sorted((group[i], group[j]))
        if a == b:
            within.append(k)
        else:
            B[k, col[a, b]] = 1.0
    B[within, len(col) + np.arange(len(within))] = 1.0
    return B[:, : len(col) + len(within)]


@settings(max_examples=150, deadline=None)
@given(labelled_partitions())
@example(Partition.exchangeable(6))
@example(Partition(5, tuple((v,) for v in range(1, 6))))
@example(Partition(6, ((4,), (1, 2, 3), (6,), (5,))))
def test_membership_designs_read_the_pair_classes(part):
    p = pair_count(part.d)
    cls = _partition_layout(part).cls
    # the classes are the group pairs that hold a pair, in lexicographic order
    group = part.group_of
    keys = [tuple(sorted((group[i - 1], group[j - 1])))
            for i, j in map(pair_of_index, range(1, p + 1))]
    assert cls.tolist() == [sorted(set(keys)).index(key) for key in keys]
    for build, want in ((block_membership_matrix, np.eye(cls.max() + 1)[cls]),
                        (diagonal_free_membership_matrix, diagonal_free_reference(part))):
        if want.shape[1] >= p:
            with pytest.raises(ValueError, match="leaves no constraint"):
                build(part)
        else:
            assert np.array_equal(build(part).matrix, want)


def test_diagonal_free_frozen_small():
    # d=4, groups {1,2} and {3,4}: one off-diagonal class column followed
    # by identity columns for the within pairs (1,2) and (3,4)
    B = diagonal_free_membership_matrix(Partition(4, ((1, 2), (3, 4))))
    expect = np.array(
        [
            [0, 1, 0],
            [1, 0, 0],
            [1, 0, 0],
            [1, 0, 0],
            [1, 0, 0],
            [0, 0, 1],
        ],
        dtype=float,
    )
    assert B.kind == "diagonal-free"
    assert np.array_equal(B.matrix, expect)


def test_diagonal_free_application_shape():
    groups = (
        (1,),
        (2, 3, 4, 5, 6),
        (7, 8),
        (9,),
        tuple(range(10, 18)),
        (18,),
    )
    B = diagonal_free_membership_matrix(Partition(18, groups))
    # 15 off-diagonal class columns + (10 + 1 + 28) identity columns
    assert B.matrix.shape == (153, 54)
    assert (B.matrix.sum(axis=1) == 1).all()
    ident = B.matrix[:, 15:]
    assert (ident.sum(axis=0) == 1).all()


def test_vertex_incidence_design():
    B = vertex_incidence_design(4)
    assert B.matrix.shape == (6, 4)
    assert (B.matrix.sum(axis=1) == 2).all()
    pairs = all_pairs(4)
    for k in range(6):
        i, j = pairs[k]
        row = np.zeros(4)
        row[[i - 1, j - 1]] = 1.0
        assert np.array_equal(B.matrix[k], row)


def test_design_matrix_one_dim_becomes_column():
    B = DesignMatrix(np.ones(6))
    assert B.matrix.shape == (6, 1)
    assert B.d == 4 and B.L == 1
    with pytest.raises(ValueError):
        DesignMatrix(np.ones((5, 2)))  # 5 is not a pair count


def test_designs_with_as_many_columns_as_pairs_are_refused(tmp_path):
    # nothing is left to test, whichever way the design was built
    path = tmp_path / "square.csv"
    np.savetxt(path, np.eye(3), delimiter=",")
    builders = (
        lambda: vertex_incidence_design(3),
        lambda: vertex_incidence_design(2),
        lambda: block_membership_matrix(Partition(3, ((1,), (2,), (3,)))),
        lambda: diagonal_free_membership_matrix(Partition.exchangeable(4)),
        lambda: DesignMatrix(np.ones((6, 7))),
        lambda: load_design_csv(path),
    )
    for build in builders:
        with pytest.raises(ValueError, match="leaves no constraint to test"):
            build()


def test_partition_json_round_trip(tmp_path):
    path = tmp_path / "part.json"
    path.write_text('{"d": 4, "groups": [[1, 2], [3, 4]]}')
    part = load_partition_json(path)
    assert part == Partition(4, ((1, 2), (3, 4)))
    bad = tmp_path / "bad.json"
    bad.write_text('{"groups": [[1]]}')
    with pytest.raises(ValueError):
        load_partition_json(bad)


@pytest.mark.parametrize("text, message", [
    ("", "part.json: Expecting value: line 1 column 1 (char 0)"),
    ('{"d": 4, "groups": [[1, 2], [3, 4]], "d": 5}', "part.json: key(s) 'd' given twice"),
    ('{"d": NaN, "groups": [[1, 2], [3, 4]]}', "part.json: NaN is not a number JSON allows"),
    ('{"d": 4, "groups": [[1, 2], [3, -Infinity]]}',
     "part.json: -Infinity is not a number JSON allows"),
    ('[4, [[1, 2], [3, 4]]]', "part.json: [4, [[1, 2], [3, 4]]] is not an object"),
    ('{"d": 4}', "part.json: missing key(s) 'groups'"),
    ('{"d": 4, "groups": [1, 2, 3, 4]}', "partition groups [1, 2, 3, 4] are not lists"),
    ('{"d": 4, "groups": 4}', "partition groups 4 are not lists"),
])
def test_partition_json_refuses_a_malformed_file_by_name(tmp_path, text, message):
    # each was a bare JSONDecodeError or TypeError, or a d read last-wins
    path = tmp_path / "part.json"
    path.write_text(text)
    if message.startswith("part.json"):
        message = str(tmp_path / message)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        load_partition_json(path)


def test_partition_with_a_huge_d_is_refused_without_listing_it():
    # 1..d was listed before the groups were counted: 8 TB for this d
    with pytest.raises(ValueError, match=r"groups must partition 1\.\.1000000000000 exactly"):
        Partition(10**12, ((1, 2), (3, 4)))


def test_design_csv_loader(tmp_path):
    path = tmp_path / "design.csv"
    np.savetxt(path, np.ones((6, 2)), delimiter=",")
    B = load_design_csv(path)
    assert B.matrix.shape == (6, 2)
    assert B.kind == "general"


def test_design_csv_that_is_empty_or_has_a_header_is_refused_by_name(tmp_path):
    # not NumPy's "input contained no data" warning, nor a message
    # that leaves out the file
    empty, headed = tmp_path / "empty.csv", tmp_path / "headed.csv"
    empty.write_text("\n")
    headed.write_text("a,b\n" + "1,0\n" * 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty.csv: file is empty"):
            load_design_csv(empty)
        with pytest.raises(ValueError, match="headed.csv: could not convert string 'a'"):
            load_design_csv(headed)


def test_design_matrix_refuses_a_3d_or_non_finite_matrix():
    with pytest.raises(ValueError, match="^design matrix must be 2-d$"):
        DesignMatrix(np.ones((6, 2, 1)))
    for bad in (np.nan, np.inf, -np.inf):
        B = np.ones((6, 2))
        B[3, 1] = bad
        with pytest.raises(ValueError, match="^design matrix holds non-finite entries$"):
            DesignMatrix(B)


@pytest.mark.parametrize("text, message", [
    # a header and a blank line above: NumPy counted "3,x" as its row 1
    ("a,b\n\n1,2\n3,x\n", "could not convert string 'x' to float64 on line 4, column 2."),
    ("# gauge log\n1,2\n\n3,4,5\n", "the number of columns changed from 2 to 3 on line 4; "
     "use `usecols` to select a subset and avoid this error"),
    ("1,2\n3,4\n\n\n5\n", "the number of columns changed from 2 to 1 on line 5; "
     "use `usecols` to select a subset and avoid this error"),
    ("a,b\n2,x\n3,4\n", "could not convert string 'x' to float64 on line 2, column 2."),
    ("a,b\n1,2\n# gap\n3,nan\n", "a cell holds a non-finite value on line 4"),
    ("\n1,2,3\n4,5,6 # tail\n7,8,1e400\n", "a cell holds a non-finite value on line 4"),
])
def test_csv_refusals_name_the_line_of_the_file(tmp_path, text, message):
    path = tmp_path / "x.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="^%s$" % re.escape("%s: %s" % (path, message))):
        read_data_csv(str(path))
    # the design reader refuses a header line; without one it names the same line
    if not text.startswith("a,b"):
        with pytest.raises(ValueError, match="^%s$" % re.escape("%s: %s" % (path, message))):
            load_design_csv(path)


def test_design_csv_with_a_non_finite_entry_is_refused(tmp_path):
    # such a design would reach run_test, whose SVD does not converge
    for bad in (np.nan, np.inf):
        B = np.ones((6, 2))
        B[3, 1] = bad
        path = tmp_path / "design.csv"
        np.savetxt(path, B, delimiter=",")
        with pytest.raises(ValueError, match="non-finite"):
            load_design_csv(path)
