import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstruct.indexing import (
    DesignMatrix,
    Partition,
    all_pairs,
    block_membership_matrix,
    column_index_set,
    diagonal_free_membership_matrix,
    index_of_pair,
    load_design_csv,
    load_partition_json,
    overlap_count,
    pair_count,
    pair_of_index,
    vertex_incidence_design,
)

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
    assert column_index_set(1, 4).tolist() == [1, 2, 4]
    assert column_index_set(4, 4).tolist() == [4, 5, 6]
    assert column_index_set(2, 4).tolist() == [1, 3, 5]


@settings(max_examples=25)
@given(st.integers(min_value=2, max_value=25))
def test_column_index_sets_partition_double_cover(d):
    # every pair contains exactly two variables, so the K_j cover each
    # flat index exactly twice and each set has d-1 members
    counts = np.zeros(pair_count(d), dtype=int)
    for j in range(1, d + 1):
        ks = column_index_set(j, d)
        assert len(ks) == d - 1
        counts[ks - 1] += 1
    assert (counts == 2).all()


def test_column_index_set_range_check():
    with pytest.raises(ValueError):
        column_index_set(0, 4)
    with pytest.raises(ValueError):
        column_index_set(5, 4)


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
    # column supports are exactly the column index sets
    for j in range(1, 5):
        support = np.flatnonzero(B.matrix[:, j - 1]) + 1
        assert support.tolist() == column_index_set(j, 4).tolist()


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


def test_design_csv_loader(tmp_path):
    path = tmp_path / "design.csv"
    np.savetxt(path, np.ones((6, 2)), delimiter=",")
    B = load_design_csv(path)
    assert B.matrix.shape == (6, 2)
    assert B.kind == "general"
