import re
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import kstruct.kendall as kd
from dense_oracle import all_pairs, kendall_kernel
from kstruct.indexing import pair_count
from kstruct.kendall import KendallSample, TieError, tau_and_leave_one_out


def brute_force_tau(X):
    """O(n^2 d^2) reference: kernel average over explicit pair loops."""
    n, d = X.shape
    p = pair_count(d)
    total = np.zeros(p)
    for r in range(n):
        for s in range(r + 1, n):
            total += kendall_kernel(X[r], X[s])
    return total / (n * (n - 1) / 2.0)


def test_kernel_frozen_example():
    x = np.array([1.0, 5.0, 2.0])
    y = np.array([3.0, 4.0, 0.0])
    # signs of x - y: (-, +, +) -> pairs (1,2): -1, (1,3): -1, (2,3): +1
    assert kendall_kernel(x, y).tolist() == [-1.0, -1.0, 1.0]


def test_kernel_symmetry_and_values():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x, y = rng.normal(size=(2, 6))
        h = kendall_kernel(x, y)
        assert np.array_equal(h, kendall_kernel(y, x))
        assert set(np.unique(h)) <= {-1.0, 1.0}


def test_kernel_tie_error_names_coordinate():
    with pytest.raises(TieError, match="coordinate 2"):
        kendall_kernel(np.array([1.0, 4.0, 2.0]), np.array([0.0, 4.0, 3.0]))


def test_tau_matches_scipy_per_pair():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(40, 5))
    tau = KendallSample(X).tau
    pairs = all_pairs(5)
    for k, (i, j) in enumerate(pairs):
        ref = stats.kendalltau(X[:, i - 1], X[:, j - 1]).statistic
        assert tau[k] == pytest.approx(ref, abs=1e-12)


def test_tau_matches_brute_force_exactly():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(3, 12))
        d = int(rng.integers(2, 6))
        X = rng.normal(size=(n, d))
        assert np.array_equal(KendallSample(X).tau, brute_force_tau(X))


@pytest.mark.threads
def test_blocked_path_equals_single_block(monkeypatch):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(23, 4))
    expect = KendallSample(X).tau
    monkeypatch.setattr(kd, "_BLOCK_BUDGET", 1.0)  # force 1-row blocks
    assert np.array_equal(KendallSample(X).tau, expect)


def brute_force_row_sums(X):
    """O(n^2 d^2) reference for the kernel pass: explicit loops over s != r."""
    n = X.shape[0]
    return np.array(
        [sum(kendall_kernel(X[r], X[s]) for s in range(n) if s != r) for r in range(n)]
    )


def _block_row_bytes(n, d):
    # bytes one row of a block claims against _BLOCK_BUDGET in _pair_row_sums:
    # float32 and integer signs, Gram matrix and gathered pairs
    itemsize = np.dtype(kd._sums_dtype(n)).itemsize
    return (4 + itemsize) * n * d + 4 * (d * d + pair_count(d))


_huge = st.floats(min_value=-1e300, max_value=1e300)


@st.composite
def tie_free_columns(draw):
    """(n, d) data without ties: arbitrary, +/-1e300-wide or 1-ulp columns."""
    n = draw(st.integers(2, 11))
    d = draw(st.integers(2, 5))
    cols = []
    for _ in range(d):
        kind = draw(st.sampled_from(["any", "wide", "ulp"]))
        if kind == "ulp":
            col = [draw(_huge)]
            for _ in range(n - 1):
                col.append(float(np.nextafter(col[-1], np.inf)))
        else:
            ends = [-1e300, 1e300] if kind == "wide" else []
            rest = st.lists(
                _huge.filter(lambda v: v not in ends),
                min_size=n - len(ends),
                max_size=n - len(ends),
                unique=True,
            )
            col = ends + draw(rest)
        cols.append(draw(st.permutations(col)))
    return np.array(cols, dtype=float).T


@pytest.mark.threads
@settings(max_examples=60, deadline=None)
@given(X=tie_free_columns(), rows=st.integers(1, 3), second_cpu=st.booleans())
@example(X=np.array([[0.0, 1.0], [1.0, 0.0]]), rows=1, second_cpu=True)
@example(X=np.random.default_rng(12).normal(size=(7, 3)), rows=2, second_cpu=False)
@example(X=np.random.default_rng(13).normal(size=(8, 4)), rows=3, second_cpu=True)
@example(X=np.random.default_rng(14).normal(size=(11, 5)), rows=3, second_cpu=False)
def test_kernel_equals_brute_force_in_any_block_size(X, rows, second_cpu):
    # the float32 pass, inline or split with a helper thread, counts exactly
    n, d = X.shape
    expect = brute_force_row_sums(X)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kd, "_second_cpu", lambda: second_cpu)
        assert np.array_equal(kd._pair_row_sums(X), expect)
        mp.setattr(kd, "_BLOCK_BUDGET", rows * _block_row_bytes(n, d))
        assert np.array_equal(kd._pair_row_sums(X), expect)


def _thread_of_each_block(monkeypatch):
    """Record the thread that takes each block's matmul in the kernel pass."""
    seen = []
    matmul = np.matmul

    def recording(a, b, out):
        seen.append(threading.current_thread())
        return matmul(a, b, out=out)

    monkeypatch.setattr(kd.np, "matmul", recording)
    return seen


@pytest.mark.threads
def test_kernel_splits_blocks_over_a_helper_thread(monkeypatch):
    X = np.random.default_rng(21).normal(size=(40, 6))
    expect = brute_force_row_sums(X)
    before = threading.active_count()
    for second_cpu in (False, True):
        # a budget of four rows: ten blocks inline, or ten two-row blocks
        # on each thread
        monkeypatch.setattr(kd, "_BLOCK_BUDGET", 4 * _block_row_bytes(40, 6))
        monkeypatch.setattr(kd, "_second_cpu", lambda: second_cpu)
        seen = _thread_of_each_block(monkeypatch)
        assert np.array_equal(kd._pair_row_sums(X), expect)
        monkeypatch.undo()
        on_main = sum(t is threading.main_thread() for t in seen)
        assert (len(seen), on_main) == ((20, 10) if second_cpu else (10, 10))
    assert threading.active_count() == before
    # with the whole pass in one block there is nothing to split
    monkeypatch.setattr(kd, "_second_cpu", lambda: True)
    seen = _thread_of_each_block(monkeypatch)
    kd._pair_row_sums(X)
    assert seen == [threading.main_thread()]


@pytest.mark.threads
def test_tie_in_the_helper_half_is_raised_by_the_caller(monkeypatch):
    X = np.random.default_rng(22).normal(size=(40, 6))
    X[39, 4] = X[38, 4]  # only the last two rows see the tie
    monkeypatch.setattr(kd, "_BLOCK_BUDGET", 4 * _block_row_bytes(40, 6))
    monkeypatch.setattr(kd, "_second_cpu", lambda: True)
    found_on = []
    tied_columns = kd._tied_columns

    def recording(X):
        found_on.append(threading.current_thread())
        return tied_columns(X)

    monkeypatch.setattr(kd, "_tied_columns", recording)
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    before = threading.active_count()
    with pytest.raises(TieError) as info:
        KendallSample(X)
    assert str(info.value) == (
        "tied values in column(s) [5]; pass ties='jitter' (seeded) or pre-process the data"
    )
    assert len(found_on) == 1 and found_on[0] is not threading.main_thread()
    assert unhandled == []
    assert threading.active_count() == before


def test_kernel_refuses_n_beyond_exact_float32_counts(monkeypatch):
    # the limit is 2**24; patched small, so no large array is built
    assert kd._EXACT_COUNT == 2**24
    monkeypatch.setattr(kd, "_EXACT_COUNT", 5)
    X = np.random.default_rng(23).normal(size=(7, 3))
    assert np.array_equal(kd._pair_row_sums(X[:6]), brute_force_row_sums(X[:6]))
    with pytest.raises(ValueError, match=r"n - 1 <= 5, got n=7"):
        KendallSample(X)


def test_second_cpu_needs_two_cpus_outside_a_pool_worker(monkeypatch):
    monkeypatch.setattr(kd.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert kd._second_cpu()
    monkeypatch.setattr(kd.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not kd._second_cpu()
    # a pool worker, like run_study's, works inline however many CPUs it sees
    monkeypatch.setattr(kd.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(kd._second_cpu).result() is False


@st.composite
def sign_edge_data(draw):
    """(n, d) data whose signs of differences are easy to get wrong: each
    column either repeats a few values, often tied, or holds distinct
    ones, drawn from -0.0, +0.0 and +/- magnitudes from 1e-300 to 1e300
    with their neighbours one ulp up."""
    n, d = draw(st.integers(2, 9)), draw(st.integers(2, 4))
    exponents = st.lists(st.integers(-300, 300), min_size=3, max_size=4, unique=True)
    pool = [-0.0, 0.0]
    for m in (10.0**e for e in draw(exponents)):
        up = float(np.nextafter(m, np.inf))
        pool += [m, up, -m, -up]
    cols = []
    for _ in range(d):
        if draw(st.booleans()):
            levels = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
            cols.append(draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
        else:
            cols.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n,
                                      unique=True)))
    return np.array(cols, dtype=float).T


@settings(max_examples=150, deadline=None)
@given(sign_edge_data())
@example(np.array([[-0.0, 1.0], [0.0, 2.0], [1.0, 3.0]]))  # -0.0 == +0.0
@example(np.array([[1.0, 5e-324], [float(np.nextafter(1.0, 2.0)), -5e-324]]))
@example(np.array([[1e300, -1e-300], [-1e300, 1e-300], [0.0, -0.0]]))
def test_kernel_signs_equal_brute_force_on_edge_values(X):
    tied = _tied_columns_oracle(X)
    if not tied:
        assert np.array_equal(kd._pair_row_sums(X), brute_force_row_sums(X))
        return
    with pytest.raises(TieError) as info:
        kd._pair_row_sums(X)
    assert str(info.value) == (
        "tied values in column(s) %s; pass ties='jitter' (seeded) or "
        "pre-process the data" % tied
    )


@settings(max_examples=60, deadline=None)
@given(sign_edge_data(), st.sampled_from([np.int16, np.int32]))
@example(np.array([[-0.0, 1.0], [0.0, -1.0], [1e-300, 1e300]]), np.int32)
def test_dense_ranks_keep_the_signs_of_differences(X, dtype):
    # int32 is the type past 32768 rows; checked here without such a pass
    R = kd._dense_ranks(X, dtype)
    assert R.dtype == dtype
    for j in range(X.shape[1]):
        assert np.array_equal(R[:, j], np.unique(X[:, j], return_inverse=True)[1])
    above = np.greater(X[:, None, :], X).astype(int) - np.less(X[:, None, :], X)
    assert np.array_equal(np.sign(R[:, None, :] - R), above)


@pytest.mark.parametrize("n, d", [(200, 100), (1000, 50)])
def test_kernel_memory_stays_within_budget(n, d):
    X = np.random.default_rng(n).normal(size=(n, d))
    out_bytes = n * pair_count(d) * 2
    # a sample holds the int16 row sums and forms no n x p float array
    for rank in (kd._pair_row_sums, KendallSample):
        tracemalloc.start()
        try:
            rank(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block buffers fit the budget; 10 % covers the small temporaries
        assert peak <= 1.1 * kd._BLOCK_BUDGET + out_bytes, rank


def test_row_sums_take_the_smallest_integer_type_that_holds_them():
    assert kd._sums_dtype(2) is np.int16
    assert kd._sums_dtype(2**15) is np.int16  # n - 1 = 32767
    assert kd._sums_dtype(2**15 + 1) is np.int32
    assert kd._sums_dtype(kd._EXACT_COUNT + 1) is np.int32


def test_leave_one_out_row_mean_is_tau():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 4))
    sample = KendallSample(X)
    tau, rows = sample.tau, sample.rows
    assert rows.shape == (30, pair_count(4))
    # the rows are the leave-one-out averages less tau, so they average to 0
    assert np.allclose(rows.mean(axis=0), 0.0, rtol=0, atol=5e-15)
    # the bare kernel pass on the validated array gives the sample's tau
    # and the exact row sums that its rows are made from
    tau2, sums = tau_and_leave_one_out(X)
    assert sums.dtype == np.int16
    assert np.array_equal(tau2, tau)
    assert np.array_equal(rows, sums.astype(np.float64) / 29.0 - tau)


def test_threads_racing_on_the_first_read_of_rows_read_equal_rows():
    # D is formed on the first read of rows and the sums are then
    # released; a thread that reads rows or a chunk meanwhile still reads
    # D exactly, whether from the sums or from D
    X = np.random.default_rng(9).normal(size=(40, 6))
    tau, sums = tau_and_leave_one_out(X)
    want = sums.astype(np.float64) / 39.0 - tau
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            rows = kd.LeaveOneOut(sums.copy(), tau)
            got, start = [], threading.Barrier(4)

            def read(i):
                start.wait()
                for lo in range(i, 40, 4):
                    got.append(np.array_equal(rows.write(lo, lo + 1, np.empty((1, 15))),
                                              want[lo:lo + 1]))
                got.append(np.array_equal(rows.rows, want))

            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert got == [True] * 44
            assert rows._sums is None and rows.rows is rows.rows
    finally:
        sys.setswitchinterval(interval)


def test_leave_one_out_matches_definition():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(9, 3))
    sample = KendallSample(X)
    n = X.shape[0]
    for i in range(n):
        acc = np.zeros(pair_count(3))
        for s in range(n):
            if s != i:
                acc += kendall_kernel(X[i], X[s])
        assert np.allclose(sample.rows[i], acc / (n - 1) - sample.tau, rtol=0, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_tau_invariant_under_monotone_transforms(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(12, 3))
    Y = np.column_stack([np.exp(X[:, 0]), X[:, 1] ** 3, 2.0 * X[:, 2] - 7.0])
    assert np.array_equal(KendallSample(X).tau, KendallSample(Y).tau)


def test_comonotone_columns_give_tau_one():
    t = np.linspace(0.0, 1.0, 15)
    X = np.column_stack([t, np.exp(t), t**3 + t])
    assert np.array_equal(KendallSample(X).tau, np.ones(3))


def test_tie_error_and_jitter():
    X = np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 4.0]])
    with pytest.raises(TieError, match=r"column\(s\) \[1\]"):
        KendallSample(X)
    t1 = KendallSample(X, "jitter", 123).tau
    t2 = KendallSample(X, "jitter", 123).tau
    assert np.array_equal(t1, t2)
    assert abs(t1[0]) <= 1.0
    assert KendallSample(X, "jitter", 123).tied == [1]
    # jitter leaves untied columns untouched
    J = kd._jitter_columns(X, kd._tied_columns(X), 123)
    assert np.array_equal(J[:, 1], X[:, 1])


def _tied_columns_oracle(X):
    return [j + 1 for j in range(X.shape[1]) if np.unique(X[:, j]).size < X.shape[0]]


@st.composite
def tie_prone_data(draw):
    """n from 2 to 12 rows of small integers: ties are common, and with
    one level every column is all equal."""
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 6))
    level = st.integers(0, draw(st.integers(0, 4)))
    rows = st.lists(level, min_size=d, max_size=d)
    return np.array(draw(st.lists(rows, min_size=n, max_size=n)), dtype=float)


@settings(max_examples=200, deadline=None)
@given(tie_prone_data())
@example(np.array([[1.0, 0.0, -0.0], [1.0, 2.0, 0.0]]))  # n = 2; -0.0 == 0.0
def test_tied_columns_match_per_column_unique(X):
    tied = _tied_columns_oracle(X)
    assert kd._tied_columns(X) == tied
    if X.shape[1] < 2:
        return
    # the kernel pass finds the same ties from its Gram diagonals, and
    # jitter finds and breaks them
    if tied:
        with pytest.raises(TieError, match=re.escape("column(s) %s;" % tied)):
            KendallSample(X)
    else:
        assert np.array_equal(KendallSample(X).tau, tau_and_leave_one_out(X)[0])
    jittered = KendallSample(X, "jitter", 5)
    assert jittered.tied == tied
    J = kd._jitter_columns(X, tied, 5) if tied else X
    assert np.array_equal(jittered.tau, tau_and_leave_one_out(J)[0])


def test_data_validation():
    with pytest.raises(ValueError):
        KendallSample(np.ones((1, 3)))
    with pytest.raises(ValueError):
        KendallSample(np.ones(5))
    with pytest.raises(ValueError):
        KendallSample(np.array([[1.0, np.nan], [2.0, 3.0]]))

