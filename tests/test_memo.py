"""The byte-bounded memoizations shared by the path-independent caches."""

import numpy as np
import pytest

from asclt_lab.memo import byte_bounded_cache, prefix_cache


def _counting(max_bytes):
    calls = []

    @byte_bounded_cache(max_bytes)
    def floats(n, fill):
        calls.append((n, fill))
        return np.full(n, float(fill))

    return floats, calls


def test_evicts_least_recently_used_by_bytes():
    floats, calls = _counting(64)           # room for 8 float64 values
    a = floats(3, 1)                        # 24 bytes
    floats(3, 2)                            # 48 bytes held
    assert floats(3, 1) is a                # hit; (3, 2) is now the oldest
    floats(2, 3)                            # 64 bytes: exactly at the budget
    for args in ((3, 2), (3, 1), (2, 3)):   # all kept; (3, 2) oldest again
        floats(*args)
    assert len(calls) == 3
    floats(1, 4)                            # 72 > 64: drops (3, 2) only
    for args in ((3, 1), (2, 3), (1, 4)):
        floats(*args)
    assert len(calls) == 4
    floats(3, 2)                            # recomputed after eviction
    assert calls[-1] == (3, 2) and len(calls) == 5


def test_oversized_result_is_returned_but_not_kept():
    floats, calls = _counting(64)
    small = floats(2, 1)
    big = floats(9, 5)                      # 72 bytes > the whole budget
    assert big.shape == (9,) and not big.flags.writeable
    floats(9, 5)
    assert calls.count((9, 5)) == 2
    assert floats(2, 1) is small            # nothing was evicted for it


def test_results_are_read_only():
    floats, _ = _counting(1 << 10)
    v = floats(4, 7)
    with pytest.raises(ValueError):
        v[0] = 0.0
    assert floats(4, 7) is v and np.array_equal(v, np.full(4, 7.0))


def _counting_prefix(max_bytes):
    calls = []

    @prefix_cache(max_bytes)
    def ramp(step, n):
        calls.append((step, n))
        return np.arange(n) * float(step)

    return ramp, calls


def test_prefix_cache_slices_the_longest_table():
    ramp, calls = _counting_prefix(1 << 10)
    long = ramp(2, 10)
    short = ramp(2, 4)                      # a slice of the held table
    assert calls == [(2, 10)]
    assert np.array_equal(short, np.arange(4) * 2.0) and short.base is long.base
    assert ramp(2, 4) is short              # the same view for the same n
    assert not short.flags.writeable and not long.flags.writeable
    ramp(2, 12)                             # longer: computed, replaces the table
    ramp(2, 10)
    assert calls == [(2, 10), (2, 12)]
    ramp(3, 4)                              # another key has its own table
    assert calls[-1] == (3, 4)


def test_prefix_cache_evicts_by_bytes():
    ramp, calls = _counting_prefix(64)      # room for 8 float64 values
    ramp(1, 4)
    ramp(2, 4)                              # 64 bytes held
    ramp(1, 2)                              # hit; key 2 is now the oldest
    ramp(3, 1)                              # 72 > 64: drops key 2 only
    ramp(1, 4)
    ramp(3, 1)
    assert len(calls) == 3
    ramp(2, 4)
    assert calls[-1] == (2, 4) and len(calls) == 4
    big = ramp(4, 9)                        # larger than the whole budget
    assert big.shape == (9,) and not big.flags.writeable
    ramp(4, 9)
    assert calls.count((4, 9)) == 2
