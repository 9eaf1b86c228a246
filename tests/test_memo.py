"""The byte-bounded memoization shared by the path-independent caches."""

import numpy as np
import pytest

from asclt_lab.memo import byte_bounded_cache


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
