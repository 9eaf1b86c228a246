"""The one memo store of path-independent tables, under one byte budget."""

import numpy as np
import pytest

from asclt_lab import memo
from asclt_lab.memo import cache, prefix_cache


@pytest.fixture
def budget(monkeypatch):
    """An empty store whose budget the test sets; emptied again after."""
    memo.clear()

    def set_budget(nbytes):
        monkeypatch.setattr(memo, "CACHE_BYTES", nbytes)

    yield set_budget
    memo.clear()


def _counting():
    calls = []

    @cache
    def floats(n, fill):
        calls.append((n, fill))
        return np.full(n, float(fill))

    return floats, calls


def _counting_prefix():
    calls = []

    @prefix_cache
    def ramp(step, n):
        calls.append((step, n))
        return np.arange(n) * float(step)

    return ramp, calls


def test_evicts_least_recently_used_by_bytes(budget):
    budget(64)                              # room for 8 float64 values
    floats, calls = _counting()
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


def test_oversized_result_is_returned_but_not_kept(budget):
    budget(64)
    floats, calls = _counting()
    small = floats(2, 1)
    big = floats(9, 5)                      # 72 bytes > the whole budget
    assert big.shape == (9,) and not big.flags.writeable
    floats(9, 5)
    assert calls.count((9, 5)) == 2
    assert floats(2, 1) is small            # nothing was evicted for it


def test_results_are_read_only(budget):
    floats, _ = _counting()
    v = floats(4, 7)
    with pytest.raises(ValueError):
        v[0] = 0.0
    assert floats(4, 7) is v and np.array_equal(v, np.full(4, 7.0))


def test_prefix_cache_slices_the_longest_table(budget):
    ramp, calls = _counting_prefix()
    long = ramp(2, 10)
    short = ramp(2, 4)                      # a slice of the held table
    assert calls == [(2, 10)]
    assert np.array_equal(short, np.arange(4) * 2.0) and short.base is long.base
    assert ramp(2, 4) is short              # the same view for the same n
    assert not short.flags.writeable and not long.flags.writeable
    ramp(2, 12)                             # longer: computed, replaces the table
    ramp(2, 10)
    assert calls == [(2, 10), (2, 12)]
    assert memo.held_bytes() == 12 * 8      # the shorter table was let go
    ramp(3, 4)                              # another key has its own table
    assert calls[-1] == (3, 4)


def test_prefix_cache_evicts_by_bytes(budget):
    budget(64)                              # room for 8 float64 values
    ramp, calls = _counting_prefix()
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


def test_one_budget_across_decorators(budget):
    # Both decorators hold their tables in one store under one budget, so
    # a table of one evicts the least recently used table of the other.
    budget(64)
    floats, float_calls = _counting()
    ramp, ramp_calls = _counting_prefix()
    floats(4, 1)                            # 32 bytes
    ramp(1, 4)                              # 64 bytes held
    floats(4, 1)                            # hit; the ramp is now the oldest
    floats(1, 2)                            # 72 > 64: drops the ramp table
    assert memo.held_bytes() == 40
    ramp(1, 4)                              # recomputed: drops floats (4, 1)
    assert len(ramp_calls) == 2 and memo.held_bytes() == 40
    ramp(1, 8)                              # replaces the ramp: drops floats (1, 2)
    assert memo.held_bytes() == 64
    floats(4, 1)                            # recomputed: drops the ramp
    assert len(float_calls) == 3 and memo.held_bytes() == 32


def test_clear_and_held_bytes(budget):
    floats, calls = _counting()
    ramp, _ = _counting_prefix()
    assert memo.held_bytes() == 0
    a = floats(3, 1)
    ramp(2, 5)
    ramp(2, 3)                              # a view: holds nothing more
    assert memo.held_bytes() == 3 * 8 + 5 * 8
    memo.clear()
    assert memo.held_bytes() == 0
    b = floats(3, 1)                        # computed afresh after clear()
    assert b is not a and np.array_equal(a, b) and len(calls) == 2
    assert memo.held_bytes() == 24
