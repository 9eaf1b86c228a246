"""One store of path-independent arrays, bounded by the bytes they hold.

Covariance eigenvalues, Cholesky factors, variance normalizers, lag-power
tables and quadrature rules depend only on their arguments, never on a path,
so every replicate after the first can reuse them. Every memoized function
of the package keeps its tables in this one store, under one byte budget
per process: an entry-count bound is no bound on memory when one entry at
the 2^24 grid cap is hundreds of megabytes. Two decorators front the store:
`cache` keeps one result per argument tuple, and `prefix_cache` keeps one
table per argument tuple for prefix-stable tables (normalizers and weights
indexed k = 1..n, whose first m entries do not depend on n), the longest,
and answers every shorter n by a slice.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["CACHE_BYTES", "cache", "prefix_cache", "clear", "held_bytes"]

# The budget of the whole store: 64 bytes per point at the 2^24 grid cap,
# where the largest single table, the Malliavin covariance spectrum, takes 16.
CACHE_BYTES = 1 << 30

# (function, key) -> (read-only table, {n: view}); the dict's order is the
# least-recently-used order, oldest first.
_store: dict[tuple, tuple[np.ndarray, dict]] = {}
_held = 0


def clear() -> None:
    """Drop every held table."""
    global _held
    _store.clear()
    _held = 0


def held_bytes() -> int:
    """Total nbytes of the tables held."""
    return _held


def _fetch(slot: tuple, compute, size: int = 0) -> tuple[np.ndarray, dict]:
    """The entry held in slot, now the most recently used, if its table has
    at least size entries. Else compute()'s table, made read-only, replaces
    it, and the least recently used tables are dropped while the store holds
    more than CACHE_BYTES; a table larger than the whole budget is not held,
    and a compute that raises leaves the held tables as they were."""
    global _held
    entry = _store.pop(slot, None)
    if entry is not None:
        _store[slot] = entry
        if entry[0].size >= size:
            return entry
    table = compute()
    table.setflags(write=False)
    old = _store.pop(slot, None)
    if old is not None:
        _held -= old[0].nbytes
    entry = (table, {})
    if table.nbytes <= CACHE_BYTES:
        _store[slot] = entry
        _held += table.nbytes
        while _held > CACHE_BYTES:
            _held -= _store.pop(next(iter(_store)))[0].nbytes
    return entry


def cache(fn):
    """Memoize a function of hashable positional arguments returning an
    ndarray, which is made read-only, since every caller shares it."""

    @functools.wraps(fn)
    def cached(*args):
        return _fetch((fn, args), lambda: fn(*args))[0]

    return cached


def prefix_cache(fn):
    """Memoize fn(*key, n), a prefix-stable function: its result is an ndarray
    of length n whose first m entries are the same bits for every n >= m.

    One read-only table is held per key, the longest computed so far, and
    every n up to its length gets a view of its first n entries (the same
    view object for the same n). A longer n computes a new table that
    replaces the old one, so callers that need several n ask for the largest
    first. A call that raises leaves the held table as it was.
    """

    @functools.wraps(fn)
    def cached(*args):
        *key, n = args
        table, views = _fetch((fn, tuple(key)), lambda: fn(*key, n), n)
        view = views.get(n)
        if view is None:
            view = views[n] = table[:n]
        return view

    return cached
