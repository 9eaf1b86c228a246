"""Memoization of path-independent arrays, bounded by the bytes they hold.

Covariance eigenvalues, Cholesky factors, variance normalizers and lag-power
tables depend only on their arguments, never on a path, so every replicate
after the first can reuse them. An entry-count bound is no bound on memory
when one entry at the 2^24 grid cap is hundreds of megabytes, so these
caches count bytes instead. Prefix-stable tables (normalizers and weights
indexed k = 1..n, whose first m entries do not depend on n) keep one table
per argument tuple, the longest, and answer every shorter n by a slice.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

import numpy as np

__all__ = ["CACHE_BYTES", "byte_bounded_cache", "prefix_cache"]

# Per-cache budget: one entry at the 2^24 grid cap fits (the size-2(n-1)
# embedding spectrum is the largest, just under 256 MiB).
CACHE_BYTES = 1 << 28


def byte_bounded_cache(max_bytes: int):
    """Memoize a function of hashable positional arguments returning an ndarray.

    Results are made read-only, since every caller shares them. Entries are
    kept in least-recently-used order and the oldest are dropped while their
    total nbytes exceeds max_bytes; a result larger than the whole budget is
    returned without being kept.
    """

    def decorate(fn):
        entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        held = 0

        @functools.wraps(fn)
        def cached(*args):
            nonlocal held
            value = entries.get(args)
            if value is not None:
                entries.move_to_end(args)
                return value
            value = fn(*args)
            value.setflags(write=False)
            if value.nbytes <= max_bytes:
                entries[args] = value
                held += value.nbytes
                while held > max_bytes:
                    _, old = entries.popitem(last=False)
                    held -= old.nbytes
            return value

        return cached

    return decorate


def prefix_cache(max_bytes: int):
    """Memoize fn(*key, n), a prefix-stable function: its result is an ndarray
    of length n whose first m entries are the same bits for every n >= m.

    One read-only table is kept per key, the longest computed so far, and
    every n up to its length gets a view of its first n entries (the same
    view object for the same n). A longer n computes a new table that
    replaces the old one, so callers that need several n ask for the largest
    first. Tables are dropped oldest first while their total nbytes exceeds
    max_bytes; a table larger than the whole budget is not kept.
    """

    def decorate(fn):
        entries: OrderedDict[tuple, tuple[np.ndarray, dict]] = OrderedDict()
        held = 0

        @functools.wraps(fn)
        def cached(*args):
            nonlocal held
            *key, n = args
            key = tuple(key)
            entry = entries.get(key)
            if entry is not None and entry[0].size >= n:
                entries.move_to_end(key)
            else:
                table = fn(*key, n)
                table.setflags(write=False)
                if entry is not None:
                    del entries[key]
                    held -= entry[0].nbytes
                entry = (table, {})
                if table.nbytes <= max_bytes:
                    entries[key] = entry
                    held += table.nbytes
                    while held > max_bytes:
                        _, (old, _) = entries.popitem(last=False)
                        held -= old.nbytes
            table, views = entry
            view = views.get(n)
            if view is None:
                view = views[n] = table[:n]
            return view

        return cached

    return decorate
