"""Memoization of path-independent arrays, bounded by the bytes they hold.

Covariance eigenvalues, Cholesky factors, variance normalizers and lag-power
tables depend only on their arguments, never on a path, so every replicate
after the first can reuse them. An entry-count bound is no bound on memory
when one entry at the 2^24 grid cap is hundreds of megabytes, so these
caches count bytes instead.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

import numpy as np

__all__ = ["CACHE_BYTES", "byte_bounded_cache"]

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
