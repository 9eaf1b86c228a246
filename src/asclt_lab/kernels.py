"""Discrete Wiener-chaos kernel algebra for f_n = N_n^{-1} sum_k eps_k^{otimes q}.

The ambient (non-orthonormal) scalar product is <eps_k, eps_l> = rho(k-l).
With N_n = sqrt(E V_n^2), where V_n is the unnormalized Hermite sum, every
regime shares the same kernel normalization: q! ||f_n||^2 = 1.

The contraction norm reduces to a quartic lag sum

    S(q, r, n) = sum_{i,j,k,l} rho(k-l)^r rho(i-j)^r rho(k-i)^{q-r} rho(l-j)^{q-r}
               = tr((P Q)^2),  P = Toeplitz(rho^r), Q = Toeplitz(rho^{q-r}),

so ||f_n (x)_r f_n||^2 = S / (E V_n^2)^2. The production evaluator gives
S(n) at every n = 1..N in one O(N^2)-time pass that borders the leading
Toeplitz blocks, the nesting of the Levinson and Trench recursions. With
p(m) = rho(m)^r and q(m) = rho(m)^{q-r}:

    P_{n+1} = [[P_n, b], [b^T, p(0)]],  b = (p(n), ..., p(1)),
    Q_{n+1} = [[Q_n, c], [c^T, q(0)]],  c = (q(n), ..., q(1)),
    S(n+1) = S(n) + 2 u.w + (c.b)^2 + 2 (w + p(0) c).(u + q(0) b)
                  + (c.b + p(0) q(0))^2,    u = P_n c,  w = Q_n b.

Read backwards, u(n-1-j) = sum_{m<=n} p(|m-1-j|) q(m): u gains one
rank-one term per step, and w likewise with p and q swapped. When P = Q,
w = u and every increment is a sum of squares. The pass holds the reversed
u of a block of consecutive steps as the rows of one array, builds them
with a cumulative sum of Toeplitz windows, and reduces each row with
einsum rather than a BLAS dot, so its bits do not depend on the BLAS thread
count. Block sizes depend only on the step where a block starts, so S(n)
is bit-identical whatever the length of the pass that produced it, and one
pass per (model, r, q - r), held in a prefix cache, answers every n up to
its length. The increments are summed by compensated prefix sums, since
a plain running sum of thousands of like-sized terms drifts. Two oracles in
tests/oracles.py check it: an O(n^4) brute force (n <= 12) and the O(n^3)
dense matmul. Bad arguments raise ValueError before any pass runs, and a
pass that raises caches nothing, so every call that needs it raises alike.

The normalizer E[V_k^2] = q! sum_{|r|<k} (k - |r|) rho(r)^q has one
evaluator, a stream of chunks that the prefix-stable table v2_prefix and
the single read hermite_sum_variance both consume: D_m = 1 + 2 sum_{0<r<m}
rho(r)^q, then E[V_k^2] = q! sum_{m<=k} D_m. Both sums, and the bordering
increments, go through one vectorized compensated prefix sum (np.cumsum
plus the cumsum of each step's exact TwoSum error; Ogita, Rump and Oishi
2005), which is bit-equal to a Neumaier running sum. Every entry tested
against a once-rounded math.fsum of its terms (every k <= 4096 and sampled
k <= 2^20, fgn H in 0.3..0.9 and q up to 9, iid, an MA table) is within
1e-14 relative; 2.2e-16 was the largest error seen. rho^q is built in one
place, _power_chunks, by a fixed square-and-multiply chain rather than pow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  (loaded at import, not on the first call)

from .covariance import CovarianceModel, rho_many
from .memo import cache, prefix_cache

__all__ = [
    "ContractionResult",
    "hermite_sum_variance",
    "v2_prefix",
    "contraction_norm_sq",
    "pair_lag_sum",
]

# A bordering block has at most _PASS_BLOCK_ROWS rows and about
# _PASS_BLOCK_ELEMS entries (512 KiB), so its arrays stay in cache.
_PASS_BLOCK_ROWS = 64
_PASS_BLOCK_ELEMS = 1 << 16
_POWER_CHUNK = 1 << 16


def hermite_sum_variance(model: CovarianceModel, q: int, n: int) -> float:
    """E[V_n^2] = q! sum_{|r|<n} (n - |r|) rho(r)^q: entry n of the v2_prefix
    table, read from the end of its chunk stream, so a single read at a large
    n (up to 2^24 in sigma_limits) holds O(_POWER_CHUNK) memory."""
    for chunk in _v2_chunks(model, q, n):
        pass
    return float(chunk[-1])


@prefix_cache
def v2_prefix(model: CovarianceModel, q: int, n: int) -> np.ndarray:
    """E[V_k^2] for k = 1..n in one O(n) pass, read-only, since every
    replicate shares the same normalizers. Entry k does not depend on n, so
    one table per (model, q) answers every n up to its length."""
    return np.concatenate([*_v2_chunks(model, q, n)])


def _v2_chunks(model: CovarianceModel, q: int, n: int):
    """E[V_k^2] for k = 1..n, _POWER_CHUNK entries at a time: the one
    evaluator, read whole by the tables and at its end by a single read."""
    if q < 1 or n < 1:
        raise ValueError("q and n must be >= 1")
    return (math.factorial(q) * w for w in _lag_weighted_chunks(_power_chunks(model, q, n)))


def _lag_weighted_chunks(chunks):
    """W(k) = sum_{|r|<k} (k - |r|) p(|r|) for k = 1..n, chunk by chunk, from
    the chunks of p(0..n-1), which it overwrites: the prefix sums of D_m =
    p(0) + 2 sum_{0<r<m} p(r), both compensated and carried across chunks."""
    d = w = (0.0, 0.0)
    for i, p in enumerate(chunks):
        p[int(i == 0):] *= 2.0  # lag 0 enters D_m once, every other lag twice
        D, d = _prefix_sums(p, d)
        W, w = _prefix_sums(D, w)
        yield W


def _prefix_sums(x: np.ndarray, carry=(0.0, 0.0)) -> tuple[np.ndarray, tuple]:
    """Compensated prefix sums of x (Ogita, Rump and Oishi's Sum2): np.cumsum,
    whose steps are the sequential roundings s_i = fl(s_{i-1} + x_i), plus the
    cumsum of each step's exact TwoSum error, both continued from carry (the
    two running sums after the entries before x), and the carry after x; so
    chunks give the bits of one call on the whole. Bit-equal to a Neumaier
    running sum, and entry i depends on x[:i+1] alone. A plain cumsum of 2^14
    like-sized terms drifts by about 3e-13 relative; this stays near one
    rounding."""
    s = np.cumsum(np.concatenate(([carry[0]], x)))
    prev, s = s[:-1], s[1:]
    part = s - prev  # the part of x that s took; the TwoSum error follows
    err = np.concatenate(([carry[1]], prev - (s - part)))
    err[1:] += np.subtract(x, part, out=part)
    np.cumsum(err, out=err)
    return s + err[1:], (s[-1], err[-1])


@dataclass(frozen=True)
class ContractionResult:
    value: float              # ||f_n (x)_r f_n||^2
    raw_sum: float            # the quartic lag sum S


def _powers(model, q: int, n: int) -> np.ndarray:
    return np.concatenate([*_power_chunks(model, q, n)])


def _power_chunks(model, q: int, n: int):
    """rho(m)^q for m = 0..n-1, _POWER_CHUNK lags at a time, which keeps the
    temporaries of rho_many small, by square and multiply over the bits of q,
    low to high: a fixed chain of products for each q, not pow, which costs
    about 9 ms per order at n = 65,536 against well under 1 ms. Every step is
    elementwise, so the bits do not depend on the chunking."""
    for lo in range(0, n, _POWER_CHUNK):
        base = rho_many(model, np.arange(lo, min(lo + _POWER_CHUNK, n)))
        part, bits = None, q
        while True:
            if bits & 1:
                part = base if part is None else part * base
            bits >>= 1
            if not bits:
                break
            base = base * base
        yield part


@cache
def _lag_power_table(model: CovarianceModel, q: int, size: int) -> np.ndarray:
    """rho(m)^q for m = 0..size-1, shared by every pair_lag_sum whose lags
    fit; sizes are powers of two so the criteria pair grids need few."""
    return _powers(model, q, size)


def _toeplitz_spectrum(g: np.ndarray, n: int) -> np.ndarray:
    # Size-2n circulant embedding of the symmetric Toeplitz with first col g.
    col = np.zeros(2 * n)
    col[:n] = g
    col[n + 1:] = g[1:][::-1]
    return np.fft.rfft(col)


def _toeplitz_apply(spec: np.ndarray, X: np.ndarray, n: int) -> np.ndarray:
    Xp = np.zeros((2 * n, X.shape[1]))
    Xp[:n] = X
    return np.fft.irfft(np.fft.rfft(Xp, axis=0) * spec[:, None], n=2 * n, axis=0)[:n]


def _toeplitz_columns(g: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    full = np.concatenate([g[::-1], g[1:]])
    idx = np.arange(n)[:, None] - cols[None, :] + (n - 1)
    return full[idx]


def _pass_blocks(n: int) -> list[tuple[int, int]]:
    """The steps 1..n-1 of a bordering pass as row blocks [k0, k1). A block's
    size depends on k0 alone, so a pass to n walks the first blocks of a
    pass to any N > n, and the last block may run past n."""
    blocks, k0 = [], 1
    while k0 < n:
        k1 = k0 + min(_PASS_BLOCK_ROWS, max(1, _PASS_BLOCK_ELEMS // k0))
        blocks.append((k0, k1))
        k0 = k1
    return blocks


def _pass_table_size(n: int) -> int:
    """Lags 0..size-1 that a pass to n reads."""
    blocks = _pass_blocks(n)
    return (blocks[-1][1] if blocks else 1) + 1


def _windows(x: np.ndarray, start: int, rows: int, width: int, step: int) -> np.ndarray:
    """rows x width view of the contiguous array x; row i is the window of
    x starting at start + i * step."""
    return np.ndarray((rows, width), x.dtype, x, start * x.itemsize,
                      (step * x.itemsize, x.itemsize))


@cache
def _strictly_lower(rows: int) -> np.ndarray:
    return np.tri(rows, rows, -1)


def _bordering_pass(p: np.ndarray, q: np.ndarray | None, n: int) -> np.ndarray:
    """S(k) = tr((P_k Q_k)^2) for k = 1..n, where P_k and Q_k are the
    leading k x k blocks of Toeplitz(p) and Toeplitz(q); q None means q = p.
    p and q hold lags 0.._pass_table_size(n) - 1.

    Row k - k0 of a block holds the reversed u of step k: the row carried
    from the block before plus the running sum of p(|m-1-j|) q(m) over the
    block's m <= k, zeroed at j >= k (w likewise, with p and q swapped). The
    carried row also needs its entries j in [k0, k1), which no earlier block
    reached; they are sum_{m<k0} p(j+1-m) q(m).
    """
    size = p.size
    sides = [(p, p)] if q is None else [(p, q), (q, p)]
    q = p if q is None else q
    blocks = _pass_blocks(n)
    room = max(((k1 - k0 + 1) * k1 for k0, k1 in blocks), default=0)
    state = [
        (f, g, np.concatenate([f[:0:-1], f]), g[::-1].copy(), g[0] * f[1:],
         np.empty(room), np.empty(room), np.zeros(size))
        for f, g in sides
    ]
    dots = np.zeros((2, size))  # per step: u.w and (u + q(0) b).(w + p(0) c)
    for k0, k1 in blocks:
        rows = k1 - k0
        lower = _strictly_lower(rows)
        us, xs = [], []
        for f, g, full, g_rev, border, ubuf, xbuf, carry in state:
            U = ubuf[: (rows + 1) * k1].reshape(rows + 1, k1)
            U[0, :k0] = carry[:k0]
            np.einsum("ij,j->i", _windows(f, 2, rows, k0 - 1, 1),
                      g_rev[size - k0: size - 1], out=U[0, k0:])
            # full[size - 1 + d] = f(|d|), so row k starts at size - k.
            np.multiply(_windows(full, size - k0, rows, k1, -1), g[k0:k1, None], out=U[1:])
            for i in range(rows):
                np.add(U[i], U[i + 1], out=U[i + 1])
            carry[:k1] = U[rows]
            U = U[1:]
            U[:, k0:] *= lower
            X = np.add(U, border[:k1], out=xbuf[: rows * k1].reshape(rows, k1))
            X[:, k0:] *= lower
            us.append(U)
            xs.append(X)
        np.einsum("ij,ij->i", us[0], us[-1], out=dots[0, k0:k1])
        np.einsum("ij,ij->i", xs[0], xs[-1], out=dots[1, k0:k1])
    cb = np.zeros(n)
    np.cumsum(p[1:n] * q[1:n], out=cb[1:])
    inc = 2.0 * dots[0, :n] + cb * cb + 2.0 * dots[1, :n] + (cb + p[0] * q[0]) ** 2
    return _prefix_sums(inc)[0]


@prefix_cache
def _lag_sum_prefix(model: CovarianceModel, a: int, b: int, n: int) -> np.ndarray:
    """S(1..n) for P = Toeplitz(rho^a), Q = Toeplitz(rho^b), a <= b, read-only.

    S is symmetric in (a, b), so contraction orders r and q - r, the criteria
    fits, the boundedness scans and the constant-f'' Malliavin trace all read
    one pass per (model, a, b). The longest pass run so far is kept, and a
    new one runs only when it does not reach n; callers that need several n
    ask for the largest first. A pass that raises leaves the cache as it was.
    """
    size = _pass_table_size(n)
    pa = _powers(model, a, size)
    return _bordering_pass(pa, None if a == b else _powers(model, b, size), n)


def contraction_norm_sq(model: CovarianceModel, q: int, r: int, n: int) -> ContractionResult:
    """||f_n (x)_r f_n||^2, read from the bordering pass (exact, O(n^2))."""
    if not 1 <= r <= q - 1:
        raise ValueError(f"r must be in 1..q-1, got r={r}, q={q}")
    if n < 1:
        raise ValueError("n must be >= 1")
    den = hermite_sum_variance(model, q, n) ** 2
    S = float(_lag_sum_prefix(model, min(r, q - r), max(r, q - r), n)[n - 1])
    return ContractionResult(S / den, S)


def pair_lag_sum(model: CovarianceModel, orders, k: int, l: int) -> tuple[float, ...]:
    """sum_{i<=k, j<=l} rho(i-j)^q for each q of orders, via lag
    multiplicities, O(k+l) per order. The lags and their counts are built
    once for all orders; each order has its own gather and sum, so its float
    does not depend on which other orders are asked with it."""
    k, l = int(k), int(l)
    orders = tuple(int(q) for q in orders)
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    if not orders or min(orders) < 1:
        raise ValueError("orders must be >= 1")
    lags = np.arange(-(l - 1), k)
    counts = np.minimum(k, l + lags) - np.maximum(1, 1 + lags) + 1
    np.abs(lags, out=lags)
    size = 1 << (max(k, l) - 1).bit_length()
    return tuple(
        float(np.sum(counts * _lag_power_table(model, q, size)[lags])) for q in orders
    )
