"""Exact sampling of stationary Gaussian sequences and fBm on dyadic grids.

Sampling is exact in distribution: stationary paths come from circulant
embedding of the covariance (eigenvalues by FFT, size M = 2(n-1)), with a
dense Cholesky fallback for short paths or failed embeddings. A path is the
real inverse FFT (`irfft`) of the half spectrum sqrt(lam_j) xi_j, j = 0..M/2,
so only M/2 + 1 complex coefficients are built per path. All randomness is
derived from a counter-based generator keyed by (master_seed, replicate_id),
and uniform-to-normal conversion is pinned to an explicit Marsaglia polar
transform built on the raw 64-bit stream, so identical seed tuples give
bit-identical paths on any platform and under any call order.

Replicates are sampled in blocks: `sample_ensemble` draws block_rows(n)
paths at a time as the rows of one C-contiguous (B, n) array, with one
row-wise polar transform and one 2-D `irfft` per block, so the per-call
overhead of NumPy is paid once per block instead of once per path. Every
row is bit-identical to `sample_stationary` of its replicate id, which is
the one-row case: each row draws its own Philox words under the pinned
block schedule, and the elementwise steps and the row transforms round the
same in a row of a block as in a single path (tests pin these NumPy facts).
A row whose first polar block falls short continues from its own stream.
The Cholesky route stays one matrix-vector product per row, because a
block matrix product would sum in another order and round differently.
A circulant block of more than one row works in a per-process workspace
that the next block of the same shape reuses, so its arrays are not
page-faulted in again for every block; the operations are the same, and so
are the bits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import numpy.fft  # noqa: F401  (loaded at import, not on the first path)
import numpy.random  # noqa: F401  (loaded at import, not on the first path)

from .covariance import CovarianceModel, rho_many, symmetric_toeplitz
from .memo import CACHE_BYTES, byte_bounded_cache

__all__ = [
    "EmbeddingError",
    "NormalStream",
    "GaussianPath",
    "PathEnsemble",
    "FbmGrid",
    "sample_stationary",
    "sample_ensemble",
    "sample_fbm_grid",
    "block_rows",
    "MAX_N",
]

# Minimum pairs of uniforms consumed per polar rejection block. The block
# schedule is a deterministic function of the request sizes, so it is part
# of the reproducibility contract; do not change without versioning.
_POLAR_MIN_PAIRS = 256
_CHOLESKY_MAX_N = 2048
_EIGEN_CLAMP = -1e-10
# Points per replicate block: B = max(1, 2^16 // M) rows for the embedding
# size M, with M at least one minimal polar block, so a block's working
# arrays stay near 2^16 elements however short the paths are.
_BLOCK_POINTS = 1 << 16
# Largest path or dyadic grid a sampler accepts.
MAX_N = 1 << 24


class EmbeddingError(RuntimeError):
    """The covariance admits no valid sampler (embedding and fallback failed)."""


class NormalStream:
    """Deterministic standard-normal stream for one (master_seed, replicate_id).

    Uniforms are built from the raw Philox 64-bit output as
    ((word >> 11) + 0.5) * 2^-53, strictly inside (0, 1), and turned into
    normals by Marsaglia polar rejection in blocks sized by the remaining
    request; leftovers are buffered, never discarded.
    """

    def __init__(self, master_seed: int, replicate_id: int):
        self._bg = np.random.Philox(
            np.random.SeedSequence([int(master_seed), int(replicate_id)])
        )
        self._buf: list[np.ndarray] = []
        self._buffered = 0

    def _polar_block(self, pairs: int) -> np.ndarray:
        return _polar_rows(self._bg.random_raw(2 * pairs)[None, :])[0]

    def normals(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be >= 0")
        if n == 0:
            return np.empty(0)
        while self._buffered < n:
            block = self._polar_block(_polar_pairs(n - self._buffered))
            self._buf.append(block)
            self._buffered += block.size
        flat = np.concatenate(self._buf) if len(self._buf) > 1 else self._buf[0]
        out, rest = flat[:n], flat[n:]
        self._buf = [rest]
        self._buffered = rest.size
        return out.copy()


def _polar_pairs(shortfall: int) -> int:
    # Acceptance rate is pi/4, i.e. ~1.57 normals per pair.
    return max(_POLAR_MIN_PAIRS, (7 * shortfall) // 10 + 16)


class _Workspace:
    """The arrays one process reuses across its replicate blocks of one
    shape (rows, M): the raw Philox words and the polar temporaries, the
    draws, the half spectrum and the irfft output. Blocks that allocate
    these afresh page-fault them in again each time, since glibc hands
    large freed arrays back to the kernel."""

    def __init__(self, rows: int, M: int):
        pairs = _polar_pairs(M)
        self.shape = (rows, M)
        self.raw = np.empty((rows, 2 * pairs), dtype=np.uint64)
        self.sq = np.empty((rows, pairs))
        self.scratch = np.empty((rows, pairs))
        self.keep = np.empty((rows, pairs), dtype=bool)
        self.inside = np.empty((rows, pairs), dtype=bool)
        self.accepted = np.empty(rows * pairs, dtype=complex)
        self.draws = np.empty((rows, M))
        self.xi = np.empty((rows, M // 2 + 1), dtype=complex)
        self.x = np.empty((rows, M))


_WORKSPACE: _Workspace | None = None


def _workspace(rows: int, M: int) -> _Workspace | None:
    """The process's workspace for blocks of rows paths at embedding size M:
    the one the last block used if it has this shape, else a new one that
    replaces it. A one-row block (one path of sample_stationary, and every
    path longer than 2^14 points) gets none and keeps nothing, so a process
    that samples long paths holds no more memory between them than before."""
    global _WORKSPACE
    if rows == 1:
        return None
    if _WORKSPACE is None or _WORKSPACE.shape != (rows, M):
        _WORKSPACE = _Workspace(rows, M)
    return _WORKSPACE


def _flat(buf: np.ndarray | None, size: int) -> np.ndarray | None:
    """The first size entries of a workspace array, or None (allocate)."""
    return None if buf is None else buf.reshape(-1)[:size]


def _polar_rows(raw: np.ndarray, ws: _Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Marsaglia polar transform of each row of raw Philox words, shape
    (B, 2 * pairs), worked in place through a float64 view of raw. Returns
    the accepted normals of all rows, row after row, and each row's count of
    them; with a workspace every temporary and the returned normals live in
    its arrays, which the next block overwrites.

    A uniform is ((word >> 11) + 0.5) * 2^-53 and v = 2u - 1. The steps run
    in that order, except that the scalings by 2^-53 and by 2 are one
    multiplication by 2^-52, which is exact; so every value rounds as in the
    formula, whatever the number of rows. The accepted pairs are compressed
    once and s = v1^2 + v2^2 is formed again from them, the same bits."""
    sq, scratch, keep, inside, accepted = (
        (None,) * 5 if ws is None else (ws.sq, ws.scratch, ws.keep, ws.inside, ws.accepted))
    np.right_shift(raw, np.uint64(11), out=raw)
    v = raw.view(np.float64)
    np.add(raw, 0.5, out=v)  # exact: the shifted words are below 2^53
    v *= 2.0**-52
    v -= 1.0
    pair = v.view(complex)  # (v1, v2) of each pair as one element
    s = np.multiply(pair.real, pair.real, out=sq)
    s += np.multiply(pair.imag, pair.imag, out=scratch)
    keep = np.greater(s, 0.0, out=keep)
    keep &= np.less(s, 1.0, out=inside)
    counts = np.count_nonzero(keep, axis=1)
    total = int(counts.sum())
    acc = np.compress(keep.reshape(-1), pair.reshape(-1), out=_flat(accepted, total))
    s = np.multiply(acc.real, acc.real, out=_flat(scratch, total))
    s += np.multiply(acc.imag, acc.imag, out=_flat(sq, total))
    f = np.log(s, out=_flat(sq, total))
    f *= -2.0
    f /= s
    np.sqrt(f, out=f)
    out = acc.view(np.float64)
    out.reshape(-1, 2)[...] *= f[:, None]
    return out, 2 * counts


def _block_normals(streams: list[NormalStream], count: int,
                   ws: _Workspace | None = None) -> np.ndarray:
    """(len(streams), count) array whose row i is streams[i].normals(count),
    for fresh streams, in the workspace's draws if one is given. The rows
    share one polar transform of their first blocks; a row that falls short
    continues from its own stream."""
    out = np.empty((len(streams), count)) if ws is None else ws.draws
    words = 2 * _polar_pairs(count)
    raw = [stream._bg.random_raw(words) for stream in streams]
    raw = raw[0][None] if len(raw) == 1 else np.stack(raw, out=None if ws is None else ws.raw)
    flat, accepted = _polar_rows(raw, ws)
    start = 0
    for row, stream, got in zip(out, streams, accepted.tolist()):
        block = flat[start:start + got]
        start += got
        if got >= count:
            row[:] = block[:count]
        else:
            stream._buf, stream._buffered = [block.copy()], got
            row[:] = stream.normals(count)
    return out


@dataclass(frozen=True, eq=False)
class GaussianPath:
    model: CovarianceModel
    n: int
    values: np.ndarray
    master_seed: int
    replicate_id: int


@dataclass(frozen=True, eq=False)
class PathEnsemble(Sequence):
    """Paths of replicate ids replicate_id, replicate_id + 1, ... as the rows
    of one C-contiguous array; indexing gives the GaussianPath of a row."""

    model: CovarianceModel
    n: int
    values: np.ndarray
    master_seed: int
    replicate_id: int

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        j = range(len(self))[i]
        return GaussianPath(self.model, self.n, self.values[j], self.master_seed,
                            self.replicate_id + j)


@dataclass(frozen=True, eq=False)
class FbmGrid:
    """B^H on {k/N, k=0..N}, scaled so B^H_1 has unit variance."""

    H: float
    N: int
    values: np.ndarray
    master_seed: int
    replicate_id: int

    def increments(self, n: int) -> np.ndarray:
        """B^H_{(k+1)/n} - B^H_{k/n} for k = 0..n-1; n must divide N."""
        if n < 1 or self.N % n != 0:
            raise ValueError(f"level {n} does not divide grid size {self.N}")
        return np.diff(self.values[:: self.N // n])


def _embedding_eigenvalues(model: CovarianceModel, n: int) -> np.ndarray:
    # First row of the size-2(n-1) circulant:
    # rho(0), ..., rho(n-1), rho(n-2), ..., rho(1).
    head = rho_many(model, np.arange(n))
    c = np.concatenate([head, head[-2:0:-1]])
    lam = np.fft.fft(c).real
    bad = lam.min()
    if bad < _EIGEN_CLAMP:
        raise EmbeddingError(
            f"circulant embedding not nonnegative: min eigenvalue {bad:.3e}"
        )
    lam[lam < 0.0] = 0.0
    return lam


@byte_bounded_cache(CACHE_BYTES)
def _spectrum_root(model: CovarianceModel, n: int) -> np.ndarray:
    """sqrt(lam_j) for j = 0..M/2, the half of the embedding spectrum that
    the synthesis reads; M = 2(n - 1)."""
    return np.sqrt(_embedding_eigenvalues(model, n)[:n])


def _synthesize_circulant(root: np.ndarray, draws: np.ndarray, n: int, out=None,
                          ws: _Workspace | None = None) -> np.ndarray:
    # Half of the Hermitian spectral noise of each row: d[0] -> xi_0,
    # d[1] -> xi_{M/2}, then pairs (d[2j], d[2j+1]) -> (Re, Im)/sqrt(2) of
    # xi_j, j = 1..M/2-1, one complex copy of the contiguous pairs. irfft
    # supplies the conjugate half xi_{M-j} = conj(xi_j) itself. draws is
    # (M,) for one path or (B, M) for a block, one path per row; root is
    # _spectrum_root, and a workspace holds the spectrum and the irfft output.
    half = root.size - 1
    M = 2 * half
    xi = np.empty(draws.shape[:-1] + (half + 1,), dtype=complex) if ws is None else ws.xi
    xi[..., 0] = draws[..., 0]
    xi[..., half] = draws[..., 1]
    xi[..., 1:half] = draws[..., 2:].view(complex)
    xi[..., 1:half] /= math.sqrt(2.0)
    xi *= root
    x = np.fft.irfft(xi, n=M, out=None if ws is None else ws.x)
    return np.multiply(x[..., :n], math.sqrt(M), out=out)


@byte_bounded_cache(CACHE_BYTES)
def _cholesky_factor(model: CovarianceModel, n: int) -> np.ndarray:
    sigma = symmetric_toeplitz(rho_many(model, np.arange(n)))
    for jitter in (0.0, 1e-12):
        try:
            return np.linalg.cholesky(sigma + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            continue
    raise EmbeddingError(
        f"covariance is not positive definite for n={n} (jitter 1e-12 failed)"
    )


def block_rows(n: int) -> int:
    """Paths per replicate block at length n: 2^16 // M rows, at least one,
    for the embedding size M = 2(n-1), or one minimal polar block of raw
    words when that is longer. 32 at n = 1024, 1 at n = 2^16."""
    return max(1, _BLOCK_POINTS // max(2 * (n - 1), 2 * _POLAR_MIN_PAIRS))


def _route(model: CovarianceModel, n: int, method: str | None):
    """("single" | "cholesky" | "circulant", the Cholesky factor or the spectrum root)."""
    if n == 1:
        return "single", None
    if method == "cholesky":
        return "cholesky", _cholesky_factor(model, n)
    try:
        return "circulant", _spectrum_root(model, n)
    except EmbeddingError:
        if method == "circulant" or n > _CHOLESKY_MAX_N:
            raise
        return "cholesky", _cholesky_factor(model, n)


def sample_stationary(
    model: CovarianceModel,
    n: int,
    master_seed: int,
    replicate_id: int,
    method: str | None = None,
) -> GaussianPath:
    """Exact N(0, Toeplitz(rho)) path of length n, deterministic per seed tuple.

    method: None picks circulant embedding with Cholesky fallback (n <= 2048);
    "circulant" or "cholesky" force the route.
    """
    return sample_ensemble(model, n, master_seed, 1, replicate_id, method)[0]


def sample_ensemble(
    model: CovarianceModel,
    n: int,
    master_seed: int,
    replicates: int,
    first_replicate: int = 0,
    method: str | None = None,
) -> PathEnsemble:
    """Paths for replicate_id = first..first+replicates-1, in order, as the
    rows of one (replicates, n) array, sampled block_rows(n) rows at a time.
    Row i is bit for bit sample_stationary(..., first_replicate + i, ...)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if replicates < 0:
        raise ValueError("replicates must be >= 0")
    route, factor = _route(model, n, method)
    step = block_rows(n)
    if replicates <= step:  # one block: its own array, nothing to copy into
        ids = range(first_replicate, first_replicate + replicates)
        values = _sample_block(route, factor, master_seed, ids, n)
    else:
        values = np.empty((replicates, n))
        for lo in range(0, replicates, step):
            ids = range(first_replicate + lo, first_replicate + min(lo + step, replicates))
            _sample_block(route, factor, master_seed, ids, n, values[lo:lo + step])
    return PathEnsemble(model, n, values, int(master_seed), int(first_replicate))


def _sample_block(route, factor, master_seed, ids, n, out=None):
    """The (len(ids), n) paths of replicate ids, into out if given."""
    if not ids:
        return np.empty((0, n))
    streams = [NormalStream(master_seed, r) for r in ids]
    if route == "circulant":
        M = 2 * (factor.size - 1)
        ws = _workspace(len(ids), M)
        return _synthesize_circulant(factor, _block_normals(streams, M, ws), n, out, ws)
    draws = _block_normals(streams, n)
    if route == "cholesky":
        draws = np.array([factor @ z for z in draws])
    if out is None:
        return draws
    out[:] = draws
    return out


def sample_fbm_grid(
    H: float,
    N: int,
    master_seed: int,
    replicate_id: int,
) -> FbmGrid:
    """fBm on the dyadic grid {k/N}: exact fGn increments scaled by N^{-H}."""
    if N < 1 or (N & (N - 1)) != 0:
        raise ValueError(f"N must be a power of two, got {N}")
    if N > MAX_N:
        raise ValueError(f"grid size capped at {MAX_N}")
    from .covariance import fgn

    path = sample_stationary(fgn(H), N, master_seed, replicate_id)
    values = np.empty(N + 1)
    values[0] = 0.0
    np.cumsum(path.values, out=values[1:])
    values *= float(N) ** (-H)
    return FbmGrid(float(H), N, values, int(master_seed), int(replicate_id))
